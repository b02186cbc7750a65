//! The prepare/apply split: snapshot everything about a crosswalk that
//! does not depend on the objective's values, then answer many queries
//! against the snapshot.
//!
//! A GeoAlign run factors cleanly into an objective-independent half and a
//! per-query half:
//!
//! * **prepare** — the references' disaggregation matrices and their row
//!   sums (the denominators of Eq. 14), the stacked source-level design
//!   matrix of Eq. 15, and its Gram matrix `AᵀA` (the normal-equations
//!   state both simplex solvers run on);
//! * **apply** — per objective vector `b`, only the right-hand-side
//!   products `Aᵀb` and `bᵀb`, the simplex solve, and the sparse mixture.
//!
//! Because [`GeoAlign::estimate`] itself routes through the same
//! Gram-state solver ([`geoalign_linalg::simplex_ls::solve_gram`]) and the
//! same mixture kernel, `prepare(refs).apply(v)` is numerically identical
//! to `estimate(v, refs)` — not merely close.

use crate::align::{
    adapted_weight, disaggregate_with, row_sum_max, GeoAlign, GeoAlignConfig, GeoAlignResult,
    PhaseTimings,
};
use crate::error::CoreError;
use crate::reference::{validate_references, ReferenceData};
use geoalign_exec::Executor;
use geoalign_linalg::dense::dot;
use geoalign_linalg::simplex_ls::{self, GramSystem};
use geoalign_linalg::{CsrMatrix, DMatrix, SolverScratch};
use geoalign_obs::span;
use geoalign_partition::AggregateVector;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Attributes per fused apply: a batch is cut into groups of up to this
/// many consecutive objectives, and each group's mixture reads every
/// transpose entry once for all of its attributes (DESIGN.md §15).
const GROUP: usize = 4;

/// Work (transpose entries × attributes) from which a group's mixture
/// walk is split by target chunk across the executor. Every paper-scale
/// request (241,575 entries) is above it; every cluster-small request
/// (one 400×40 reference) is below it.
const SPLIT_MIN_WORK: usize = 1 << 16;

/// Reusable working memory for [`PreparedCrosswalk::apply_values`]: the
/// normalized objective, right-hand-side products, the scale-adapted
/// weights and the per-row factor table, plus the solver arena. One arena per
/// caller, or per worker of a batch of several groups; buffers carry
/// capacity between queries, never values. See DESIGN.md §15 for the
/// ownership and bit-identity rules.
#[derive(Debug, Default)]
pub struct ApplyScratch {
    /// Normalized (or copied) objective vector `b`.
    b: Vec<f64>,
    /// Right-hand side `Aᵀb`.
    atb: Vec<f64>,
    /// Scale-adapted weights `β'`, reference-major: slot `k·N + a` holds
    /// reference `k`'s weight for attribute `a` of the group.
    adapted: Vec<f64>,
    /// Per-row factors, row-major by attribute: slot `(i·N + a)·2` holds
    /// row `i`'s weighted-mixture factor for attribute `a`, and the next
    /// slot its uniform-fallback factor.
    factors: Vec<f64>,
    /// Simplex-solver arena threaded into `solve_gram_scratch`.
    solver: SolverScratch,
}

impl ApplyScratch {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The value-independent snapshot of a crosswalk: everything
/// [`GeoAlign::estimate`] computes that depends only on the references,
/// ready to be applied to any number of objective vectors.
///
/// A snapshot shares its references' matrices (a [`ReferenceData`] clone
/// is a pointer copy) and owns two things per reference the references do
/// not have: the disaggregation matrix transposed, target-major, which is
/// what the serving mixture walks, and the largest of its row sums, which
/// scales the reference's weight. Snapshots derived from one another by
/// [`PreparedCrosswalk::with_reference_updated`] share the transposes of
/// every reference that did not change as well.
#[derive(Debug, Clone)]
pub struct PreparedCrosswalk {
    // Fields are crate-visible so `persist` can take a snapshot apart and
    // reassemble a byte-identical one from disk.
    pub(crate) config: GeoAlignConfig,
    pub(crate) refs: Vec<ReferenceData>,
    /// `DM_kᵀ` per reference: row `j` lists the source rows of target
    /// `j`, ascending. Derived from `refs`, never persisted.
    pub(crate) transposes: Vec<Arc<CsrMatrix>>,
    /// Stacked source-level reference matrix of Eq. 15 (normalized
    /// per-column when the config says so).
    pub(crate) design: DMatrix,
    /// Normal-equations state `AᵀA` of the design matrix.
    pub(crate) gram: GramSystem,
    /// Per-reference disaggregation-matrix row sums (Eq. 14 denominators).
    pub(crate) row_sums_per_ref: Vec<Vec<f64>>,
    /// The largest of each reference's row sums, the scale `β'` divides
    /// by. Derived from `row_sums_per_ref`, never persisted.
    pub(crate) row_sum_max: Vec<f64>,
    pub(crate) n_source: usize,
    pub(crate) n_target: usize,
    pub(crate) prepare_time: Duration,
}

/// Lightweight output of [`PreparedCrosswalk::apply_values`]: the estimate
/// without the materialized disaggregation matrix.
#[derive(Debug, Clone)]
pub struct CrosswalkEstimate {
    /// Estimated aggregates in target units.
    pub estimate: Vec<f64>,
    /// Learned reference weights `β`.
    pub weights: Vec<f64>,
    /// Per-phase wall-clock timings of this apply.
    pub timings: PhaseTimings,
}

impl GeoAlign {
    /// Snapshots the objective-independent half of Algorithm 1 for the
    /// given references. The returned [`PreparedCrosswalk`] shares the
    /// references' matrices, adds the transpose of each, and can be
    /// applied to any number of objective vectors — including
    /// concurrently, since applying is `&self`.
    pub fn prepare(&self, refs: &[&ReferenceData]) -> Result<PreparedCrosswalk, CoreError> {
        let t0 = Instant::now();
        let _span = span!("prepare", refs = refs.len());
        let (n_source, n_target) = validate_references_nonempty(refs)?;
        let columns: Vec<Vec<f64>> = refs
            .iter()
            .map(|r| {
                if self.config().normalize {
                    r.source().normalized()
                } else {
                    r.source().values().to_vec()
                }
            })
            .collect();
        let design = DMatrix::from_columns(&columns)?;
        let gram = {
            let _span = span!("gram", refs = refs.len(), n_source = n_source);
            GramSystem::new(&design)?
        };
        let row_sums_per_ref: Vec<Vec<f64>> =
            refs.iter().map(|r| r.dm().matrix().row_sums()).collect();
        let row_sum_max = row_sums_per_ref.iter().map(|s| row_sum_max(s)).collect();
        geoalign_obs::cost::add_rows(n_source as u64);
        geoalign_obs::cost::add_cells(
            refs.iter()
                .map(|r| r.dm().matrix().nnz() as u64)
                .sum::<u64>()
                + (n_source * refs.len()) as u64,
        );
        let transposes = refs.iter().map(|r| transpose_of(r)).collect();
        let prepared = PreparedCrosswalk {
            config: *self.config(),
            refs: refs.iter().map(|&r| r.clone()).collect(),
            transposes,
            design,
            gram,
            row_sums_per_ref,
            row_sum_max,
            n_source,
            n_target,
            prepare_time: t0.elapsed(),
        };
        crate::obs::prepare_micros().record(prepared.prepare_time);
        Ok(prepared)
    }
}

/// The target-major copy of a reference's disaggregation matrix that the
/// serving mixture walks. `CsrMatrix::transpose` appends each target's
/// entries in ascending source order, the order the row-major walk
/// reaches them in, which is what keeps the mixture bit-identical.
pub(crate) fn transpose_of(r: &ReferenceData) -> Arc<CsrMatrix> {
    Arc::new(r.dm().matrix().transpose())
}

/// [`validate_references`] against the references' own source dimension
/// (prepare has no objective vector yet to validate against).
fn validate_references_nonempty(refs: &[&ReferenceData]) -> Result<(usize, usize), CoreError> {
    let Some(first) = refs.first() else {
        return Err(CoreError::NoReferences);
    };
    validate_references(first.n_source(), refs)
}

impl PreparedCrosswalk {
    /// Number of source units the snapshot expects.
    pub fn n_source(&self) -> usize {
        self.n_source
    }

    /// Number of target units estimates are produced over.
    pub fn n_target(&self) -> usize {
        self.n_target
    }

    /// The snapshotted references, in supply order.
    pub fn references(&self) -> &[ReferenceData] {
        &self.refs
    }

    /// The configuration the snapshot was prepared under.
    pub fn config(&self) -> &GeoAlignConfig {
        &self.config
    }

    /// Wall-clock cost of building this snapshot — the amortized half of
    /// the prepare/apply split.
    pub fn prepare_duration(&self) -> Duration {
        self.prepare_time
    }

    /// The incremental-maintenance delta path: rebuilds the snapshot after
    /// exactly one reference changed — or one was appended, at
    /// `index == references().len()` — re-deriving only that reference's
    /// design column, Gram row/column and disaggregation row sums instead
    /// of re-running the full `O(n²m)` prepare.
    ///
    /// The result is **bit-identical** to [`GeoAlign::prepare`] over the
    /// same final reference set: unchanged columns keep their exact bits,
    /// the touched Gram entries are the same independent dot products a
    /// from-scratch build evaluates, and the Frobenius norm is recomputed
    /// whole. This is what lets a streaming server fold `/ingest` batches
    /// in and still answer exactly like a cold batch run.
    ///
    /// Only the updated reference is transposed and scanned for its
    /// largest row sum; every other reference and transpose is shared
    /// with `self` (a pointer copy, not a copy of its matrix).
    ///
    /// Returns the new snapshot plus the number of *touched rows*: source
    /// units whose design-column value actually changed (all nonzero rows,
    /// for an append).
    pub fn with_reference_updated(
        &self,
        index: usize,
        reference: ReferenceData,
    ) -> Result<(PreparedCrosswalk, usize), CoreError> {
        let t0 = Instant::now();
        let _span = span!("incremental_prepare", index = index);
        if index > self.refs.len() {
            return Err(CoreError::UnknownReference {
                name: format!("reference #{index}"),
            });
        }
        if reference.n_source() != self.n_source {
            return Err(CoreError::SourceMismatch {
                objective: self.n_source,
                reference: reference.n_source(),
                name: reference.name().to_owned(),
            });
        }
        if reference.n_target() != self.n_target {
            return Err(CoreError::TargetMismatch {
                left: self.n_target,
                right: reference.n_target(),
                name: reference.name().to_owned(),
            });
        }
        let column = if self.config.normalize {
            reference.source().normalized()
        } else {
            reference.source().values().to_vec()
        };
        let touched = if index < self.refs.len() {
            let old = self.design.column(index);
            column
                .iter()
                .zip(old)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count()
        } else {
            column.iter().filter(|&&v| v != 0.0).count()
        };
        // Unchanged columns are copied bit-for-bit out of the existing
        // design; only the updated column is rebuilt from the reference.
        let mut columns: Vec<Vec<f64>> = (0..self.design.ncols())
            .map(|j| self.design.column(j).to_vec())
            .collect();
        if index < columns.len() {
            columns[index] = column;
        } else {
            columns.push(column);
        }
        let design = DMatrix::from_columns(&columns)?;
        let gram = self.gram.with_updated_column(&design, index)?;
        let row_sums = reference.dm().matrix().row_sums();
        let max = row_sum_max(&row_sums);
        let transpose = transpose_of(&reference);
        let mut refs = self.refs.clone();
        let mut transposes = self.transposes.clone();
        let mut row_sums_per_ref = self.row_sums_per_ref.clone();
        let mut row_sum_max = self.row_sum_max.clone();
        if index < refs.len() {
            refs[index] = reference;
            transposes[index] = transpose;
            row_sums_per_ref[index] = row_sums;
            row_sum_max[index] = max;
        } else {
            refs.push(reference);
            transposes.push(transpose);
            row_sums_per_ref.push(row_sums);
            row_sum_max.push(max);
        }
        crate::obs::incremental_rows().add(touched as u64);
        let prepared = PreparedCrosswalk {
            config: self.config,
            refs,
            transposes,
            design,
            gram,
            row_sums_per_ref,
            row_sum_max,
            n_source: self.n_source,
            n_target: self.n_target,
            prepare_time: t0.elapsed(),
        };
        crate::obs::incremental_prepare_micros().record(prepared.prepare_time);
        Ok((prepared, touched))
    }

    /// Runs the per-query half of Algorithm 1 against the snapshot.
    /// Numerically identical to [`GeoAlign::estimate`] with the same
    /// references: both run the simplex solver on the same Gram state and
    /// the same mixture kernel.
    pub fn apply(&self, objective_source: &AggregateVector) -> Result<GeoAlignResult, CoreError> {
        self.check_objective(objective_source)?;
        let _apply_span = span!("apply", refs = self.refs.len(), n_source = self.n_source);
        self.attribute_apply_cost();
        let t_apply = Instant::now();
        let mut timings = PhaseTimings::default();

        let t0 = Instant::now();
        let weights = {
            let _span = span!("weight_learning");
            self.learn_weights(objective_source)?
        };
        timings.weight_learning = t0.elapsed();

        let t1 = Instant::now();
        let dm_estimate = {
            let _span = span!("disaggregation");
            let mats: Vec<&CsrMatrix> = self.refs.iter().map(|r| r.dm().matrix()).collect();
            disaggregate_with(
                &mats,
                &self.row_sums_per_ref,
                objective_source.values(),
                &weights,
                self.n_source,
                self.n_target,
            )?
        };
        timings.disaggregation = t1.elapsed();

        let t2 = Instant::now();
        let estimate = {
            let _span = span!("reaggregation");
            dm_estimate.col_sums()
        };
        timings.reaggregation = t2.elapsed();

        crate::obs::apply_micros().record(t_apply.elapsed());
        Ok(GeoAlignResult {
            estimate,
            weights,
            dm_estimate,
            timings,
        })
    }

    /// The serving fast path: like [`PreparedCrosswalk::apply`] but never
    /// materializes the estimated disaggregation matrix. The estimate is
    /// summed directly as
    /// `est[j] = Σ_k Σ_i f_k(i) · DM_k[i, j]` with per-row factors
    /// `f_k(i) = β'_k · a_o[i] / den(i)` (and the uniform fallback factor
    /// on rows whose weighted denominator vanishes) — the distributive
    /// reordering of Eq. 14 + Eq. 17. Same arithmetic as `apply` up to
    /// floating-point summation order; agreement is covered by tests at
    /// 1e-9 relative.
    pub fn apply_values(
        &self,
        objective_source: &AggregateVector,
    ) -> Result<CrosswalkEstimate, CoreError> {
        self.apply_values_scratch(objective_source, &mut ApplyScratch::new())
    }

    /// [`PreparedCrosswalk::apply_values`] through a reusable
    /// [`ApplyScratch`]: identical arithmetic in the identical order —
    /// the result is bit-for-bit the same — but a repeated query only
    /// allocates its two outputs (the estimate and the weights). Runs on
    /// the calling thread alone.
    pub fn apply_values_scratch(
        &self,
        objective_source: &AggregateVector,
        scratch: &mut ApplyScratch,
    ) -> Result<CrosswalkEstimate, CoreError> {
        let [applied] = self.apply_group::<1>(
            std::slice::from_ref(objective_source),
            scratch,
            Executor::sequential(),
        )?;
        Ok(applied)
    }

    /// Applies one group of `N` objectives: allocates their estimates,
    /// runs [`PreparedCrosswalk::apply_values_into`], and records one
    /// `apply_micros` sample and one cost-scope charge per attribute.
    fn apply_group<const N: usize>(
        &self,
        objectives: &[AggregateVector],
        s: &mut ApplyScratch,
        exec: Executor,
    ) -> Result<[CrosswalkEstimate; N], CoreError> {
        let objectives: &[AggregateVector; N] = objectives
            .try_into()
            .expect("a group holds exactly N objectives");
        let _apply_span = span!(
            "apply",
            refs = self.refs.len(),
            n_source = self.n_source,
            attributes = N
        );
        // Output allocations: the estimates the caller keeps.
        let mut estimates: [Vec<f64>; N] = std::array::from_fn(|_| vec![0.0; self.n_target]);
        let learned = self.apply_values_into(
            objectives,
            estimates.each_mut().map(|e| &mut e[..]),
            s,
            exec,
        )?;
        let mut estimates = estimates.into_iter();
        Ok(learned.map(|(weights, timings)| {
            self.attribute_apply_cost();
            crate::obs::apply_micros().record(timings.weight_learning + timings.disaggregation);
            CrosswalkEstimate {
                estimate: estimates.next().expect("one estimate per attribute"),
                weights,
                timings,
            }
        }))
    }

    /// The allocation-free apply core for a group of `N` = 1..=4
    /// attributes: sums attribute `a`'s estimate into `estimates[a]`
    /// (length `n_target`, fully overwritten) through the scratch arena,
    /// and returns each attribute's weights (the solver wrapper's output
    /// allocation) and timings. Zero heap allocations here once the arena
    /// has grown to the problem size, unless the walk is split (enforced
    /// by check.sh's hot-loop gate — keep `.clone()`/`to_vec()`/`vec![`
    /// out).
    ///
    /// It learns each attribute's weights in input order, then writes
    /// every attribute's per-row factors in one pass
    /// ([`PreparedCrosswalk::write_factors`]), then one target-major walk
    /// ([`PreparedCrosswalk::walk_targets`]) reads each transpose entry
    /// once and adds it into one register per attribute. Attribute `a`'s
    /// factors and register get exactly the operations a one-attribute
    /// apply makes, in the same order, so every estimate keeps its bits
    /// (DESIGN.md §15). The first attribute whose weight learning fails
    /// decides the error.
    ///
    /// `weight_learning` is each attribute's own time; `disaggregation` is
    /// `1/N` of the group's factor pass and walk.
    fn apply_values_into<const N: usize>(
        &self,
        objectives: &[AggregateVector; N],
        estimates: [&mut [f64]; N],
        s: &mut ApplyScratch,
        exec: Executor,
    ) -> Result<[(Vec<f64>, PhaseTimings); N], CoreError> {
        let mut learned: [(Vec<f64>, PhaseTimings); N] =
            std::array::from_fn(|_| (Vec::new(), PhaseTimings::default()));
        for (objective, (weights, timings)) in objectives.iter().zip(&mut learned) {
            let t0 = Instant::now();
            *weights = {
                let _span = span!("weight_learning");
                self.learn_weights_scratch(objective, s)?
            };
            timings.weight_learning = t0.elapsed();
        }

        let t1 = Instant::now();
        {
            let _span = span!("disaggregation", attributes = N);
            self.write_factors(objectives, learned.each_ref().map(|(w, _)| &w[..]), s);
            self.walk::<N>(&s.adapted, &s.factors, estimates, exec)?;
        }
        let share = t1.elapsed() / N as u32;
        for (_, timings) in &mut learned {
            timings.disaggregation = share;
        }
        Ok(learned)
    }

    /// The group's factor pass. Attribute `a`'s scale-adapted weights
    /// `β'_k = β_k / row_sum_max[k]` go into slot `k·N + a` of the
    /// adapted table. Then, row by row, it sums the weighted denominators
    /// `Σ_k β'_k · rowsum_k[i]` of every attribute and the unweighted
    /// `Σ_k rowsum_k[i]` (each over `k` ascending from `+0.0`, as the
    /// one-attribute denominators are summed), and writes attribute `a`'s
    /// weighted-mixture and fallback factors into slots `(i·N + a)·2` and
    /// `+1` of the factor table; exactly one of the two is nonzero per
    /// live row.
    fn write_factors<const N: usize>(
        &self,
        objectives: &[AggregateVector; N],
        weights: [&[f64]; N],
        s: &mut ApplyScratch,
    ) {
        s.adapted.clear();
        s.adapted.resize(self.refs.len() * N, 0.0);
        let adapted = s.adapted.chunks_exact_mut(N).zip(&self.row_sum_max);
        for (k, (betas, &max)) in adapted.enumerate() {
            for (b, w) in betas.iter_mut().zip(weights) {
                *b = adapted_weight(w[k], max);
            }
        }
        s.factors.clear();
        s.factors.resize(self.n_source * N * 2, 0.0);
        let obj = objectives.each_ref().map(|o| o.values());
        for (i, row) in s.factors.chunks_exact_mut(2 * N).enumerate() {
            let mut weighted = [0.0f64; N];
            let mut unweighted = 0.0f64;
            for (sums, betas) in self.row_sums_per_ref.iter().zip(s.adapted.chunks_exact(N)) {
                let v = sums[i];
                for (d, &b) in weighted.iter_mut().zip(betas) {
                    *d += b * v;
                }
                unweighted += v;
            }
            for a in 0..N {
                let o = obj[a][i];
                let (w, f) = if weighted[a] > 0.0 {
                    (o / weighted[a], 0.0)
                } else if unweighted > 0.0 {
                    (0.0, o / unweighted)
                } else {
                    (0.0, 0.0)
                };
                row[2 * a] = w;
                row[2 * a + 1] = f;
            }
        }
    }

    /// The group's mixture over every target: split by
    /// [`Executor::chunk_ranges`] across `exec` when the walk is large
    /// (`Σ_k nnz(DM_k) · N ≥ SPLIT_MIN_WORK`) and `exec` has more than
    /// one thread, on the caller otherwise. A chunk writes only its own
    /// targets and the bounds depend only on `n_target` (DESIGN.md §9),
    /// so splitting changes no bit.
    fn walk<const N: usize>(
        &self,
        adapted: &[f64],
        factors: &[f64],
        estimates: [&mut [f64]; N],
        exec: Executor,
    ) -> Result<(), CoreError> {
        let entries: usize = self.transposes.iter().map(|t| t.nnz()).sum();
        if entries * N < SPLIT_MIN_WORK || exec.threads() == 1 {
            self.walk_targets::<N>(adapted, factors, 0..self.n_target, estimates);
            return Ok(());
        }
        // One cell per chunk: its targets and the N estimate slices it
        // alone writes.
        let mut rest = estimates;
        let cells: Vec<_> = Executor::chunk_ranges(self.n_target)
            .map(|targets| {
                let out: [&mut [f64]; N] = std::array::from_fn(|a| {
                    let (head, tail) = std::mem::take(&mut rest[a]).split_at_mut(targets.len());
                    rest[a] = tail;
                    head
                });
                Mutex::new((targets, out))
            })
            .collect();
        exec.for_each_indexed(cells.len(), |c| {
            let mut cell = cells[c]
                .lock()
                .expect("a walk chunk is locked by its task alone");
            let (targets, out) = &mut *cell;
            self.walk_targets::<N>(
                adapted,
                factors,
                targets.clone(),
                out.each_mut().map(|o| &mut **o),
            );
        })?;
        Ok(())
    }

    /// The target-major mixture over `targets`: for each target `j`, one
    /// register per attribute starts at `+0.0`; for each reference `k` in
    /// order and each `(i, v)` in row `j` of `DM_kᵀ`, attribute `a` adds
    /// `f · v` whenever `f = β'_k[a] · F[i][a].w + F[i][a].f` is nonzero;
    /// then `out[a][j - targets.start]` takes register `a`.
    fn walk_targets<const N: usize>(
        &self,
        adapted: &[f64],
        factors: &[f64],
        targets: Range<usize>,
        mut out: [&mut [f64]; N],
    ) {
        for (jj, j) in targets.enumerate() {
            let mut acc = [0.0f64; N];
            for (t, betas) in self.transposes.iter().zip(adapted.chunks_exact(N)) {
                let betas: &[f64; N] = betas.try_into().expect("N weights per reference");
                let (rows, vals) = t.row(j);
                for (&i, &v) in rows.iter().zip(vals) {
                    let row = &factors[i as usize * 2 * N..][..2 * N];
                    for a in 0..N {
                        let f = betas[a] * row[2 * a] + row[2 * a + 1];
                        if f != 0.0 {
                            acc[a] += f * v;
                        }
                    }
                }
            }
            for (o, &r) in out.iter_mut().zip(&acc) {
                o[jj] = r;
            }
        }
    }

    /// Applies the snapshot to many objective vectors on the
    /// process-global executor. See [`PreparedCrosswalk::apply_batch_with`].
    pub fn apply_batch(
        &self,
        objectives: &[AggregateVector],
    ) -> Result<Vec<CrosswalkEstimate>, CoreError> {
        self.apply_batch_with(objectives, Executor::global())
    }

    /// [`PreparedCrosswalk::apply_batch`] on an explicit executor. The
    /// batch is cut into groups of up to four consecutive vectors, each
    /// applied by one fused walk ([`PreparedCrosswalk::apply_values_into`]).
    /// A single group runs on the caller, and only its walk fans out on
    /// `exec`; several groups run one per `exec` task, with one
    /// [`ApplyScratch`] per worker, and their walks run inline. Nothing
    /// fans out per attribute. Results come back in input order, bit-equal
    /// to [`PreparedCrosswalk::apply_values`] on each vector, and the first
    /// failing vector (in input order) decides the error — exactly like a
    /// sequential loop.
    pub fn apply_batch_with(
        &self,
        objectives: &[AggregateVector],
        exec: Executor,
    ) -> Result<Vec<CrosswalkEstimate>, CoreError> {
        if objectives.len() <= GROUP {
            return self.apply_any_group(objectives, &mut ApplyScratch::new(), exec);
        }
        let groups: Vec<&[AggregateVector]> = objectives.chunks(GROUP).collect();
        let per_group = exec.run_tasks_with(groups.len(), ApplyScratch::new, |s, g| {
            self.apply_any_group(groups[g], s, exec)
        })?;
        let mut out = Vec::with_capacity(objectives.len());
        for group in per_group {
            out.extend(group?);
        }
        Ok(out)
    }

    /// [`PreparedCrosswalk::apply_group`] at the group's own size, 0..=4
    /// objectives (an empty group applies nothing).
    fn apply_any_group(
        &self,
        objectives: &[AggregateVector],
        s: &mut ApplyScratch,
        exec: Executor,
    ) -> Result<Vec<CrosswalkEstimate>, CoreError> {
        Ok(match objectives.len() {
            0 => Vec::new(),
            1 => self.apply_group::<1>(objectives, s, exec)?.into(),
            2 => self.apply_group::<2>(objectives, s, exec)?.into(),
            3 => self.apply_group::<3>(objectives, s, exec)?.into(),
            4 => self.apply_group::<4>(objectives, s, exec)?.into(),
            n => unreachable!("a group holds at most {GROUP} objectives, not {n}"),
        })
    }

    /// The per-query weight learning (Eq. 15) on the prepared Gram state.
    pub fn learn_weights(&self, objective_source: &AggregateVector) -> Result<Vec<f64>, CoreError> {
        self.learn_weights_scratch(objective_source, &mut ApplyScratch::new())
    }

    /// [`PreparedCrosswalk::learn_weights`] through a reusable
    /// [`ApplyScratch`] — the allocation-free form `apply_values_into`
    /// calls per query. The returned `β` is the only output allocation.
    pub fn learn_weights_scratch(
        &self,
        objective_source: &AggregateVector,
        s: &mut ApplyScratch,
    ) -> Result<Vec<f64>, CoreError> {
        self.check_objective(objective_source)?;
        if self.config.normalize {
            objective_source.normalized_into(&mut s.b);
        } else {
            s.b.clear();
            s.b.extend_from_slice(objective_source.values());
        }
        s.atb.clear();
        s.atb.resize(self.design.ncols(), 0.0);
        self.design.tr_matvec_into(&s.b, &mut s.atb)?;
        let btb = dot(&s.b, &s.b);
        let solution = {
            let _span = span!("solver", refs = self.refs.len());
            simplex_ls::solve_gram_scratch(
                &self.gram,
                &s.atb,
                btb,
                self.config.solver,
                &mut s.solver,
            )?
        };
        crate::obs::record_solver(solution.iterations, &solution.beta);
        Ok(solution.beta)
    }

    /// Charges this apply's workload — rows the mixture kernel walks and
    /// disaggregation cells it visits — to the caller's cost scope (a
    /// no-op when none is open).
    fn attribute_apply_cost(&self) {
        geoalign_obs::cost::add_rows(self.n_source as u64);
        geoalign_obs::cost::add_cells(
            self.refs
                .iter()
                .map(|r| r.dm().matrix().nnz() as u64)
                .sum::<u64>(),
        );
    }

    fn check_objective(&self, objective_source: &AggregateVector) -> Result<(), CoreError> {
        if objective_source.len() != self.n_source {
            return Err(CoreError::SourceMismatch {
                objective: objective_source.len(),
                reference: self.n_source,
                name: self
                    .refs
                    .first()
                    .map(|r| r.name().to_owned())
                    .unwrap_or_default(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{row_denominators, scale_adapted_weights};
    use geoalign_partition::DisaggregationMatrix;

    fn make_ref(name: &str, rows: &[&[f64]]) -> ReferenceData {
        let n_source = rows.len();
        let n_target = rows[0].len();
        let mut triples = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    triples.push((i, j, v));
                }
            }
        }
        let dm = DisaggregationMatrix::from_triples(name, n_source, n_target, triples).unwrap();
        ReferenceData::from_dm(name, dm).unwrap()
    }

    fn agg(vals: &[f64]) -> AggregateVector {
        AggregateVector::new("obj", vals.to_vec()).unwrap()
    }

    #[test]
    fn apply_matches_estimate_exactly() {
        let r1 = make_ref("a", &[&[3.0, 1.0], &[2.0, 2.0], &[0.0, 5.0]]);
        let r2 = make_ref("b", &[&[1.0, 1.0], &[4.0, 0.0], &[1.0, 1.0]]);
        let ga = GeoAlign::new();
        let prepared = ga.prepare(&[&r1, &r2]).unwrap();
        for vals in [
            vec![10.0, 20.0, 30.0],
            vec![1.0, 0.0, 2.0],
            vec![5.5, 5.5, 5.5],
        ] {
            let obj = agg(&vals);
            let one_shot = ga.estimate(&obj, &[&r1, &r2]).unwrap();
            let applied = prepared.apply(&obj).unwrap();
            for (p, q) in applied.estimate.iter().zip(&one_shot.estimate) {
                assert!((p - q).abs() <= 1e-12, "estimate {p} vs {q}");
            }
            for (p, q) in applied.weights.iter().zip(&one_shot.weights) {
                assert!((p - q).abs() <= 1e-12, "weights {p} vs {q}");
            }
        }
    }

    #[test]
    fn apply_values_matches_apply() {
        // Includes a fallback row: reference "a" is zero at unit 1.
        let a = make_ref("a", &[&[8.0, 2.0], &[0.0, 0.0], &[3.0, 3.0]]);
        let b = make_ref("b", &[&[1.0, 0.0], &[2.0, 6.0], &[0.0, 1.0]]);
        let prepared = GeoAlign::new().prepare(&[&a, &b]).unwrap();
        let obj = agg(&[10.0, 4.0, 6.0]);
        let full = prepared.apply(&obj).unwrap();
        let fast = prepared.apply_values(&obj).unwrap();
        let scale: f64 = obj.total().max(1.0);
        for (p, q) in fast.estimate.iter().zip(&full.estimate) {
            assert!((p - q).abs() <= 1e-9 * scale, "{p} vs {q}");
        }
        let total: f64 = fast.estimate.iter().sum();
        assert!((total - obj.total()).abs() < 1e-9);
    }

    #[test]
    fn prepared_learn_weights_matches_one_shot() {
        let r1 = make_ref("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let r2 = make_ref("b", &[&[5.0, 1.0], &[2.0, 2.0]]);
        let ga = GeoAlign::new();
        let prepared = ga.prepare(&[&r1, &r2]).unwrap();
        let obj = agg(&[4.0, 9.0]);
        let w_prep = prepared.learn_weights(&obj).unwrap();
        let w_once = ga.learn_weights(&obj, &[&r1, &r2]).unwrap();
        for (p, q) in w_prep.iter().zip(&w_once) {
            assert!((p - q).abs() <= 1e-12);
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let r = make_ref("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let prepared = GeoAlign::new().prepare(&[&r]).unwrap();
        assert!(matches!(
            prepared.apply(&agg(&[1.0])),
            Err(CoreError::SourceMismatch { .. })
        ));
        assert!(GeoAlign::new().prepare(&[]).is_err());
    }

    /// Asserts two snapshots are bitwise identical in every field that
    /// feeds the numerics (prepare_time is wall clock and excluded).
    fn assert_prepared_identical(a: &PreparedCrosswalk, b: &PreparedCrosswalk) {
        assert_eq!(a.n_source, b.n_source);
        assert_eq!(a.n_target, b.n_target);
        assert_eq!(a.refs.len(), b.refs.len());
        for j in 0..a.design.ncols() {
            for (x, y) in a.design.column(j).iter().zip(b.design.column(j)) {
                assert_eq!(x.to_bits(), y.to_bits(), "design col {j}");
            }
        }
        assert_eq!(a.gram.frobenius().to_bits(), b.gram.frobenius().to_bits());
        for j in 0..a.gram.n() {
            for (x, y) in a.gram.gram().column(j).iter().zip(b.gram.gram().column(j)) {
                assert_eq!(x.to_bits(), y.to_bits(), "gram col {j}");
            }
        }
        for (ra, rb) in a.row_sums_per_ref.iter().zip(&b.row_sums_per_ref) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits(), "row sums");
            }
        }
        assert_eq!(bits(&a.row_sum_max), bits(&b.row_sum_max), "row sum maxima");
        assert_eq!(a.transposes, b.transposes, "transposes");
    }

    #[test]
    fn incremental_update_is_bitwise_exact() {
        let r1 = make_ref("a", &[&[3.0, 1.0], &[2.0, 2.0], &[0.0, 5.0]]);
        let r2 = make_ref("b", &[&[1.0, 1.0], &[4.0, 0.0], &[1.0, 1.0]]);
        let ga = GeoAlign::new();
        let prepared = ga.prepare(&[&r1, &r2]).unwrap();

        // Replacing a reference matches a from-scratch prepare bit for bit.
        let r2v2 = make_ref("b", &[&[1.5, 1.0], &[4.0, 0.25], &[2.0, 1.0]]);
        let (delta, touched) = prepared.with_reference_updated(1, r2v2.clone()).unwrap();
        let scratch = ga.prepare(&[&r1, &r2v2]).unwrap();
        assert_prepared_identical(&delta, &scratch);
        assert!(touched > 0 && touched <= 3);

        // Appending a reference matches too.
        let r3 = make_ref("c", &[&[0.5, 0.5], &[1.0, 1.0], &[2.0, 0.0]]);
        let (grown, appended_rows) = delta.with_reference_updated(2, r3.clone()).unwrap();
        let scratch3 = ga.prepare(&[&r1, &r2v2, &r3]).unwrap();
        assert_prepared_identical(&grown, &scratch3);
        assert_eq!(appended_rows, 3);

        // Applies through the delta snapshot are bit-identical as well.
        let obj = agg(&[10.0, 20.0, 30.0]);
        let via_delta = grown.apply_values(&obj).unwrap();
        let via_scratch = scratch3.apply_values(&obj).unwrap();
        for (p, q) in via_delta.estimate.iter().zip(&via_scratch.estimate) {
            assert_eq!(p.to_bits(), q.to_bits());
        }

        // A sequence of replacements stays exact (no drift accumulation).
        let mut rolling = grown;
        let mut latest = r3;
        for round in 1..=4 {
            let v = round as f64;
            latest = make_ref("c", &[&[0.5 * v, 0.5], &[1.0, v], &[2.0, 0.125 * v]]);
            rolling = rolling.with_reference_updated(2, latest.clone()).unwrap().0;
        }
        let scratch_final = ga.prepare(&[&r1, &r2v2, &latest]).unwrap();
        assert_prepared_identical(&rolling, &scratch_final);
    }

    #[test]
    fn incremental_update_rejects_bad_shapes() {
        let r = make_ref("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let prepared = GeoAlign::new().prepare(&[&r]).unwrap();
        // Index beyond an append.
        assert!(prepared.with_reference_updated(2, r.clone()).is_err());
        // Source-dimension mismatch.
        let bad = make_ref("b", &[&[1.0, 2.0]]);
        assert!(matches!(
            prepared.with_reference_updated(0, bad),
            Err(CoreError::SourceMismatch { .. })
        ));
        // Target-dimension mismatch.
        let bad = make_ref("b", &[&[1.0], &[2.0]]);
        assert!(matches!(
            prepared.with_reference_updated(0, bad),
            Err(CoreError::TargetMismatch { .. })
        ));
    }

    /// The row-major mixture `apply_values_into` ran before it became
    /// target-major, kept as the reference the kernel must match bit for
    /// bit: one attribute at a time, per reference in order, per CSR row
    /// ascending, it scatters `estimate[j] += f * v` into a zero-filled
    /// estimate, with `β'` from a fresh scan of the row sums.
    fn apply_values_row_major(
        p: &PreparedCrosswalk,
        objective_source: &AggregateVector,
    ) -> Result<(Vec<f64>, Vec<f64>), CoreError> {
        let weights = p.learn_weights(objective_source)?;
        let adapted = scale_adapted_weights(&weights, &p.row_sums_per_ref);
        let (weighted, unweighted) = row_denominators(&p.row_sums_per_ref, &adapted, p.n_source);
        let obj = objective_source.values();
        let mut rf_weighted = vec![0.0; p.n_source];
        let mut rf_fallback = vec![0.0; p.n_source];
        for i in 0..p.n_source {
            if weighted[i] > 0.0 {
                rf_weighted[i] = obj[i] / weighted[i];
            } else if unweighted[i] > 0.0 {
                rf_fallback[i] = obj[i] / unweighted[i];
            }
        }
        let mut estimate = vec![0.0; p.n_target];
        for (k, r) in p.refs.iter().enumerate() {
            let bk = adapted[k];
            for (i, j, v) in r.dm().matrix().iter() {
                let f = bk * rf_weighted[i] + rf_fallback[i];
                if f != 0.0 {
                    estimate[j] += f * v;
                }
            }
        }
        Ok((estimate, weights))
    }

    /// SplitMix64: a seeded generator for the differential cases, with
    /// the scale of its large values.
    struct Rng {
        state: u64,
        large: f64,
    }

    impl Rng {
        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, p: f64) -> bool {
            ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
        }

        /// A positive value: mostly ordinary, sometimes subnormal or
        /// large.
        fn value(&mut self, magnitude: Magnitude) -> f64 {
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            match magnitude {
                Magnitude::Ordinary => 0.001 + unit * 100.0,
                Magnitude::Subnormal => f64::from_bits(1 + self.next() % (1 << 40)),
                Magnitude::Large => (1.0 + unit) * self.large,
            }
        }

        fn magnitude(&mut self) -> Magnitude {
            match self.below(10) {
                0 => Magnitude::Subnormal,
                1 => Magnitude::Large,
                _ => Magnitude::Ordinary,
            }
        }
    }

    #[derive(Clone, Copy)]
    enum Magnitude {
        Ordinary,
        Subnormal,
        Large,
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A generated objective: one magnitude for its values, one in ten a
    /// zero.
    fn generated_objective(rng: &mut Rng, name: &str, n_source: usize) -> AggregateVector {
        let magnitude = rng.magnitude();
        let values: Vec<f64> = (0..n_source)
            .map(|_| {
                if rng.chance(0.1) {
                    0.0
                } else {
                    rng.value(magnitude)
                }
            })
            .collect();
        AggregateVector::new(name, values).unwrap()
    }

    /// One generated reference: each row over 1–3 neighbouring targets
    /// (`banded`) or 1–6 random ones, skipping `empty` rows, the
    /// `dead` targets no reference reaches, and `skip` rows.
    fn generated_dm(
        rng: &mut Rng,
        name: &str,
        (n_source, n_target): (usize, usize),
        banded: bool,
        dead: &[bool],
        skip: &dyn Fn(usize) -> bool,
    ) -> DisaggregationMatrix {
        let mut triples = Vec::new();
        for i in 0..n_source {
            if skip(i) || rng.chance(0.15) {
                continue;
            }
            let magnitude = rng.magnitude();
            let mut cols: Vec<usize> = if banded {
                let start = i * n_target / n_source;
                (start..(start + 1 + rng.below(3)).min(n_target)).collect()
            } else {
                (0..1 + rng.below(6)).map(|_| rng.below(n_target)).collect()
            };
            cols.sort_unstable();
            cols.dedup();
            for j in cols.into_iter().filter(|&j| !dead[j]) {
                triples.push((i, j, rng.value(magnitude)));
            }
        }
        DisaggregationMatrix::from_triples(name, n_source, n_target, triples).unwrap()
    }

    /// Estimate and weight bits, or the error weight learning raised.
    type Applied = Result<(Vec<u64>, Vec<u64>), CoreError>;

    /// Applies `p` through the kernel and through the row-major reference
    /// and requires equal bits, or the same error.
    fn apply_both(p: &PreparedCrosswalk, obj: &AggregateVector, what: &str) -> Applied {
        let got = p.apply_values(obj);
        let want = apply_values_row_major(p, obj);
        match (got, want) {
            (Ok(got), Ok((estimate, weights))) => {
                assert_eq!(bits(&got.estimate), bits(&estimate), "{what}: estimate");
                assert_eq!(bits(&got.weights), bits(&weights), "{what}: weights");
                Ok((bits(&got.estimate), bits(&got.weights)))
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{what}: error");
                Err(got)
            }
            (got, want) => panic!(
                "{what}: kernel {:?} vs reference {:?}",
                got.err(),
                want.err()
            ),
        }
    }

    #[test]
    fn target_major_mixture_matches_the_row_major_scatter_bitwise() {
        use crate::persist::{decode_prepared, encode_prepared};
        let mut rng = Rng {
            state: 0x6765_6f61_6c69_676e,
            large: 0.0,
        };
        // How often each shape the kernel must get right was reached.
        let (mut unreached_targets, mut fallback_rows, mut empty_rows) = (0, 0, 0);
        let (mut extreme_estimates, mut failed_solves, mut split_batches) = (0, 0, 0);
        for case in 0..300 {
            // Unnormalized design columns are squared into the Gram
            // matrix, so their large values stay below its overflow.
            let normalize = rng.chance(0.8);
            rng.large = if normalize { 1e300 } else { 1e150 };
            let mut n_refs = 1 + rng.below(6);
            let mut n_source = 1 + rng.below(200);
            let mut n_target = 1 + rng.below(40);
            let mut banded = rng.chance(0.5);
            // Three cases large enough that every group's walk is split
            // by target chunk: 4 banded references at 24000×1200.
            if case % 100 == 0 {
                (n_refs, n_source, n_target, banded) = (4, 24_000, 1_200, true);
            }
            let shape = (n_source, n_target);
            let dead: Vec<bool> = (0..n_target).map(|_| rng.chance(0.15)).collect();
            let empty: Vec<bool> = (0..n_source).map(|_| rng.chance(0.1)).collect();
            // A decoy: the last reference has no source mass, so weight
            // learning gives it weight 0, and its matrix alone reaches the
            // `decoy_only` rows, which take the uniform fallback factor.
            let decoy = n_refs > 1 && rng.chance(0.4);
            let decoy_only: Vec<bool> = (0..n_source).map(|_| decoy && rng.chance(0.3)).collect();
            let refs: Vec<ReferenceData> = (0..n_refs)
                .map(|k| {
                    let name = format!("r{k}");
                    let is_decoy = decoy && k == n_refs - 1;
                    let skip = |i: usize| empty[i] || (!is_decoy && decoy_only[i]);
                    let dm = generated_dm(&mut rng, &name, shape, banded, &dead, &skip);
                    if is_decoy {
                        let zeros = AggregateVector::new(&name, vec![0.0; n_source]).unwrap();
                        ReferenceData::new(&name, zeros, dm).unwrap()
                    } else {
                        ReferenceData::from_dm(&name, dm).unwrap()
                    }
                })
                .collect();
            let obj = generated_objective(&mut rng, "obj", n_source);
            let config = GeoAlignConfig {
                solver: if rng.chance(0.2) {
                    simplex_ls::SimplexSolver::ProjectedGradient
                } else {
                    simplex_ls::SimplexSolver::ActiveSet
                },
                normalize,
            };
            let ga = GeoAlign::with_config(config);
            let slices: Vec<&ReferenceData> = refs.iter().collect();
            let fresh = ga.prepare(&slices).unwrap();
            let applied = apply_both(&fresh, &obj, &format!("case {case} fresh"));
            if let Ok((estimate, weights)) = &applied {
                // Count the shapes this case reached.
                let reached = |j: usize| fresh.transposes.iter().any(|t| !t.row(j).0.is_empty());
                unreached_targets += (0..n_target).filter(|&j| !reached(j)).count();
                empty_rows += (0..n_source)
                    .filter(|&i| fresh.row_sums_per_ref.iter().all(|sums| sums[i] == 0.0))
                    .count();
                // Rows with objective mass where every reference that
                // reaches them learned weight 0: the uniform fallback.
                let sums = &fresh.row_sums_per_ref;
                let zero_weight_only = |i: usize| {
                    let live = || (0..n_refs).filter(|&k| sums[k][i] > 0.0);
                    live().count() > 0 && live().all(|k| weights[k] == 0)
                };
                fallback_rows += (0..n_source)
                    .filter(|&i| obj.values()[i] > 0.0 && zero_weight_only(i))
                    .count();
                extreme_estimates += estimate
                    .iter()
                    .map(|&b| f64::from_bits(b))
                    .filter(|v| v.is_subnormal() || *v > 1e140)
                    .count();
            } else {
                failed_solves += 1;
            }

            // The objective inside a batch of 1–9: grouped by four, one
            // fused walk per group, split by target chunk when large.
            let batch_len = 1 + rng.below(9);
            let at = rng.below(batch_len);
            let batch: Vec<AggregateVector> = (0..batch_len)
                .map(|b| {
                    if b == at {
                        obj.clone()
                    } else {
                        generated_objective(&mut rng, &format!("obj{b}"), n_source)
                    }
                })
                .collect();
            let want: Result<Vec<_>, CoreError> = batch
                .iter()
                .map(|o| apply_values_row_major(&fresh, o).map(|(e, w)| (bits(&e), bits(&w))))
                .collect();
            for exec in [Executor::sequential(), Executor::new(2), Executor::new(8)] {
                let got = fresh.apply_batch_with(&batch, exec).map(|applied| {
                    let bits = |c: &CrosswalkEstimate| (bits(&c.estimate), bits(&c.weights));
                    applied.iter().map(bits).collect::<Vec<_>>()
                });
                let threads = exec.threads();
                assert_eq!(
                    got, want,
                    "case {case}: batch of {batch_len}, {threads} threads"
                );
            }
            let entries: usize = fresh.transposes.iter().map(|t| t.nnz()).sum();
            split_batches += usize::from(entries * batch_len.min(GROUP) >= SPLIT_MIN_WORK);

            // The delta path: replace one reference, and append the last.
            let index = rng.below(n_refs);
            let stale = ReferenceData::from_dm(
                "stale",
                generated_dm(
                    &mut rng,
                    "stale",
                    shape,
                    !banded,
                    &vec![false; n_target],
                    &|_| false,
                ),
            )
            .unwrap();
            let mut before = slices.clone();
            before[index] = &stale;
            let (replaced, _) = ga
                .prepare(&before)
                .unwrap()
                .with_reference_updated(index, refs[index].clone())
                .unwrap();
            let via = apply_both(&replaced, &obj, &format!("case {case} replace"));
            assert_eq!(via, applied, "case {case}: replace vs fresh");
            if n_refs > 1 {
                let (appended, _) = ga
                    .prepare(&slices[..n_refs - 1])
                    .unwrap()
                    .with_reference_updated(n_refs - 1, refs[n_refs - 1].clone())
                    .unwrap();
                let via = apply_both(&appended, &obj, &format!("case {case} append"));
                assert_eq!(via, applied, "case {case}: append vs fresh");
            }

            // A decoded snapshot rebuilds its transposes from its references.
            let bytes = encode_prepared(&fresh);
            let decoded = decode_prepared(&bytes).unwrap();
            let via = apply_both(&decoded, &obj, &format!("case {case} decoded"));
            assert_eq!(via, applied, "case {case}: decoded vs fresh");
            assert_eq!(
                encode_prepared(&decoded),
                bytes,
                "case {case}: re-encoded bytes"
            );
        }
        // Every shape was reached many times over, and every case got
        // past weight learning, the unnormalized designs included.
        assert!(
            unreached_targets >= 500,
            "unreached targets: {unreached_targets}"
        );
        assert!(fallback_rows >= 500, "fallback rows: {fallback_rows}");
        assert!(empty_rows >= 500, "empty rows: {empty_rows}");
        assert!(
            extreme_estimates >= 500,
            "subnormal or large estimates: {extreme_estimates}"
        );
        assert_eq!(failed_solves, 0, "failed solves");
        assert!(
            split_batches >= 3,
            "batches with split walks: {split_batches}"
        );
    }

    #[test]
    fn snapshot_metadata_is_exposed() {
        let r = make_ref("pop", &[&[1.0, 2.0, 0.0], &[3.0, 0.0, 4.0]]);
        let prepared = GeoAlign::new().prepare(&[&r]).unwrap();
        assert_eq!(prepared.n_source(), 2);
        assert_eq!(prepared.n_target(), 3);
        assert_eq!(prepared.references().len(), 1);
        assert_eq!(prepared.references()[0].name(), "pop");
    }
}
