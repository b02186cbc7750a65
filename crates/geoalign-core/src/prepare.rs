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
    disaggregate_with, row_denominators_into, scale_adapted_weights_into, GeoAlign, GeoAlignConfig,
    GeoAlignResult, PhaseTimings,
};
use crate::error::CoreError;
use crate::reference::{validate_references, ReferenceData};
use geoalign_linalg::dense::dot;
use geoalign_linalg::simplex_ls::{self, GramSystem};
use geoalign_linalg::{CsrMatrix, DMatrix, SolverScratch};
use geoalign_obs::span;
use geoalign_partition::AggregateVector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reusable working memory for [`PreparedCrosswalk::apply_values`]: the
/// normalized objective, right-hand-side products, Eq. 14 denominators
/// and per-row factors, plus the solver arena. One arena per thread
/// (never shared — [`PreparedCrosswalk::apply_batch_with`] creates one
/// per worker); buffers carry capacity between queries, never values.
/// See DESIGN.md §15 for the ownership and bit-identity rules.
#[derive(Debug, Default)]
pub struct ApplyScratch {
    /// Normalized (or copied) objective vector `b`.
    b: Vec<f64>,
    /// Right-hand side `Aᵀb`.
    atb: Vec<f64>,
    /// Scale-adapted weights `β'`.
    adapted: Vec<f64>,
    /// Weighted denominators of Eq. 14.
    weighted: Vec<f64>,
    /// Unweighted denominators (fallback mass).
    unweighted: Vec<f64>,
    /// Per-row weighted-mixture factors.
    rf_weighted: Vec<f64>,
    /// Per-row uniform-fallback factors.
    rf_fallback: Vec<f64>,
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
/// The references sit behind [`Arc`]s, so snapshots derived from one
/// another by [`PreparedCrosswalk::with_reference_updated`] share every
/// reference that did not change instead of copying it.
#[derive(Debug, Clone)]
pub struct PreparedCrosswalk {
    // Fields are crate-visible so `persist` can take a snapshot apart and
    // reassemble a byte-identical one from disk.
    pub(crate) config: GeoAlignConfig,
    pub(crate) refs: Vec<Arc<ReferenceData>>,
    /// Stacked source-level reference matrix of Eq. 15 (normalized
    /// per-column when the config says so).
    pub(crate) design: DMatrix,
    /// Normal-equations state `AᵀA` of the design matrix.
    pub(crate) gram: GramSystem,
    /// Per-reference disaggregation-matrix row sums (Eq. 14 denominators).
    pub(crate) row_sums_per_ref: Vec<Vec<f64>>,
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
    /// given references. The returned [`PreparedCrosswalk`] owns copies of
    /// the references (shared with the snapshots the delta path derives
    /// from it) and can be applied to any number of objective
    /// vectors — including concurrently, since applying is `&self`.
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
        geoalign_obs::cost::add_rows(n_source as u64);
        geoalign_obs::cost::add_cells(
            refs.iter()
                .map(|r| r.dm().matrix().nnz() as u64)
                .sum::<u64>()
                + (n_source * refs.len()) as u64,
        );
        let prepared = PreparedCrosswalk {
            config: *self.config(),
            refs: refs.iter().map(|&r| Arc::new(r.clone())).collect(),
            design,
            gram,
            row_sums_per_ref,
            n_source,
            n_target,
            prepare_time: t0.elapsed(),
        };
        crate::obs::prepare_micros().record(prepared.prepare_time);
        Ok(prepared)
    }
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
    pub fn references(&self) -> &[Arc<ReferenceData>] {
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
    /// Every other reference is shared with `self` (an [`Arc`] clone, not
    /// a copy of its matrix).
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
        let reference = Arc::new(reference);
        let mut refs = self.refs.clone();
        let mut row_sums_per_ref = self.row_sums_per_ref.clone();
        if index < refs.len() {
            refs[index] = reference;
            row_sums_per_ref[index] = row_sums;
        } else {
            refs.push(reference);
            row_sums_per_ref.push(row_sums);
        }
        crate::obs::incremental_rows().add(touched as u64);
        let prepared = PreparedCrosswalk {
            config: self.config,
            refs,
            design,
            gram,
            row_sums_per_ref,
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
    /// accumulated directly as
    /// `est[j] += f_k(i) · DM_k[i, j]` with per-row factors
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
    /// allocates its two outputs (the estimate and the weights).
    pub fn apply_values_scratch(
        &self,
        objective_source: &AggregateVector,
        scratch: &mut ApplyScratch,
    ) -> Result<CrosswalkEstimate, CoreError> {
        self.check_objective(objective_source)?;
        let _apply_span = span!("apply", refs = self.refs.len(), n_source = self.n_source);
        self.attribute_apply_cost();
        let t_apply = Instant::now();
        // Output allocation: the estimate the caller keeps.
        let mut estimate = vec![0.0; self.n_target];
        let (weights, timings) =
            self.apply_values_into(objective_source, &mut estimate, scratch)?;
        crate::obs::apply_micros().record(t_apply.elapsed());
        Ok(CrosswalkEstimate {
            estimate,
            weights,
            timings,
        })
    }

    /// The allocation-free apply core: accumulates the estimate into the
    /// caller's `estimate` slice (length `n_target`, fully overwritten)
    /// through the scratch arena. Zero heap allocations here once the
    /// arena has grown to the problem size (enforced by check.sh's
    /// hot-loop gate — keep `.clone()`/`to_vec()`/`vec![` out); the
    /// returned weights are the solver wrapper's output allocation.
    fn apply_values_into(
        &self,
        objective_source: &AggregateVector,
        estimate: &mut [f64],
        s: &mut ApplyScratch,
    ) -> Result<(Vec<f64>, PhaseTimings), CoreError> {
        let mut timings = PhaseTimings::default();

        let t0 = Instant::now();
        let weights = {
            let _span = span!("weight_learning");
            self.learn_weights_scratch(objective_source, s)?
        };
        timings.weight_learning = t0.elapsed();

        let t1 = Instant::now();
        let _disagg_span = span!("disaggregation");
        scale_adapted_weights_into(&weights, &self.row_sums_per_ref, &mut s.adapted);
        row_denominators_into(
            &self.row_sums_per_ref,
            &s.adapted,
            self.n_source,
            &mut s.weighted,
            &mut s.unweighted,
        );
        let obj = objective_source.values();
        // Per-row factors: the weighted-mixture factor and the uniform
        // fallback factor; exactly one of the two is nonzero per live row.
        s.rf_weighted.clear();
        s.rf_weighted.resize(self.n_source, 0.0);
        s.rf_fallback.clear();
        s.rf_fallback.resize(self.n_source, 0.0);
        #[allow(clippy::needless_range_loop)] // lockstep over four row slices
        for i in 0..self.n_source {
            if s.weighted[i] > 0.0 {
                s.rf_weighted[i] = obj[i] / s.weighted[i];
            } else if s.unweighted[i] > 0.0 {
                s.rf_fallback[i] = obj[i] / s.unweighted[i];
            }
        }
        estimate.fill(0.0);
        for (k, r) in self.refs.iter().enumerate() {
            let bk = s.adapted[k];
            for (i, j, v) in r.dm().matrix().iter() {
                let f = bk * s.rf_weighted[i] + s.rf_fallback[i];
                if f != 0.0 {
                    estimate[j] += f * v;
                }
            }
        }
        drop(_disagg_span);
        timings.disaggregation = t1.elapsed();
        Ok((weights, timings))
    }

    /// Applies the snapshot to many objective vectors concurrently (one
    /// task per vector) on the process-global executor. See
    /// [`PreparedCrosswalk::apply_batch_with`].
    pub fn apply_batch(
        &self,
        objectives: &[AggregateVector],
    ) -> Result<Vec<CrosswalkEstimate>, CoreError> {
        self.apply_batch_with(objectives, geoalign_exec::Executor::global())
    }

    /// [`PreparedCrosswalk::apply_batch`] on an explicit executor. Each
    /// vector runs [`PreparedCrosswalk::apply_values`] independently
    /// through one [`ApplyScratch`] per worker thread (so a warm batch
    /// stops re-allocating the apply working set); results come back in
    /// input order, and the first failing vector (in input order) decides
    /// the error — exactly like a sequential loop.
    pub fn apply_batch_with(
        &self,
        objectives: &[AggregateVector],
        exec: geoalign_exec::Executor,
    ) -> Result<Vec<CrosswalkEstimate>, CoreError> {
        let per_vector =
            exec.run_tasks_with(objectives.len(), ApplyScratch::new, |scratch, i| {
                self.apply_values_scratch(&objectives[i], scratch)
            })?;
        per_vector.into_iter().collect()
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
