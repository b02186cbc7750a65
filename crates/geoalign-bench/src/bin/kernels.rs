//! Kernel throughput suite: before/after numbers for the cache-aware
//! kernel rework (blocked gram, branch-free CSR matvec, scratch-arena
//! solvers) and the target-major crosswalk apply.
//!
//! "Before" is not a guess: the replaced kernels are transliterated
//! into [`old`] below, run against the library's current kernels on the
//! same inputs, and asserted **bit-identical** at 1, 2 and 8 threads
//! before anything is timed. The JSON then records rows/sec and
//! ns/element for both, per universe scale — small, medium, and the
//! paper's 30238×3142 US universe.
//!
//! `apply_batch` is timed on two reference layouts: rows over 1–6
//! scattered targets (`apply_batch`) and rows over 1–3 neighbouring
//! targets (`apply_batch_banded`, the shape of perfbench's references and
//! of any crosswalk numbered in geographic order).
//!
//! Three request rows (`apply_request_1`, `_2`, `_4`, paper scale only)
//! time one `/crosswalk`'s apply in perfbench's shape — 4 banded
//! references at 30238×3142, a batch of 1, 2 or 4 attributes, on the
//! global executor — in wall time and process CPU per call, against the
//! per-attribute batch apply the fused kernel replaced.
//!
//! Two codec rows time a 2-attribute `/crosswalk`'s numbers:
//! `json_write_number` prints the banded apply's estimates (and as many
//! random bit patterns) with `{}` and with `Json`'s writer, after
//! asserting equal bytes; `json_parse_crosswalk` decodes a body of
//! 3-decimal values as perfbench sends them, after asserting the tree
//! parser's values.
//!
//! Writes `BENCH_kernels.json` (see `--out`). At the paper scale the
//! binary additionally gates on the new kernels actually winning
//! single-thread on gram, CSR matvec and the banded apply, and on the
//! fused apply spending no more CPU per request than the per-attribute
//! one at 2 and 4 attributes.
//!
//! Usage: `kernels [--small|--medium|--paper] [--seed N] [--trials N]
//!                 [--out BENCH_kernels.json]`
//! (no scale flag runs all three scales; `--small` is the CI smoke mode)

use geoalign_core::{ApplyScratch, GeoAlign, PreparedCrosswalk, ReferenceData};
use geoalign_exec::Executor;
use geoalign_geom::{Aabb, Point2, VoronoiDiagram};
use geoalign_linalg::dense::dot;
use geoalign_linalg::simplex_ls::{solve_active_set_gram_scratch, GramSystem};
use geoalign_linalg::{CooMatrix, CsrMatrix, DMatrix, HouseholderQr, LinalgError, SolverScratch};
use geoalign_partition::{AggregateVector, DisaggregationMatrix, Overlay, PolygonUnitSystem};
use geoalign_serve::json::{self, Bulk, Json};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Times `f` over `trials` runs (after one warm-up) and returns the mean
/// wall time in nanoseconds.
fn time_ns<R>(trials: usize, mut f: impl FnMut() -> R) -> f64 {
    let _ = f();
    let t = Instant::now();
    for _ in 0..trials {
        let _ = f();
    }
    t.elapsed().as_secs_f64() * 1e9 / trials as f64
}

/// The pre-rework kernels, transliterated from this repository's own
/// history (the commit the rework replaced) so before/after numbers are
/// measured, not remembered. Each must stay bit-identical to its
/// replacement — the mainline asserts it before timing.
mod old {
    use super::*;

    /// Old `DMatrix::gram_with`: one freshly allocated upper-triangle row
    /// `Vec` per column task, assembled into the Gram matrix afterwards.
    pub fn gram_with(a: &DMatrix, exec: Executor) -> Result<DMatrix, LinalgError> {
        let k = a.ncols();
        let upper = exec.map_indexed(k, |i| {
            (i..k)
                .map(|j| dot(a.column(i), a.column(j)))
                .collect::<Vec<f64>>()
        })?;
        let mut g = DMatrix::zeros(k, k);
        for (i, row) in upper.into_iter().enumerate() {
            for (off, v) in row.into_iter().enumerate() {
                let j = i + off;
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        Ok(g)
    }

    /// Old `CsrMatrix::matvec_with`: a materialized chunk-range `Vec`, one
    /// allocated partial-result `Vec` per chunk, and a gather copy at the
    /// end.
    pub fn matvec_with(m: &CsrMatrix, x: &[f64], exec: Executor) -> Result<Vec<f64>, LinalgError> {
        let ranges: Vec<_> = Executor::chunk_ranges(m.nrows()).collect();
        let per_chunk = exec.run_tasks(ranges.len(), |t| {
            ranges[t]
                .clone()
                .map(|i| {
                    let (cols, vals) = m.row(i);
                    cols.iter()
                        .zip(vals)
                        .map(|(&j, &v)| v * x[j as usize])
                        .sum()
                })
                .collect::<Vec<f64>>()
        })?;
        let mut y = Vec::with_capacity(m.nrows());
        for chunk in per_chunk {
            y.extend(chunk);
        }
        Ok(y)
    }

    fn objective(gs: &GramSystem, beta: &[f64], atb: &[f64], btb: f64) -> Result<f64, LinalgError> {
        let gb = gs.gram().matvec(beta)?;
        Ok(0.5 * dot(beta, &gb) - dot(beta, atb) + 0.5 * btb)
    }

    fn gradient(gs: &GramSystem, beta: &[f64], atb: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut g = gs.gram().matvec(beta)?;
        for (gi, ci) in g.iter_mut().zip(atb) {
            *gi -= ci;
        }
        Ok(g)
    }

    /// Old `solve_active_set_gram`: fresh `idx`, KKT matrix, right-hand
    /// side, solution and gradient vectors on every outer iteration.
    pub fn solve_active_set_gram(
        gs: &GramSystem,
        atb: &[f64],
        btb: f64,
    ) -> Result<(Vec<f64>, f64, usize), LinalgError> {
        let n = gs.n();
        let mut best_k = 0;
        let mut best_obj = f64::INFINITY;
        for (k, &atb_k) in atb.iter().enumerate() {
            let o = 0.5 * gs.gram()[(k, k)] - atb_k + 0.5 * btb;
            if o < best_obj {
                best_obj = o;
                best_k = k;
            }
        }
        let mut x = vec![0.0; n];
        x[best_k] = 1.0;
        let mut support: Vec<bool> = (0..n).map(|j| j == best_k).collect();
        let scale = btb.sqrt().max(1.0) * gs.frobenius().max(1.0);
        let tol = 1e-12 * scale.max(1.0) * (n as f64);
        let mut iterations = 0;
        for _ in 0..4 * n + 32 {
            iterations += 1;
            let idx: Vec<usize> = (0..n).filter(|&j| support[j]).collect();
            let z = eq_constrained_ls(gs, atb, &idx)?;
            if !z.iter().any(|&v| v < -tol) {
                x.iter_mut().for_each(|v| *v = 0.0);
                for (q, &j) in idx.iter().enumerate() {
                    x[j] = z[q].max(0.0);
                }
                renormalize(&mut x);
                let g = gradient(gs, &x, atb)?;
                let lambda = idx.iter().map(|&j| g[j]).fold(f64::INFINITY, f64::min);
                let mut enter: Option<(usize, f64)> = None;
                for j in 0..n {
                    if !support[j] {
                        let viol = lambda - g[j];
                        if viol > tol * 1e3 {
                            match enter {
                                Some((_, bv)) if viol <= bv => {}
                                _ => enter = Some((j, viol)),
                            }
                        }
                    }
                }
                match enter {
                    Some((j, _)) => {
                        support[j] = true;
                        continue;
                    }
                    None => break,
                }
            }
            let mut alpha = 1.0f64;
            for (q, &j) in idx.iter().enumerate() {
                if z[q] < 0.0 {
                    let denom = x[j] - z[q];
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    }
                }
            }
            for (q, &j) in idx.iter().enumerate() {
                x[j] += alpha * (z[q] - x[j]);
            }
            for j in 0..n {
                if support[j] && x[j] <= tol {
                    x[j] = 0.0;
                    support[j] = false;
                }
            }
            if !support.iter().any(|&s| s) {
                support[best_k] = true;
                x[best_k] = 1.0;
            }
            renormalize(&mut x);
        }
        renormalize(&mut x);
        let objective = objective(gs, &x, atb, btb)?;
        Ok((x, objective, iterations))
    }

    /// Old KKT solve of the support's equality-constrained LS: a fresh
    /// bordered matrix and QR per call. When singular it retries on the
    /// system with `G_S` and `c` divided by a power of two near `G_S`'s
    /// scale, as the library's solve does since that retry was added (so
    /// both answer unnormalized designs), then on a ridge.
    fn eq_constrained_ls(
        gs: &GramSystem,
        atb: &[f64],
        idx: &[usize],
    ) -> Result<Vec<f64>, LinalgError> {
        let k = idx.len();
        if k == 0 {
            return Err(LinalgError::Empty);
        }
        if k == 1 {
            return Ok(vec![1.0]);
        }
        let gram = gs.gram();
        let mut kkt = DMatrix::zeros(k + 1, k + 1);
        for (p, &jp) in idx.iter().enumerate() {
            for (q, &jq) in idx.iter().enumerate() {
                kkt[(p, q)] = gram[(jp, jq)];
            }
            kkt[(p, k)] = 1.0;
            kkt[(k, p)] = 1.0;
        }
        let mut rhs = vec![0.0; k + 1];
        for (p, &jp) in idx.iter().enumerate() {
            rhs[p] = atb[jp];
        }
        rhs[k] = 1.0;
        let sol = HouseholderQr::new(&kkt)?.solve(&rhs).or_else(|e| {
            let diagonal = (0..k).map(|p| kkt[(p, p)].abs()).fold(0.0f64, f64::max);
            let Some(inverse) = nearest_power_of_two_inverse(diagonal) else {
                return Err(e);
            };
            let mut scaled = kkt.clone();
            let mut scaled_rhs = rhs.clone();
            for p in 0..k {
                for q in 0..k {
                    scaled[(p, q)] *= inverse;
                }
                scaled_rhs[p] *= inverse;
            }
            HouseholderQr::new(&scaled)?.solve(&scaled_rhs)
        });
        let sol = sol.or_else(|_| {
            let mut reg = kkt.clone();
            let scale = (0..k).map(|p| reg[(p, p)].abs()).fold(0.0f64, f64::max);
            for p in 0..k {
                reg[(p, p)] += 1e-10 * scale.max(1.0);
            }
            HouseholderQr::new(&reg)?.solve(&rhs)
        })?;
        Ok(sol[..k].to_vec())
    }

    /// `2^-e` for the power of two `2^e` nearest a positive normal `x`
    /// (up from a mantissa of √2), when `2^-e` is normal too.
    fn nearest_power_of_two_inverse(x: f64) -> Option<f64> {
        if !x.is_normal() || x < 0.0 {
            return None;
        }
        let bits = x.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let exponent = exponent + i64::from(bits & ((1 << 52) - 1) >= 0x0006_a09e_667f_3bcd);
        let biased = 1023 - exponent;
        (1..=2046)
            .contains(&biased)
            .then(|| f64::from_bits((biased as u64) << 52))
    }

    fn renormalize(x: &mut [f64]) {
        let mut s = 0.0;
        for v in x.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
            s += *v;
        }
        if s > 0.0 {
            for v in x.iter_mut() {
                *v /= s;
            }
        } else if let Some(first) = x.first_mut() {
            *first = 1.0;
        }
    }

    /// One worker's arena for the transliterated applies below: the
    /// weight-learning scratch plus the five `n_source` buffers of the
    /// mixture's factor pass.
    #[derive(Default)]
    struct MixScratch {
        apply: ApplyScratch,
        adapted: Vec<f64>,
        weighted: Vec<f64>,
        unweighted: Vec<f64>,
        rf_weighted: Vec<f64>,
        rf_fallback: Vec<f64>,
    }

    /// One attribute's weights and per-row factors, as the mixture
    /// computed them before the fused kernel: weight learning through the
    /// snapshot, then Eq. 14's scale-adapted weights from a fresh scan of
    /// each reference's row sums for its maximum, the weighted and
    /// unweighted denominators, and the per-row factors.
    fn learn_and_factor(
        prepared: &PreparedCrosswalk,
        row_sums: &[Vec<f64>],
        objective: &AggregateVector,
        s: &mut MixScratch,
    ) -> Vec<f64> {
        let weights = prepared
            .learn_weights_scratch(objective, &mut s.apply)
            .expect("weights");
        s.adapted.clear();
        s.adapted
            .extend(weights.iter().zip(row_sums).map(|(&w, sums)| {
                let m = sums.iter().copied().fold(0.0f64, f64::max);
                if m > 0.0 {
                    w / m
                } else {
                    0.0
                }
            }));
        let n_source = prepared.n_source();
        s.weighted.clear();
        s.weighted.resize(n_source, 0.0);
        s.unweighted.clear();
        s.unweighted.resize(n_source, 0.0);
        for (sums, &w) in row_sums.iter().zip(&s.adapted) {
            for (i, &v) in sums.iter().enumerate() {
                s.weighted[i] += w * v;
                s.unweighted[i] += v;
            }
        }
        let obj = objective.values();
        s.rf_weighted.clear();
        s.rf_weighted.resize(n_source, 0.0);
        s.rf_fallback.clear();
        s.rf_fallback.resize(n_source, 0.0);
        #[allow(clippy::needless_range_loop)] // lockstep over four row slices
        for i in 0..n_source {
            if s.weighted[i] > 0.0 {
                s.rf_weighted[i] = obj[i] / s.weighted[i];
            } else if s.unweighted[i] > 0.0 {
                s.rf_fallback[i] = obj[i] / s.unweighted[i];
            }
        }
        weights
    }

    /// Per-reference disaggregation row sums, snapshotted once as
    /// `prepare` does.
    fn row_sums(prepared: &PreparedCrosswalk) -> Vec<Vec<f64>> {
        prepared
            .references()
            .iter()
            .map(|r| r.dm().matrix().row_sums())
            .collect()
    }

    /// The row-major mixture `PreparedCrosswalk::apply_values_into` ran
    /// before it went target-major, rebuilt from public calls: the factor
    /// pass above, then a scatter `estimate[j] += f * v` over each
    /// reference's CSR rows in (reference, row) order. One task per
    /// attribute and one scratch set per worker, as the library's batch
    /// path had.
    pub struct RowMajor<'a> {
        prepared: &'a PreparedCrosswalk,
        row_sums: Vec<Vec<f64>>,
    }

    impl<'a> RowMajor<'a> {
        pub fn new(prepared: &'a PreparedCrosswalk) -> Self {
            let row_sums = row_sums(prepared);
            Self { prepared, row_sums }
        }

        fn apply(&self, objective: &AggregateVector, s: &mut MixScratch) -> (Vec<f64>, Vec<f64>) {
            let weights = learn_and_factor(self.prepared, &self.row_sums, objective, s);
            let mut estimate = vec![0.0; self.prepared.n_target()];
            for (r, &bk) in self.prepared.references().iter().zip(&s.adapted) {
                for (i, j, v) in r.dm().matrix().iter() {
                    let f = bk * s.rf_weighted[i] + s.rf_fallback[i];
                    if f != 0.0 {
                        estimate[j] += f * v;
                    }
                }
            }
            (estimate, weights)
        }

        /// Estimates and weights per objective, in input order.
        pub fn apply_batch_with(
            &self,
            objectives: &[AggregateVector],
            exec: Executor,
        ) -> Vec<(Vec<f64>, Vec<f64>)> {
            exec.run_tasks_with(objectives.len(), MixScratch::default, |s, i| {
                self.apply(&objectives[i], s)
            })
            .expect("batch")
        }
    }

    /// The per-attribute batch apply the fused kernel replaced: one
    /// executor task per attribute, a fresh arena per worker, the factor
    /// pass above, and a one-register target-major walk over every
    /// reference's transpose per attribute.
    pub struct PerAttribute<'a> {
        prepared: &'a PreparedCrosswalk,
        row_sums: Vec<Vec<f64>>,
        transposes: Vec<CsrMatrix>,
    }

    impl<'a> PerAttribute<'a> {
        pub fn new(prepared: &'a PreparedCrosswalk) -> Self {
            let transposes = prepared
                .references()
                .iter()
                .map(|r| r.dm().matrix().transpose())
                .collect();
            Self {
                prepared,
                row_sums: row_sums(prepared),
                transposes,
            }
        }

        fn apply(&self, objective: &AggregateVector, s: &mut MixScratch) -> (Vec<f64>, Vec<f64>) {
            let weights = learn_and_factor(self.prepared, &self.row_sums, objective, s);
            let mut estimate = vec![0.0; self.prepared.n_target()];
            for (j, out) in estimate.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (t, &bk) in self.transposes.iter().zip(&s.adapted) {
                    let (rows, vals) = t.row(j);
                    for (&i, &v) in rows.iter().zip(vals) {
                        let i = i as usize;
                        let f = bk * s.rf_weighted[i] + s.rf_fallback[i];
                        if f != 0.0 {
                            acc += f * v;
                        }
                    }
                }
                *out = acc;
            }
            (estimate, weights)
        }

        /// Estimates and weights per objective, in input order.
        pub fn apply_batch_with(
            &self,
            objectives: &[AggregateVector],
            exec: Executor,
        ) -> Vec<(Vec<f64>, Vec<f64>)> {
            exec.run_tasks_with(objectives.len(), MixScratch::default, |s, i| {
                self.apply(&objectives[i], s)
            })
            .expect("batch")
        }
    }
}

/// One benchmark universe: a dense design matrix (gram + solver), a
/// sparse crosswalk matrix (matvec), prepared references with a query
/// batch (apply), and jittered-grid dimensions (overlay).
#[derive(Clone, Copy)]
struct Scale {
    name: &'static str,
    n_source: usize,
    n_target: usize,
    refs: usize,
    nnz_per_row: usize,
    batch: usize,
    grid_fine: usize,
    grid_coarse: usize,
}

const SCALES: [Scale; 3] = [
    Scale {
        name: "small",
        n_source: 2_000,
        n_target: 200,
        refs: 4,
        nnz_per_row: 4,
        batch: 8,
        grid_fine: 16,
        grid_coarse: 4,
    },
    Scale {
        name: "medium",
        n_source: 7_560,
        n_target: 786,
        refs: 6,
        nnz_per_row: 5,
        batch: 8,
        grid_fine: 40,
        grid_coarse: 8,
    },
    Scale {
        name: "paper",
        n_source: 30_238,
        n_target: 3_142,
        refs: 8,
        nnz_per_row: 6,
        batch: 8,
        grid_fine: 174,
        grid_coarse: 56,
    },
];

/// A random sparse crosswalk: `nnz_per_row` entries per source row at
/// pseudo-random distinct target columns.
fn random_csr(scale: &Scale, state: &mut u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(scale.n_source, scale.n_target);
    for i in 0..scale.n_source {
        let start = (lcg(state) * scale.n_target as f64) as usize % scale.n_target;
        let stride = 1 + (lcg(state) * 7.0) as usize;
        for s in 0..scale.nnz_per_row {
            let j = (start + s * stride) % scale.n_target;
            let v = 0.1 + lcg(state) * 10.0;
            coo.push(i, j, v).expect("in-bounds push");
        }
        // Duplicate (i, j) pairs are merged by `to_csr`; row occupancy may
        // be below nnz_per_row when the stride wraps, which is fine.
    }
    coo.to_csr()
}

/// A banded crosswalk: row `i` over 1–3 neighbouring targets from
/// `i·n_target/n_source` on, as perfbench's `spread_triples` builds.
fn banded_csr(scale: &Scale, state: &mut u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(scale.n_source, scale.n_target);
    for i in 0..scale.n_source {
        let spread = 1 + (lcg(state) * 3.0) as usize;
        let base = i * scale.n_target / scale.n_source;
        for s in 0..spread.min(scale.n_target) {
            let v = 1.0 + lcg(state) * 99.0;
            coo.push(i, (base + s) % scale.n_target, v)
                .expect("in-bounds push");
        }
    }
    coo.to_csr()
}

/// The input property the target-major apply gains from: the share of
/// entries whose target the previous source row of the same matrix also
/// reaches.
fn previous_row_share(mats: &[CsrMatrix]) -> f64 {
    let (mut shared, mut total) = (0usize, 0usize);
    for m in mats {
        for i in 0..m.nrows() {
            let (cols, _) = m.row(i);
            total += cols.len();
            if i > 0 {
                let prev = m.row(i - 1).0;
                shared += cols
                    .iter()
                    .filter(|j| prev.binary_search(j).is_ok())
                    .count();
            }
        }
    }
    shared as f64 / total.max(1) as f64
}

/// A snapshot over references with the given matrices.
fn prepared_over(scale: &Scale, mats: &[CsrMatrix]) -> PreparedCrosswalk {
    let refs: Vec<ReferenceData> = mats
        .iter()
        .enumerate()
        .map(|(r, m)| {
            let name = format!("ref{r}");
            let dm = DisaggregationMatrix::from_triples(
                name.as_str(),
                scale.n_source,
                scale.n_target,
                m.iter(),
            )
            .expect("dm");
            ReferenceData::from_dm(name, dm).expect("reference")
        })
        .collect();
    let ref_slices: Vec<&ReferenceData> = refs.iter().collect();
    GeoAlign::new().prepare(&ref_slices).expect("prepare")
}

/// Old-vs-new `apply_batch` over references with the given matrices:
/// asserts the row-major mixture and the library's batch apply
/// bit-identical at 1, 2 and 8 threads, then times both. Also returns
/// the batch's estimates, one vector per objective.
fn apply_timings(
    scale: &Scale,
    mats: &[CsrMatrix],
    objectives: &[AggregateVector],
    trials: usize,
) -> (KernelTimings, Vec<Vec<f64>>) {
    let prepared = prepared_over(scale, mats);
    let row_major = old::RowMajor::new(&prepared);
    let seq = Executor::sequential();
    let t8 = Executor::new(8);
    let baseline = prepared
        .apply_batch_with(objectives, seq)
        .expect("batch apply");
    for threads in [1usize, 2, 8] {
        let exec = if threads == 1 {
            seq
        } else {
            Executor::new(threads)
        };
        let old_batch = row_major.apply_batch_with(objectives, exec);
        let new_batch = prepared.apply_batch_with(objectives, exec).expect("batch");
        for (((estimate, weights), n), base) in old_batch.iter().zip(&new_batch).zip(&baseline) {
            assert_bits_eq(estimate, &base.estimate, "apply old-vs-new");
            assert_bits_eq(&n.estimate, &base.estimate, "apply threads");
            assert_bits_eq(weights, &base.weights, "apply weights old");
            assert_bits_eq(&n.weights, &base.weights, "apply weights new");
        }
    }
    let total_nnz: u64 = mats.iter().map(|m| m.nnz() as u64).sum();
    let timings = KernelTimings {
        old_seq_ns: time_ns(trials, || row_major.apply_batch_with(objectives, seq)),
        new_seq_ns: time_ns(trials, || {
            prepared.apply_batch_with(objectives, seq).expect("batch")
        }),
        old_t8_ns: time_ns(trials, || row_major.apply_batch_with(objectives, t8)),
        new_t8_ns: time_ns(trials, || {
            prepared.apply_batch_with(objectives, t8).expect("batch")
        }),
        rows: (objectives.len() * scale.n_source) as u64,
        elements: objectives.len() as u64 * total_nnz,
    };
    let estimates = baseline
        .into_iter()
        .map(|applied| applied.estimate)
        .collect();
    (timings, estimates)
}

/// Process CPU time in seconds: utime + stime of every thread, live or
/// exited, from `/proc/self/stat`, whose clock ticks are USER_HZ (100 a
/// second on Linux).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (_, rest) = stat.rsplit_once(')').expect("stat: command name");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| fields[k].parse::<u64>().expect("stat: clock ticks");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Process CPU the request rows accumulate on each side, so that the
/// 10 ms tick of `/proc/self/stat` is at most 1% of it.
const REQUEST_CPU_S: f64 = 1.0;

/// Wall time and process CPU per call of `f`, in ms, over as many calls
/// (after one warm-up) as it takes the process to spend
/// [`REQUEST_CPU_S`] of CPU; also returns the call count.
fn wall_and_cpu_ms<R>(mut f: impl FnMut() -> R) -> (f64, f64, usize) {
    black_box(f());
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let mut calls = 0;
    loop {
        black_box(f());
        calls += 1;
        let cpu = process_cpu_s() - cpu0;
        if cpu >= REQUEST_CPU_S {
            let per_call = |s: f64| s * 1e3 / calls as f64;
            return (per_call(t0.elapsed().as_secs_f64()), per_call(cpu), calls);
        }
    }
}

/// One `/crosswalk`'s apply in perfbench's shape, old against new.
struct RequestTimings {
    attributes: usize,
    old_wall_ms: f64,
    new_wall_ms: f64,
    old_cpu_ms: f64,
    new_cpu_ms: f64,
    old_calls: usize,
    new_calls: usize,
}

impl RequestTimings {
    fn json(&self) -> String {
        format!(
            "      \"apply_request_{}\": {{ \"attributes\": {}, \"old_wall_ms\": {:.4}, \"new_wall_ms\": {:.4}, \"old_cpu_ms\": {:.4}, \"new_cpu_ms\": {:.4}, \"cpu_ratio\": {:.3}, \"old_calls\": {}, \"new_calls\": {} }}",
            self.attributes,
            self.attributes,
            self.old_wall_ms,
            self.new_wall_ms,
            self.old_cpu_ms,
            self.new_cpu_ms,
            self.new_cpu_ms / self.old_cpu_ms,
            self.old_calls,
            self.new_calls
        )
    }
}

/// The request rows: 4 banded references at the scale's size (perfbench
/// uses 30238×3142), batches of 1, 2 and 4 attributes. Asserts the
/// per-attribute apply and the library's fused batch apply bit-identical
/// at 1, 2 and 8 threads and on the global executor, then times both on
/// the global executor.
fn request_timings(scale: &Scale, state: &mut u64) -> Vec<RequestTimings> {
    let shape = Scale { refs: 4, ..*scale };
    let mats: Vec<CsrMatrix> = (0..shape.refs).map(|_| banded_csr(&shape, state)).collect();
    let prepared = prepared_over(&shape, &mats);
    let per_attribute = old::PerAttribute::new(&prepared);
    let global = Executor::global();
    [1usize, 2, 4]
        .into_iter()
        .map(|attributes| {
            let objectives: Vec<AggregateVector> = (0..attributes)
                .map(|a| {
                    let values = (0..shape.n_source).map(|_| lcg(state) * 100.0).collect();
                    AggregateVector::new(format!("attr{a}"), values).expect("objective")
                })
                .collect();
            for exec in [
                Executor::sequential(),
                Executor::new(2),
                Executor::new(8),
                global,
            ] {
                let old_batch = per_attribute.apply_batch_with(&objectives, exec);
                let new_batch = prepared.apply_batch_with(&objectives, exec).expect("batch");
                for ((estimate, weights), n) in old_batch.iter().zip(&new_batch) {
                    assert_bits_eq(estimate, &n.estimate, "apply_request old-vs-new");
                    assert_bits_eq(weights, &n.weights, "apply_request weights");
                }
            }
            let (old_wall_ms, old_cpu_ms, old_calls) =
                wall_and_cpu_ms(|| per_attribute.apply_batch_with(&objectives, global));
            let (new_wall_ms, new_cpu_ms, new_calls) = wall_and_cpu_ms(|| {
                prepared
                    .apply_batch_with(&objectives, global)
                    .expect("batch")
            });
            RequestTimings {
                attributes,
                old_wall_ms,
                new_wall_ms,
                old_cpu_ms,
                new_cpu_ms,
                old_calls,
                new_calls,
            }
        })
        .collect()
}

/// `{}` into one JSON array, as `Json::Number` printed before it had its
/// own writer.
fn display_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// `{}` against the number writer on `values` (finite), through the
/// public `Json::Array(..).to_string()`: asserts the same bytes, then
/// returns the ns per number of each.
fn write_number_timings(values: &[f64], trials: usize) -> (f64, f64) {
    let array = Json::Array(values.iter().map(|&v| Json::Number(v)).collect());
    assert_eq!(
        array.to_string(),
        display_array(values),
        "number writer vs {{}}"
    );
    let per_number = |ns: f64| ns / values.len().max(1) as f64;
    (
        per_number(time_ns(trials, || display_array(black_box(values)))),
        per_number(time_ns(trials, || black_box(&array).to_string())),
    )
}

/// A `/crosswalk` body as perfbench sends it: `attributes` of
/// `n_source` values each, every value with at most 3 decimals.
fn crosswalk_body(n_source: usize, attributes: usize, state: &mut u64) -> String {
    let attributes: Vec<String> = (0..attributes)
        .map(|a| {
            let values: Vec<String> = (0..n_source)
                .map(|_| ((lcg(state) * 1000.0 * 1000.0).round() / 1000.0).to_string())
                .collect();
            format!(r#"{{"name":"a{a}","values":[{}]}}"#, values.join(","))
        })
        .collect();
    format!(
        r#"{{"source":"zip","target":"county","attributes":[{}]}}"#,
        attributes.join(",")
    )
}

/// `json::parse_crosswalk` on `body`: asserts every value typed and equal
/// to the tree parser's, then returns (values, ns per body).
fn parse_crosswalk_timing(body: &str, trials: usize) -> (usize, f64) {
    let tree = json::parse(body).expect("tree parse");
    let Some(Bulk::Typed(attributes)) = json::parse_crosswalk(body).expect("parse").bulk else {
        panic!("attributes should decode typed");
    };
    let tree_attributes = tree
        .get("attributes")
        .and_then(Json::as_array)
        .expect("attributes");
    let mut values = 0;
    for (attribute, tree) in attributes.iter().zip(tree_attributes) {
        let Some(Bulk::Typed(typed)) = &attribute.bulk else {
            panic!("values should decode typed");
        };
        let tree = tree.get("values").and_then(Json::as_array).expect("values");
        let tree: Vec<f64> = tree.iter().map(|v| v.as_f64().expect("number")).collect();
        assert_bits_eq(typed, &tree, "parse_crosswalk vs parse");
        values += typed.len();
    }
    let ns = time_ns(trials, || {
        json::parse_crosswalk(black_box(body)).expect("parse")
    });
    (values, ns)
}

fn random_design(scale: &Scale, state: &mut u64) -> DMatrix {
    let columns: Vec<Vec<f64>> = (0..scale.refs)
        .map(|_| {
            (0..scale.n_source)
                .map(|_| lcg(state) * 100.0)
                .collect::<Vec<f64>>()
        })
        .collect();
    DMatrix::from_columns(&columns).expect("design")
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Before/after timings of one kernel, single-thread and at 8 threads.
struct KernelTimings {
    old_seq_ns: f64,
    new_seq_ns: f64,
    old_t8_ns: f64,
    new_t8_ns: f64,
    /// Logical rows one run processes (throughput numerator).
    rows: u64,
    /// Elements (mul-adds / nonzeros / cells) one run touches.
    elements: u64,
}

impl KernelTimings {
    fn json(&self, label: &str) -> String {
        let mut out = String::new();
        let rps = |ns: f64| self.rows as f64 / (ns.max(1.0) * 1e-9);
        let npe = |ns: f64| ns / (self.elements.max(1) as f64);
        let _ = writeln!(out, "      \"{label}\": {{");
        let _ = writeln!(
            out,
            "        \"old_ms\": {:.4}, \"new_ms\": {:.4}, \"single_thread_speedup\": {:.3},",
            self.old_seq_ns / 1e6,
            self.new_seq_ns / 1e6,
            self.old_seq_ns / self.new_seq_ns.max(1.0)
        );
        let _ = writeln!(
            out,
            "        \"old_rows_per_sec\": {:.0}, \"new_rows_per_sec\": {:.0},",
            rps(self.old_seq_ns),
            rps(self.new_seq_ns)
        );
        let _ = writeln!(
            out,
            "        \"old_ns_per_element\": {:.3}, \"new_ns_per_element\": {:.3},",
            npe(self.old_seq_ns),
            npe(self.new_seq_ns)
        );
        let _ = write!(
            out,
            "        \"old_threads8_ms\": {:.4}, \"new_threads8_ms\": {:.4}\n      }}",
            self.old_t8_ns / 1e6,
            self.new_t8_ns / 1e6
        );
        out
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 30238u64;
    let mut trials = 5usize;
    let mut out_path = "BENCH_kernels.json".to_owned();
    let mut only: Option<&'static str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().expect("--seed value").parse().expect("int"),
            "--trials" => trials = it.next().expect("--trials value").parse().expect("int"),
            "--out" => out_path = it.next().expect("--out value").clone(),
            "--small" => only = Some("small"),
            "--medium" => only = Some("medium"),
            "--paper" | "--full" => only = Some("paper"),
            flag => {
                eprintln!("unknown argument: {flag}");
                std::process::exit(2);
            }
        }
    }
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scales: Vec<&Scale> = SCALES
        .iter()
        .filter(|s| only.is_none_or(|o| o == s.name))
        .collect();

    let mut scale_blocks: Vec<String> = Vec::new();
    for scale in &scales {
        let mut state = seed;
        eprintln!(
            "# kernels — scale {} ({}x{}, {} refs), trials {trials}",
            scale.name, scale.n_source, scale.n_target, scale.refs
        );
        let design = random_design(scale, &mut state);
        let csr = random_csr(scale, &mut state);
        let x: Vec<f64> = (0..scale.n_target).map(|_| lcg(&mut state) * 3.0).collect();
        let seq = Executor::sequential();
        let t8 = Executor::new(8);

        // --- gram ---------------------------------------------------------
        let new_gram = design.gram_with(seq).expect("gram");
        for threads in [1usize, 2, 8] {
            let exec = if threads == 1 {
                Executor::sequential()
            } else {
                Executor::new(threads)
            };
            let old_g = old::gram_with(&design, exec).expect("old gram");
            let new_g = design.gram_with(exec).expect("new gram");
            for j in 0..new_gram.ncols() {
                assert_bits_eq(old_g.column(j), new_gram.column(j), "gram old-vs-new");
                assert_bits_eq(new_g.column(j), new_gram.column(j), "gram threads");
            }
        }
        let k = scale.refs as u64;
        let gram = KernelTimings {
            old_seq_ns: time_ns(trials, || old::gram_with(&design, seq).expect("gram")),
            new_seq_ns: time_ns(trials, || design.gram_with(seq).expect("gram")),
            old_t8_ns: time_ns(trials, || old::gram_with(&design, t8).expect("gram")),
            new_t8_ns: time_ns(trials, || design.gram_with(t8).expect("gram")),
            rows: scale.n_source as u64,
            elements: k * (k + 1) / 2 * scale.n_source as u64,
        };

        // --- CSR matvec ---------------------------------------------------
        let new_y = csr.matvec_with(&x, seq).expect("matvec");
        for threads in [1usize, 2, 8] {
            let exec = if threads == 1 {
                Executor::sequential()
            } else {
                Executor::new(threads)
            };
            let old_y = old::matvec_with(&csr, &x, exec).expect("old matvec");
            let par_y = csr.matvec_with(&x, exec).expect("new matvec");
            assert_bits_eq(&old_y, &new_y, "csr_matvec old-vs-new");
            assert_bits_eq(&par_y, &new_y, "csr_matvec threads");
        }
        let matvec = KernelTimings {
            old_seq_ns: time_ns(trials * 4, || old::matvec_with(&csr, &x, seq).expect("mv")),
            new_seq_ns: time_ns(trials * 4, || csr.matvec_with(&x, seq).expect("mv")),
            old_t8_ns: time_ns(trials * 4, || old::matvec_with(&csr, &x, t8).expect("mv")),
            new_t8_ns: time_ns(trials * 4, || csr.matvec_with(&x, t8).expect("mv")),
            rows: csr.nrows() as u64,
            elements: csr.nnz() as u64,
        };

        // --- simplex-LS (the default active-set solver) -------------------
        // On the unnormalized design (entries up to 100, Gram entries near
        // 1e7 at paper scale), whose KKT solves need the scaled retry.
        let gs = GramSystem::new(&design).expect("gram system");
        let b: Vec<f64> = (0..scale.n_source)
            .map(|_| lcg(&mut state) * 100.0)
            .collect();
        let atb = design.tr_matvec(&b).expect("atb");
        let btb = dot(&b, &b);
        let (old_beta, old_obj, old_iters) =
            old::solve_active_set_gram(&gs, &atb, btb).expect("old active set");
        let mut solver_scratch = SolverScratch::new();
        let new_sol = solve_active_set_gram_scratch(&gs, &atb, btb, &mut solver_scratch)
            .expect("new active set");
        assert_bits_eq(&old_beta, &new_sol.beta, "active-set beta old-vs-new");
        assert_eq!(
            old_obj.to_bits(),
            new_sol.objective.to_bits(),
            "active-set obj"
        );
        assert_eq!(old_iters, new_sol.iterations, "active-set iteration count");
        let iters = old_iters.max(1) as u64;
        // The solver is single-threaded; the 8-thread columns repeat the
        // sequential numbers so the JSON schema stays uniform.
        let old_ns = time_ns(trials * 100, || {
            old::solve_active_set_gram(&gs, &atb, btb).expect("active set")
        });
        let new_ns = time_ns(trials * 100, || {
            solve_active_set_gram_scratch(&gs, &atb, btb, &mut solver_scratch).expect("active set")
        });
        let simplex = KernelTimings {
            old_seq_ns: old_ns,
            new_seq_ns: new_ns,
            old_t8_ns: old_ns,
            new_t8_ns: new_ns,
            rows: iters,
            elements: iters * k * k,
        };

        // --- apply_batch, scattered and banded targets ---------------------
        let objectives: Vec<AggregateVector> = (0..scale.batch)
            .map(|i| {
                let values: Vec<f64> = (0..scale.n_source)
                    .map(|_| lcg(&mut state) * 100.0)
                    .collect();
                AggregateVector::new(format!("attr{i}"), values).expect("objective")
            })
            .collect();
        let scattered: Vec<CsrMatrix> = (0..scale.refs)
            .map(|_| random_csr(scale, &mut state))
            .collect();
        let banded: Vec<CsrMatrix> = (0..scale.refs)
            .map(|_| banded_csr(scale, &mut state))
            .collect();
        let (apply, _) = apply_timings(scale, &scattered, &objectives, trials);
        let (apply_banded, estimates) = apply_timings(scale, &banded, &objectives, trials);

        // --- one /crosswalk's apply in perfbench's shape (paper only) ------
        let requests = if scale.name == "paper" {
            request_timings(scale, &mut state)
        } else {
            Vec::new()
        };

        // --- JSON codec: a 2-attribute /crosswalk's numbers ---------------
        // The response's estimates (banded references, as perfbench's),
        // and as many random finite bit patterns.
        let estimates: Vec<f64> = estimates.into_iter().take(2).flatten().collect();
        let random_bits: Vec<f64> = (0..estimates.len())
            .map(|_| {
                let bits = (lcg(&mut state) * (1u64 << 53) as f64) as u64;
                f64::from_bits(bits << 11 | (lcg(&mut state) * 2048.0) as u64)
            })
            .filter(|v| v.is_finite())
            .collect();
        let (estimates_display_ns, estimates_writer_ns) =
            write_number_timings(&estimates, trials * 40);
        let (random_display_ns, random_writer_ns) = write_number_timings(&random_bits, trials * 10);
        let body = crosswalk_body(scale.n_source, 2, &mut state);
        let (body_values, parse_ns) = parse_crosswalk_timing(&body, trials * 20);

        // --- overlay (untouched kernel: current numbers only) -------------
        let bounds = Aabb::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        let mut r = |_| lcg(&mut state);
        let fine =
            VoronoiDiagram::jittered_grid(bounds, scale.grid_fine, scale.grid_fine, 0.45, &mut r)
                .expect("fine voronoi");
        let coarse = VoronoiDiagram::jittered_grid(
            bounds,
            scale.grid_coarse,
            scale.grid_coarse,
            0.45,
            &mut r,
        )
        .expect("coarse voronoi");
        let src = PolygonUnitSystem::from_voronoi("fine", fine).expect("source system");
        let tgt = PolygonUnitSystem::from_voronoi("coarse", coarse).expect("target system");
        let overlay_trials = if scale.name == "paper" { 1 } else { trials };
        let seq_overlay = Overlay::polygons_with(&src, &tgt, seq).expect("overlay");
        for threads in [2usize, 8] {
            let par = Overlay::polygons_with(&src, &tgt, Executor::new(threads)).expect("overlay");
            assert_eq!(par.len(), seq_overlay.len(), "overlay determinism");
            for (a, b) in seq_overlay.pieces().iter().zip(par.pieces()) {
                assert_eq!(a.measure.to_bits(), b.measure.to_bits(), "overlay bits");
            }
        }
        let overlay_seq_ns = time_ns(overlay_trials, || {
            Overlay::polygons_with(&src, &tgt, seq).expect("overlay")
        });
        let overlay_t8_ns = time_ns(overlay_trials, || {
            Overlay::polygons_with(&src, &tgt, t8).expect("overlay")
        });

        // --- single-thread win gate (paper scale only) --------------------
        if scale.name == "paper" {
            assert!(
                gram.new_seq_ns <= gram.old_seq_ns,
                "gram rework must win single-thread at paper scale: old {:.3} ms vs new {:.3} ms",
                gram.old_seq_ns / 1e6,
                gram.new_seq_ns / 1e6
            );
            assert!(
                matvec.new_seq_ns <= matvec.old_seq_ns,
                "matvec rework must win single-thread at paper scale: old {:.3} ms vs new {:.3} ms",
                matvec.old_seq_ns / 1e6,
                matvec.new_seq_ns / 1e6
            );
            // Banded only: on scattered targets the two applies measure
            // within about 10% of each other, either way (DESIGN.md §15).
            assert!(
                apply_banded.new_seq_ns <= apply_banded.old_seq_ns,
                "target-major apply must win single-thread on banded references at paper scale: \
                 old {:.3} ms vs new {:.3} ms",
                apply_banded.old_seq_ns / 1e6,
                apply_banded.new_seq_ns / 1e6
            );
            // On any host: fusing saves CPU once a request has two
            // attributes (one attribute fans its walk out instead).
            for r in requests.iter().filter(|r| r.attributes >= 2) {
                assert!(
                    r.new_cpu_ms <= r.old_cpu_ms,
                    "the fused apply must spend no more CPU than the per-attribute apply at {} \
                     attributes: old {:.3} ms vs new {:.3} ms",
                    r.attributes,
                    r.old_cpu_ms,
                    r.new_cpu_ms
                );
            }
        }
        for (label, t) in [
            ("gram", &gram),
            ("csr_matvec", &matvec),
            ("simplex_ls", &simplex),
            ("apply_batch", &apply),
            ("apply_banded", &apply_banded),
        ] {
            eprintln!(
                "{label:>12} @{}: old {:>10.3} ms, new {:>10.3} ms ({:.2}x single-thread)",
                scale.name,
                t.old_seq_ns / 1e6,
                t.new_seq_ns / 1e6,
                t.old_seq_ns / t.new_seq_ns.max(1.0)
            );
        }
        for r in &requests {
            eprintln!(
                "apply_request_{} @{}: wall {:.3} -> {:.3} ms, cpu {:.3} -> {:.3} ms per call",
                r.attributes, scale.name, r.old_wall_ms, r.new_wall_ms, r.old_cpu_ms, r.new_cpu_ms
            );
        }
        eprintln!(
            "json_write_number @{}: {{}} {:.1} ns, writer {:.1} ns per estimate; \
             {{}} {:.1} ns, writer {:.1} ns per random number",
            scale.name,
            estimates_display_ns,
            estimates_writer_ns,
            random_display_ns,
            random_writer_ns
        );
        eprintln!(
            "json_parse_crosswalk @{}: {:.2} ns per value, {:.0} MB/s",
            scale.name,
            parse_ns / body_values as f64,
            body.len() as f64 / parse_ns * 1e3
        );
        eprintln!(
            "     overlay @{}: {:>10.3} ms seq, {:>10.3} ms @8 ({} pieces)",
            scale.name,
            overlay_seq_ns / 1e6,
            overlay_t8_ns / 1e6,
            seq_overlay.len()
        );

        // --- JSON block ---------------------------------------------------
        let mut block = String::new();
        let _ = writeln!(block, "    \"{}\": {{", scale.name);
        let _ = writeln!(
            block,
            "      \"universe\": {{ \"n_source\": {}, \"n_target\": {}, \"refs\": {}, \"nnz\": {}, \"batch\": {}, \"active_set_iterations\": {} }},",
            scale.n_source,
            scale.n_target,
            scale.refs,
            csr.nnz(),
            scale.batch,
            old_iters
        );
        for (label, mats) in [("apply_batch", &scattered), ("apply_batch_banded", &banded)] {
            let _ = writeln!(
                block,
                "      \"{label}_references\": {{ \"nnz\": {}, \"previous_row_share\": {:.4} }},",
                mats.iter().map(CsrMatrix::nnz).sum::<usize>(),
                previous_row_share(mats)
            );
        }
        block.push_str(&gram.json("gram"));
        block.push_str(",\n");
        block.push_str(&matvec.json("csr_matvec"));
        block.push_str(",\n");
        block.push_str(&simplex.json("simplex_ls"));
        block.push_str(",\n");
        block.push_str(&apply.json("apply_batch"));
        block.push_str(",\n");
        block.push_str(&apply_banded.json("apply_batch_banded"));
        block.push_str(",\n");
        for r in &requests {
            block.push_str(&r.json());
            block.push_str(",\n");
        }
        let _ = writeln!(
            block,
            "      \"json_write_number\": {{ \"estimates\": {}, \"estimates_display_ns_per_number\": {:.2}, \"estimates_writer_ns_per_number\": {:.2}, \"estimates_speedup\": {:.3}, \"random_bits\": {}, \"random_bits_display_ns_per_number\": {:.2}, \"random_bits_writer_ns_per_number\": {:.2}, \"random_bits_speedup\": {:.3} }},",
            estimates.len(),
            estimates_display_ns,
            estimates_writer_ns,
            estimates_display_ns / estimates_writer_ns,
            random_bits.len(),
            random_display_ns,
            random_writer_ns,
            random_display_ns / random_writer_ns
        );
        let _ = writeln!(
            block,
            "      \"json_parse_crosswalk\": {{ \"attributes\": 2, \"values\": {}, \"body_bytes\": {}, \"ms\": {:.4}, \"ns_per_value\": {:.2}, \"mb_per_s\": {:.1} }},",
            body_values,
            body.len(),
            parse_ns / 1e6,
            parse_ns / body_values as f64,
            body.len() as f64 / parse_ns * 1e3
        );
        let _ = writeln!(
            block,
            "      \"overlay\": {{ \"ms\": {:.4}, \"threads8_ms\": {:.4}, \"pieces\": {}, \"pieces_per_sec\": {:.0}, \"ns_per_piece\": {:.1} }}",
            overlay_seq_ns / 1e6,
            overlay_t8_ns / 1e6,
            seq_overlay.len(),
            seq_overlay.len() as f64 / (overlay_seq_ns.max(1.0) * 1e-9),
            overlay_seq_ns / seq_overlay.len().max(1) as f64
        );
        block.push_str("    }");
        scale_blocks.push(block);
    }

    // --- BENCH_kernels.json ----------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    json.push_str(&geoalign_bench::metadata_json_lines());
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(
        json,
        "  \"bit_identity\": {{ \"thread_counts\": [1, 2, 8], \"old_equals_new\": true }},"
    );
    json.push_str("  \"scales\": {\n");
    json.push_str(&scale_blocks.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
