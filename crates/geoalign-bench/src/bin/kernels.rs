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
//! Writes `BENCH_kernels.json` (see `--out`). At the paper scale the
//! binary additionally gates on the new kernels actually winning
//! single-thread on gram, CSR matvec and the banded apply.
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
use std::fmt::Write as _;
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
    /// bordered matrix and QR per call, a ridge retry when singular.
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
        let sol = HouseholderQr::new(&kkt)?.solve(&rhs).or_else(|_| {
            let mut reg = kkt.clone();
            let scale = (0..k).map(|p| reg[(p, p)].abs()).fold(0.0f64, f64::max);
            for p in 0..k {
                reg[(p, p)] += 1e-10 * scale.max(1.0);
            }
            HouseholderQr::new(&reg)?.solve(&rhs)
        })?;
        Ok(sol[..k].to_vec())
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

    /// The row-major mixture `PreparedCrosswalk::apply_values_into` ran
    /// before it went target-major, rebuilt from public calls: weight
    /// learning through the snapshot, then Eq. 14's scale-adapted weights
    /// and per-row factors from the references' row sums, then a scatter
    /// `estimate[j] += f * v` over each reference's CSR rows in
    /// (reference, row) order. One scratch set per worker, as the
    /// library's batch path has.
    pub struct RowMajor<'a> {
        prepared: &'a PreparedCrosswalk,
        /// Per-reference disaggregation row sums, snapshotted once as
        /// `prepare` does.
        row_sums: Vec<Vec<f64>>,
    }

    #[derive(Default)]
    struct MixScratch {
        apply: ApplyScratch,
        adapted: Vec<f64>,
        weighted: Vec<f64>,
        unweighted: Vec<f64>,
        rf_weighted: Vec<f64>,
        rf_fallback: Vec<f64>,
    }

    impl<'a> RowMajor<'a> {
        pub fn new(prepared: &'a PreparedCrosswalk) -> Self {
            let row_sums = prepared
                .references()
                .iter()
                .map(|r| r.dm().matrix().row_sums())
                .collect();
            Self { prepared, row_sums }
        }

        fn apply(&self, objective: &AggregateVector, s: &mut MixScratch) -> (Vec<f64>, Vec<f64>) {
            let weights = self
                .prepared
                .learn_weights_scratch(objective, &mut s.apply)
                .expect("weights");
            s.adapted.clear();
            s.adapted
                .extend(weights.iter().zip(&self.row_sums).map(|(&w, sums)| {
                    let m = sums.iter().copied().fold(0.0f64, f64::max);
                    if m > 0.0 {
                        w / m
                    } else {
                        0.0
                    }
                }));
            let n_source = self.prepared.n_source();
            s.weighted.clear();
            s.weighted.resize(n_source, 0.0);
            s.unweighted.clear();
            s.unweighted.resize(n_source, 0.0);
            for (sums, &w) in self.row_sums.iter().zip(&s.adapted) {
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
}

/// One benchmark universe: a dense design matrix (gram + solver), a
/// sparse crosswalk matrix (matvec), prepared references with a query
/// batch (apply), and jittered-grid dimensions (overlay).
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

/// Old-vs-new `apply_batch` over references with the given matrices:
/// asserts the row-major mixture and the library's batch apply
/// bit-identical at 1, 2 and 8 threads, then times both.
fn apply_timings(
    scale: &Scale,
    mats: &[CsrMatrix],
    objectives: &[AggregateVector],
    trials: usize,
) -> KernelTimings {
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
    let prepared = GeoAlign::new().prepare(&ref_slices).expect("prepare");
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
    KernelTimings {
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
    }
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
        // Weight learning solves on max-normalized columns and objective
        // (the default `GeoAlignConfig`), so this row does too.
        let max_normalized = |v: &[f64]| -> Vec<f64> {
            let max = v.iter().copied().fold(0.0f64, f64::max);
            v.iter().map(|x| x / max).collect()
        };
        let columns: Vec<Vec<f64>> = (0..design.ncols())
            .map(|j| max_normalized(design.column(j)))
            .collect();
        let unit_design = DMatrix::from_columns(&columns).expect("design");
        let gs = GramSystem::new(&unit_design).expect("gram system");
        let b: Vec<f64> = (0..scale.n_source)
            .map(|_| lcg(&mut state) * 100.0)
            .collect();
        let b = max_normalized(&b);
        let atb = unit_design.tr_matvec(&b).expect("atb");
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
        let apply = apply_timings(scale, &scattered, &objectives, trials);
        let apply_banded = apply_timings(scale, &banded, &objectives, trials);

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
