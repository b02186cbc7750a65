//! Old-vs-new kernel equivalence: the cache-aware rework (blocked gram,
//! branch-free CSR matvec, scratch-arena solvers) must be **bit-identical**
//! to the kernels it replaced, at every thread count, on every shape —
//! including degenerate ones. The pre-rework kernels are transliterated
//! into [`old`] below from this repository's own history, so the contract
//! is checked against real code, not a description of it.

use geoalign_exec::Executor;
use geoalign_linalg::dense::{axpy, dot, norm2};
use geoalign_linalg::nnls::{nnls, nnls_scratch};
use geoalign_linalg::simplex_ls::{
    self, project_to_simplex, solve_gram, solve_gram_scratch, GramSystem, SimplexSolver,
};
use geoalign_linalg::{CooMatrix, CsrMatrix, DMatrix, LinalgError, SolverScratch};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 2] = [2, 8];

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn dense(rows: usize, cols: usize, state: &mut u64) -> DMatrix {
    let mut m = DMatrix::zeros(rows, cols);
    for j in 0..cols {
        for v in m.column_mut(j) {
            *v = lcg(state) * 2.0 - 1.0;
        }
    }
    m
}

fn sparse(rows: usize, cols: usize, density: f64, state: &mut u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            if lcg(state) < density {
                coo.push(i, j, lcg(state) * 10.0 - 5.0).unwrap();
            }
        }
    }
    coo.to_csr()
}

/// The pre-rework kernels, transliterated verbatim (same expressions,
/// same evaluation order) from the commit the rework replaced.
mod old {
    use super::*;

    /// Old `DMatrix::gram_with`: per-task upper-triangle `Vec`s gathered
    /// into the output matrix afterwards. Also the "naive" reference the
    /// blocked kernel is compared against: one `dot` per (i, j) pair.
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

    /// Old `CsrMatrix::matvec_with`: materialized chunk ranges, one
    /// partial-result `Vec` per chunk, gathered by a final copy.
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

    /// Old FISTA loop: fresh `grad`/`z`/`x_next`/`diff` allocations and
    /// two clones per iteration.
    pub fn solve_projected_gradient_gram(
        gs: &GramSystem,
        atb: &[f64],
        btb: f64,
        max_iter: usize,
        tol: f64,
    ) -> Result<(Vec<f64>, f64, usize), LinalgError> {
        let n = gs.n();
        let g = gs.gram();
        let mut lmax = 0.0f64;
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                row_sum += g[(i, j)].abs();
            }
            lmax = lmax.max(row_sum);
        }
        let step = 1.0 / lmax.max(f64::MIN_POSITIVE);

        let mut x = vec![1.0 / n as f64; n];
        let mut y = x.clone();
        let mut t = 1.0f64;
        let mut iterations = 0;
        let scale = btb.sqrt().max(1.0);
        let mut best = x.clone();
        let mut best_obj = objective(gs, &x, atb, btb)?;
        let mut prev_obj = best_obj;
        for _ in 0..max_iter {
            iterations += 1;
            let grad = gradient(gs, &y, atb)?;
            let mut z: Vec<f64> = y.clone();
            axpy(-step, &grad, &mut z);
            let x_next = project_to_simplex(&z);
            let obj = objective(gs, &x_next, atb, btb)?;
            if obj < best_obj {
                best_obj = obj;
                best.clone_from(&x_next);
            }
            let restart = obj > prev_obj;
            prev_obj = obj;
            let t_next = if restart {
                1.0
            } else {
                0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt())
            };
            let momentum = if restart { 0.0 } else { (t - 1.0) / t_next };
            let diff: Vec<f64> = x_next.iter().zip(&x).map(|(p, q)| p - q).collect();
            let delta = norm2(&diff);
            y = x_next.clone();
            axpy(momentum, &diff, &mut y);
            x = x_next;
            t = t_next;
            if delta <= tol * scale {
                break;
            }
        }
        let beta = project_to_simplex(&best);
        let objective = objective(gs, &beta, atb, btb)?;
        Ok((beta, objective, iterations))
    }
}

/// A pseudo-random simplex-LS problem: (design, atb, btb).
fn random_problem(m: usize, k: usize, state: &mut u64) -> (DMatrix, Vec<f64>, f64) {
    let a = dense(m, k, state);
    let b: Vec<f64> = (0..m).map(|_| lcg(state) * 4.0 - 1.0).collect();
    let atb = a.tr_matvec(&b).unwrap();
    let btb = dot(&b, &b);
    (a, atb, btb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked/tiled gram == naive per-pair gram, bitwise, on random
    /// shapes, at 1, 2 and 8 threads.
    #[test]
    fn tiled_gram_matches_naive_gram_bitwise(
        rows in 0usize..80,
        cols in 0usize..13,
        seed in 0u64..u64::MAX,
    ) {
        let mut state = seed;
        let a = dense(rows, cols, &mut state);
        let reference = old::gram_with(&a, Executor::sequential()).unwrap();
        let new_seq = a.gram_with(Executor::sequential()).unwrap();
        prop_assert_eq!(new_seq.nrows(), cols);
        for j in 0..cols {
            prop_assert_eq!(bits(reference.column(j)), bits(new_seq.column(j)));
        }
        for threads in THREAD_COUNTS {
            let exec = Executor::new(threads);
            let old_par = old::gram_with(&a, exec).unwrap();
            let new_par = a.gram_with(exec).unwrap();
            for j in 0..cols {
                prop_assert_eq!(bits(old_par.column(j)), bits(reference.column(j)));
                prop_assert_eq!(bits(new_par.column(j)), bits(reference.column(j)));
            }
        }
    }

    /// Branch-free CSR matvec == the chunk-gather reference, bitwise, on
    /// random shapes and sparsities, at 1, 2 and 8 threads.
    #[test]
    fn branch_free_matvec_matches_reference_bitwise(
        rows in 0usize..90,
        cols in 1usize..25,
        density in 0.0f64..0.9,
        seed in 0u64..u64::MAX,
    ) {
        let mut state = seed;
        let m = sparse(rows, cols, density, &mut state);
        let x: Vec<f64> = (0..cols).map(|_| lcg(&mut state) * 2.0 - 1.0).collect();
        let reference = old::matvec_with(&m, &x, Executor::sequential()).unwrap();
        prop_assert_eq!(bits(&reference), bits(&m.matvec_with(&x, Executor::sequential()).unwrap()));
        for threads in THREAD_COUNTS {
            let exec = Executor::new(threads);
            prop_assert_eq!(bits(&reference), bits(&old::matvec_with(&m, &x, exec).unwrap()));
            prop_assert_eq!(bits(&reference), bits(&m.matvec_with(&x, exec).unwrap()));
        }
    }
}

/// One entry of the `tr_matvec_into` cases: mostly ordinary, sometimes
/// `-0.0`, subnormal or large (products stay finite).
fn spiky(state: &mut u64) -> f64 {
    match (lcg(state) * 8.0) as usize {
        0 => -0.0,
        1 => f64::from_bits(1 + (lcg(state) * (1u64 << 52) as f64) as u64),
        2 => (lcg(state) * 2.0 - 1.0) * 1e150,
        _ => lcg(state) * 2.0 - 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `tr_matvec_into`, four columns per pass, == one `dot` per column,
    /// bitwise, over 1–9 columns and 0–300 rows.
    #[test]
    fn tr_matvec_matches_per_column_dot_bitwise(
        rows in 0usize..301,
        cols in 1usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let mut state = seed;
        let columns: Vec<Vec<f64>> = (0..cols)
            .map(|_| (0..rows).map(|_| spiky(&mut state)).collect())
            .collect();
        let a = DMatrix::from_columns(&columns).unwrap();
        let y: Vec<f64> = (0..rows).map(|_| spiky(&mut state)).collect();
        let want: Vec<f64> = (0..cols).map(|j| dot(a.column(j), &y)).collect();
        let mut got = vec![f64::NAN; cols];
        a.tr_matvec_into(&y, &mut got).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// The scratch-arena FISTA is bit-identical to the historical allocating
/// loop on a spread of random problems — same iterates, same restart
/// decisions, same iteration counts.
#[test]
fn fista_scratch_matches_old_fista_bitwise() {
    let mut state = 0xabcdef;
    let mut scratch = SolverScratch::new();
    for trial in 0..25 {
        let (m, k) = (3 + trial % 17, 1 + trial % 7);
        let (a, atb, btb) = random_problem(m, k, &mut state);
        let gs = GramSystem::new(&a).unwrap();
        let (old_beta, old_obj, old_iters) =
            old::solve_projected_gradient_gram(&gs, &atb, btb, 2000, 1e-12).unwrap();
        // The SAME arena is reused across all trials: results must not
        // depend on what a previous solve left in the buffers.
        let new = simplex_ls::solve_projected_gradient_gram_scratch(
            &gs,
            &atb,
            btb,
            2000,
            1e-12,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(bits(&old_beta), bits(&new.beta), "trial {trial}");
        assert_eq!(old_obj.to_bits(), new.objective.to_bits(), "trial {trial}");
        assert_eq!(old_iters, new.iterations, "trial {trial}");
    }
}

/// Both public solvers give bitwise-identical output through a fresh
/// arena, a dirty reused arena, and the no-scratch entry point.
#[test]
fn solvers_are_scratch_reuse_invariant() {
    let mut state = 0x5eedbead;
    let mut reused = SolverScratch::new();
    for trial in 0..20 {
        let (m, k) = (4 + trial % 13, 1 + (trial * 3) % 6);
        let (a, atb, btb) = random_problem(m, k, &mut state);
        let gs = GramSystem::new(&a).unwrap();
        for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
            let plain = solve_gram(&gs, &atb, btb, solver).unwrap();
            let fresh =
                solve_gram_scratch(&gs, &atb, btb, solver, &mut SolverScratch::new()).unwrap();
            let dirty = solve_gram_scratch(&gs, &atb, btb, solver, &mut reused).unwrap();
            assert_eq!(
                bits(&plain.beta),
                bits(&fresh.beta),
                "{solver:?} trial {trial}"
            );
            assert_eq!(
                bits(&plain.beta),
                bits(&dirty.beta),
                "{solver:?} trial {trial}"
            );
            assert_eq!(plain.objective.to_bits(), dirty.objective.to_bits());
            assert_eq!(plain.iterations, dirty.iterations);
        }
    }
}

/// NNLS through a dirty reused arena matches the no-scratch entry point
/// bitwise, problem after problem.
#[test]
fn nnls_is_scratch_reuse_invariant() {
    let mut state = 0x77aa;
    let mut reused = SolverScratch::new();
    for trial in 0..20 {
        let (m, n) = (3 + trial % 11, 1 + trial % 5);
        let a = dense(m, n, &mut state);
        let b: Vec<f64> = (0..m).map(|_| lcg(&mut state) * 3.0).collect();
        let plain = nnls(&a, &b).unwrap();
        let dirty = nnls_scratch(&a, &b, &mut reused).unwrap();
        assert_eq!(bits(&plain.x), bits(&dirty.x), "trial {trial}");
        assert_eq!(
            plain.residual_norm.to_bits(),
            dirty.residual_norm.to_bits(),
            "trial {trial}"
        );
        assert_eq!(plain.iterations, dirty.iterations, "trial {trial}");
    }
}

// --- Degenerate-shape audit -----------------------------------------------

#[test]
fn degenerate_gram_shapes() {
    // 0×0 and n×0 grams are empty matrices, not panics, at every thread
    // count — and the old kernel agreed.
    for (rows, cols) in [(0usize, 0usize), (5, 0), (0, 3)] {
        let a = DMatrix::zeros(rows, cols);
        let g = a.gram_with(Executor::sequential()).unwrap();
        assert_eq!((g.nrows(), g.ncols()), (cols, cols));
        for threads in THREAD_COUNTS {
            let gp = a.gram_with(Executor::new(threads)).unwrap();
            assert_eq!((gp.nrows(), gp.ncols()), (cols, cols));
            for j in 0..cols {
                assert_eq!(bits(g.column(j)), bits(gp.column(j)));
            }
        }
        let old_g = old::gram_with(&a, Executor::sequential()).unwrap();
        assert_eq!((old_g.nrows(), old_g.ncols()), (cols, cols));
    }
}

#[test]
fn degenerate_csr_matvec_shapes() {
    // A 0-row matrix maps to the empty vector.
    let empty = CooMatrix::new(0, 4).to_csr();
    let x = [1.0, 2.0, 3.0, 4.0];
    for threads in [1usize, 2, 8] {
        let exec = if threads == 1 {
            Executor::sequential()
        } else {
            Executor::new(threads)
        };
        assert!(empty.matvec_with(&x, exec).unwrap().is_empty());
    }
    // Rows with no stored entries produce -0.0 (the empty `.sum()`, the
    // additive identity — numerically zero), interleaved with occupied
    // rows, exactly as the old per-row-sum kernel did.
    let mut coo = CooMatrix::new(5, 3);
    coo.push(1, 2, 2.5).unwrap();
    coo.push(3, 0, -1.0).unwrap();
    let m = coo.to_csr();
    let y = m.matvec(&[2.0, 0.0, 4.0]).unwrap();
    assert_eq!(bits(&y), bits(&[-0.0, 10.0, -0.0, -2.0, -0.0]));
    assert_eq!(
        bits(&y),
        bits(&old::matvec_with(&m, &[2.0, 0.0, 4.0], Executor::sequential()).unwrap())
    );
    // Shape mismatches stay errors (not panics) through the new path.
    assert!(matches!(
        m.matvec(&[1.0]),
        Err(LinalgError::ShapeMismatch { .. })
    ));
}

#[test]
fn degenerate_solver_shapes() {
    // k = 0 problems are rejected at Gram construction — the solvers can
    // never see an empty simplex (whose projection is undefined).
    assert!(matches!(
        GramSystem::new(&DMatrix::zeros(5, 0)),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        GramSystem::new(&DMatrix::zeros(0, 0)),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        simplex_ls::solve(&DMatrix::zeros(4, 0), &[], SimplexSolver::ActiveSet),
        Err(LinalgError::Empty)
    ));
    // Same for NNLS, through both entry points.
    assert!(matches!(
        nnls(&DMatrix::zeros(0, 3), &[]),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        nnls_scratch(&DMatrix::zeros(3, 0), &[1.0; 3], &mut SolverScratch::new()),
        Err(LinalgError::Empty)
    ));
    // k = 1 collapses to β = [1] exactly, through a dirty arena too.
    let mut state = 0x31;
    let a = dense(6, 1, &mut state);
    let b: Vec<f64> = (0..6).map(|_| lcg(&mut state)).collect();
    let gs = GramSystem::new(&a).unwrap();
    let atb = a.tr_matvec(&b).unwrap();
    let mut scratch = SolverScratch::new();
    for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
        let sol = solve_gram_scratch(&gs, &atb, dot(&b, &b), solver, &mut scratch).unwrap();
        assert_eq!(sol.beta.len(), 1);
        assert!((sol.beta[0] - 1.0).abs() < 1e-12, "{solver:?}");
    }
}
