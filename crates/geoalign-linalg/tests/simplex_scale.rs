//! The active-set simplex solver at any column scale: weight learning
//! without max-normalization (`GeoAlignConfig { normalize: false }`)
//! hands it raw reference counts, whose Gram entries can be many orders
//! of magnitude away from the unit border of its KKT system.

use geoalign_linalg::dense::{dot, DMatrix};
use geoalign_linalg::simplex_ls::{
    solve_active_set_gram, solve_gram, solve_projected_gradient_gram, GramSystem, SimplexSolver,
};

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A random `m × n` design with entries in `[0, scale)` and an objective
/// on the same scale, as its Gram state, `Aᵀb` and `bᵀb`.
fn problem(m: usize, n: usize, scale: f64, state: &mut u64) -> (GramSystem, Vec<f64>, f64) {
    let columns: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..m).map(|_| lcg(state) * scale).collect())
        .collect();
    let b: Vec<f64> = (0..m).map(|_| lcg(state) * scale).collect();
    let a = DMatrix::from_columns(&columns).expect("design");
    let atb = a.tr_matvec(&b).expect("atb");
    (GramSystem::new(&a).expect("gram"), atb, dot(&b, &b))
}

/// Full-rank designs from 12×3 to the paper's 30238 source units, with
/// column scales from 1e-3 to 1e150: the active-set solver answers every
/// one, and its objective is no worse than projected gradient's.
#[test]
fn active_set_solves_full_rank_designs_at_every_column_scale() {
    let mut state = 0x05ee_d0f5_ca1e;
    let sizes = [(12, 3), (200, 4), (2000, 4), (30238, 8)];
    let scales = [
        1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e6, 1e10, 1e50, 1e100, 1e150,
    ];
    for (m, n) in sizes {
        for scale in scales {
            for seed in 0..2 {
                let (gs, atb, btb) = problem(m, n, scale, &mut state);
                let what = format!("{m}x{n} at scale {scale:e}, seed {seed}");
                let exact = solve_active_set_gram(&gs, &atb, btb)
                    .unwrap_or_else(|e| panic!("{what}: active set failed: {e}"));
                let sum: f64 = exact.beta.iter().sum();
                assert!(exact.beta.iter().all(|&w| w >= 0.0), "{what}");
                assert!((sum - 1.0).abs() < 1e-9, "{what}: weights sum to {sum}");
                let pg = solve_projected_gradient_gram(&gs, &atb, btb, 2000, 1e-12)
                    .unwrap_or_else(|e| panic!("{what}: projected gradient failed: {e}"));
                // Both objectives sit near ½bᵀb; compare on that scale.
                let tolerance = 1e-9 * btb;
                assert!(
                    exact.objective <= pg.objective + tolerance,
                    "{what}: active set {} vs projected gradient {}",
                    exact.objective,
                    pg.objective
                );
            }
        }
    }
}

/// FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The scale retry runs only after a solve has failed, so every problem
/// the solver already answered keeps its weights, objective and
/// iteration count to the bit. The digest was taken before the retry
/// existed; the problems include max-normalized designs, unnormalized
/// ones at scales it already handled, and duplicate columns, which take
/// the ridge fallback.
#[test]
fn active_set_keeps_its_bits_where_it_already_solved() {
    let mut state = 0x00d1_6e57;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut solved = 0;
    let sizes = [(3, 2), (12, 3), (50, 5), (200, 4), (2000, 4), (500, 8)];
    for (m, n) in sizes {
        for scale in [1.0, 0.5, 10.0] {
            for duplicate in [false, true] {
                for _ in 0..4 {
                    let mut columns: Vec<Vec<f64>> = (0..n)
                        .map(|_| (0..m).map(|_| lcg(&mut state) * scale).collect())
                        .collect();
                    if duplicate {
                        columns[n - 1] = columns[0].clone();
                    }
                    let b: Vec<f64> = (0..m).map(|_| lcg(&mut state) * scale).collect();
                    let a = DMatrix::from_columns(&columns).expect("design");
                    let gs = GramSystem::new(&a).expect("gram");
                    let atb = a.tr_matvec(&b).expect("atb");
                    let sol = solve_gram(&gs, &atb, dot(&b, &b), SimplexSolver::ActiveSet)
                        .unwrap_or_else(|e| panic!("{m}x{n} at scale {scale}: {e}"));
                    for w in &sol.beta {
                        fnv(&mut hash, w.to_bits());
                    }
                    fnv(&mut hash, sol.objective.to_bits());
                    fnv(&mut hash, sol.iterations as u64);
                    solved += 1;
                }
            }
        }
    }
    assert_eq!(solved, 144);
    assert_eq!(hash, 0x101f_1ea9_95ac_779d, "digest {hash:#018x}");
}
