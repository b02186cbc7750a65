//! Least squares on the probability simplex — the weight-learning problem
//! of GeoAlign (paper Eq. 15):
//!
//! ```text
//! min_β  ½ ||A β − b||²   subject to   Σ_k β_k = 1,  β_k >= 0
//! ```
//!
//! Two independent solvers are provided:
//!
//! * [`solve_active_set`] — an exact active-set method that eliminates the
//!   equality constraint and enumerates KKT-consistent supports via the
//!   Lawson–Hanson machinery; the default ([`SimplexSolver::default`]).
//! * [`solve_projected_gradient`] — accelerated projected gradient (FISTA)
//!   with exact Euclidean projection onto the simplex (Duchi et al. 2008).
//!
//! Tests assert the two agree, giving mutual validation without an external
//! reference implementation.

use crate::dense::{axpy, dot, householder_factor, householder_solve_into, norm2, DMatrix};

use crate::error::LinalgError;
use crate::scratch::{KktScratch, SolverScratch};

/// Result of a simplex-constrained least-squares solve.
#[derive(Debug, Clone)]
pub struct SimplexLsSolution {
    /// The weight vector; non-negative, sums to 1.
    pub beta: Vec<f64>,
    /// Objective value `½||Aβ − b||²`.
    pub objective: f64,
    /// Iterations used by the solver.
    pub iterations: usize,
}

/// Which simplex least-squares solver to use.
///
/// The active-set method is the default: reference counts are small (the
/// paper uses at most ten), the method is exact, and its cost is a handful
/// of length-`|U^s|` dot products — keeping weight learning negligible
/// next to disaggregation, as the paper reports (§4.3). The projected
/// gradient solver scales to many references and serves as an independent
/// cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimplexSolver {
    /// Accelerated projected gradient (FISTA with simplex projection).
    ProjectedGradient,
    /// Exact active-set method (default).
    #[default]
    ActiveSet,
}

/// The objective's value-independent normal-equations state: the Gram
/// matrix `G = AᵀA` plus the norms the solvers use for scaling. Building
/// it costs `O(n²m)`; afterwards each solve over the same design matrix
/// only needs the `O(nm)` right-hand-side products `Aᵀb` and `bᵀb` — the
/// *prepare* half of the prepare/apply split used by
/// `geoalign_core`'s `PreparedCrosswalk`.
#[derive(Debug, Clone)]
pub struct GramSystem {
    gram: DMatrix,
    frobenius: f64,
}

impl GramSystem {
    /// Precomputes the Gram state of the design matrix `a`.
    pub fn new(a: &DMatrix) -> Result<Self, LinalgError> {
        if a.nrows() == 0 || a.ncols() == 0 {
            return Err(LinalgError::Empty);
        }
        Ok(GramSystem {
            gram: a.gram(),
            frobenius: a.frobenius_norm(),
        })
    }

    /// Reassembles a Gram state from its serialized parts — the exact
    /// `gram` matrix and `frobenius` norm previously read out of an
    /// instance built by [`GramSystem::new`]. Persisting the parts (as
    /// bit patterns) and rebuilding through here yields a state that is
    /// byte-identical to the original, which is what makes a
    /// warm-started solve reproduce the cold one's results exactly.
    pub fn from_parts(gram: DMatrix, frobenius: f64) -> Result<Self, LinalgError> {
        if gram.nrows() == 0 || gram.ncols() == 0 {
            return Err(LinalgError::Empty);
        }
        if gram.nrows() != gram.ncols() {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_from_parts",
                left: (gram.nrows(), gram.ncols()),
                right: (gram.ncols(), gram.ncols()),
            });
        }
        if !frobenius.is_finite() || frobenius < 0.0 {
            return Err(LinalgError::NonFinite);
        }
        Ok(GramSystem { gram, frobenius })
    }

    /// The incremental-prepare delta path: rebuilds the Gram state after
    /// exactly one column of the design matrix changed (or one column was
    /// appended), touching only that column's row/column of `G` instead of
    /// recomputing all `O(n²)` dot products.
    ///
    /// `a` is the *full updated* design matrix and `index` the changed
    /// column; `index == self.n()` grows the system by one column. Every
    /// Gram entry is a single independent dot product with the lower
    /// column index as the left operand — the same evaluation
    /// [`GramSystem::new`] performs — and the Frobenius norm is recomputed
    /// whole, so the result is bit-identical to a from-scratch build over
    /// `a`.
    pub fn with_updated_column(
        &self,
        a: &DMatrix,
        index: usize,
    ) -> Result<GramSystem, LinalgError> {
        let old_n = self.n();
        let n = a.ncols();
        let grows = n == old_n + 1 && index == old_n;
        if a.nrows() == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if index >= n || (n != old_n && !grows) {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_update_column",
                left: (old_n, old_n),
                right: (n, index),
            });
        }
        let mut gram = DMatrix::zeros(n, n);
        for i in 0..old_n {
            for j in 0..old_n {
                gram[(i, j)] = self.gram[(i, j)];
            }
        }
        for j in 0..n {
            let (lo, hi) = (index.min(j), index.max(j));
            let v = dot(a.column(lo), a.column(hi));
            gram[(lo, hi)] = v;
            gram[(hi, lo)] = v;
        }
        GramSystem::from_parts(gram, a.frobenius_norm())
    }

    /// Number of columns of the underlying design matrix.
    pub fn n(&self) -> usize {
        self.gram.ncols()
    }

    /// The Gram matrix `AᵀA`.
    pub fn gram(&self) -> &DMatrix {
        &self.gram
    }

    /// The Frobenius norm `||A||_F` of the underlying design matrix.
    pub fn frobenius(&self) -> f64 {
        self.frobenius
    }

    /// `½ ||Aβ − b||²` expressed through the Gram state
    /// (`½ βᵀGβ − βᵀ(Aᵀb) + ½ bᵀb`) through a reusable `Gβ` buffer —
    /// the allocation-free form the scratch solvers call every iteration.
    fn objective_scratch(
        &self,
        beta: &[f64],
        atb: &[f64],
        btb: f64,
        gb: &mut Vec<f64>,
    ) -> Result<f64, LinalgError> {
        gb.clear();
        gb.resize(beta.len(), 0.0);
        self.gram.matvec_into(beta, gb)?;
        let quad = dot(beta, gb);
        let lin = dot(beta, atb);
        Ok(0.5 * quad - lin + 0.5 * btb)
    }

    /// Gradient `Aᵀ(Aβ − b) = Gβ − Aᵀb` into a reusable buffer.
    fn gradient_into(
        &self,
        beta: &[f64],
        atb: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        out.clear();
        out.resize(beta.len(), 0.0);
        self.gram.matvec_into(beta, out)?;
        for (gi, ci) in out.iter_mut().zip(atb) {
            *gi -= ci;
        }
        Ok(())
    }
}

/// Validates the per-query right-hand-side pair for a Gram-state solve.
fn validate_rhs(gs: &GramSystem, atb: &[f64], btb: f64) -> Result<(), LinalgError> {
    if atb.len() != gs.n() {
        return Err(LinalgError::ShapeMismatch {
            op: "simplex_ls_gram",
            left: (gs.n(), 1),
            right: (atb.len(), 1),
        });
    }
    if !btb.is_finite() || atb.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    Ok(())
}

/// Euclidean projection of `v` onto the probability simplex
/// `{ x : x >= 0, Σx = 1 }` (Duchi, Shalev-Shwartz, Singer, Chandra 2008).
pub fn project_to_simplex(v: &[f64]) -> Vec<f64> {
    let mut u = Vec::new();
    let mut out = Vec::new();
    project_to_simplex_into(v, &mut u, &mut out);
    out
}

/// [`project_to_simplex`] through reusable buffers: `u` is the sort
/// scratch, `out` receives the projection. The allocation-free form the
/// FISTA loop calls every iteration.
fn project_to_simplex_into(v: &[f64], u: &mut Vec<f64>, out: &mut Vec<f64>) {
    let n = v.len();
    assert!(n > 0, "cannot project an empty vector");
    u.clear();
    u.extend_from_slice(v);
    u.sort_by(|a, b| b.total_cmp(a)); // descending
    let mut css = 0.0;
    let mut rho = 0usize;
    let mut theta = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        css += ui;
        let t = (css - 1.0) / (i + 1) as f64;
        if ui - t > 0.0 {
            rho = i + 1;
            theta = t;
        }
    }
    debug_assert!(rho > 0);
    out.clear();
    out.extend(v.iter().map(|&vi| (vi - theta).max(0.0)));
}

/// Solves Eq. 15 by FISTA with simplex projection.
///
/// Converges at rate O(1/k²) for this convex quadratic; iterations stop
/// when the projected-gradient step stalls below a scaled tolerance or the
/// iteration cap is hit (the best iterate found is still returned —
/// the cap is generous and the result is then still feasible, just
/// possibly short of full stationarity).
pub fn solve_projected_gradient(
    a: &DMatrix,
    b: &[f64],
    max_iter: usize,
    tol: f64,
) -> Result<SimplexLsSolution, LinalgError> {
    let (gs, atb, btb) = split_problem(a, b, "simplex_ls")?;
    solve_projected_gradient_gram(&gs, &atb, btb, max_iter, tol)
}

/// Builds the Gram state and right-hand-side products of one problem,
/// validating shapes and finiteness on the way.
fn split_problem(
    a: &DMatrix,
    b: &[f64],
    op: &'static str,
) -> Result<(GramSystem, Vec<f64>, f64), LinalgError> {
    let (m, n) = (a.nrows(), a.ncols());
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    if b.len() != m {
        return Err(LinalgError::ShapeMismatch {
            op,
            left: (m, n),
            right: (b.len(), 1),
        });
    }
    if b.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let gs = GramSystem::new(a)?;
    let atb = a.tr_matvec(b)?;
    let btb = dot(b, b);
    Ok((gs, atb, btb))
}

/// [`solve_projected_gradient`] on a precomputed Gram state: `atb = Aᵀb`,
/// `btb = bᵀb`.
pub fn solve_projected_gradient_gram(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    max_iter: usize,
    tol: f64,
) -> Result<SimplexLsSolution, LinalgError> {
    solve_projected_gradient_gram_scratch(gs, atb, btb, max_iter, tol, &mut SolverScratch::new())
}

/// [`solve_projected_gradient_gram`] through a reusable
/// [`SolverScratch`]: identical arithmetic in the identical order — the
/// result is bit-for-bit the same — but a steady-state iteration
/// performs zero heap allocations. The only allocation left is the
/// returned `beta`.
pub fn solve_projected_gradient_gram_scratch(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    max_iter: usize,
    tol: f64,
    scratch: &mut SolverScratch,
) -> Result<SimplexLsSolution, LinalgError> {
    validate_rhs(gs, atb, btb)?;
    let iterations = fista_iterate(gs, atb, btb, max_iter, tol, scratch)?;
    // Output allocation: the best iterate, re-projected exactly as the
    // historical implementation did.
    let beta = project_to_simplex(&scratch.best);
    let objective = gs.objective_scratch(&beta, atb, btb, &mut scratch.gb)?;
    Ok(SimplexLsSolution {
        beta,
        objective,
        iterations,
    })
}

/// The FISTA loop on preallocated buffers; leaves the best iterate in
/// `s.best` and returns the iteration count. Zero heap allocations once
/// the arena has grown to the problem size (enforced by check.sh's
/// hot-loop gate — keep `.clone()`/`to_vec()`/`vec![` out of here).
fn fista_iterate(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    max_iter: usize,
    tol: f64,
    s: &mut SolverScratch,
) -> Result<usize, LinalgError> {
    let n = gs.n();

    // Lipschitz constant of the gradient: λ_max(AᵀA). Power iteration only
    // gives a *lower* bound, and an understated constant makes FISTA
    // oscillate; the Gershgorin row-sum norm of the Gram matrix is a cheap
    // guaranteed upper bound (λ_max ≤ max_i Σ_j |G_ij| for symmetric G).
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

    s.x.clear();
    s.x.resize(n, 1.0 / n as f64);
    s.yk.clear();
    s.yk.extend_from_slice(&s.x);
    let mut t = 1.0f64;
    let mut iterations = 0;
    let scale = btb.sqrt().max(1.0);
    // FISTA is not monotone: track the best feasible iterate seen, and
    // restart the momentum when the objective rises (O'Donoghue–Candès
    // adaptive restart), which restores monotone-ish behavior without
    // giving up acceleration.
    s.best.clear();
    s.best.extend_from_slice(&s.x);
    let mut best_obj = gs.objective_scratch(&s.x, atb, btb, &mut s.gb)?;
    let mut prev_obj = best_obj;
    for _ in 0..max_iter {
        iterations += 1;
        // Gradient at y: Aᵀ(Ay − b) = Gy − Aᵀb.
        gs.gradient_into(&s.yk, atb, &mut s.grad)?;
        s.z.clear();
        s.z.extend_from_slice(&s.yk);
        axpy(-step, &s.grad, &mut s.z);
        project_to_simplex_into(&s.z, &mut s.u, &mut s.x_next);
        let obj = gs.objective_scratch(&s.x_next, atb, btb, &mut s.gb)?;
        if obj < best_obj {
            best_obj = obj;
            s.best.clear();
            s.best.extend_from_slice(&s.x_next);
        }
        let restart = obj > prev_obj;
        prev_obj = obj;
        let t_next = if restart {
            1.0
        } else {
            0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt())
        };
        let momentum = if restart { 0.0 } else { (t - 1.0) / t_next };
        s.diff.clear();
        s.diff.extend(s.x_next.iter().zip(&s.x).map(|(p, q)| p - q));
        let delta = norm2(&s.diff);
        s.yk.clear();
        s.yk.extend_from_slice(&s.x_next);
        axpy(momentum, &s.diff, &mut s.yk);
        // The historical loop cloned x_next into x; the double-buffer swap
        // produces the same values with no copy (x_next is fully rebuilt
        // by the projection next iteration).
        std::mem::swap(&mut s.x, &mut s.x_next);
        t = t_next;
        if delta <= tol * scale {
            break;
        }
    }
    Ok(iterations)
}

/// Solves Eq. 15 exactly with an active-set method.
///
/// The equality constraint is eliminated by substituting
/// `β_n = 1 − Σ_{k<n} β_k` *for a chosen pivot column*, transforming the
/// problem into a bound-constrained LS over the remaining coordinates plus
/// the implicit constraint `Σ β_k <= 1`. Rather than handling that general
/// polytope, the method enumerates supports in Lawson–Hanson style directly
/// on the simplex: starting from the best single vertex, it repeatedly
/// solves the equality-constrained LS restricted to the current support via
/// a KKT system, adds the most violated coordinate, and steps back to the
/// boundary when a coordinate would leave the support.
pub fn solve_active_set(a: &DMatrix, b: &[f64]) -> Result<SimplexLsSolution, LinalgError> {
    let (gs, atb, btb) = split_problem(a, b, "simplex_ls_active_set")?;
    solve_active_set_gram(&gs, &atb, btb)
}

/// [`solve_active_set`] on a precomputed Gram state: `atb = Aᵀb`,
/// `btb = bᵀb`.
pub fn solve_active_set_gram(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
) -> Result<SimplexLsSolution, LinalgError> {
    solve_active_set_gram_scratch(gs, atb, btb, &mut SolverScratch::new())
}

/// [`solve_active_set_gram`] through a reusable [`SolverScratch`]:
/// identical arithmetic in the identical order — the result is
/// bit-for-bit the same — but a steady-state iteration performs zero
/// heap allocations. The only allocation left is the returned `beta`.
pub fn solve_active_set_gram_scratch(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    scratch: &mut SolverScratch,
) -> Result<SimplexLsSolution, LinalgError> {
    validate_rhs(gs, atb, btb)?;
    let iterations = active_set_iterate(gs, atb, btb, scratch)?;
    // Output allocation: the accepted support iterate.
    let mut beta = Vec::with_capacity(scratch.xas.len());
    beta.extend_from_slice(&scratch.xas);
    let objective = gs.objective_scratch(&beta, atb, btb, &mut scratch.gb)?;
    Ok(SimplexLsSolution {
        beta,
        objective,
        iterations,
    })
}

/// The active-set loop on preallocated buffers; leaves the final iterate
/// in `s.xas` and returns the iteration count. Zero heap allocations
/// once the arena has grown to the problem size (enforced by check.sh's
/// hot-loop gate — keep `.clone()`/`to_vec()`/`vec![` out of here).
fn active_set_iterate(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    s: &mut SolverScratch,
) -> Result<usize, LinalgError> {
    let n = gs.n();

    // Start from the best single vertex e_k; on a vertex the objective
    // reduces to ½G[k,k] − (Aᵀb)[k] + ½bᵀb.
    let mut best_k = 0;
    let mut best_obj = f64::INFINITY;
    for (k, &atb_k) in atb.iter().enumerate() {
        let o = 0.5 * gs.gram()[(k, k)] - atb_k + 0.5 * btb;
        if o < best_obj {
            best_obj = o;
            best_k = k;
        }
    }
    s.xas.clear();
    s.xas.resize(n, 0.0);
    s.xas[best_k] = 1.0;
    s.support.clear();
    s.support.extend((0..n).map(|j| j == best_k));

    let scale = btb.sqrt().max(1.0) * gs.frobenius.max(1.0);
    let tol = 1e-12 * scale.max(1.0) * (n as f64);
    let max_outer = 4 * n + 32;
    let mut iterations = 0;

    for _ in 0..max_outer {
        iterations += 1;
        // Solve the equality-constrained LS on the current support:
        //   min ||A_S z − b||²  s.t.  1ᵀz = 1
        // via the KKT system [G 1; 1ᵀ 0][z; λ] = [A_Sᵀ b; 1].
        {
            let (idx, support) = (&mut s.idx, &s.support);
            idx.clear();
            idx.extend((0..n).filter(|&j| support[j]));
        }
        eq_constrained_ls_scratch(gs, atb, &s.idx, &mut s.kkt)?;
        let z = &s.kkt.sol;
        let negative = s.idx.iter().enumerate().any(|(q, _)| z[q] < -tol);
        if !negative {
            // Accept z on the support.
            s.xas.iter_mut().for_each(|v| *v = 0.0);
            for (q, &j) in s.idx.iter().enumerate() {
                s.xas[j] = z[q].max(0.0);
            }
            renormalize(&mut s.xas);
            // Check outer KKT: gradient g = Aᵀ(Ax − b) = Gx − Aᵀb; with
            // multiplier λ for the equality, optimality needs g_j >= λ for
            // all j with equality on the support. λ = min over support.
            gs.gradient_into(&s.xas, atb, &mut s.grad)?;
            let g = &s.grad;
            let lambda = s.idx.iter().map(|&j| g[j]).fold(f64::INFINITY, f64::min);
            let mut enter: Option<(usize, f64)> = None;
            #[allow(clippy::needless_range_loop)] // lockstep over support + g
            for j in 0..n {
                if !s.support[j] {
                    let viol = lambda - g[j]; // g_j < λ violates optimality
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
                    s.support[j] = true;
                    continue;
                }
                None => break, // optimal
            }
        }
        // Backtrack toward z until the first support coordinate hits zero.
        let z = &s.kkt.sol;
        let mut alpha = 1.0f64;
        for (q, &j) in s.idx.iter().enumerate() {
            if z[q] < 0.0 {
                let denom = s.xas[j] - z[q];
                if denom > 0.0 {
                    alpha = alpha.min(s.xas[j] / denom);
                }
            }
        }
        for (q, &j) in s.idx.iter().enumerate() {
            s.xas[j] += alpha * (z[q] - s.xas[j]);
        }
        for j in 0..n {
            if s.support[j] && s.xas[j] <= tol {
                s.xas[j] = 0.0;
                s.support[j] = false;
            }
        }
        if !s.support.iter().any(|&f| f) {
            // Numerical corner: restart from the best vertex.
            s.support[best_k] = true;
            s.xas[best_k] = 1.0;
        }
        renormalize(&mut s.xas);
    }

    renormalize(&mut s.xas);
    Ok(iterations)
}

/// Solves `min ||A_S z − b||²` s.t. `Σz = 1` on the columns `idx` via the
/// KKT linear system, solved with QR on the bordered matrix. Works purely
/// off the Gram state: `G_S` is a sub-block of `AᵀA` and `c = (Aᵀb)_S`.
/// The solution lands in `bufs.sol` (length `idx.len()`); every buffer is
/// reused across calls, so a steady-state call allocates nothing.
fn eq_constrained_ls_scratch(
    gs: &GramSystem,
    atb: &[f64],
    idx: &[usize],
    bufs: &mut KktScratch,
) -> Result<(), LinalgError> {
    let k = idx.len();
    if k == 0 {
        return Err(LinalgError::Empty);
    }
    if k == 1 {
        bufs.sol.clear();
        bufs.sol.push(1.0);
        return Ok(());
    }
    // KKT: [G  1][z]   [c]
    //      [1ᵀ 0][λ] = [1]
    // where G = A_Sᵀ A_S and c = A_Sᵀ b.
    let gram = gs.gram();
    bufs.kkt.reshape_zeroed(k + 1, k + 1);
    for (p, &jp) in idx.iter().enumerate() {
        for (q, &jq) in idx.iter().enumerate() {
            bufs.kkt[(p, q)] = gram[(jp, jq)];
        }
        bufs.kkt[(p, k)] = 1.0;
        bufs.kkt[(k, p)] = 1.0;
    }
    bufs.rhs.clear();
    bufs.rhs.resize(k + 1, 0.0);
    for (p, &jp) in idx.iter().enumerate() {
        bufs.rhs[p] = atb[jp];
    }
    bufs.rhs[k] = 1.0;
    bufs.qr.copy_from(&bufs.kkt);
    householder_factor(&mut bufs.qr, &mut bufs.tau, &mut bufs.v)?;
    bufs.y.clear();
    bufs.y.extend_from_slice(&bufs.rhs);
    bufs.sol.clear();
    bufs.sol.resize(k + 1, 0.0);
    if householder_solve_into(&bufs.qr, &bufs.tau, &mut bufs.y, &mut bufs.sol).is_ok() {
        // Drop the multiplier entry so callers read z as sol[..k].
        bufs.sol.truncate(k);
        return Ok(());
    }
    // A Gram block far from the unit border (unnormalized references:
    // entries of 1e6 and more, or tiny ones) drives the last pivot under
    // the rank test although the design has full rank. Dividing G_S and c
    // by a power of two near G_S's scale is exact and leaves z unchanged
    // (only λ scales), so retry once on that system.
    let diagonal = (0..k)
        .map(|p| bufs.kkt[(p, p)].abs())
        .fold(0.0f64, f64::max);
    if let Some(inverse) = nearest_power_of_two_inverse(diagonal) {
        bufs.qr.copy_from(&bufs.kkt);
        for q in 0..k {
            for p in 0..k {
                bufs.qr[(p, q)] *= inverse;
            }
        }
        householder_factor(&mut bufs.qr, &mut bufs.tau, &mut bufs.v)?;
        bufs.y.clear();
        bufs.y.extend_from_slice(&bufs.rhs);
        for c in &mut bufs.y[..k] {
            *c *= inverse;
        }
        if householder_solve_into(&bufs.qr, &bufs.tau, &mut bufs.y, &mut bufs.sol).is_ok() {
            bufs.sol.truncate(k);
            return Ok(());
        }
    }
    // Singular KKT (duplicate columns in the support): fall back to a
    // ridge-regularized system, which picks the minimum-norm split.
    bufs.qr.copy_from(&bufs.kkt);
    let scale = (0..k).map(|p| bufs.qr[(p, p)].abs()).fold(0.0f64, f64::max);
    for p in 0..k {
        bufs.qr[(p, p)] += 1e-10 * scale.max(1.0);
    }
    householder_factor(&mut bufs.qr, &mut bufs.tau, &mut bufs.v)?;
    bufs.y.clear();
    bufs.y.extend_from_slice(&bufs.rhs);
    householder_solve_into(&bufs.qr, &bufs.tau, &mut bufs.y, &mut bufs.sol)?;
    bufs.sol.truncate(k);
    Ok(())
}

/// `2^-e` for the power of two `2^e` nearest `x` (in log scale), when
/// `x` is a positive normal number and `2^-e` is one too.
fn nearest_power_of_two_inverse(x: f64) -> Option<f64> {
    if !x.is_normal() || x < 0.0 {
        return None;
    }
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
    // Round up when the mantissa is at least √2.
    let exponent = exponent + i64::from(bits & ((1 << 52) - 1) >= 0x0006_a09e_667f_3bcd);
    let biased = 1023 - exponent;
    (1..=2046)
        .contains(&biased)
        .then(|| f64::from_bits((biased as u64) << 52))
}

/// Clamps tiny negatives to zero and rescales so the vector sums to 1.
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

/// Dispatches to the configured solver with library-default parameters.
pub fn solve(
    a: &DMatrix,
    b: &[f64],
    solver: SimplexSolver,
) -> Result<SimplexLsSolution, LinalgError> {
    let (gs, atb, btb) = split_problem(a, b, "simplex_ls")?;
    solve_gram(&gs, &atb, btb, solver)
}

/// [`solve`] on a precomputed Gram state — the *apply* half of the
/// prepare/apply split. Because [`solve`] itself routes through this
/// function, a prepared solve is numerically identical to a one-shot
/// solve by construction.
pub fn solve_gram(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    solver: SimplexSolver,
) -> Result<SimplexLsSolution, LinalgError> {
    solve_gram_scratch(gs, atb, btb, solver, &mut SolverScratch::new())
}

/// [`solve_gram`] through a reusable [`SolverScratch`] — the entry point
/// batch-apply paths call once per objective with a reused arena.
/// Results are bit-identical to [`solve_gram`] (which routes through
/// here with a fresh arena).
pub fn solve_gram_scratch(
    gs: &GramSystem,
    atb: &[f64],
    btb: f64,
    solver: SimplexSolver,
    scratch: &mut SolverScratch,
) -> Result<SimplexLsSolution, LinalgError> {
    match solver {
        SimplexSolver::ProjectedGradient => {
            solve_projected_gradient_gram_scratch(gs, atb, btb, 2000, 1e-12, scratch)
        }
        SimplexSolver::ActiveSet => solve_active_set_gram_scratch(gs, atb, btb, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_feasible(beta: &[f64]) {
        assert!(
            beta.iter().all(|&v| v >= 0.0),
            "negative weight in {beta:?}"
        );
        let s: f64 = beta.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "weights sum to {s}");
    }

    #[test]
    fn gram_from_parts_is_bit_identical() {
        let a = DMatrix::from_rows(&[&[1.0, 0.25], &[0.5, 3.0], &[2.0, 1.0]]).unwrap();
        let gs = GramSystem::new(&a).unwrap();
        let rebuilt = GramSystem::from_parts(gs.gram().clone(), gs.frobenius()).unwrap();
        assert_eq!(rebuilt.n(), gs.n());
        assert_eq!(rebuilt.frobenius().to_bits(), gs.frobenius().to_bits());
        for j in 0..gs.n() {
            for (x, y) in rebuilt.gram().column(j).iter().zip(gs.gram().column(j)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Solves through the rebuilt state match the original exactly.
        let atb = [0.7, 1.9];
        let sol = solve_gram(&gs, &atb, 4.0, SimplexSolver::ActiveSet).unwrap();
        let sol2 = solve_gram(&rebuilt, &atb, 4.0, SimplexSolver::ActiveSet).unwrap();
        for (x, y) in sol.beta.iter().zip(&sol2.beta) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Defensive rejections.
        assert!(GramSystem::from_parts(gs.gram().clone(), f64::NAN).is_err());
        assert!(GramSystem::from_parts(gs.gram().clone(), -1.0).is_err());
        let rect = DMatrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(GramSystem::from_parts(rect, 1.0).is_err());
    }

    /// Asserts two Gram states are bitwise identical.
    fn assert_gram_identical(a: &GramSystem, b: &GramSystem) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.frobenius().to_bits(), b.frobenius().to_bits());
        for j in 0..a.n() {
            for (x, y) in a.gram().column(j).iter().zip(b.gram().column(j)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn updated_column_matches_from_scratch_bitwise() {
        let mut columns = vec![
            vec![1.0, 0.5, 2.0, 0.125],
            vec![0.25, 3.0, 1.0, 0.7],
            vec![0.1, 0.2, 0.3, 0.4],
        ];
        let a0 = DMatrix::from_columns(&columns).unwrap();
        let gs0 = GramSystem::new(&a0).unwrap();
        // Replace each column in turn: the delta path must agree with a
        // full rebuild bit for bit.
        for index in 0..columns.len() {
            let mut changed = columns.clone();
            changed[index] = vec![9.0, 0.01, 4.5, 1.25];
            let a1 = DMatrix::from_columns(&changed).unwrap();
            let delta = gs0.with_updated_column(&a1, index).unwrap();
            let scratch = GramSystem::new(&a1).unwrap();
            assert_gram_identical(&delta, &scratch);
        }
        // Appending a column grows the system identically too.
        columns.push(vec![0.9, 0.8, 0.7, 0.6]);
        let a2 = DMatrix::from_columns(&columns).unwrap();
        let grown = gs0.with_updated_column(&a2, 3).unwrap();
        assert_gram_identical(&grown, &GramSystem::new(&a2).unwrap());
    }

    #[test]
    fn updated_column_rejects_shape_mismatch() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let gs = GramSystem::new(&a).unwrap();
        // Index beyond an append.
        assert!(gs.with_updated_column(&a, 2).is_err());
        // Column count that is neither n nor n+1.
        let wide = DMatrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        assert!(gs.with_updated_column(&wide, 0).is_err());
    }

    #[test]
    fn projection_known_cases() {
        // Already on the simplex.
        let p = project_to_simplex(&[0.2, 0.3, 0.5]);
        for (a, b) in p.iter().zip(&[0.2, 0.3, 0.5]) {
            assert!((a - b).abs() < 1e-15);
        }
        // Uniform shift invariance: projecting [c, c] gives [0.5, 0.5].
        let p = project_to_simplex(&[10.0, 10.0]);
        assert!((p[0] - 0.5).abs() < 1e-15);
        // Dominant coordinate saturates.
        let p = project_to_simplex(&[5.0, 0.0, 0.0]);
        assert_eq!(p, vec![1.0, 0.0, 0.0]);
        // Negative entries clamp to zero.
        let p = project_to_simplex(&[0.9, -5.0, 0.3]);
        assert_feasible(&p);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn projection_is_idempotent_and_feasible() {
        let mut state: u64 = 99;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for _ in 0..50 {
            let v: Vec<f64> = (0..7).map(|_| next()).collect();
            let p = project_to_simplex(&v);
            assert_feasible(&p);
            let pp = project_to_simplex(&p);
            for (a, b) in p.iter().zip(&pp) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn exact_convex_combination_is_recovered() {
        // b = 0.3 col0 + 0.7 col1 exactly; both solvers must find it.
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 1.0], &[0.5, 3.0]]).unwrap();
        let beta_true = [0.3, 0.7];
        let b = a.matvec(&beta_true).unwrap();
        for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
            let s = solve(&a, &b, solver).unwrap();
            assert_feasible(&s.beta);
            assert!(s.objective < 1e-12, "{solver:?}: {}", s.objective);
            for (got, want) in s.beta.iter().zip(&beta_true) {
                assert!((got - want).abs() < 1e-5, "{solver:?}: {:?}", s.beta);
            }
        }
    }

    #[test]
    fn vertex_solution_when_one_reference_dominates() {
        // b equals column 2: optimal beta is the vertex e2.
        let a =
            DMatrix::from_rows(&[&[1.0, 0.2, 0.0], &[0.1, 0.9, 1.0], &[0.3, 0.4, 2.0]]).unwrap();
        let b = a.column(2).to_vec();
        for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
            let s = solve(&a, &b, solver).unwrap();
            assert_feasible(&s.beta);
            assert!(s.beta[2] > 0.999, "{solver:?}: {:?}", s.beta);
        }
    }

    #[test]
    fn solvers_agree_on_random_problems() {
        let mut state: u64 = 0xABCDEF;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..25 {
            let m = 12;
            let n = 2 + trial % 5;
            let mut a = DMatrix::zeros(m, n);
            for j in 0..n {
                for i in 0..m {
                    a[(i, j)] = next();
                }
            }
            let b: Vec<f64> = (0..m).map(|_| next() * 1.5).collect();
            let pg = solve(&a, &b, SimplexSolver::ProjectedGradient).unwrap();
            let acts = solve(&a, &b, SimplexSolver::ActiveSet).unwrap();
            assert_feasible(&pg.beta);
            assert_feasible(&acts.beta);
            let scale = norm2(&b).max(1.0);
            assert!(
                (pg.objective - acts.objective).abs() <= 1e-6 * scale * scale,
                "trial {trial}: objectives {} vs {}",
                pg.objective,
                acts.objective
            );
        }
    }

    #[test]
    fn single_reference_gets_weight_one() {
        let a = DMatrix::from_columns(&[vec![0.5, 0.1, 0.9]]).unwrap();
        let b = vec![1.0, 1.0, 1.0];
        for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
            let s = solve(&a, &b, solver).unwrap();
            assert_eq!(s.beta.len(), 1);
            assert!((s.beta[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn highly_correlated_columns_split_weight_stably() {
        // Columns 0 and 1 are nearly identical (the USPS business vs
        // residential situation of §4.4.2); the solver must not blow up and
        // total weight on {0,1} should dominate.
        let a = DMatrix::from_rows(&[
            &[1.00, 0.99, 0.1],
            &[2.00, 2.02, 0.2],
            &[0.50, 0.51, 0.9],
            &[1.50, 1.49, 0.3],
        ])
        .unwrap();
        let b = a.matvec(&[0.5, 0.5, 0.0]).unwrap();
        for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
            let s = solve(&a, &b, solver).unwrap();
            assert_feasible(&s.beta);
            assert!(s.beta[0] + s.beta[1] > 0.95, "{solver:?}: {:?}", s.beta);
            assert!(s.objective < 1e-8);
        }
    }

    #[test]
    fn errors_on_bad_shapes() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(solve(&a, &[1.0, 2.0], SimplexSolver::ProjectedGradient).is_err());
        assert!(solve(&a, &[1.0, 2.0], SimplexSolver::ActiveSet).is_err());
        assert!(solve(&a, &[f64::INFINITY], SimplexSolver::ProjectedGradient).is_err());
        let empty = DMatrix::zeros(0, 0);
        assert!(solve(&empty, &[], SimplexSolver::ActiveSet).is_err());
    }

    #[test]
    fn identical_columns_do_not_loop_forever() {
        let a = DMatrix::from_columns(&[vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
        let b = vec![1.0, 2.0];
        for solver in [SimplexSolver::ProjectedGradient, SimplexSolver::ActiveSet] {
            let s = solve(&a, &b, solver).unwrap();
            assert_feasible(&s.beta);
            assert!(s.objective < 1e-10, "{solver:?}");
        }
    }
}
