//! Dense column-major matrices and the factorizations the weight-learning
//! step needs: Cholesky (normal equations) and Householder QR (stable least
//! squares).

use crate::error::LinalgError;

/// A dense matrix stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major nested slice (for tests and small
    /// literals). All rows must have equal length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(LinalgError::ShapeMismatch {
                op: "from_rows",
                left: (r, c),
                right: (r, rows.iter().map(|x| x.len()).max().unwrap_or(0)),
            });
        }
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        Ok(m)
    }

    /// Builds a matrix by horizontally concatenating columns — exactly how
    /// Eq. 15's design matrix `A` is assembled from normalized reference
    /// vectors.
    pub fn from_columns(columns: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let cols = columns.len();
        let rows = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "from_columns",
                left: (rows, cols),
                right: (columns.iter().map(Vec::len).max().unwrap_or(0), cols),
            });
        }
        let mut data = Vec::with_capacity(rows * cols);
        for c in columns {
            data.extend_from_slice(c);
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a slice (column-major storage makes this free).
    pub fn column(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column `j`.
    pub fn column_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// [`DMatrix::matvec`] into a caller-provided output slice of length
    /// `nrows` — the allocation-free form for hot loops.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_into",
                left: (self.rows, self.cols),
                right: (y.len(), 1),
            });
        }
        y.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (yi, &aij) in y.iter_mut().zip(self.column(j)) {
                *yi += aij * xj;
            }
        }
        Ok(())
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    pub fn tr_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.cols];
        self.tr_matvec_into(y, &mut out)?;
        Ok(out)
    }

    /// [`DMatrix::tr_matvec`] into a caller-provided output slice of
    /// length `ncols` — the allocation-free form for hot loops. Columns
    /// are summed four at a time through `dot4` (four independent chains
    /// over one read of `y`) and the remainder through [`dot`]; every
    /// entry is bit-equal to `dot(column(j), y)`, since each `dot4` lane
    /// is and `x * y == y * x` in IEEE arithmetic.
    pub fn tr_matvec_into(&self, y: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matvec",
                left: (self.cols, self.rows),
                right: (y.len(), 1),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matvec_into",
                left: (self.cols, self.rows),
                right: (out.len(), 1),
            });
        }
        let mut blocks = out.chunks_exact_mut(GRAM_BLOCK);
        for (b, block) in (&mut blocks).enumerate() {
            let j = b * GRAM_BLOCK;
            block.copy_from_slice(&dot4(
                y,
                self.column(j),
                self.column(j + 1),
                self.column(j + 2),
                self.column(j + 3),
            ));
        }
        let done = self.cols - self.cols % GRAM_BLOCK;
        for (j, o) in blocks.into_remainder().iter_mut().enumerate() {
            *o = dot(self.column(done + j), y);
        }
        Ok(())
    }

    /// Gram matrix `AᵀA` (symmetric positive semidefinite).
    pub fn gram(&self) -> DMatrix {
        // The tasks only run `dot`, which does not panic, so the only
        // possible `ExecError` is an internal bug worth propagating loudly.
        self.gram_with(geoalign_exec::Executor::global())
            .expect("gram assembly task panicked")
    }

    /// [`DMatrix::gram`] on an explicit executor: each task computes one
    /// row of the upper triangle, in 4-column blocks, writing entries (and
    /// their mirrors) straight into the shared output — no per-row `Vec`
    /// and no copy pass.
    ///
    /// Bit-identity: every Gram entry is still exactly
    /// `dot(column(i), column(j))` — the blocked kernel keeps four
    /// *independent* accumulators, one per output entry, each summing in
    /// index order, so entry values match the naive loop to the bit and
    /// are independent of the thread count. The blocking buys instruction
    /// parallelism (four dependent-add chains instead of one) and one
    /// read of column `i` per four columns `j`.
    ///
    /// Disjointness (safety of the shared write): task `i` writes cells
    /// `{(i, j), (j, i) : j ≥ i}`. For `i1 < i2`, a collision would need
    /// either equal rows/cols (impossible: `i1 ≠ i2`) or `(i1, j)` to
    /// equal some `(j', i2)` — forcing `j' = i1 ≥ i2`, a contradiction.
    pub fn gram_with(&self, exec: geoalign_exec::Executor) -> Result<DMatrix, LinalgError> {
        let k = self.cols;
        let mut g = DMatrix::zeros(k, k);
        if k == 0 {
            return Ok(g);
        }
        let out = crate::kernel::DisjointWriter::new(&mut g.data);
        exec.for_each_indexed(k, |i| {
            let ci = self.column(i);
            let mut j = i;
            while j + GRAM_BLOCK <= k {
                let s = dot4(
                    ci,
                    self.column(j),
                    self.column(j + 1),
                    self.column(j + 2),
                    self.column(j + 3),
                );
                for (off, &v) in s.iter().enumerate() {
                    let jj = j + off;
                    // SAFETY: in bounds (i, jj < k); disjoint across tasks
                    // per the proof in the doc comment above.
                    unsafe {
                        out.write(jj * k + i, v); // g[(i, jj)]
                        out.write(i * k + jj, v); // g[(jj, i)]
                    }
                }
                j += GRAM_BLOCK;
            }
            while j < k {
                let v = dot(ci, self.column(j));
                // SAFETY: as above.
                unsafe {
                    out.write(j * k + i, v);
                    out.write(i * k + j, v);
                }
                j += 1;
            }
        })?;
        Ok(g)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Reshapes in place to `rows × cols` with every entry zero, reusing
    /// the existing allocation when capacity allows — the scratch-arena
    /// resize primitive.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Becomes a copy of `src`, reusing this matrix's allocation (unlike
    /// `clone_from`, which would reallocate via `Clone`).
    pub fn copy_from(&mut self, src: &DMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Becomes the horizontal concatenation of `src`'s columns `idx`,
    /// reusing this matrix's allocation — the scratch form of
    /// [`DMatrix::from_columns`] for passive-set submatrix selection.
    pub fn copy_columns_from(&mut self, src: &DMatrix, idx: &[usize]) {
        self.rows = src.rows;
        self.cols = idx.len();
        self.data.clear();
        for &j in idx {
            self.data.extend_from_slice(src.column(j));
        }
    }
}

/// Column-block width of the tiled kernels (Gram, `Aᵀy`): entries are
/// produced four at a time from one pass over the shared vector.
const GRAM_BLOCK: usize = 4;

/// Four dot products against a common left vector in one pass. Each
/// accumulator sums `a[t] * b?[t]` in index order starting from zero —
/// exactly the fold [`dot`] performs — so each of the four results is
/// bit-identical to the corresponding standalone `dot` call.
#[inline]
fn dot4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> [f64; 4] {
    debug_assert!(a.len() == b0.len() && a.len() == b1.len());
    debug_assert!(a.len() == b2.len() && a.len() == b3.len());
    // Accumulators start at -0.0, the additive identity `Sum<f64>` folds
    // from, so each lane is bitwise identical to a `dot` call — including
    // the empty-slice and all-(-0.0) cases.
    let (mut s0, mut s1, mut s2, mut s3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
    for ((((&ai, &x0), &x1), &x2), &x3) in a.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        s0 += ai * x0;
        s1 += ai * x1;
        s2 += ai * x2;
        s3 += ai * x3;
    }
    [s0, s1, s2, s3]
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[j * self.rows + i]
    }
}

/// Dot product of equal-length slices (panics on length mismatch in debug).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Cholesky factorization of a symmetric positive-definite matrix,
/// `A = L Lᵀ` with `L` lower-triangular.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factorizes `a` (must be square, symmetric, positive definite).
    pub fn new(a: &DMatrix) -> Result<Self, LinalgError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                left: (a.nrows(), a.ncols()),
                right: (n, n),
            });
        }
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::Singular);
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Ok(Self { l })
    }

    /// Solves `A x = b` using the stored factorization.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Back substitution Lᵀ x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        Ok(y)
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &DMatrix {
        &self.l
    }
}

/// Householder QR factorization for least squares, `A = QR` with `A`
/// `m × n`, `m >= n`.
#[derive(Debug, Clone)]
pub struct HouseholderQr {
    /// Packed factors: R in the upper triangle, Householder vectors below.
    qr: DMatrix,
    /// Householder scalars.
    tau: Vec<f64>,
}

impl HouseholderQr {
    /// Factorizes `a` (requires `nrows >= ncols` and at least one column).
    pub fn new(a: &DMatrix) -> Result<Self, LinalgError> {
        let mut qr = a.clone();
        let mut tau = Vec::new();
        let mut v = Vec::new();
        householder_factor(&mut qr, &mut tau, &mut v)?;
        Ok(Self { qr, tau })
    }

    /// Solves the least-squares problem `min ||A x - b||²`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let (m, n) = (self.qr.nrows(), self.qr.ncols());
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_solve",
                left: (m, n),
                right: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        let mut x = vec![0.0; n];
        householder_solve_into(&self.qr, &self.tau, &mut y, &mut x)?;
        Ok(x)
    }
}

/// In-place Householder factorization: `qr` holds the input matrix on
/// entry and the packed factors (R in the upper triangle, unit-scaled
/// reflectors below) on exit. `tau` receives the Householder scalars and
/// `v` is reflector scratch, both reused across calls — the
/// allocation-free core behind [`HouseholderQr::new`] and the solver
/// scratch paths. Requires `nrows >= ncols >= 1`.
pub(crate) fn householder_factor(
    qr: &mut DMatrix,
    tau: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let (m, n) = (qr.nrows(), qr.ncols());
    if n == 0 || m == 0 {
        return Err(LinalgError::Empty);
    }
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            op: "qr",
            left: (m, n),
            right: (n, n),
        });
    }
    tau.clear();
    tau.resize(n, 0.0);
    for k in 0..n {
        // Householder vector for column k, rows k..m.
        let col = qr.column(k);
        let alpha = norm2(&col[k..]);
        if alpha == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let akk = col[k];
        let beta = if akk >= 0.0 { -alpha } else { alpha };
        let ck = qr.column_mut(k);
        ck[k] = akk - beta;
        let vnorm_sq: f64 = ck[k..].iter().map(|q| q * q).sum();
        tau[k] = 2.0 / vnorm_sq;
        // Apply the reflector to the remaining columns.
        // Copy v to avoid aliasing (v lives in column k).
        v.clear();
        v.extend_from_slice(&qr.column(k)[k..]);
        for j in (k + 1)..n {
            let cj = qr.column_mut(j);
            let w = tau[k] * dot(v, &cj[k..]);
            for (c, &vi) in cj[k..].iter_mut().zip(v.iter()) {
                *c -= w * vi;
            }
        }
        // Store beta (the R diagonal) at (k, k); the Householder vector
        // occupies rows k+1..m of column k, with v[0] remembered via
        // tau normalization: we keep v as-is but overwrite position k
        // with beta and stash v0 implicitly by rescaling tau.
        // Simpler: rescale the stored vector so v0 = 1.
        let v0 = v[0];
        if v0 != 0.0 {
            let ck = qr.column_mut(k);
            for c in ck[k + 1..].iter_mut() {
                *c /= v0;
            }
            tau[k] *= v0 * v0;
            ck[k] = beta;
        } else {
            qr.column_mut(k)[k] = beta;
        }
    }
    Ok(())
}

/// Applies `Qᵀ` (from packed factors) to `b` in place.
fn householder_apply_qt(qr: &DMatrix, tau: &[f64], b: &mut [f64]) {
    let (m, n) = (qr.nrows(), qr.ncols());
    debug_assert_eq!(b.len(), m);
    for k in 0..n {
        if tau[k] == 0.0 {
            continue;
        }
        // v = [1, qr[k+1.., k]].
        let col = qr.column(k);
        let mut w = b[k];
        for (bi, &vi) in b[k + 1..m].iter().zip(&col[k + 1..m]) {
            w += bi * vi;
        }
        w *= tau[k];
        b[k] -= w;
        for (bi, &vi) in b[k + 1..m].iter_mut().zip(&col[k + 1..m]) {
            *bi -= w * vi;
        }
    }
}

/// Least-squares solve from packed Householder factors: `y` holds `b` on
/// entry and is clobbered; the solution lands in `x` (length `ncols`).
/// The allocation-free core behind [`HouseholderQr::solve`].
pub(crate) fn householder_solve_into(
    qr: &DMatrix,
    tau: &[f64],
    y: &mut [f64],
    x: &mut [f64],
) -> Result<(), LinalgError> {
    let (m, n) = (qr.nrows(), qr.ncols());
    if y.len() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "qr_solve",
            left: (m, n),
            right: (y.len(), 1),
        });
    }
    debug_assert_eq!(x.len(), n);
    householder_apply_qt(qr, tau, y);
    // Back substitution on R (upper n×n block). A diagonal entry that is
    // negligibly small relative to the largest one signals (numerical)
    // rank deficiency.
    let rmax = (0..n).map(|i| qr[(i, i)].abs()).fold(0.0f64, f64::max);
    let tol = rmax * (m.max(n) as f64) * 16.0 * f64::EPSILON;
    for i in (0..n).rev() {
        let mut s = y[i];
        #[allow(clippy::needless_range_loop)] // x[j] is being built in place
        for j in (i + 1)..n {
            s -= qr[(i, j)] * x[j];
        }
        let rii = qr[(i, i)];
        if rii.abs() <= tol {
            return Err(LinalgError::Singular);
        }
        x[i] = s / rii;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_and_columns() {
        let mut m = DMatrix::zeros(2, 3);
        m[(0, 0)] = 1.0;
        m[(1, 2)] = 5.0;
        assert_eq!(m.column(0), &[1.0, 0.0]);
        assert_eq!(m.column(2), &[0.0, 5.0]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn from_rows_and_columns_agree() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = DMatrix::from_columns(&[vec![1.0, 3.0, 5.0], vec![2.0, 4.0, 6.0]]).unwrap();
        assert_eq!(a, b);
        assert!(DMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(DMatrix::from_columns(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_and_transpose() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.tr_matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.tr_matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_is_ata() {
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]).unwrap();
        let g = a.gram();
        assert_eq!(g[(0, 0)], 2.0);
        assert_eq!(g[(0, 1)], 1.0);
        assert_eq!(g[(1, 0)], 1.0);
        assert_eq!(g[(1, 1)], 5.0);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let a =
            DMatrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
        // L Lᵀ reproduces A.
        let l = ch.l();
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!((s - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert_eq!(Cholesky::new(&a).unwrap_err(), LinalgError::Singular);
        let ns = DMatrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(Cholesky::new(&ns).is_err());
    }

    #[test]
    fn qr_solves_square_system() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let qr = HouseholderQr::new(&a).unwrap();
        let b = a.matvec(&[0.5, -1.5]).unwrap();
        let x = qr.solve(&b).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!((x[1] + 1.5).abs() < 1e-12);
    }

    #[test]
    fn qr_least_squares_matches_normal_equations() {
        // Overdetermined 5×2 system.
        let a = DMatrix::from_rows(&[
            &[1.0, 1.0],
            &[1.0, 2.0],
            &[1.0, 3.0],
            &[1.0, 4.0],
            &[1.0, 5.0],
        ])
        .unwrap();
        let b = vec![2.1, 3.9, 6.2, 8.1, 9.8]; // roughly 2x
        let qr = HouseholderQr::new(&a).unwrap();
        let x_qr = qr.solve(&b).unwrap();
        // Normal equations via Cholesky.
        let g = a.gram();
        let atb = a.tr_matvec(&b).unwrap();
        let x_ne = Cholesky::new(&g).unwrap().solve(&atb).unwrap();
        for (p, q) in x_qr.iter().zip(&x_ne) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
        // Residual orthogonal to the column space.
        let ax = a.matvec(&x_qr).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let atr = a.tr_matvec(&r).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn qr_shape_errors() {
        let wide = DMatrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(HouseholderQr::new(&wide).is_err());
        let a = DMatrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let qr = HouseholderQr::new(&a).unwrap();
        assert!(qr.solve(&[1.0]).is_err()); // b wrong length
    }

    #[test]
    fn qr_rank_deficiency_is_flagged_or_solved_consistently() {
        // Second column is a multiple of the first: the LS solution is not
        // unique. The solver must either flag the deficiency or return one
        // of the valid (finite, small-residual) minimizers — never garbage.
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let qr = HouseholderQr::new(&a).unwrap();
        match qr.solve(&b) {
            Err(LinalgError::Singular) => {}
            Err(e) => panic!("unexpected error {e}"),
            Ok(x) => {
                assert!(x.iter().all(|v| v.is_finite()));
                let ax = a.matvec(&x).unwrap();
                let resid: f64 = ax
                    .iter()
                    .zip(&b)
                    .map(|(p, q)| (p - q) * (p - q))
                    .sum::<f64>()
                    .sqrt();
                assert!(resid < 1e-8, "residual {resid} for {x:?}");
            }
        }
        // A column that is *exactly* zero must be flagged.
        let z = DMatrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0]]).unwrap();
        let qrz = HouseholderQr::new(&z).unwrap();
        assert_eq!(qrz.solve(&b).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn blas_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn identity_and_frobenius() {
        let i = DMatrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!((i.frobenius_norm() - 3.0f64.sqrt()).abs() < 1e-15);
    }
}
