//! Sparse matrices in COO (builder) and CSR (compute) formats.
//!
//! Disaggregation matrices are overwhelmingly sparse — a zip code overlaps
//! only the handful of counties it straddles — and the paper stores them as
//! sparse matrices, noting (§4.3) that the number of non-zero entries
//! explains residual runtime variance across datasets. This module supplies
//! the operations the algorithm needs: construction, row iteration, row and
//! column sums, scaling, weighted sums, and transpose.

use crate::error::LinalgError;

/// Coordinate-format builder for sparse matrices. Duplicate entries are
/// summed when converting to CSR.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Empty builder with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Records `a[i, j] += v`. Entries with `v == 0` are skipped.
    pub fn push(&mut self, i: usize, j: usize, v: f64) -> Result<(), LinalgError> {
        if i >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                index: i,
                bound: self.rows,
            });
        }
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: j,
                bound: self.cols,
            });
        }
        if !v.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        if v != 0.0 {
            self.entries.push((i as u32, j as u32, v));
        }
        Ok(())
    }

    /// Number of recorded (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to CSR, summing duplicates and dropping entries that cancel
    /// to exactly zero.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
        // Merge duplicates.
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(entries.len());
        for (i, j, v) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == i && last.1 == j => last.2 += v,
                _ => merged.push((i, j, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0u32; self.rows + 1];
        for &(i, _, _) in &merged {
            row_ptr[i as usize + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let col_idx: Vec<u32> = merged.iter().map(|&(_, j, _)| j).collect();
        let values: Vec<f64> = merged.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i` as parallel `(columns, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let s = self.row_ptr[i] as usize;
        let e = self.row_ptr[i + 1] as usize;
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .map(move |(&j, &v)| (i, j as usize, v))
        })
    }

    /// Value at `(i, j)` (zero when not stored). O(log nnz(row)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// A copy with the entries at `cells` set to the given values, built
    /// in one linear pass over this matrix: untouched rows are copied in
    /// bulk and only the touched rows are merged entry by entry. `cells`
    /// are `(row, col, value)` in strictly increasing `(row, col)` order.
    /// A cell set to zero (either sign) is dropped, the way
    /// [`CooMatrix::to_csr`] drops entries that cancel; every other cell
    /// is stored whether or not it was before. Values are stored as given
    /// — checking them is the caller's job, as it is for a
    /// [`CooMatrix`]'s — so the result equals `to_csr` over this matrix's
    /// entries with the touched ones replaced.
    pub fn with_entries_set(
        &self,
        cells: &[(usize, usize, f64)],
    ) -> Result<CsrMatrix, LinalgError> {
        let mut last: Option<(usize, usize)> = None;
        for &(i, j, _) in cells {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
            if j >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: j,
                    bound: self.cols,
                });
            }
            if last.is_some_and(|prev| prev >= (i, j)) {
                return Err(LinalgError::ShapeMismatch {
                    op: "with_entries_set: cells out of (row, col) order",
                    left: last.unwrap_or_default(),
                    right: (i, j),
                });
            }
            last = Some((i, j));
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0u32);
        let mut col_idx = Vec::with_capacity(self.nnz() + cells.len());
        let mut values = Vec::with_capacity(self.nnz() + cells.len());
        // Old entries before `copied` are placed; rows before `next_row`
        // have their end pointers. An untouched row keeps its length, so
        // its end pointer is the old one shifted by the net change so far.
        let (mut copied, mut next_row) = (0usize, 0usize);
        let mut rest = cells;
        while let Some(&(i, _, _)) = rest.first() {
            let n = rest.iter().take_while(|c| c.0 == i).count();
            let (row_cells, tail) = rest.split_at(n);
            rest = tail;
            let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            let shift = col_idx.len() as i64 - copied as i64;
            col_idx.extend_from_slice(&self.col_idx[copied..s]);
            values.extend_from_slice(&self.values[copied..s]);
            row_ptr.extend(
                self.row_ptr[next_row + 1..=i]
                    .iter()
                    .map(|&p| (p as i64 + shift) as u32),
            );
            let mut k = s;
            for &(_, j, v) in row_cells {
                let j = j as u32;
                while k < e && self.col_idx[k] < j {
                    col_idx.push(self.col_idx[k]);
                    values.push(self.values[k]);
                    k += 1;
                }
                if k < e && self.col_idx[k] == j {
                    k += 1;
                }
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            col_idx.extend_from_slice(&self.col_idx[k..e]);
            values.extend_from_slice(&self.values[k..e]);
            row_ptr.push(col_idx.len() as u32);
            copied = e;
            next_row = i + 1;
        }
        let shift = col_idx.len() as i64 - copied as i64;
        col_idx.extend_from_slice(&self.col_idx[copied..]);
        values.extend_from_slice(&self.values[copied..]);
        row_ptr.extend(
            self.row_ptr[next_row + 1..]
                .iter()
                .map(|&p| (p as i64 + shift) as u32),
        );
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Row sums: `out[i] = Σ_j a[i, j]`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| {
                let (_, vals) = self.row(i);
                vals.iter().sum()
            })
            .collect()
    }

    /// Column sums: `out[j] = Σ_i a[i, j]` — the re-aggregation step
    /// (paper Eq. 17) applied to a disaggregation matrix.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for (&j, &v) in self.col_idx.iter().zip(&self.values) {
            out[j as usize] += v;
        }
        out
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.matvec_with(x, geoalign_exec::Executor::global())
    }

    /// [`CsrMatrix::matvec`] on an explicit executor.
    pub fn matvec_with(
        &self,
        x: &[f64],
        exec: geoalign_exec::Executor,
    ) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y, exec)?;
        Ok(y)
    }

    /// [`CsrMatrix::matvec`] into a caller-provided output slice of
    /// length `nrows` — the allocation-free hot path. Rows fan out in the
    /// executor's standard chunks (a pure function of `nrows`); each task
    /// writes its own row range of `y` directly, so there is no range
    /// list, no per-chunk buffer, and no copy pass. Each output entry is
    /// an independent row gather accumulated in stored order, so the
    /// result is bit-identical at any thread count.
    ///
    /// The inner loop is branch-free: `x` is indexed unchecked, which is
    /// sound because every stored column index is `< ncols` by
    /// construction ([`CooMatrix::push`] bounds-checks, and every other
    /// constructor preserves the invariant) and `x.len() == ncols` is
    /// checked on entry.
    pub fn matvec_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: geoalign_exec::Executor,
    ) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "csr_matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "csr_matvec_into",
                left: (self.rows, self.cols),
                right: (y.len(), 1),
            });
        }
        let chunk = geoalign_exec::default_chunk_size(self.rows);
        let tasks = self.rows.div_ceil(chunk);
        let out = crate::kernel::DisjointWriter::new(y);
        exec.for_each_indexed(tasks, |t| {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(self.rows);
            for i in start..end {
                let s = self.row_ptr[i] as usize;
                let e = self.row_ptr[i + 1] as usize;
                let cols = &self.col_idx[s..e];
                let vals = &self.values[s..e];
                // -0.0 is `Sum<f64>`'s fold identity: keeps empty rows
                // bitwise identical to the old per-row `.sum()`.
                let mut acc = -0.0;
                for (&j, &v) in cols.iter().zip(vals) {
                    // SAFETY: j < self.cols == x.len() (CSR construction
                    // invariant, see doc comment).
                    acc += v * unsafe { *x.get_unchecked(j as usize) };
                }
                // SAFETY: i < rows == y.len(); row ranges are disjoint
                // across tasks, so index i is written by task t only.
                unsafe { out.write(i, acc) };
            }
        })?;
        Ok(())
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    pub fn tr_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "csr_tr_matvec",
                left: (self.cols, self.rows),
                right: (y.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            let (cols, vals) = self.row(i);
            if yi == 0.0 {
                continue;
            }
            for (&j, &v) in cols.iter().zip(vals) {
                out[j as usize] += v * yi;
            }
        }
        Ok(out)
    }

    /// Transpose (CSR → CSR of the transposed matrix).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0u32; self.cols + 1];
        for &j in &self.col_idx {
            row_ptr[j as usize + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor: Vec<u32> = row_ptr[..self.cols].to_vec();
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let pos = cursor[j as usize] as usize;
                col_idx[pos] = i as u32;
                values[pos] = v;
                cursor[j as usize] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Returns a copy with every stored value multiplied by `s`.
    pub fn scaled(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Returns a copy with row `i` multiplied by `factors[i]` — used to
    /// renormalize disaggregation shares per source unit.
    pub fn scale_rows(&self, factors: &[f64]) -> Result<CsrMatrix, LinalgError> {
        if factors.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "scale_rows",
                left: (self.rows, self.cols),
                right: (factors.len(), 1),
            });
        }
        let mut out = self.clone();
        for (i, &f) in factors.iter().enumerate() {
            let s = self.row_ptr[i] as usize;
            let e = self.row_ptr[i + 1] as usize;
            for v in &mut out.values[s..e] {
                *v *= f;
            }
        }
        Ok(out)
    }

    /// Weighted sum `Σ_k weights[k] · mats[k]` of same-shaped matrices —
    /// the numerator of Eq. 14 assembled over all references at once.
    pub fn weighted_sum(mats: &[&CsrMatrix], weights: &[f64]) -> Result<CsrMatrix, LinalgError> {
        if mats.len() != weights.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "weighted_sum",
                left: (mats.len(), 1),
                right: (weights.len(), 1),
            });
        }
        let Some(first) = mats.first() else {
            return Err(LinalgError::Empty);
        };
        let (rows, cols) = (first.nrows(), first.ncols());
        let mut coo = CooMatrix::new(rows, cols);
        for (m, &w) in mats.iter().zip(weights) {
            if m.nrows() != rows || m.ncols() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "weighted_sum",
                    left: (rows, cols),
                    right: (m.nrows(), m.ncols()),
                });
            }
            if w == 0.0 {
                continue;
            }
            for (i, j, v) in m.iter() {
                coo.push(i, j, w * v)?;
            }
        }
        Ok(coo.to_csr())
    }

    /// Extracts the submatrix of the given rows and columns (in the given
    /// order): `out[a, b] = self[rows[a], cols[b]]`. Out-of-range indices
    /// are rejected.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Result<CsrMatrix, LinalgError> {
        for &r in rows {
            if r >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: r,
                    bound: self.rows,
                });
            }
        }
        // Column remap: old index -> new position.
        let mut remap = vec![usize::MAX; self.cols];
        for (b, &c) in cols.iter().enumerate() {
            if c >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: c,
                    bound: self.cols,
                });
            }
            remap[c] = b;
        }
        let mut coo = CooMatrix::new(rows.len(), cols.len());
        for (a, &r) in rows.iter().enumerate() {
            let (rc, rv) = self.row(r);
            for (&j, &v) in rc.iter().zip(rv) {
                let b = remap[j as usize];
                if b != usize::MAX {
                    coo.push(a, b, v)?;
                }
            }
        }
        Ok(coo.to_csr())
    }

    /// Converts to a dense row-major `Vec<Vec<f64>>` (tests and small
    /// matrices only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.cols]; self.rows];
        for (i, j, v) in self.iter() {
            out[i][j] = v;
        }
        out
    }

    /// Density `nnz / (rows * cols)`; zero for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(2, 0, 3.0).unwrap();
        coo.push(2, 1, 4.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn coo_bounds_and_validity() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(0, 0, f64::NAN).is_err());
        coo.push(0, 0, 0.0).unwrap(); // silently dropped
        assert!(coo.is_empty());
    }

    #[test]
    fn duplicates_sum_and_cancel() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        coo.push(1, 1, -5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.nnz(), 1); // the cancelled entry is dropped
    }

    #[test]
    fn setting_entries_replaces_inserts_and_drops() {
        let m = sample();
        // Replace (0,2), drop (2,0), insert (1,1) and (2,2); a zero on an
        // absent cell stays absent.
        let cells = [
            (0, 1, 0.0),
            (0, 2, 5.0),
            (1, 1, 6.0),
            (2, 0, -0.0),
            (2, 2, 7.0),
        ];
        let patched = m.with_entries_set(&cells).unwrap();
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 1.0),
            (0, 2, 5.0),
            (1, 1, 6.0),
            (2, 1, 4.0),
            (2, 2, 7.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        assert_eq!(patched, coo.to_csr());
        assert_eq!(m.with_entries_set(&[]).unwrap(), m);
        // Bounds and order are checked before anything is built.
        assert!(m.with_entries_set(&[(3, 0, 1.0)]).is_err());
        assert!(m.with_entries_set(&[(0, 3, 1.0)]).is_err());
        assert!(m.with_entries_set(&[(1, 1, 1.0), (1, 1, 2.0)]).is_err());
        assert!(m.with_entries_set(&[(2, 0, 1.0), (1, 1, 2.0)]).is_err());
    }

    #[test]
    fn setting_entries_matches_coo_on_seeded_random_matrices() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for round in 0..200 {
            let rows = 1 + (next() * 12.0) as usize;
            let cols = 1 + (next() * 9.0) as usize;
            let density = next();
            let mut base = std::collections::BTreeMap::new();
            for i in 0..rows {
                for j in 0..cols {
                    if next() < density {
                        base.insert((i, j), 0.5 + next() * 10.0);
                    }
                }
            }
            // Patch a random subset of cells: replaced, inserted, zeroed
            // (both signs), on rows with and without stored entries.
            let mut cells = Vec::new();
            for i in 0..rows {
                for j in 0..cols {
                    if next() < 0.25 {
                        let v = match (next() * 4.0) as usize {
                            0 => 0.0,
                            1 => -0.0,
                            _ => next() * 100.0,
                        };
                        cells.push((i, j, v));
                    }
                }
            }
            let mut coo = CooMatrix::new(rows, cols);
            for (&(i, j), &v) in &base {
                coo.push(i, j, v).unwrap();
            }
            let m = coo.to_csr();
            let mut want = base.clone();
            for &(i, j, v) in &cells {
                want.insert((i, j), v);
            }
            let mut coo = CooMatrix::new(rows, cols);
            for (&(i, j), &v) in &want {
                coo.push(i, j, v).unwrap();
            }
            let want = coo.to_csr();
            let got = m.with_entries_set(&cells).unwrap();
            assert_eq!(got.row_ptr, want.row_ptr, "round {round}: row pointers");
            assert_eq!(got.col_idx, want.col_idx, "round {round}: columns");
            let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "round {round}: values");
        }
    }

    #[test]
    fn row_access_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
        let (cols, _) = m.row(1);
        assert!(cols.is_empty());
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn matvec_roundtrip() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.tr_matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![4.0, 4.0, 2.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.tr_matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
        // Transposed matvec agrees.
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(t.matvec(&x).unwrap(), m.tr_matvec(&x).unwrap());
    }

    #[test]
    fn scaling() {
        let m = sample();
        let s = m.scaled(2.0);
        assert_eq!(s.get(0, 2), 4.0);
        let r = m.scale_rows(&[1.0, 0.0, 10.0]).unwrap();
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(2, 1), 40.0);
        assert!(m.scale_rows(&[1.0]).is_err());
    }

    #[test]
    fn weighted_sum_combines() {
        let a = sample();
        let b = sample().scaled(10.0);
        let w = CsrMatrix::weighted_sum(&[&a, &b], &[1.0, 0.5]).unwrap();
        assert_eq!(w.get(0, 0), 6.0); // 1 + 0.5*10
        assert_eq!(w.get(2, 1), 24.0); // 4 + 0.5*40
                                       // Zero weight skips the matrix entirely.
        let z = CsrMatrix::weighted_sum(&[&a, &b], &[1.0, 0.0]).unwrap();
        assert_eq!(z, a);
        // Shape mismatch and empty inputs error.
        let small = CsrMatrix::zeros(2, 2);
        assert!(CsrMatrix::weighted_sum(&[&a, &small], &[1.0, 1.0]).is_err());
        assert!(CsrMatrix::weighted_sum(&[], &[]).is_err());
        assert!(CsrMatrix::weighted_sum(&[&a], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn zeros_and_density() {
        let z = CsrMatrix::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.row_sums(), vec![0.0; 4]);
        assert_eq!(z.density(), 0.0);
        assert!((sample().density() - 4.0 / 9.0).abs() < 1e-15);
        assert_eq!(CsrMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn submatrix_selects_and_reorders() {
        let m = sample();
        // Select rows [2, 0] and columns [1, 0]: values transpose-shuffle.
        let sub = m.submatrix(&[2, 0], &[1, 0]).unwrap();
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.ncols(), 2);
        assert_eq!(sub.get(0, 0), 4.0); // m[2,1]
        assert_eq!(sub.get(0, 1), 3.0); // m[2,0]
        assert_eq!(sub.get(1, 1), 1.0); // m[0,0]
        assert_eq!(sub.get(1, 0), 0.0); // m[0,1]
                                        // Empty selections are fine.
        let empty = m.submatrix(&[], &[0]).unwrap();
        assert_eq!(empty.nrows(), 0);
        assert_eq!(empty.nnz(), 0);
        // Bounds are checked.
        assert!(m.submatrix(&[5], &[0]).is_err());
        assert!(m.submatrix(&[0], &[9]).is_err());
    }

    #[test]
    fn to_dense_matches_iter() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[0], vec![1.0, 0.0, 2.0]);
        assert_eq!(d[1], vec![0.0, 0.0, 0.0]);
        assert_eq!(d[2], vec![3.0, 4.0, 0.0]);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(
            collected,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }
}
