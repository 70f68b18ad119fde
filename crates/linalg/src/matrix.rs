//! Row-major dense matrix type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// The type is intentionally simple: it owns a `Vec<f64>` and its shape, and offers
/// the operations needed by the Gaussian-process and neural-network code in the
/// workspace (products, transposes, slicing by rows, elementwise maps).
///
/// # Example
///
/// ```
/// use nnbo_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Checks the invariant every kernel relies on: `data` holds exactly
/// `rows × cols` values.
impl<'de> Deserialize<'de> for Matrix {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map for struct Matrix"))?;
        let rows: usize = serde::from_field(entries, "rows", "Matrix")?;
        let cols: usize = serde::from_field(entries, "cols", "Matrix")?;
        let data: Vec<f64> = serde::from_field(entries, "data", "Matrix")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::new(format!(
                "Matrix of shape {rows}×{cols} holds {} values",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s buffer when its capacity suffices (`Vec::clone_from`),
    /// so hot loops that repeatedly `clone_from` a same-shaped matrix — e.g.
    /// the per-iteration `K + σn²I` copy of a GP fit — stay allocation-free.
    /// (The derived impl would fall back to `*self = source.clone()`.)
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a single-column matrix from a vector.
    pub fn column(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
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

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over the rows of the matrix.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the main diagonal as an owned vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Transpose written into a caller-provided buffer, reusing its
    /// allocation when the shape already matches (resized otherwise) — the
    /// batched-prediction path transposes the cross-kernel block every call
    /// and this keeps that loop allocation-free.
    pub fn transpose_into(&self, out: &mut Matrix) {
        if out.shape() != (self.cols, self.rows) {
            *out = Matrix::zeros(self.cols, self.rows);
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != ncols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix-vector product `self * v` written into a caller-provided buffer
    /// (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != ncols()` or `out.len() != nrows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols.max(1))) {
            *o = crate::kernels::dot_unrolled(row, v);
        }
    }

    /// Vector-matrix product `vᵀ * self`, returned as a vector of length `ncols()`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != nrows()`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vecmat dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = self.row(i);
            let vi = v[i];
            for (o, r) in out.iter_mut().zip(row.iter()) {
                *o += vi * r;
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Computed by an internal cache-blocked kernel; large shapes run in
    /// row bands on the shared worker pool.  On the AVX-512F tier a product
    /// with `self.ncols() ≤ 256` reads both operands in place, with no
    /// packed copy of `other`.  See [`Matrix::matmul_naive`] for the
    /// reference implementation.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self * other` written into a caller-provided output
    /// matrix (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match or `out` has the wrong
    /// shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        crate::kernels::matmul_blocked(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Reference (unblocked, single-threaded) matrix product, kept for
    /// property tests and benchmarks of the blocked kernel.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Product `self * otherᵀ` without materialising the transpose.
    ///
    /// Computed by an internal tiled multi-accumulator kernel; large shapes
    /// run in row bands on the shared worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != other.ncols()`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// Product `self * otherᵀ` written into a caller-provided output matrix
    /// (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != other.ncols()` or `out` has the wrong shape.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transpose dimension mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_transpose output shape mismatch"
        );
        crate::kernels::matmul_transpose_blocked(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
    }

    /// Reference (untiled, single-threaded) `self * otherᵀ`, kept for property
    /// tests and benchmarks of the blocked kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != other.ncols()`.
    pub fn matmul_transpose_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transpose dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a = self.row(i);
            for j in 0..other.rows {
                let b = other.row(j);
                let mut acc = 0.0;
                for (x, y) in a.iter().zip(b.iter()) {
                    acc += x * y;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Product `selfᵀ * other` without materialising the transpose.
    ///
    /// Computed by an internal k-unrolled kernel; large shapes run in row
    /// bands on the shared worker pool.  On the AVX-512F tier a product with
    /// `self.nrows() ≤ 256` reads both operands in place, with no packed
    /// copy of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.nrows() != other.nrows()`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// Product `selfᵀ * other` written into a caller-provided output matrix
    /// (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `self.nrows() != other.nrows()` or `out` has the wrong shape.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transpose_matmul dimension mismatch");
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "transpose_matmul output shape mismatch"
        );
        crate::kernels::transpose_matmul_blocked(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Symmetric normal matrix `selfᵀ * self` (a SYRK in BLAS terms).
    ///
    /// On the SIMD dispatch path only the lower triangle is computed through
    /// the packed micro-kernels and mirrored — the result is exactly
    /// symmetric by construction.  The portable path falls back to the
    /// general blocked product.  This is the `ΦᵀΦ + λI` build of the
    /// weight-space neural GP (eq. 10), executed once per training epoch.
    pub fn transpose_matmul_self(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        self.transpose_matmul_self_into(&mut out);
        out
    }

    /// [`Matrix::transpose_matmul_self`] into a caller-provided buffer
    /// (resized when the shape does not match).
    pub fn transpose_matmul_self_into(&self, out: &mut Matrix) {
        let t = self.cols;
        if out.shape() != (t, t) {
            *out = Matrix::zeros(t, t);
        }
        if crate::dispatch::simd_active() {
            let data = out.as_mut_slice();
            data.fill(0.0);
            crate::packed::syrk_lower(
                crate::packed::Op::cols(&self.data, t),
                t,
                self.rows,
                data,
                t,
                0,
                false,
            );
            for i in 0..t {
                for j in 0..i {
                    data[j * t + i] = data[i * t + j];
                }
            }
        } else {
            crate::kernels::transpose_matmul_blocked(
                &self.data,
                self.rows,
                self.cols,
                &self.data,
                self.cols,
                &mut out.data,
            );
        }
    }

    /// Reference (single-threaded) `selfᵀ * other`, kept for property tests
    /// and benchmarks of the blocked kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.nrows() != other.nrows()`.
    pub fn transpose_matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transpose_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a = self.row(k);
            let b = other.row(k);
            for i in 0..self.cols {
                let aki = a[i];
                if aki == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, bj) in out_row.iter_mut().zip(b.iter()) {
                    *o += aki * bj;
                }
            }
        }
        out
    }

    /// Elementwise map, returning a new matrix.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Adds `value` to every diagonal entry in place.
    pub fn add_diag(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Scales every entry in place.
    pub fn scale_inplace(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Adds `factor * other` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, factor: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += factor * b;
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns the trace of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is rectangular.
    pub fn trace(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Returns `true` when the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Stacks matrices vertically.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(top: &Matrix, bottom: &Matrix) -> Matrix {
        assert_eq!(top.cols, bottom.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(top.data.len() + bottom.data.len());
        data.extend_from_slice(&top.data);
        data.extend_from_slice(&bottom.data);
        Matrix {
            rows: top.rows + bottom.rows,
            cols: top.cols,
            data,
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.map(|x| x * rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace().unwrap(), 3.0);
    }

    #[test]
    fn clone_from_reuses_the_buffer_for_matching_capacity() {
        let source = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut target = Matrix::zeros(2, 2);
        let buffer_before = target.as_slice().as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(
            target.as_slice().as_ptr(),
            buffer_before,
            "same-capacity clone_from must not reallocate"
        );
        // Shape changes still work (may reallocate).
        let wide = Matrix::filled(1, 7, 2.5);
        target.clone_from(&wide);
        assert_eq!(target, wide);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_vecmat() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(m.vecmat(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![2.0, 1.0, 0.0]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
        assert_eq!(a.transpose_matmul(&a), a.transpose().matmul(&a));
    }

    #[test]
    fn hadamard_and_scaling() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(
            a.hadamard(&b),
            Matrix::from_rows(&[vec![2.0, 4.0], vec![6.0, 8.0]])
        );
        let mut c = a.clone();
        c.scale_inplace(0.5);
        assert_eq!(c[(1, 1)], 2.0);
        let mut d = a.clone();
        d.add_scaled_inplace(&b, 1.0);
        assert_eq!(d[(0, 0)], 3.0);
    }

    #[test]
    fn add_diag_and_symmetry() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diag(2.5);
        assert_eq!(m.diag(), vec![2.5, 2.5, 2.5]);
        assert!(m.is_symmetric(1e-12));
        m[(0, 1)] = 1.0;
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn trace_requires_square() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(m.trace(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = Matrix::vstack(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), -1.0);
    }
}
