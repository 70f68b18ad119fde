//! Cholesky factorization of symmetric positive-definite matrices.

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Matrix};

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite matrix
/// `A = L Lᵀ`.
///
/// The factorization is the workhorse of both Gaussian-process regression (kernel
/// matrix solves, log-determinants) and the weight-space neural GP (the `M x M`
/// matrix `A = ΦΦᵀ + λI` of eq. 10 in the paper).
///
/// # Example
///
/// ```
/// use nnbo_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), nnbo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let chol = Cholesky::decompose(&a)?;
/// assert!((chol.log_det() - (3.0_f64).ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Cholesky {
    l: Matrix,
}

/// Checks what every method relies on: the stored factor is square.
impl<'de> Deserialize<'de> for Cholesky {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map for struct Cholesky"))?;
        let l: Matrix = serde::from_field(entries, "l", "Cholesky")?;
        if !l.is_square() {
            return Err(serde::DeError::new(format!(
                "Cholesky factor is {}×{}, not square",
                l.nrows(),
                l.ncols()
            )));
        }
        Ok(Cholesky { l })
    }
}

/// Columns per panel of the blocked factorization.
pub(crate) const PANEL: usize = 48;

/// The factor's diagonal entry `√(a_jj − Σ_t l_jt²)` of pivot `j`, `row`
/// holding row `j`'s entries in the panel's earlier columns, summed by
/// [`crate::kernels::dot_unrolled`].  Every tier's panel step calls this.
///
/// # Errors
///
/// [`LinalgError::NotPositiveDefinite`] when the radicand is not strictly
/// positive and finite.
pub(crate) fn panel_pivot(diag: f64, row: &[f64], j: usize) -> Result<f64, LinalgError> {
    let sum = diag - crate::kernels::dot_unrolled(row, row);
    if sum <= 0.0 || !sum.is_finite() {
        return Err(LinalgError::NotPositiveDefinite {
            pivot: j,
            value: sum,
        });
    }
    Ok(sum.sqrt())
}

/// Direction of a batched triangular sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Lower,
    Upper,
}

/// Minimum columns per thread block of a batched triangular solve; below this
/// the gather/scatter traffic outweighs the shared sweep work.
const COL_BLOCK_MIN: usize = 64;

impl Cholesky {
    /// Computes the Cholesky factorization of `a`.
    ///
    /// Only the lower triangle of `a` is read; the matrix is assumed symmetric.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly positive.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        // Copy the lower triangle; the factorization then runs in place.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let (src, dst) = (&a.row(i)[..=i], &mut l.row_mut(i)[..=i]);
            dst.copy_from_slice(src);
        }
        Self::factor_in_place(&mut l)?;
        Ok(Cholesky { l })
    }

    /// Blocked right-looking in-place factorization of the lower triangle of
    /// `l`.
    ///
    /// Each `PANEL`-wide panel is factored by one left-looking sweep per
    /// column over every row below the diagonal (the diagonal block and the
    /// sub-panel together), and the (dominant) symmetric trailing update runs
    /// as a blocked rank-`PANEL` product over contiguous panel rows —
    /// multi-threaded for large trailing blocks.
    fn factor_in_place(l: &mut Matrix) -> Result<(), LinalgError> {
        let n = l.nrows();
        let direct = crate::dispatch::avx512_active();
        // Scratch of the AVX-512F panel kernel and of the trailing update,
        // allocated once per factorization.
        let mut columns = Vec::new();
        let mut panel = Vec::new();
        let mut kb = 0;
        while kb < n {
            let kend = (kb + PANEL).min(n);
            // 1. Factor the panel (contributions of columns < kb are already
            //    subtracted by earlier trailing updates): for each column j,
            //    the pivot, then L[i][j] for every row i > j.
            if direct {
                crate::packed::factor_panel(l.as_mut_slice(), n, kb, kend, &mut columns)?;
            } else {
                for j in kb..kend {
                    let pivot = panel_pivot(l[(j, j)], &l.row(j)[kb..j], j)?;
                    l[(j, j)] = pivot;
                    for i in j + 1..n {
                        let sum = l[(i, j)]
                            - crate::kernels::dot_unrolled(&l.row(i)[kb..j], &l.row(j)[kb..j]);
                        l[(i, j)] = sum / pivot;
                    }
                }
            }
            // 2. Trailing update: A22 -= L21 · L21ᵀ (lower triangle only).
            //    The panel is copied into a contiguous scratch buffer so the
            //    row bands below can be updated on independent threads while
            //    sharing read access to it.  On AVX2 hardware the update runs
            //    as a packed SYRK through the micro-kernel engine.
            if kend < n {
                let width = kend - kb;
                let trailing = n - kend;
                panel.clear();
                panel.resize(trailing * width, 0.0);
                for (t, chunk) in panel.chunks_exact_mut(width).enumerate() {
                    chunk.copy_from_slice(&l.row(kend + t)[kb..kend]);
                }
                let cols = l.ncols();
                let tail = &mut l.as_mut_slice()[kend * cols..];
                if crate::dispatch::simd_active() {
                    crate::packed::syrk_lower(
                        crate::packed::Op::rows(&panel, width),
                        trailing,
                        width,
                        tail,
                        cols,
                        kend,
                        true,
                    );
                } else {
                    let threads =
                        crate::parallel::plan_threads(trailing, trailing * trailing * width);
                    crate::parallel::for_each_row_band(
                        tail,
                        trailing,
                        cols,
                        threads,
                        |first, band| {
                            for (t, row) in band.chunks_exact_mut(cols).enumerate() {
                                let i = first + t;
                                let pi = &panel[i * width..(i + 1) * width];
                                crate::kernels::syrk_row_update(
                                    pi,
                                    &panel,
                                    width,
                                    &mut row[kend..kend + i + 1],
                                );
                            }
                        },
                    );
                }
            }
            kb = kend;
        }
        Ok(())
    }

    /// Reference (scalar, single-threaded) factorization, kept for property
    /// tests and benchmarks of the blocked implementation.
    ///
    /// # Errors
    ///
    /// Same contract as [`Cholesky::decompose`].
    pub fn decompose_reference(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Computes the factorization, adding increasing diagonal jitter until it
    /// succeeds.
    ///
    /// The jitter starts at `initial_jitter` and is multiplied by 10 up to
    /// `max_attempts` times.  This is the standard trick for kernel matrices that are
    /// positive definite in exact arithmetic but borderline in floating point.
    ///
    /// # Errors
    ///
    /// Returns the last factorization error if every attempt fails.
    pub fn decompose_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_attempts: usize,
    ) -> Result<(Self, f64), LinalgError> {
        match Self::decompose(a) {
            Ok(c) => Ok((c, 0.0)),
            Err(e) => {
                let mut jitter = initial_jitter;
                let mut last_err = e;
                for _ in 0..max_attempts {
                    let mut aj = a.clone();
                    aj.add_diag(jitter);
                    match Self::decompose(&aj) {
                        Ok(c) => return Ok((c, jitter)),
                        Err(e) => last_err = e,
                    }
                    jitter *= 10.0;
                }
                Err(last_err)
            }
        }
    }

    /// First rung of the canonical recovery ladder (see
    /// [`Cholesky::decompose_recovering`]).
    pub const RECOVERY_JITTER_INITIAL: f64 = 1e-10;

    /// Number of rungs of the canonical recovery ladder: seven ×10 steps span
    /// `1e-10 → 1e-4`, past which a kernel matrix is better treated as broken
    /// than nudged.
    pub const RECOVERY_JITTER_ATTEMPTS: usize = 7;

    /// [`Cholesky::decompose_with_jitter`] on the canonical recovery ladder
    /// (`1e-10 → 1e-4` in ×10 steps) — the escalation every fault-tolerant
    /// caller in the workspace shares, so recovery behaviour is uniform across
    /// GP fits, incremental updates, and inverses.  The returned jitter is the
    /// recovery record: `0.0` means the plain factorization succeeded.
    ///
    /// # Errors
    ///
    /// Returns the last factorization error when even the top rung fails.
    pub fn decompose_recovering(a: &Matrix) -> Result<(Self, f64), LinalgError> {
        Self::decompose_with_jitter(
            a,
            Self::RECOVERY_JITTER_INITIAL,
            Self::RECOVERY_JITTER_ATTEMPTS,
        )
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower dimension mismatch");
        let mut y = b.to_vec();
        crate::packed::solve_lower_vec(self.l.as_slice(), n, self.l.ncols(), &mut y);
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper dimension mismatch");
        let mut x = y.to_vec();
        crate::packed::solve_upper_vec(self.l.as_slice(), n, self.l.ncols(), &mut x);
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Solves `L Y = B` for a full right-hand-side matrix `B` (`n × m`).
    ///
    /// One forward sweep serves all `m` columns simultaneously: every inner
    /// operation is a contiguous row `axpy` of width `m`, which vectorises —
    /// unlike `m` independent [`Cholesky::solve_lower`] calls whose dot
    /// products are serial dependency chains.  Wide right-hand sides are
    /// additionally split into contiguous column blocks solved as tasks of
    /// one batch on the shared worker pool (the columns are independent, so
    /// the arithmetic per column is unchanged).  Column `j` of the result is
    /// arithmetically identical to `solve_lower` of column `j` of `B`.
    ///
    /// # Panics
    ///
    /// Panics if `b.nrows() != dim()`.
    pub fn solve_lower_matrix(&self, b: &Matrix) -> Matrix {
        let mut y = b.clone();
        self.sweep_matrix_in_place(&mut y, Sweep::Lower);
        y
    }

    /// [`Cholesky::solve_lower_matrix`] overwriting the right-hand side in
    /// place (no allocation) — the batched-prediction hot path solves
    /// `L V = K*ᵀ` every acquisition scoring round and reuses one buffer for
    /// it.  Column `j` of the result is arithmetically identical to
    /// [`Cholesky::solve_lower`] of column `j`, exactly as for the allocating
    /// variant.
    ///
    /// # Panics
    ///
    /// Panics if `b.nrows() != dim()`.
    pub fn solve_lower_matrix_in_place(&self, b: &mut Matrix) {
        self.sweep_matrix_in_place(b, Sweep::Lower);
    }

    /// Solves `A X = B` where `A = L Lᵀ`, for all columns of `B` in two
    /// vectorised triangular sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `B.nrows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        self.sweep_matrix_in_place(&mut x, Sweep::Lower);
        self.sweep_matrix_in_place(&mut x, Sweep::Upper);
        x
    }

    /// Explicit inverse of the factored matrix (use sparingly; prefer the solves).
    pub fn inverse(&self) -> Matrix {
        let mut out = Matrix::identity(self.dim());
        self.inverse_in_place(&mut out);
        out
    }

    /// Writes `A⁻¹` into a caller-provided buffer, reusing its allocation when
    /// the shape already matches — the NLL gradient of a Gaussian-process fit
    /// needs the dense inverse every Adam iteration, and this keeps that loop
    /// free of `O(N²)` allocations.
    pub fn inverse_into(&self, out: &mut Matrix) {
        let n = self.dim();
        if out.shape() != (n, n) {
            *out = Matrix::identity(n);
        } else {
            let data = out.as_mut_slice();
            data.fill(0.0);
            for i in 0..n {
                data[i * n + i] = 1.0;
            }
        }
        self.inverse_in_place(out);
    }

    fn inverse_in_place(&self, out: &mut Matrix) {
        self.sweep_matrix_in_place(out, Sweep::Lower);
        self.sweep_matrix_in_place(out, Sweep::Upper);
    }

    /// Writes `A⁻¹` into `out` the dpotri way: invert the triangular factor
    /// (`W = L⁻¹`, exploiting that column `j` of `W` is zero above the
    /// diagonal), then form the symmetric product `A⁻¹ = WᵀW` touching only
    /// the lower triangle and mirror it.  Roughly `n³/2` multiplications
    /// versus the `n³` of [`Cholesky::inverse_into`]'s two dense sweeps — the
    /// per-iteration win of a Gaussian-process fit, whose NLL gradient needs
    /// this inverse every Adam step.
    ///
    /// `work` is caller-provided scratch for `W` (resized when needed, like
    /// `out`), so hot loops can keep both buffers across iterations.  The
    /// result is the same matrix as [`Cholesky::inverse_into`] up to rounding
    /// (different operation order; exactly symmetric by construction, which
    /// the dense sweeps only guarantee up to rounding).
    pub fn symmetric_inverse_into(&self, out: &mut Matrix, work: &mut Matrix) {
        let n = self.dim();
        if out.shape() != (n, n) {
            *out = Matrix::zeros(n, n);
        }
        self.triangular_inverse_into(work);
        let data = out.as_mut_slice();
        data.fill(0.0);
        if crate::dispatch::simd_active() {
            // S[i][j] = Σ_k W[k][i]·W[k][j]: columns of W are the logical
            // rows of the SYRK operand.
            crate::packed::syrk_lower(
                crate::packed::Op::cols(work.as_slice(), n),
                n,
                n,
                data,
                n,
                0,
                false,
            );
        } else {
            // Rank-1 accumulation per row of W; row k of W is zero past
            // column k, so this touches ~n³/6 products.
            for k in 0..n {
                let wrow = &work.as_slice()[k * n..k * n + k + 1];
                for i in 0..=k {
                    let wki = wrow[i];
                    if wki == 0.0 {
                        continue;
                    }
                    let orow = &mut data[i * n..i * n + i + 1];
                    for (o, &wkj) in orow.iter_mut().zip(wrow.iter()) {
                        *o += wki * wkj;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                data[j * n + i] = data[i * n + j];
            }
        }
    }

    /// Allocating convenience wrapper around [`Cholesky::symmetric_inverse_into`].
    pub fn symmetric_inverse(&self) -> Matrix {
        let mut out = Matrix::zeros(self.dim(), self.dim());
        let mut work = Matrix::zeros(self.dim(), self.dim());
        self.symmetric_inverse_into(&mut out, &mut work);
        out
    }

    /// Checked variant of [`Cholesky::symmetric_inverse_into`] for
    /// fault-tolerant callers: a factor with a collapsed (denormal) pivot
    /// survives [`Cholesky::decompose`]'s strict-positivity check but
    /// overflows when inverted, and the resulting ±inf/NaN entries would
    /// otherwise poison every downstream gradient.  This scans the output and
    /// reports the overflow as an error instead, leaving the caller free to
    /// refactorize on a jitter rung.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] when the inverse contains
    /// non-finite entries; `out` holds the poisoned inverse in that case and
    /// must not be used.
    pub fn try_symmetric_inverse_into(
        &self,
        out: &mut Matrix,
        work: &mut Matrix,
    ) -> Result<(), LinalgError> {
        self.symmetric_inverse_into(out, work);
        if out.as_slice().iter().all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(LinalgError::NonFinite {
                context: "symmetric inverse",
            })
        }
    }

    /// Writes the lower-triangular inverse `W = L⁻¹` into `w` (upper triangle
    /// zeroed).  Column `j` of `W` is zero above the diagonal, so the forward
    /// sweep for a block of columns `[jb, jb+nb)` only runs over rows
    /// `i ≥ jb` — `n³/6` multiplications in total.  On the AVX-512F tier each
    /// row of a block accumulates in registers
    /// ([`crate::packed::triangular_inverse_block`]); other tiers run the
    /// dispatched row-axpy kernel of the batched solves.  Both apply the same
    /// fused update per element, in the same order.
    fn triangular_inverse_into(&self, w: &mut Matrix) {
        let n = self.dim();
        if w.shape() != (n, n) {
            *w = Matrix::zeros(n, n);
        } else {
            w.as_mut_slice().fill(0.0);
        }
        const NB: usize = 64;
        let direct = crate::dispatch::avx512_active();
        let data = w.as_mut_slice();
        let mut jb = 0;
        while jb < n {
            let nb = NB.min(n - jb);
            for c in 0..nb {
                data[(jb + c) * n + jb + c] = 1.0;
            }
            if direct {
                crate::packed::triangular_inverse_block(self.l.as_slice(), n, jb, nb, data);
            } else {
                for i in jb..n {
                    let (head, tail) = data.split_at_mut(i * n);
                    let wi = &mut tail[jb..jb + nb];
                    for k in jb..i {
                        let lik = self.l[(i, k)];
                        if lik == 0.0 {
                            continue;
                        }
                        let wk = &head[k * n + jb..k * n + jb + nb];
                        crate::packed::sweep_axpy(lik, wk, wi);
                    }
                    let lii = self.l[(i, i)];
                    for o in wi.iter_mut() {
                        *o /= lii;
                    }
                }
            }
            jb += nb;
        }
    }

    /// Runs one triangular sweep over all columns of `y` in place, fanning
    /// wide right-hand sides out over contiguous column blocks as a scoped
    /// batch on the shared worker pool.  Each block is gathered into a dense thread-local buffer,
    /// swept, and scattered back; since every column's arithmetic is
    /// independent of the others, the result is bit-identical to the
    /// sequential sweep.
    fn sweep_matrix_in_place(&self, y: &mut Matrix, sweep: Sweep) {
        let n = self.dim();
        assert_eq!(y.nrows(), n, "triangular solve dimension mismatch");
        let m = y.ncols();
        let threads = crate::parallel::plan_threads(m, n * n * m / 2);
        self.sweep_matrix_with_threads(y, sweep, threads);
    }

    /// Sweep with an explicit thread count (separated out so tests can force
    /// the banded path on single-core machines).
    fn sweep_matrix_with_threads(&self, y: &mut Matrix, sweep: Sweep, threads: usize) {
        let n = self.dim();
        let m = y.ncols();
        if threads <= 1 || m < 2 * COL_BLOCK_MIN {
            self.sweep_in_place(y.as_mut_slice(), m, sweep);
            return;
        }
        let blocks = threads.min(m / COL_BLOCK_MIN).max(1);
        let block_cols = m.div_ceil(blocks);
        // Gather contiguous column bands into dense thread-local buffers.
        let mut locals: Vec<(usize, Matrix)> = Vec::with_capacity(blocks);
        let mut c0 = 0;
        while c0 < m {
            let bc = block_cols.min(m - c0);
            let mut local = Matrix::zeros(n, bc);
            for i in 0..n {
                local.row_mut(i).copy_from_slice(&y.row(i)[c0..c0 + bc]);
            }
            locals.push((c0, local));
            c0 += bc;
        }
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = locals
            .iter_mut()
            .map(|(_, local)| {
                let cols = local.ncols();
                let data = local.as_mut_slice();
                Box::new(move || self.sweep_in_place(data, cols, sweep))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        nnbo_pool::WorkerPool::global().run_batch(tasks);
        for (c0, local) in &locals {
            for i in 0..n {
                y.row_mut(i)[*c0..*c0 + local.ncols()].copy_from_slice(local.row(i));
            }
        }
    }

    /// The sequential sweep kernel over a row-major `dim() × m` buffer.
    ///
    /// The row update `yᵢ -= lᵢₖ·yₖ` goes through [`crate::packed::sweep_axpy`],
    /// whose per-element arithmetic does not depend on the row width — so a
    /// column solved alone is bit-identical to the same column solved inside a
    /// wide right-hand side, on either dispatch path.
    fn sweep_in_place(&self, data: &mut [f64], m: usize, sweep: Sweep) {
        let n = self.dim();
        match sweep {
            Sweep::Lower => {
                for i in 0..n {
                    let (head, tail) = data.split_at_mut(i * m);
                    let yi = &mut tail[..m];
                    for k in 0..i {
                        let lik = self.l[(i, k)];
                        if lik == 0.0 {
                            continue;
                        }
                        let yk = &head[k * m..(k + 1) * m];
                        crate::packed::sweep_axpy(lik, yk, yi);
                    }
                    // Divide (not multiply by a reciprocal) to stay bit-identical
                    // with the single-vector solve.
                    let lii = self.l[(i, i)];
                    for o in yi.iter_mut() {
                        *o /= lii;
                    }
                }
            }
            Sweep::Upper => {
                for i in (0..n).rev() {
                    let (head, tail) = data.split_at_mut((i + 1) * m);
                    let xi = &mut head[i * m..];
                    for k in (i + 1)..n {
                        let lki = self.l[(k, i)];
                        if lki == 0.0 {
                            continue;
                        }
                        let xk = &tail[(k - i - 1) * m..(k - i) * m];
                        crate::packed::sweep_axpy(lki, xk, xi);
                    }
                    let lii = self.l[(i, i)];
                    for o in xi.iter_mut() {
                        *o /= lii;
                    }
                }
            }
        }
    }

    /// Log-determinant of the factored matrix: `2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Quadratic form `bᵀ A⁻¹ b` computed via a single triangular solve.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn quadratic_form(&self, b: &[f64]) -> f64 {
        let y = self.solve_lower(b);
        y.iter().map(|v| v * v).sum()
    }

    /// Extends the factorization of `A` to the factorization of the bordered
    /// matrix `[[A, b], [bᵀ, d]]` in `O(n²)` — without refactorizing.
    ///
    /// `row` is the new bordering row `[b₁ … bₙ, d]` (covariances to the
    /// existing points followed by the new diagonal entry).  This is the
    /// update the Bayesian-optimization loop applies when a single observation
    /// is appended to a kernel matrix mid-run: the new factor row is
    /// `w = L⁻¹ b` and the new pivot `√(d − wᵀw)`, versus `O(n³/3)` for a
    /// fresh [`Cholesky::decompose`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when the bordered matrix
    /// is not positive definite (`d − wᵀw ≤ 0`); the factorization is left
    /// unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim() + 1`.
    pub fn append_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        assert_eq!(row.len(), n + 1, "append_row expects dim()+1 entries");
        let w = self.solve_lower(&row[..n]);
        let pivot_sq = row[n] - w.iter().map(|v| v * v).sum::<f64>();
        if pivot_sq <= 0.0 || !pivot_sq.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: n,
                value: pivot_sq,
            });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        l.row_mut(n)[..n].copy_from_slice(&w);
        l[(n, n)] = pivot_sq.sqrt();
        self.l = l;
        Ok(())
    }

    /// [`Cholesky::append_row`] with the recovery ladder: when the bordered
    /// matrix is not numerically positive definite, the *new diagonal entry*
    /// is bumped by an escalating nugget (`initial_jitter`, ×10 per rung, up
    /// to `max_attempts` rungs) until the border factors.  Only the appended
    /// pivot is perturbed — the existing factorization is exact and stays
    /// untouched, which is what makes this the `O(n²)` analogue of
    /// [`Cholesky::decompose_with_jitter`] for incremental kernel updates.
    ///
    /// Returns the jitter that was applied (`0.0` when the plain append
    /// succeeded) so callers can record the recovery.
    ///
    /// # Errors
    ///
    /// Returns the last [`LinalgError::NotPositiveDefinite`] when every rung
    /// fails; the factorization is left unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim() + 1`.
    pub fn append_row_with_jitter(
        &mut self,
        row: &[f64],
        initial_jitter: f64,
        max_attempts: usize,
    ) -> Result<f64, LinalgError> {
        match self.append_row(row) {
            Ok(()) => Ok(0.0),
            Err(e) => {
                let mut jitter = initial_jitter;
                let mut last_err = e;
                let mut bumped = row.to_vec();
                let d = row.len() - 1;
                for _ in 0..max_attempts {
                    bumped[d] = row[d] + jitter;
                    match self.append_row(&bumped) {
                        Ok(()) => return Ok(jitter),
                        Err(e) => last_err = e,
                    }
                    jitter *= 10.0;
                }
                Err(last_err)
            }
        }
    }

    /// Updates the factorization of `A` to the factorization of `A + v vᵀ` in
    /// `O(n²)` (the classic hyperbolic-rotation rank-1 update).
    ///
    /// This is what the weight-space neural GP needs when one observation is
    /// appended: its normal matrix `ΦΦᵀ + λI` grows by exactly `φ φᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn rank_one_update(&mut self, v: &[f64]) {
        let n = self.dim();
        assert_eq!(v.len(), n, "rank_one_update dimension mismatch");
        let mut work = v.to_vec();
        for k in 0..n {
            let lkk = self.l[(k, k)];
            let wk = work[k];
            let r = (lkk * lkk + wk * wk).sqrt();
            let c = r / lkk;
            let s = wk / lkk;
            self.l[(k, k)] = r;
            if k + 1 < n {
                let cols = self.l.ncols();
                let data = self.l.as_mut_slice();
                for i in (k + 1)..n {
                    let lik = data[i * cols + k];
                    let updated = (lik + s * work[i]) / c;
                    data[i * cols + k] = updated;
                    work[i] = c * work[i] - s * updated;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;
    use proptest::prelude::*;

    /// The row-ordered panel factorization the column sweep replaced: per
    /// panel, the diagonal block row by row, then the sub-panel row by row,
    /// then the same trailing update.
    fn factor_reference(a: &Matrix) -> Result<Matrix, LinalgError> {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        let mut kb = 0;
        while kb < n {
            let kend = (kb + PANEL).min(n);
            for i in kb..kend {
                for j in kb..=i {
                    let sum = l[(i, j)]
                        - crate::kernels::dot_unrolled(&l.row(i)[kb..j], &l.row(j)[kb..j]);
                    if i == j {
                        if sum <= 0.0 || !sum.is_finite() {
                            return Err(LinalgError::NotPositiveDefinite {
                                pivot: i,
                                value: sum,
                            });
                        }
                        l[(i, i)] = sum.sqrt();
                    } else {
                        l[(i, j)] = sum / l[(j, j)];
                    }
                }
            }
            for i in kend..n {
                for j in kb..kend {
                    let sum = l[(i, j)]
                        - crate::kernels::dot_unrolled(&l.row(i)[kb..j], &l.row(j)[kb..j]);
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
            if kend < n {
                let width = kend - kb;
                let trailing = n - kend;
                let mut panel = vec![0.0; trailing * width];
                for (t, chunk) in panel.chunks_exact_mut(width).enumerate() {
                    chunk.copy_from_slice(&l.row(kend + t)[kb..kend]);
                }
                let tail = &mut l.as_mut_slice()[kend * n..];
                if crate::dispatch::simd_active() {
                    crate::packed::syrk_lower(
                        crate::packed::Op::rows(&panel, width),
                        trailing,
                        width,
                        tail,
                        n,
                        kend,
                        true,
                    );
                } else {
                    for (t, row) in tail.chunks_exact_mut(n).enumerate() {
                        let pi = &panel[t * width..(t + 1) * width];
                        crate::kernels::syrk_row_update(
                            pi,
                            &panel,
                            width,
                            &mut row[kend..kend + t + 1],
                        );
                    }
                }
            }
            kb = kend;
        }
        Ok(l)
    }

    /// The triangular inverse as one `sweep_axpy` per `(i, k)`, the form the
    /// register-blocked kernel replaced.
    fn triangular_inverse_reference(l: &Matrix) -> Matrix {
        let n = l.nrows();
        let mut w = Matrix::zeros(n, n);
        let data = w.as_mut_slice();
        let mut jb = 0;
        while jb < n {
            let nb = 64.min(n - jb);
            for c in 0..nb {
                data[(jb + c) * n + jb + c] = 1.0;
            }
            for i in jb..n {
                let (head, tail) = data.split_at_mut(i * n);
                let wi = &mut tail[jb..jb + nb];
                for k in jb..i {
                    let lik = l[(i, k)];
                    if lik == 0.0 {
                        continue;
                    }
                    crate::packed::sweep_axpy(lik, &head[k * n + jb..k * n + jb + nb], wi);
                }
                for o in wi.iter_mut() {
                    *o /= l[(i, i)];
                }
            }
            jb += nb;
        }
        w
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Checks the factor (or the error) and the triangular inverse of `a`
    /// against the references, bit for bit.
    fn assert_matches_references(a: &Matrix, what: &str) {
        match (Cholesky::decompose(a), factor_reference(a)) {
            (Ok(c), Ok(l)) => {
                assert!(same_bits(c.factor(), &l), "{what}: factor");
                let mut w = Matrix::zeros(1, 1);
                c.triangular_inverse_into(&mut w);
                assert!(
                    same_bits(&w, &triangular_inverse_reference(&l)),
                    "{what}: inverse"
                );
            }
            (
                Err(LinalgError::NotPositiveDefinite { pivot, value }),
                Err(LinalgError::NotPositiveDefinite {
                    pivot: ref_pivot,
                    value: ref_value,
                }),
            ) => {
                assert_eq!(pivot, ref_pivot, "{what}: failing pivot");
                assert_eq!(value.to_bits(), ref_value.to_bits(), "{what}: pivot value");
            }
            (got, reference) => panic!("{what}: {got:?} vs {:?}", reference.map(|_| ())),
        }
    }

    /// An irregular symmetric positive-definite `n × n` matrix.
    fn spd(n: usize) -> Matrix {
        let b = Matrix::from_vec(
            n,
            n,
            (0..n * n)
                .map(|k| ((k * 7919 + 17) % 1013) as f64 / 1013.0 - 0.5)
                .collect(),
        );
        let mut a = b.matmul(&b.transpose());
        a.add_diag(0.1 * n as f64);
        a
    }

    #[test]
    fn column_sweep_and_blocked_inverse_match_the_references_bit_for_bit() {
        for n in (1..=64).chain([100, 160, 255, 256]) {
            assert_matches_references(&spd(n), &format!("n = {n}"));
        }
    }

    #[test]
    fn column_sweep_matches_the_reference_on_the_jitter_ladder() {
        // A squared-exponential Gram matrix over repeated points is singular:
        // the plain factorization fails and the ladder's rungs factor it.
        for n in [20, 70, 130] {
            let x: Vec<f64> = (0..n).map(|i| ((i % 9) as f64 * 0.37).sin()).collect();
            let mut k = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    k[(i, j)] = (-0.5 * (x[i] - x[j]).powi(2)).exp();
                }
            }
            assert!(
                Cholesky::decompose(&k).is_err(),
                "n = {n}: must need jitter"
            );
            let mut jitter = Cholesky::RECOVERY_JITTER_INITIAL;
            assert_matches_references(&k, &format!("n = {n}, no jitter"));
            for rung in 0..Cholesky::RECOVERY_JITTER_ATTEMPTS {
                let mut kj = k.clone();
                kj.add_diag(jitter);
                assert_matches_references(&kj, &format!("n = {n}, rung {rung}"));
                jitter *= 10.0;
            }
        }
    }

    #[test]
    fn column_sweep_reports_the_same_failing_pivot_and_value() {
        // Indefinite in the second panel, and with a NaN pivot.
        let mut a = spd(100);
        a[(70, 70)] = -50.0;
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 70, .. })
        ));
        assert_matches_references(&a, "indefinite pivot 70");
        let mut b = spd(60);
        b[(30, 5)] = f64::NAN;
        assert_matches_references(&b, "NaN entry");
    }

    #[test]
    fn blocked_inverse_skips_exact_zeros_like_the_reference() {
        // A factor with exact zeros (±0.0) below the diagonal, across two
        // column blocks.  In the second variant a subnormal pivot makes
        // `W[3][3] = +∞`, and column 3 below it is zero: only the skip keeps
        // `0 · ∞ = NaN` out of the rows below.
        for n in [9, 70, 130] {
            for overflow in [false, true] {
                let mut l = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..i {
                        l[(i, j)] = match (i * 31 + j * 7) % 5 {
                            0 => 0.0,
                            1 => -0.0,
                            k => (k as f64 - 2.5) * 0.1,
                        };
                    }
                    l[(i, i)] = 1.0 + (i % 3) as f64;
                }
                if overflow {
                    l[(3, 3)] = 1e-320;
                    for i in 4..n {
                        l[(i, 3)] = 0.0;
                    }
                }
                let chol = Cholesky { l: l.clone() };
                let mut w = Matrix::zeros(1, 1);
                chol.triangular_inverse_into(&mut w);
                assert!(
                    same_bits(&w, &triangular_inverse_reference(&l)),
                    "n = {n}, overflow {overflow}"
                );
                if overflow {
                    assert_eq!(w[(3, 3)], f64::INFINITY);
                    assert!((4..n).all(|i| w[(i, 3)] == 0.0), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn deserialized_factor_must_be_square() {
        let good = Cholesky::decompose(&spd_example()).unwrap();
        let value = serde::Serialize::to_value(&good);
        assert_eq!(Cholesky::from_value(&value).unwrap(), good);
        let wide = Cholesky {
            l: Matrix::zeros(2, 3),
        };
        let err = Cholesky::from_value(&serde::Serialize::to_value(&wide)).unwrap_err();
        assert!(err.to_string().contains("not square"), "{err}");
    }

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 1.0],
            vec![0.5, 1.0, 2.0],
        ])
    }

    #[test]
    fn reconstructs_original() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let rec = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_gives_residual_zero() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = c.solve_vec(&b);
        let r = a.matvec(&x);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_lu() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let lu = Lu::decompose(&a).unwrap();
        assert!((c.log_det() - lu.log_det().unwrap()).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_recovers_semi_definite() {
        // Rank-deficient Gram matrix: jitter should make it factorable.
        let v = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let (c, jitter) = Cholesky::decompose_with_jitter(&v, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let inv = c.inverse();
        let id = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((id[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn blocked_factorization_matches_reference_beyond_one_panel() {
        // 120 > PANEL exercises the panel solve and the trailing update.
        let n = 120;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            a[(i, i)] += n as f64 * 0.05;
        }
        let blocked = Cholesky::decompose(&a).unwrap();
        let reference = Cholesky::decompose_reference(&a).unwrap();
        let diff = &(blocked.factor().clone()) - reference.factor();
        assert!(diff.max_abs() < 1e-10, "max diff {}", diff.max_abs());
    }

    #[test]
    fn solve_lower_matrix_matches_per_column_solves() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let b = Matrix::from_rows(&[
            vec![1.0, -1.0, 0.5, 2.0],
            vec![0.0, 2.0, -0.5, 1.0],
            vec![3.0, 0.1, 0.0, -1.0],
        ]);
        let y = c.solve_lower_matrix(&b);
        let x = c.solve_matrix(&b);
        for j in 0..b.ncols() {
            let col = b.col(j);
            let y_ref = c.solve_lower(&col);
            let x_ref = c.solve_vec(&col);
            for i in 0..3 {
                assert_eq!(y[(i, j)], y_ref[i], "solve_lower mismatch at ({i},{j})");
                assert_eq!(x[(i, j)], x_ref[i], "solve mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn column_banded_sweeps_match_sequential_exactly() {
        // Force the threaded column-block path (the planner would stay
        // sequential at this size and on single-core machines) and check it is
        // bit-identical to the sequential sweep.
        let n = 24;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            a[(i, i)] += 2.0;
        }
        let c = Cholesky::decompose(&a).unwrap();
        let m = 3 * COL_BLOCK_MIN + 7;
        let mut b = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                b[(i, j)] = ((i * 31 + j * 17) % 23) as f64 / 11.0 - 1.0;
            }
        }
        for sweep in [Sweep::Lower, Sweep::Upper] {
            let mut sequential = b.clone();
            c.sweep_matrix_with_threads(&mut sequential, sweep, 1);
            for threads in [2, 3, 5] {
                let mut banded = b.clone();
                c.sweep_matrix_with_threads(&mut banded, sweep, threads);
                assert_eq!(
                    sequential.as_slice(),
                    banded.as_slice(),
                    "{sweep:?} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn inverse_into_matches_inverse_and_reuses_buffers() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let reference = c.inverse();
        // Wrong shape: reallocated.
        let mut out = Matrix::zeros(1, 5);
        c.inverse_into(&mut out);
        assert_eq!(out.as_slice(), reference.as_slice());
        // Right shape with stale contents: overwritten in place.
        let mut stale = Matrix::filled(3, 3, 7.5);
        c.inverse_into(&mut stale);
        assert_eq!(stale.as_slice(), reference.as_slice());
    }

    #[test]
    fn symmetric_inverse_matches_full_inverse_and_is_symmetric() {
        // Large enough to cross the triangular-inverse block width and
        // several SYRK panels.
        let n = 83;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            a[(i, i)] += 1.5;
        }
        let c = Cholesky::decompose(&a).unwrap();
        let full = c.inverse();
        let mut sym = Matrix::zeros(1, 1);
        let mut work = Matrix::zeros(1, 1);
        c.symmetric_inverse_into(&mut sym, &mut work);
        assert_eq!(sym.shape(), (n, n));
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (sym[(i, j)] - full[(i, j)]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    sym[(i, j)],
                    full[(i, j)]
                );
                assert_eq!(sym[(i, j)], sym[(j, i)], "exact symmetry at ({i},{j})");
            }
        }
        assert_eq!(c.symmetric_inverse().as_slice(), sym.as_slice());
    }

    #[test]
    fn append_row_matches_fresh_factorization() {
        let a = spd_example();
        let mut c = Cholesky::decompose(&a).unwrap();
        // Border the matrix with one extra row/column.
        let border = [0.3, -0.2, 0.6, 3.0];
        let mut big = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                big[(i, j)] = a[(i, j)];
            }
            big[(3, i)] = border[i];
            big[(i, 3)] = border[i];
        }
        big[(3, 3)] = border[3];
        c.append_row(&border).unwrap();
        let fresh = Cholesky::decompose(&big).unwrap();
        let diff = &(c.factor().clone()) - fresh.factor();
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn append_row_rejects_indefinite_border_and_keeps_state() {
        let a = spd_example();
        let mut c = Cholesky::decompose(&a).unwrap();
        let before = c.factor().clone();
        // A huge off-diagonal border with a tiny diagonal is not SPD.
        let err = c.append_row(&[10.0, 10.0, 10.0, 0.1]).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        assert_eq!(c.factor(), &before);
    }

    #[test]
    fn rank_one_update_matches_fresh_factorization() {
        let a = spd_example();
        let mut c = Cholesky::decompose(&a).unwrap();
        let v = [0.7, -0.4, 1.2];
        let mut bumped = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                bumped[(i, j)] += v[i] * v[j];
            }
        }
        c.rank_one_update(&v);
        let fresh = Cholesky::decompose(&bumped).unwrap();
        let diff = &(c.factor().clone()) - fresh.factor();
        assert!(diff.max_abs() < 1e-12, "max diff {}", diff.max_abs());
    }

    #[test]
    fn decompose_recovering_ladder_spans_documented_range() {
        // A rank-deficient Gram matrix factors somewhere on the ladder, and the
        // recorded jitter stays within the documented 1e-10..=1e-4 span.
        let v = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let (_, jitter) = Cholesky::decompose_recovering(&v).unwrap();
        assert!(jitter >= Cholesky::RECOVERY_JITTER_INITIAL);
        assert!(jitter <= 1e-4);
        // A clean SPD matrix records zero jitter.
        let (_, clean) = Cholesky::decompose_recovering(&spd_example()).unwrap();
        assert_eq!(clean, 0.0);
    }

    #[test]
    fn append_row_with_jitter_recovers_degenerate_border() {
        let a = spd_example();
        let mut c = Cholesky::decompose(&a).unwrap();
        // Border equal to column 0 of A with matching diagonal: the bordered
        // matrix is exactly singular, so the plain append fails but a nugget
        // on the new pivot recovers it.
        let border = [a[(0, 0)], a[(1, 0)], a[(2, 0)], a[(0, 0)]];
        assert!(c.append_row(&border).is_err());
        let jitter = c
            .append_row_with_jitter(&border, 1e-10, 12)
            .expect("ladder recovers the singular border");
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 4);
        // The recovered factorization matches a fresh factorization of the
        // bordered matrix with the same nugget on the last diagonal entry.
        let mut big = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                big[(i, j)] = a[(i, j)];
            }
            big[(3, i)] = border[i];
            big[(i, 3)] = border[i];
        }
        big[(3, 3)] = border[3] + jitter;
        let fresh = Cholesky::decompose(&big).unwrap();
        let diff = &(c.factor().clone()) - fresh.factor();
        assert!(diff.max_abs() < 1e-10, "max diff {}", diff.max_abs());
    }

    #[test]
    fn append_row_with_jitter_is_plain_append_on_clean_border() {
        let a = spd_example();
        let mut jittered = Cholesky::decompose(&a).unwrap();
        let mut plain = jittered.clone();
        let border = [0.3, -0.2, 0.6, 3.0];
        let applied = jittered.append_row_with_jitter(&border, 1e-10, 7).unwrap();
        plain.append_row(&border).unwrap();
        assert_eq!(applied, 0.0);
        assert_eq!(jittered.factor(), plain.factor());
    }

    #[test]
    fn append_row_with_jitter_gives_up_and_keeps_state() {
        let a = spd_example();
        let mut c = Cholesky::decompose(&a).unwrap();
        let before = c.factor().clone();
        // The off-diagonal border dominates so badly that no bounded nugget on
        // the new pivot can rescue it.
        let err = c
            .append_row_with_jitter(&[10.0, 10.0, 10.0, 0.1], 1e-10, 7)
            .unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        assert_eq!(c.factor(), &before);
    }

    #[test]
    fn try_symmetric_inverse_reports_overflow() {
        // A subnormal pivot passes decompose's strict-positivity check but
        // overflows to +inf when the inverse squares its reciprocal.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1e-320]]);
        let c = Cholesky::decompose(&a).unwrap();
        let mut out = Matrix::zeros(1, 1);
        let mut work = Matrix::zeros(1, 1);
        let err = c
            .try_symmetric_inverse_into(&mut out, &mut work)
            .unwrap_err();
        assert!(matches!(err, LinalgError::NonFinite { .. }));
        // A healthy factor passes the check and matches the unchecked path.
        let good = Cholesky::decompose(&spd_example()).unwrap();
        good.try_symmetric_inverse_into(&mut out, &mut work)
            .unwrap();
        assert_eq!(out.as_slice(), good.symmetric_inverse().as_slice());
    }

    #[test]
    fn quadratic_form_matches_solve() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let b = vec![0.3, 1.0, -0.7];
        let x = c.solve_vec(&b);
        let direct: f64 = b.iter().zip(x.iter()).map(|(u, v)| u * v).sum();
        assert!((c.quadratic_form(&b) - direct).abs() < 1e-10);
    }

    /// Strategy: a random square matrix of dimension 1..=6 with entries in [-5, 5].
    fn square_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..=max_dim).prop_flat_map(|n| {
            prop::collection::vec(-5.0..5.0_f64, n * n)
                .prop_map(move |data| Matrix::from_vec(n, n, data))
        })
    }

    /// Builds a symmetric positive-definite matrix as `B Bᵀ + n·I` from a random `B`.
    fn make_spd(b: &Matrix) -> Matrix {
        let mut a = b.matmul_transpose(b);
        a.add_diag(b.nrows() as f64 + 1.0);
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cholesky_and_lu_logdet_agree(b in square_matrix(5)) {
            let a = make_spd(&b);
            let chol = Cholesky::decompose(&a).unwrap();
            let lu = Lu::decompose(&a).unwrap();
            let ld_lu = lu.log_det().unwrap();
            prop_assert!((chol.log_det() - ld_lu).abs() < 1e-7 * (1.0 + ld_lu.abs()));
        }
    }
}
