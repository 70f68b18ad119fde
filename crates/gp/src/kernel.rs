//! The ARD squared-exponential (Gaussian) kernel.

use nnbo_linalg::{weighted_squared_distance, Matrix};
use serde::{Deserialize, Serialize};

/// Automatic-relevance-determination squared-exponential kernel,
/// `k(x1, x2) = σf² exp(-½ Σ_d (x1_d - x2_d)² / l_d²)`.
///
/// This is the kernel used by the WEIBO baseline of the paper (section II.C), with
/// one lengthscale per design variable.
///
/// # Example
///
/// ```
/// use nnbo_gp::ArdSquaredExponential;
///
/// let k = ArdSquaredExponential::new(1.0, vec![0.5, 2.0]);
/// let same = k.eval(&[0.0, 0.0], &[0.0, 0.0]);
/// assert!((same - 1.0).abs() < 1e-12);
/// assert!(k.eval(&[0.0, 0.0], &[1.0, 0.0]) < same);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArdSquaredExponential {
    signal_variance: f64,
    lengthscales: Vec<f64>,
    /// Cached `1 / l_d²` weights.
    inv_sq: Vec<f64>,
}

impl ArdSquaredExponential {
    /// Creates the kernel from a signal *variance* `σf²` and per-dimension
    /// lengthscales.
    ///
    /// # Panics
    ///
    /// Panics if `signal_variance` or any lengthscale is not strictly positive.
    pub fn new(signal_variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(signal_variance > 0.0, "signal variance must be positive");
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "lengthscales must be positive"
        );
        let inv_sq = lengthscales.iter().map(|l| 1.0 / (l * l)).collect();
        ArdSquaredExponential {
            signal_variance,
            lengthscales,
            inv_sq,
        }
    }

    /// Isotropic kernel: the same lengthscale for all `dim` dimensions.
    pub fn isotropic(signal_variance: f64, lengthscale: f64, dim: usize) -> Self {
        Self::new(signal_variance, vec![lengthscale; dim])
    }

    /// The signal variance `σf²`.
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    /// The per-dimension lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Evaluates the kernel between two points.
    ///
    /// # Panics
    ///
    /// Panics if the point dimensions do not match the kernel dimension.
    pub fn eval(&self, x1: &[f64], x2: &[f64]) -> f64 {
        let d2 = weighted_squared_distance(x1, x2, &self.inv_sq);
        self.signal_variance * (-0.5 * d2).exp()
    }

    /// Rows of `x` scaled by the inverse lengthscales and shifted by `center`
    /// (in scaled coordinates), so that the weighted squared distance becomes
    /// a plain squared distance of the transformed rows.
    ///
    /// The shift is distance-preserving; centring on the training set keeps
    /// the row norms small so the norm expansion used by
    /// [`ArdSquaredExponential::gram`] does not lose precision when the raw
    /// coordinates carry a large common offset (e.g. frequencies in Hz).
    fn scaled_rows(&self, x: &Matrix, center: &[f64]) -> Matrix {
        let mut s = Matrix::zeros(0, 0);
        self.scaled_rows_into(x, center, &mut s);
        s
    }

    /// [`ArdSquaredExponential::scaled_rows`] into a caller-provided buffer
    /// (reusing its allocation when the shape matches).
    fn scaled_rows_into(&self, x: &Matrix, center: &[f64], out: &mut Matrix) {
        out.clone_from(x);
        let dim = self.inv_sq.len();
        for row in 0..out.nrows() {
            for ((v, &w), &c) in out.row_mut(row)[..dim]
                .iter_mut()
                .zip(self.inv_sq.iter())
                .zip(center.iter())
            {
                *v = *v * w.sqrt() - c;
            }
        }
    }

    /// Column means of `x` in scaled coordinates — the centring shift shared
    /// by a training set and every query scored against it.
    fn scaled_center(&self, x: &Matrix) -> Vec<f64> {
        let dim = self.inv_sq.len();
        let mut center = vec![0.0; dim];
        if x.nrows() == 0 {
            return center;
        }
        for row in x.rows_iter() {
            for ((c, &v), &w) in center.iter_mut().zip(row.iter()).zip(self.inv_sq.iter()) {
                *c += v * w.sqrt();
            }
        }
        let inv_n = 1.0 / x.nrows() as f64;
        for c in &mut center {
            *c *= inv_n;
        }
        center
    }

    /// Precomputes the scaled/centred representation of a fixed point set so
    /// repeated cross-covariance products against it skip the per-call
    /// rescaling (see [`ArdSquaredExponential::cross_with`]).
    pub fn prepare(&self, x: &Matrix) -> ScaledRows {
        let center = self.scaled_center(x);
        let rows = self.scaled_rows(x, &center);
        let norms: Vec<f64> = rows.rows_iter().map(row_norm_sq).collect();
        ScaledRows {
            rows,
            norms,
            center,
        }
    }

    /// Kernel (Gram) matrix of a set of points given as rows of `x`.
    ///
    /// Computed through the norm expansion
    /// `‖x'ᵢ − x'ⱼ‖² = ‖x'ᵢ‖² + ‖x'ⱼ‖² − 2 x'ᵢ·x'ⱼ` on lengthscale-scaled,
    /// mean-centred rows, which turns the whole matrix into one blocked
    /// (multi-threaded for large `N`) `X'X'ᵀ` product instead of `N²/2` scalar
    /// kernel evaluations.  The result is exactly symmetric with `σf²` on the
    /// diagonal, like the scalar-loop reference it replaces.
    pub fn gram(&self, x: &Matrix) -> Matrix {
        let center = self.scaled_center(x);
        let scaled = self.scaled_rows(x, &center);
        let mut g = scaled.matmul_transpose(&scaled);
        let n = g.nrows();
        let norms = g.diag();
        // The fused exp pass clamps d² at zero (cancellation can take it a
        // hair below), which also pins the diagonal at exactly σf².
        for i in 0..n {
            let qn = norms[i];
            nnbo_linalg::sq_exp_apply(g.row_mut(i), &norms, qn, self.signal_variance);
        }
        g
    }

    /// Cross-covariance matrix `K(Q, X)` between query rows `q` and training
    /// rows `x` (shape `q.nrows() × x.nrows()`), via the same norm expansion
    /// and blocked product as [`ArdSquaredExponential::gram`].
    ///
    /// When the same `x` is queried repeatedly, use
    /// [`ArdSquaredExponential::prepare`] with
    /// [`ArdSquaredExponential::cross_with`] to skip the per-call rescaling of
    /// the training rows.
    ///
    /// # Panics
    ///
    /// Panics if the column counts of `q` and `x` differ.
    pub fn cross_matrix(&self, q: &Matrix, x: &Matrix) -> Matrix {
        assert_eq!(q.ncols(), x.ncols(), "cross_matrix dimension mismatch");
        self.cross_with(q, &self.prepare(x))
    }

    /// Cross-covariance matrix `K(Q, X)` against a point set prepared with
    /// [`ArdSquaredExponential::prepare`].
    ///
    /// # Panics
    ///
    /// Panics if `q`'s dimension differs from the kernel dimension.
    pub fn cross_with(&self, q: &Matrix, x: &ScaledRows) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = CrossScratch::new();
        self.cross_with_into(q, x, &mut out, &mut scratch);
        out
    }

    /// [`ArdSquaredExponential::cross_with`] into caller-provided buffers, so
    /// a hot scoring loop performs no allocation: the query rows are scaled
    /// into `scratch`, the dot products come from one packed-GEMM
    /// `Q'·X'ᵀ` product ([`Matrix::matmul_transpose_into`], which routes
    /// through the AVX2+FMA micro-kernels when the runtime dispatch selects
    /// them), and the norm expansion plus `exp` run as one fused dispatched
    /// elementwise pass per row ([`nnbo_linalg::sq_exp_apply`]).  `out` and
    /// the scratch buffers are resized as needed and reused afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `q`'s dimension differs from the kernel dimension.
    pub fn cross_with_into(
        &self,
        q: &Matrix,
        x: &ScaledRows,
        out: &mut Matrix,
        scratch: &mut CrossScratch,
    ) {
        assert_eq!(q.ncols(), self.dim(), "cross_with dimension mismatch");
        self.scaled_rows_into(q, &x.center, &mut scratch.qs);
        scratch.q_norms.clear();
        scratch
            .q_norms
            .extend(scratch.qs.rows_iter().map(row_norm_sq));
        if out.shape() != (q.nrows(), x.rows.nrows()) {
            *out = Matrix::zeros(q.nrows(), x.rows.nrows());
        }
        scratch.qs.matmul_transpose_into(&x.rows, out);
        for i in 0..out.nrows() {
            let qn = scratch.q_norms[i];
            nnbo_linalg::sq_exp_apply(out.row_mut(i), &x.norms, qn, self.signal_variance);
        }
    }

    /// Cross-covariance vector `k(x*, X)` between one point and the training rows.
    pub fn cross(&self, x_star: &[f64], x: &Matrix) -> Vec<f64> {
        (0..x.nrows())
            .map(|i| self.eval(x_star, x.row(i)))
            .collect()
    }

    /// Partial derivative of the Gram matrix with respect to `log σf` (returns the
    /// full matrix).  Test-only: the fit's gradient never forms these
    /// matrices; the dense-inverse reference likelihood does.
    #[cfg(test)]
    pub(crate) fn gram_grad_log_signal(&self, gram: &Matrix) -> Matrix {
        // k = σf² e^{-...}; ∂k/∂ log σf = 2k.
        gram.map(|v| 2.0 * v)
    }

    /// Partial derivative of the Gram matrix with respect to `log l_d` for
    /// dimension `d`.  Test-only, like [`Self::gram_grad_log_signal`].
    #[cfg(test)]
    pub(crate) fn gram_grad_log_lengthscale(&self, x: &Matrix, gram: &Matrix, d: usize) -> Matrix {
        // ∂k/∂ log l_d = k · (x1_d - x2_d)² / l_d².
        let n = x.nrows();
        let w = self.inv_sq[d];
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let diff = x[(i, d)] - x[(j, d)];
                let v = gram[(i, j)] * diff * diff * w;
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
        out
    }
}

/// Lengthscale-scaled, mean-centred copy of a fixed point set plus its row
/// norms — the per-query-invariant half of the cross-covariance computation,
/// built once by [`ArdSquaredExponential::prepare`] and reused by every
/// [`ArdSquaredExponential::cross_with`] call (e.g. each batched prediction of
/// a fitted GP).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaledRows {
    rows: Matrix,
    norms: Vec<f64>,
    center: Vec<f64>,
}

impl ScaledRows {
    /// Number of prepared points.
    pub fn len(&self) -> usize {
        self.rows.nrows()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one point (raw coordinates) to the prepared set, scaling and
    /// centring it with the set's frozen shift — the cache maintenance that
    /// accompanies an incremental `append_observation`.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s dimension differs from the kernel dimension.
    pub fn append(&mut self, kernel: &ArdSquaredExponential, x: &[f64]) {
        assert_eq!(x.len(), kernel.dim(), "append dimension mismatch");
        let row: Vec<f64> = x
            .iter()
            .zip(kernel.inv_sq.iter())
            .zip(self.center.iter())
            .map(|((&v, &w), &c)| v * w.sqrt() - c)
            .collect();
        self.norms.push(row_norm_sq(&row));
        self.rows = Matrix::vstack(&self.rows, &Matrix::from_rows(std::slice::from_ref(&row)));
    }
}

/// Reusable buffers of a cross-kernel evaluation
/// ([`ArdSquaredExponential::cross_with_into`]): the scaled query rows and
/// their squared norms.  Create once, pass to every call.
#[derive(Debug, Clone)]
pub struct CrossScratch {
    qs: Matrix,
    q_norms: Vec<f64>,
}

impl CrossScratch {
    /// Creates empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        CrossScratch {
            qs: Matrix::zeros(0, 0),
            q_norms: Vec::new(),
        }
    }
}

impl Default for CrossScratch {
    fn default() -> Self {
        Self::new()
    }
}

fn row_norm_sq(row: &[f64]) -> f64 {
    row.iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_and_cross_matrix_match_scalar_eval() {
        let k = ArdSquaredExponential::new(1.7, vec![0.4, 1.2, 2.5]);
        let x = Matrix::from_rows(
            &(0..9)
                .map(|i| {
                    vec![
                        i as f64 * 0.11,
                        (i * i % 5) as f64 * 0.2,
                        1.0 - i as f64 * 0.07,
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let q = Matrix::from_rows(&[vec![0.3, 0.1, 0.9], vec![0.0, 0.8, 0.2]]);
        let g = k.gram(&x);
        for i in 0..x.nrows() {
            for j in 0..x.nrows() {
                let reference = k.eval(x.row(i), x.row(j));
                assert!((g[(i, j)] - reference).abs() < 1e-10, "gram ({i},{j})");
            }
        }
        let c = k.cross_matrix(&q, &x);
        for i in 0..q.nrows() {
            for j in 0..x.nrows() {
                let reference = k.eval(q.row(i), x.row(j));
                assert!((c[(i, j)] - reference).abs() < 1e-10, "cross ({i},{j})");
            }
        }
    }

    #[test]
    fn kernel_is_one_at_zero_distance_and_decays() {
        let k = ArdSquaredExponential::isotropic(2.0, 1.0, 3);
        let x = [0.1, 0.2, 0.3];
        assert!((k.eval(&x, &x) - 2.0).abs() < 1e-12);
        let far = [5.0, 5.0, 5.0];
        assert!(k.eval(&x, &far) < 1e-6);
    }

    #[test]
    fn kernel_is_symmetric() {
        let k = ArdSquaredExponential::new(1.5, vec![0.7, 1.3]);
        let a = [0.2, -0.4];
        let b = [1.0, 0.6];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn lengthscale_controls_decay_rate() {
        let short = ArdSquaredExponential::isotropic(1.0, 0.1, 1);
        let long = ArdSquaredExponential::isotropic(1.0, 10.0, 1);
        let a = [0.0];
        let b = [0.5];
        assert!(short.eval(&a, &b) < long.eval(&a, &b));
    }

    #[test]
    fn gram_matrix_is_symmetric_with_signal_variance_diagonal() {
        let k = ArdSquaredExponential::new(3.0, vec![1.0, 2.0]);
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![-1.0, 0.5]]);
        let g = k.gram(&x);
        assert!(g.is_symmetric(1e-14));
        for i in 0..3 {
            assert!((g[(i, i)] - 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn gram_gradients_match_finite_differences() {
        let x = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.8, 0.4], vec![-0.5, 0.2]]);
        let sf2 = 1.7;
        let ls = vec![0.6, 1.4];
        let k = ArdSquaredExponential::new(sf2, ls.clone());
        let g = k.gram(&x);

        let h = 1e-6;
        // log σf direction.
        let kp = ArdSquaredExponential::new((sf2.ln() / 2.0 + h).exp().powi(2), ls.clone());
        let km = ArdSquaredExponential::new((sf2.ln() / 2.0 - h).exp().powi(2), ls.clone());
        let fd = &(&kp.gram(&x) - &km.gram(&x)) * (1.0 / (2.0 * h));
        let analytic = k.gram_grad_log_signal(&g);
        assert!((&fd - &analytic).max_abs() < 1e-5);

        // log l_0 direction.
        let mut lsp = ls.clone();
        lsp[0] = (ls[0].ln() + h).exp();
        let mut lsm = ls.clone();
        lsm[0] = (ls[0].ln() - h).exp();
        let fd0 = &(&ArdSquaredExponential::new(sf2, lsp).gram(&x)
            - &ArdSquaredExponential::new(sf2, lsm).gram(&x))
            * (1.0 / (2.0 * h));
        let analytic0 = k.gram_grad_log_lengthscale(&x, &g, 0);
        assert!((&fd0 - &analytic0).max_abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_lengthscale_is_rejected() {
        let _ = ArdSquaredExponential::new(1.0, vec![0.0]);
    }
}
