//! The shared fit context and the warm/cold hyper-parameter optimizer.
//!
//! Refitting a GP during Bayesian optimization has two structural redundancies
//! that this module removes:
//!
//! * **Within one fit** — every Adam iteration needs the kernel matrix and the
//!   gradient of the log marginal likelihood with respect to each
//!   log-lengthscale.  Both are functions of the *pairwise per-dimension
//!   squared differences* of the training rows.  Every iteration builds the
//!   Gram matrix by one weighted reduction per pair and accumulates all `D`
//!   lengthscale gradients in a single fused pass, each recomputing the
//!   squared differences from the rows in registers — neither per-iteration
//!   `∂K/∂θ` matrices nor an `N × N × D` difference tensor are materialised.
//!   [`FitContext`] holds the rows and their transpose, which is all those
//!   kernels read.
//! * **Across outputs** — the constrained BO loop fits one surrogate per
//!   output (objective plus each constraint) over the *same* `X`, so one
//!   [`FitContext`] serves every output of a
//!   [`crate::GpModel::fit_multi`] call; only the per-output Adam state,
//!   Cholesky factors and gradient scratch ([`FitScratch`]) are private.
//!
//! Warm starts remove a third redundancy *across refits*: once a model has
//! been fitted, the next refit (one appended observation) starts Adam from the
//! previous optimum and runs [`crate::GpConfig::warm_iters`] iterations instead
//! of `restarts × max_iters`, with a cold-restart fallback when the warm
//! path's NLL regresses past the standard initial point.

use nnbo_linalg::{Cholesky, Matrix};
use nnbo_nn::{Adam, Optimizer};
use rand::Rng;

use crate::{GpConfig, GpError, GpHyperParams};

/// Hyper-parameter-independent structure shared by every output and every
/// optimizer iteration of one refit: the training rows and their transpose.
///
/// Every likelihood evaluation recomputes each pair's per-dimension squared
/// differences `(x_i,d − x_j,d)²` inside its Gram and trace kernels
/// ([`nnbo_linalg::weighted_sq_dist_lower`],
/// [`nnbo_linalg::add_scaled_sq_diffs`]), with the same subtraction and
/// multiplication as a stored copy would have used.  The `D × N` transpose
/// lets the Gram kernel read eight points per dimension at once.  A
/// Bayesian-optimization loop grows the context by one observation at a time
/// ([`FitContext::append`], `O(N·D)`); [`FitContext::update_to`] applies that
/// whenever the new design matrix extends the previous one and falls back to
/// a full rebuild otherwise.  Either way the context equals a fresh one.
#[derive(Debug, Clone)]
pub struct FitContext {
    /// The training rows, `N × D`.
    x: Matrix,
    /// Their transpose, `D × N`.
    xt: Matrix,
}

impl FitContext {
    /// Builds the context for the training rows of `x` (`N × D`).
    pub fn new(x: &Matrix) -> Self {
        FitContext {
            x: x.clone(),
            xt: x.transpose(),
        }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.nrows()
    }

    /// `true` when the context covers no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.x.ncols()
    }

    /// Appends one training point, `O(N·D)` work.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    pub fn append(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim(), "append dimension mismatch");
        self.x = Matrix::vstack(&self.x, &Matrix::from_rows(&[row.to_vec()]));
        self.x.transpose_into(&mut self.xt);
    }

    /// Brings the context up to date with `x`: when `x` extends the rows the
    /// context was built from (the append-only growth of a BO history), the
    /// missing points are appended and the call returns `true`; any other
    /// change triggers a full rebuild and returns `false`.  Either way the
    /// context describes exactly `x` afterwards, identical to
    /// `FitContext::new(x)`.
    pub fn update_to(&mut self, x: &Matrix) -> bool {
        let n = self.len();
        let extends = n > 0
            && x.ncols() == self.dim()
            && x.nrows() >= n
            && x.as_slice()[..n * self.dim()] == *self.x.as_slice();
        if !extends {
            *self = FitContext::new(x);
            return false;
        }
        if x.nrows() > n {
            self.x.clone_from(x);
            self.x.transpose_into(&mut self.xt);
        }
        true
    }

    /// Writes the lower triangle of the ARD-SE kernel matrix for inverse
    /// squared lengthscale weights `inv_sq` and signal variance `sf2` into
    /// `out` (resized when needed); the upper triangle is left stale, as
    /// neither the factorization nor the symmetric trace reads it.
    ///
    /// The direct distance evaluation is at least as accurate as the norm
    /// expansion used on the prediction path (no cancellation of large common
    /// offsets), with `σf²` on the diagonal.  The weighted reductions run on
    /// the dispatched pairwise kernel; `exp` is the scalar `f64::exp`.
    pub(crate) fn gram_into(&self, inv_sq: &[f64], sf2: f64, out: &mut Matrix) {
        debug_assert_eq!(inv_sq.len(), self.dim());
        let n = self.len();
        if out.shape() != (n, n) {
            *out = Matrix::zeros(n, n);
        }
        nnbo_linalg::weighted_sq_dist_lower(&self.x, &self.xt, inv_sq, out);
        for i in 0..n {
            let row = out.row_mut(i);
            for v in &mut row[..i] {
                *v = sf2 * (-0.5 * *v).exp();
            }
            row[i] = sf2;
        }
    }
}

/// Per-output scratch buffers of the NLL/gradient evaluation, allocated once
/// per output and reused across every Adam iteration of a fit.
#[derive(Debug, Clone)]
pub struct FitScratch {
    /// Kernel matrix without noise (kept for the gradient pass).
    gram: Matrix,
    /// `K + σn² I`, the matrix handed to the Cholesky factorization.
    k: Matrix,
    /// Dense `(K + σn² I)⁻¹` for the trace terms.
    k_inv: Matrix,
    /// Scratch for the triangular inverse `L⁻¹` of the dpotri-style pass.
    k_inv_work: Matrix,
    /// Centred targets `y − µ0`.
    residual: Vec<f64>,
    /// Inverse squared lengthscales of the current iterate.
    inv_sq: Vec<f64>,
    /// Per-dimension lengthscale trace-term accumulators.
    ls_grad: Vec<f64>,
    /// One row of the trace weights `(K⁻¹ − ααᵀ) ∘ K` below the diagonal.
    row_mg: Vec<f64>,
    /// Gradient with respect to `[log σf, log l_1.., log σn, µ0]`.
    pub(crate) grad: Vec<f64>,
}

impl FitScratch {
    /// Allocates scratch for `n` training points in `dim` dimensions.
    pub fn new(n: usize, dim: usize) -> Self {
        FitScratch {
            gram: Matrix::zeros(n, n),
            k: Matrix::zeros(n, n),
            k_inv: Matrix::zeros(n, n),
            k_inv_work: Matrix::zeros(n, n),
            residual: vec![0.0; n],
            inv_sq: vec![0.0; dim],
            ls_grad: vec![0.0; dim],
            row_mg: vec![0.0; n],
            grad: vec![0.0; dim + 3],
        }
    }

    /// The gradient left by the last evaluation, ordered
    /// `[log σf, log l_1.., log σn, µ0]`.
    pub fn grad(&self) -> &[f64] {
        &self.grad
    }
}

/// How the NLL gradient obtains the dense `(K + σn²I)⁻¹` it traces against.
///
/// [`InverseStrategy::Symmetric`] is the production path; the dense-sweep
/// variant is kept so benchmarks and property tests can compare the two on
/// identical inputs (`reproduce fit`'s `symmetric_inverse` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InverseStrategy {
    /// dpotri-style: invert the triangular factor, form `WᵀW` touching only
    /// the lower triangle, and run the fused trace pass over that triangle
    /// (off-diagonal terms doubled) — roughly half the work of the sweeps.
    Symmetric,
    /// Two dense triangular sweeps over the identity
    /// ([`Cholesky::inverse_into`]) and a full-square trace pass — the
    /// pre-dpotri reference.
    DenseSweeps,
}

/// Negative log marginal likelihood (eq. 4) at `hyper`, with the gradient with
/// respect to the flat hyper-parameter vector left in `scratch.grad`.
///
/// Returns `None` when the kernel matrix cannot be factored or the likelihood
/// or gradient is not finite, which the optimizer treats as "stop here".
/// Arithmetic notes: the Gram matrix comes from one pairwise weighted
/// reduction per entry over the context's rows, and all `D` lengthscale trace
/// terms are accumulated in one fused pass over `(K⁻¹ − ααᵀ) ∘ K`, both
/// recomputing each pair's squared differences — the only per-iteration
/// allocations left are inside the Cholesky factorization itself.
pub(crate) fn nll_and_grad_into(
    ctx: &FitContext,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
    scratch: &mut FitScratch,
) -> Option<f64> {
    nll_into(
        ctx,
        y,
        hyper,
        jitter,
        scratch,
        true,
        InverseStrategy::Symmetric,
    )
}

/// Public probe of one NLL/gradient evaluation with an explicit
/// [`InverseStrategy`] — the entry point `reproduce fit` times and the
/// equivalence property tests compare.  The gradient is left in
/// [`FitScratch::grad`].
///
/// # Panics
///
/// Panics if `y` or `scratch` do not match the context's size and
/// dimensionality (`scratch` must come from
/// `FitScratch::new(ctx.len(), ctx.dim())`).
pub fn nll_and_grad_with(
    ctx: &FitContext,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
    scratch: &mut FitScratch,
    strategy: InverseStrategy,
) -> Option<f64> {
    assert_eq!(y.len(), ctx.len(), "targets/context length mismatch");
    assert_eq!(hyper.dim(), ctx.dim(), "hyper/context dimension mismatch");
    assert_eq!(
        scratch.residual.len(),
        ctx.len(),
        "scratch sized for a different training-set length"
    );
    assert_eq!(
        scratch.inv_sq.len(),
        ctx.dim(),
        "scratch sized for a different dimensionality"
    );
    nll_into(ctx, y, hyper, jitter, scratch, true, strategy)
}

/// [`nll_and_grad_into`] with an optional gradient: `want_grad = false` stops
/// after the likelihood (one factorization + one solve), skipping the dense
/// `O(N³)` inverse and the fused trace pass — the mode used by warm-start
/// anchor checks and end-of-descent evaluations, which only read the scalar.
pub(crate) fn nll_into(
    ctx: &FitContext,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
    scratch: &mut FitScratch,
    want_grad: bool,
    strategy: InverseStrategy,
) -> Option<f64> {
    let n = ctx.len();
    let dim = ctx.dim();
    debug_assert_eq!(y.len(), n);
    debug_assert_eq!(hyper.dim(), dim);
    let FitScratch {
        gram,
        k,
        k_inv,
        k_inv_work,
        residual,
        inv_sq,
        ls_grad,
        row_mg,
        grad,
    } = scratch;

    for (w, l) in inv_sq.iter_mut().zip(hyper.log_lengthscales.iter()) {
        let ls = l.exp();
        *w = 1.0 / (ls * ls);
    }
    let sf2 = hyper.signal_variance();
    ctx.gram_into(inv_sq, sf2, gram);
    k.clone_from(gram);
    k.add_diag(hyper.noise_variance());
    let (chol, _) = Cholesky::decompose_with_jitter(k, jitter, 8).ok()?;

    for (r, v) in residual.iter_mut().zip(y.iter()) {
        *r = v - hyper.mean;
    }
    let alpha = chol.solve_vec(residual);
    let fit_term: f64 = residual.iter().zip(alpha.iter()).map(|(r, a)| r * a).sum();
    let log_det = chol.log_det();
    let nll = 0.5 * (fit_term + log_det + n as f64 * (2.0 * std::f64::consts::PI).ln());
    if !nll.is_finite() {
        return None;
    }
    if !want_grad {
        return Some(nll);
    }

    // Gradient: dL/dθ = ½ tr((K⁻¹ - α αᵀ) ∂K/∂θ), with
    //   ∂K/∂log σf = 2 K,   ∂K/∂log l_d = K ∘ (x_·d − x_·d)² / l_d²,
    //   ∂K/∂log σn = 2 σn² I,   dL/dµ0 = -Σ α.
    let mut g_signal = 0.0;
    grad.fill(0.0);
    ls_grad.fill(0.0);
    match strategy {
        InverseStrategy::Symmetric => {
            // Every matrix in the trace — K⁻¹, ααᵀ, K, the squared
            // differences — is symmetric, so the fused pass visits only
            // `j < i`, doubling those terms, plus the diagonal (whose squared
            // differences are zero, so it contributes to the signal term
            // alone).
            chol.symmetric_inverse_into(k_inv, k_inv_work);
            for i in 0..n {
                let kinv_row = k_inv.row(i);
                let gram_row = gram.row(i);
                let ai = alpha[i];
                let mut row_signal = 0.0;
                for j in 0..i {
                    let m = kinv_row[j] - ai * alpha[j];
                    let mg = m * gram_row[j];
                    row_signal += mg;
                    row_mg[j] = mg;
                }
                nnbo_linalg::add_scaled_sq_diffs(ls_grad, &ctx.x, i, &row_mg[..i], inv_sq);
                let m_diag = kinv_row[i] - ai * ai;
                g_signal += 2.0 * (2.0 * row_signal + m_diag * gram_row[i]);
            }
            for g in ls_grad.iter_mut() {
                *g *= 2.0;
            }
        }
        InverseStrategy::DenseSweeps => {
            chol.inverse_into(k_inv);
            // The Gram build wrote the lower triangle only.
            for i in 0..n {
                for j in 0..i {
                    gram[(j, i)] = gram[(i, j)];
                }
            }
            for i in 0..n {
                let kinv_row = k_inv.row(i);
                let gram_row = gram.row(i);
                let ai = alpha[i];
                let xi = ctx.x.row(i);
                for j in 0..n {
                    let m = kinv_row[j] - ai * alpha[j];
                    let mg = m * gram_row[j];
                    g_signal += 2.0 * mg;
                    let xj = ctx.x.row(j);
                    for (((g, &w), &a), &b) in ls_grad.iter_mut().zip(inv_sq.iter()).zip(xi).zip(xj)
                    {
                        let diff = a - b;
                        *g += mg * w * (diff * diff);
                    }
                }
            }
        }
    }
    let noise_var = hyper.noise_variance();
    let mut g_noise = 0.0;
    for i in 0..n {
        g_noise += (k_inv[(i, i)] - alpha[i] * alpha[i]) * 2.0 * noise_var;
    }
    grad[0] = 0.5 * g_signal;
    for (g, v) in grad[1..1 + dim].iter_mut().zip(ls_grad.iter()) {
        *g = 0.5 * v;
    }
    grad[1 + dim] = 0.5 * g_noise;
    grad[2 + dim] = -alpha.iter().sum::<f64>();

    if grad.iter().any(|g| !g.is_finite()) {
        return None;
    }
    Some(nll)
}

/// Runs `iters` Adam steps from `start` and returns the clamped end point with
/// its NLL (`None` when no finite likelihood is ever reached).
///
/// With `grad_tol = Some(tol)` the descent stops early once the gradient RMS
/// drops to `tol` — the adaptive-`warm_iters` check warm refits use, since a
/// warm start that begins at (or quickly reaches) the optimum has nothing
/// left to descend.
fn run_adam(
    ctx: &FitContext,
    y: &[f64],
    config: &GpConfig,
    start: GpHyperParams,
    iters: usize,
    grad_tol: Option<f64>,
    scratch: &mut FitScratch,
) -> Option<(f64, GpHyperParams)> {
    let dim = ctx.dim();
    let mut hyper = start;
    let mut adam = Adam::with_learning_rate(config.learning_rate);
    let mut flat = hyper.to_flat();
    for _ in 0..iters {
        hyper = GpHyperParams::from_flat(&flat, dim);
        hyper.clamp(config.min_log_noise);
        flat = hyper.to_flat();
        if nll_and_grad_into(ctx, y, &hyper, config.jitter, scratch).is_none() {
            break;
        }
        if let Some(tol) = grad_tol {
            let rms = (scratch.grad.iter().map(|g| g * g).sum::<f64>() / scratch.grad.len() as f64)
                .sqrt();
            if rms <= tol {
                break;
            }
        }
        adam.step(&mut flat, &scratch.grad);
    }
    hyper = GpHyperParams::from_flat(&flat, dim);
    hyper.clamp(config.min_log_noise);
    nll_into(
        ctx,
        y,
        &hyper,
        config.jitter,
        scratch,
        false,
        InverseStrategy::Symmetric,
    )
    .map(|nll| (nll, hyper))
}

/// Cold path: multi-restart Adam from the standard initial point plus
/// `config.restarts − 1` random initialisations drawn from `rng`.
fn optimize_cold<R: Rng + ?Sized>(
    ctx: &FitContext,
    y: &[f64],
    config: &GpConfig,
    rng: &mut R,
    scratch: &mut FitScratch,
) -> Option<(f64, GpHyperParams)> {
    let dim = ctx.dim();
    let mut best: Option<(f64, GpHyperParams)> = None;
    for restart in 0..config.restarts.max(1) {
        let start = initial_hyper(dim, restart, rng);
        if let Some((nll, hyper)) = run_adam(ctx, y, config, start, config.max_iters, None, scratch)
        {
            if nll.is_finite() && best.as_ref().is_none_or(|(b, _)| nll < *b) {
                best = Some((nll, hyper));
            }
        }
    }
    best
}

/// Finds hyper-parameters for one output: warm-started from `warm` when
/// given, cold multi-restart otherwise.
///
/// The warm path runs a single Adam descent of *at most* `config.warm_iters`
/// steps from the previous optimum — stopping early once the gradient RMS
/// falls to [`GpConfig::warm_grad_tol`], which trims refits whose warm start
/// is already converged — and accepts the result as long as it does not
/// regress past the likelihood of the *standard* initial point (evaluated,
/// not optimized) — the cheap anchor that detects a stale or diverged warm
/// start.  On regression it falls back to the full cold path and keeps the
/// better of the two, so a warm fit is never worse than that fallback anchor.
/// Only the fallback consumes `rng`.
pub(crate) fn optimize_hypers<R: Rng + ?Sized>(
    ctx: &FitContext,
    y: &[f64],
    config: &GpConfig,
    rng: &mut R,
    warm: Option<&GpHyperParams>,
    scratch: &mut FitScratch,
) -> Result<(f64, GpHyperParams), GpError> {
    let dim = ctx.dim();
    if let Some(prev) = warm {
        if prev.dim() == dim {
            let mut start = prev.clone();
            start.clamp(config.min_log_noise);
            let grad_tol = (config.warm_grad_tol > 0.0).then_some(config.warm_grad_tol);
            let warm_result = run_adam(ctx, y, config, start, config.warm_iters, grad_tol, scratch);
            let anchor = {
                let standard = GpHyperParams::standard(dim);
                nll_into(
                    ctx,
                    y,
                    &standard,
                    config.jitter,
                    scratch,
                    false,
                    InverseStrategy::Symmetric,
                )
            };
            match (&warm_result, anchor) {
                (Some((warm_nll, _)), Some(anchor_nll)) if *warm_nll <= anchor_nll => {
                    let (nll, hyper) = warm_result.expect("matched Some above");
                    return Ok((nll, hyper));
                }
                (Some((warm_nll, _)), None) if warm_nll.is_finite() => {
                    let (nll, hyper) = warm_result.expect("matched Some above");
                    return Ok((nll, hyper));
                }
                _ => {
                    // Warm path regressed (or died): cold-restart fallback,
                    // keeping the warm result if it still wins.
                    let cold = optimize_cold(ctx, y, config, rng, scratch);
                    let best = match (warm_result, cold) {
                        (Some(w), Some(c)) => Some(if w.0 <= c.0 { w } else { c }),
                        (w, c) => w.or(c),
                    };
                    return best.ok_or(GpError::OptimizationFailed);
                }
            }
        }
    }
    optimize_cold(ctx, y, config, rng, scratch).ok_or(GpError::OptimizationFailed)
}

/// Initial hyper-parameters of restart `restart` (the first restart uses the
/// deterministic standard point; later ones draw from `rng`).
pub(crate) fn initial_hyper<R: Rng + ?Sized>(
    dim: usize,
    restart: usize,
    rng: &mut R,
) -> GpHyperParams {
    if restart == 0 {
        GpHyperParams::standard(dim)
    } else {
        GpHyperParams {
            log_signal: rng.gen_range(-1.0..1.0),
            log_lengthscales: (0..dim).map(|_| rng.gen_range(-1.5..1.5)).collect(),
            log_noise: rng.gen_range(-6.0..-2.0),
            mean: rng.gen_range(-0.5..0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `N × N × D` squared-difference tensor the fit used to store, with
    /// the Gram build and the gradient trace that read it: the reference
    /// the pairwise kernels must match bit for bit.
    struct TensorReference {
        n: usize,
        dim: usize,
        /// `sqdiff[(i·n + j)·dim + d] = (x_i,d − x_j,d)²`, both triangles.
        sqdiff: Vec<f64>,
    }

    impl TensorReference {
        fn new(x: &Matrix) -> Self {
            let (n, dim) = x.shape();
            let mut sqdiff = vec![0.0; n * n * dim];
            for i in 0..n {
                let xi = x.row(i);
                for j in 0..i {
                    let xj = x.row(j);
                    for d in 0..dim {
                        let diff = xi[d] - xj[d];
                        let sq = diff * diff;
                        sqdiff[(i * n + j) * dim + d] = sq;
                        sqdiff[(j * n + i) * dim + d] = sq;
                    }
                }
            }
            TensorReference { n, dim, sqdiff }
        }

        fn stripe(&self, i: usize, j: usize) -> &[f64] {
            let base = (i * self.n + j) * self.dim;
            &self.sqdiff[base..base + self.dim]
        }

        fn gram(&self, inv_sq: &[f64], sf2: f64) -> Matrix {
            let mut out = Matrix::zeros(self.n, self.n);
            for i in 0..self.n {
                out[(i, i)] = sf2;
                for j in 0..i {
                    let d2 = nnbo_linalg::fused_dot(self.stripe(i, j), inv_sq);
                    let v = sf2 * (-0.5 * d2).exp();
                    out[(i, j)] = v;
                    out[(j, i)] = v;
                }
            }
            out
        }

        /// The symmetric-strategy NLL and gradient, as `nll_into` computed
        /// them from the tensor.
        fn nll_and_grad(
            &self,
            y: &[f64],
            hyper: &GpHyperParams,
            jitter: f64,
        ) -> Option<(f64, Vec<f64>)> {
            let (n, dim) = (self.n, self.dim);
            let inv_sq: Vec<f64> = hyper
                .log_lengthscales
                .iter()
                .map(|l| {
                    let ls = l.exp();
                    1.0 / (ls * ls)
                })
                .collect();
            let gram = self.gram(&inv_sq, hyper.signal_variance());
            let mut k = gram.clone();
            k.add_diag(hyper.noise_variance());
            let (chol, _) = Cholesky::decompose_with_jitter(&k, jitter, 8).ok()?;
            let residual: Vec<f64> = y.iter().map(|v| v - hyper.mean).collect();
            let alpha = chol.solve_vec(&residual);
            let fit_term: f64 = residual.iter().zip(alpha.iter()).map(|(r, a)| r * a).sum();
            let nll =
                0.5 * (fit_term + chol.log_det() + n as f64 * (2.0 * std::f64::consts::PI).ln());
            if !nll.is_finite() {
                return None;
            }
            let (mut k_inv, mut work) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            chol.symmetric_inverse_into(&mut k_inv, &mut work);
            let mut g_signal = 0.0;
            let mut ls_grad = vec![0.0; dim];
            for i in 0..n {
                let ai = alpha[i];
                let mut row_signal = 0.0;
                for j in 0..i {
                    let mg = (k_inv[(i, j)] - ai * alpha[j]) * gram[(i, j)];
                    row_signal += mg;
                    nnbo_linalg::add_scaled_product(&mut ls_grad, &inv_sq, self.stripe(i, j), mg);
                }
                let m_diag = k_inv[(i, i)] - ai * ai;
                g_signal += 2.0 * (2.0 * row_signal + m_diag * gram[(i, i)]);
            }
            let mut g_noise = 0.0;
            for i in 0..n {
                g_noise += (k_inv[(i, i)] - alpha[i] * alpha[i]) * 2.0 * hyper.noise_variance();
            }
            let mut grad = vec![0.5 * g_signal];
            grad.extend(ls_grad.iter().map(|v| 0.5 * (v * 2.0)));
            grad.push(0.5 * g_noise);
            grad.push(-alpha.iter().sum::<f64>());
            grad.iter().all(|g| g.is_finite()).then_some((nll, grad))
        }
    }

    /// Deterministic, irregular points in the unit cube.
    fn points(n: usize, dim: usize) -> Matrix {
        Matrix::from_vec(
            n,
            dim,
            (0..n * dim)
                .map(|k| ((k * 7919 + 13) % 1009) as f64 / 1009.0)
                .collect(),
        )
    }

    fn targets(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.1 * i as f64 / (n as f64))
            .collect()
    }

    fn hyper(dim: usize, log_noise: f64) -> GpHyperParams {
        GpHyperParams {
            log_signal: 0.2,
            log_lengthscales: (0..dim).map(|d| -0.6 + 0.15 * (d % 7) as f64).collect(),
            log_noise,
            mean: 0.1,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The Gram matrix's lower triangle (with the diagonal), the NLL and the
    /// gradient of `ctx` at a fixed point, as bit patterns.
    fn fit_bits(ctx: &FitContext) -> (Vec<u64>, Option<(u64, Vec<u64>)>) {
        let (n, dim) = (ctx.len(), ctx.dim());
        let mut scratch = FitScratch::new(n, dim);
        let nll = nll_and_grad_with(
            ctx,
            &targets(n),
            &hyper(dim, -3.0),
            1e-10,
            &mut scratch,
            InverseStrategy::Symmetric,
        );
        let lower: Vec<f64> = (0..n)
            .flat_map(|i| scratch.gram.row(i)[..=i].to_vec())
            .collect();
        (
            bits(&lower),
            nll.map(|nll| (nll.to_bits(), bits(&scratch.grad))),
        )
    }

    #[test]
    fn pairwise_kernels_match_the_tensor_reference_bit_for_bit() {
        for n in [1, 2, 7, 8, 9, 17, 100, 160] {
            for dim in [1, 3, 4, 5, 8, 9, 36, 37] {
                let x = points(n, dim);
                let y = targets(n);
                let h = hyper(dim, -3.0);
                let reference = TensorReference::new(&x);
                let ctx = FitContext::new(&x);
                let mut scratch = FitScratch::new(n, dim);
                let nll = nll_and_grad_with(
                    &ctx,
                    &y,
                    &h,
                    1e-10,
                    &mut scratch,
                    InverseStrategy::Symmetric,
                )
                .unwrap_or_else(|| panic!("N = {n}, D = {dim}: no likelihood"));
                let (ref_nll, ref_grad) = reference.nll_and_grad(&y, &h, 1e-10).unwrap();
                assert_eq!(nll.to_bits(), ref_nll.to_bits(), "NLL, N = {n}, D = {dim}");
                assert_eq!(
                    bits(&scratch.grad),
                    bits(&ref_grad),
                    "gradient, N = {n}, D = {dim}"
                );
                let ref_gram = reference.gram(&scratch.inv_sq, h.signal_variance());
                for i in 0..n {
                    assert_eq!(
                        bits(&scratch.gram.row(i)[..=i]),
                        bits(&ref_gram.row(i)[..=i]),
                        "Gram row {i}, N = {n}, D = {dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn pairwise_kernels_match_the_tensor_reference_on_the_jitter_ladder() {
        // Repeated rows and a tiny noise make `K + σn²I` singular to working
        // precision, so the factorization climbs the jitter ladder.
        let base = points(12, 5);
        let rows: Vec<Vec<f64>> = (0..24).map(|i| base.row(i % 12).to_vec()).collect();
        let x = Matrix::from_rows(&rows);
        let y = targets(24);
        let h = GpHyperParams {
            log_signal: 1.5,
            log_lengthscales: vec![2.0; 5],
            log_noise: -30.0,
            mean: 0.0,
        };
        let reference = TensorReference::new(&x);
        let mut k = reference.gram(&[(-4.0f64).exp(); 5], h.signal_variance());
        k.add_diag(h.noise_variance());
        assert!(
            Cholesky::decompose(&k).is_err(),
            "the plain factorization must fail"
        );
        let mut scratch = FitScratch::new(24, 5);
        let nll = nll_and_grad_with(
            &FitContext::new(&x),
            &y,
            &h,
            1e-10,
            &mut scratch,
            InverseStrategy::Symmetric,
        );
        let (ref_nll, ref_grad) = reference.nll_and_grad(&y, &h, 1e-10).unwrap();
        assert_eq!(nll.unwrap().to_bits(), ref_nll.to_bits());
        assert_eq!(bits(&scratch.grad), bits(&ref_grad));
    }

    #[test]
    fn context_pairs_are_symmetric_with_sf2_diagonal() {
        let x = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.8, 0.4], vec![-0.5, 0.2]]);
        let ctx = FitContext::new(&x);
        assert_eq!(ctx.len(), 3);
        assert_eq!(ctx.dim(), 2);
        assert!(!ctx.is_empty());
        let (inv_sq, sf2) = ([0.7, 1.9], 1.3);
        let mut g = Matrix::zeros(1, 1);
        ctx.gram_into(&inv_sq, sf2, &mut g);
        for i in 0..3 {
            assert_eq!(g[(i, i)], sf2, "zero self-distance gives sf2");
            for j in 0..i {
                // The pair taken the other way round gives the same entry.
                let swapped: Vec<f64> = (0..2).map(|d| (x[(j, d)] - x[(i, d)]).powi(2)).collect();
                let expect = sf2 * (-0.5 * nnbo_linalg::fused_dot(&swapped, &inv_sq)).exp();
                assert_eq!(g[(i, j)].to_bits(), expect.to_bits(), "({i},{j})");
            }
        }
        // Grown one point at a time, the context gives the same fit.
        let mut grown = FitContext::new(&Matrix::from_rows(&[x.row(0).to_vec()]));
        grown.append(x.row(1));
        grown.append(x.row(2));
        assert_eq!(fit_bits(&grown), fit_bits(&ctx));
    }

    #[test]
    fn incrementally_grown_context_is_bit_identical_to_full_rebuild() {
        // Grow point by point and compare the Gram matrix, the NLL and the
        // gradient against a fresh build at every size.
        let dim = 3;
        let rows: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * 7 + d * 13) % 19) as f64 * 0.11 - 1.0)
                    .collect()
            })
            .collect();
        let mut grown = FitContext::new(&Matrix::from_rows(&rows[..1]));
        for (k, r) in rows.iter().enumerate().skip(1) {
            grown.append(r);
            let fresh = FitContext::new(&Matrix::from_rows(&rows[..=k]));
            assert_eq!(grown.len(), fresh.len());
            assert_eq!(fit_bits(&grown), fit_bits(&fresh), "{} points", k + 1);
        }
    }

    #[test]
    fn update_to_appends_on_extension_and_rebuilds_on_change() {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![i as f64 * 0.2, 1.0 - i as f64 * 0.1])
            .collect();
        let mut ctx = FitContext::new(&Matrix::from_rows(&rows[..4]));
        // Extension: incremental path.
        let extended = Matrix::from_rows(&rows);
        assert!(ctx.update_to(&extended));
        assert_eq!(ctx.len(), 6);
        assert_eq!(fit_bits(&ctx), fit_bits(&FitContext::new(&extended)));
        // A changed prefix forces a rebuild.
        let mut altered_rows = rows.clone();
        altered_rows[0][0] += 0.5;
        let altered = Matrix::from_rows(&altered_rows);
        assert!(!ctx.update_to(&altered));
        assert_eq!(fit_bits(&ctx), fit_bits(&FitContext::new(&altered)));
        // Shrinking also rebuilds.
        let shorter = Matrix::from_rows(&rows[..3]);
        assert!(!ctx.update_to(&shorter));
        assert_eq!(ctx.len(), 3);
        assert_eq!(fit_bits(&ctx), fit_bits(&FitContext::new(&shorter)));
    }

    #[test]
    fn symmetric_and_dense_sweep_strategies_agree() {
        let x = Matrix::from_rows(
            &(0..17)
                .map(|i| {
                    vec![
                        i as f64 * 0.07,
                        ((i * i) % 11) as f64 * 0.09,
                        1.0 / (1.0 + i as f64),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let y: Vec<f64> = (0..17).map(|i| ((i * 5 % 7) as f64 - 3.0) * 0.4).collect();
        let ctx = FitContext::new(&x);
        let hyper = GpHyperParams {
            log_signal: 0.3,
            log_lengthscales: vec![-0.4, 0.2, 0.6],
            log_noise: -2.2,
            mean: 0.05,
        };
        let mut scratch = FitScratch::new(17, 3);
        let nll_sym = nll_and_grad_with(
            &ctx,
            &y,
            &hyper,
            1e-10,
            &mut scratch,
            InverseStrategy::Symmetric,
        )
        .unwrap();
        let grad_sym = scratch.grad.clone();
        let nll_dense = nll_and_grad_with(
            &ctx,
            &y,
            &hyper,
            1e-10,
            &mut scratch,
            InverseStrategy::DenseSweeps,
        )
        .unwrap();
        let grad_dense = scratch.grad.clone();
        assert!(
            (nll_sym - nll_dense).abs() < 1e-9 * (1.0 + nll_dense.abs()),
            "nll {nll_sym} vs {nll_dense}"
        );
        for (a, b) in grad_sym.iter().zip(grad_dense.iter()) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "grad {a} vs {b}");
        }
    }

    #[test]
    fn warm_descent_stops_early_when_gradient_rms_is_tiny() {
        let x = Matrix::from_rows(
            &(0..12)
                .map(|i| vec![i as f64 / 11.0, (i as f64 / 11.0).powi(2)])
                .collect::<Vec<_>>(),
        );
        let y: Vec<f64> = (0..12).map(|i| (i as f64 * 0.4).sin()).collect();
        let ctx = FitContext::new(&x);
        let mut scratch = FitScratch::new(12, 2);
        let config = GpConfig::default();
        let start = GpHyperParams {
            log_signal: 0.1,
            log_lengthscales: vec![0.3, -0.2],
            log_noise: -2.0,
            mean: 0.0,
        };
        let mut expected = start.clone();
        expected.clamp(config.min_log_noise);
        // An infinite tolerance stops the descent before its first Adam step:
        // the result is exactly the clamped start point.
        let (_, stopped) = run_adam(
            &ctx,
            &y,
            &config,
            start.clone(),
            config.warm_iters,
            Some(f64::INFINITY),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(stopped, expected);
        // No tolerance: the same descent takes its steps and moves.
        let (_, moved) = run_adam(
            &ctx,
            &y,
            &config,
            start,
            config.warm_iters,
            None,
            &mut scratch,
        )
        .unwrap();
        assert_ne!(moved, expected, "full descent should move off the start");
    }

    #[test]
    fn context_gram_matches_scalar_kernel_eval() {
        let k = crate::ArdSquaredExponential::new(1.7, vec![0.4, 1.2, 2.5]);
        let x = Matrix::from_rows(
            &(0..7)
                .map(|i| {
                    vec![
                        i as f64 * 0.11,
                        (i * i % 5) as f64 * 0.2,
                        1.0 - i as f64 * 0.07,
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let ctx = FitContext::new(&x);
        let inv_sq: Vec<f64> = k.lengthscales().iter().map(|l| 1.0 / (l * l)).collect();
        let mut g = Matrix::zeros(1, 1);
        ctx.gram_into(&inv_sq, k.signal_variance(), &mut g);
        // Only the lower triangle is built.
        for i in 0..x.nrows() {
            for j in 0..=i {
                let reference = k.eval(x.row(i), x.row(j));
                assert!((g[(i, j)] - reference).abs() < 1e-12, "gram ({i},{j})");
            }
        }
    }
}
