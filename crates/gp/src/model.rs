//! The Gaussian-process regression model (explicit kernel, eq. 3/4 of the paper).

use nnbo_linalg::{Cholesky, Matrix, Standardizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

#[cfg(test)]
use crate::fit::nll_and_grad_into;
use crate::fit::{optimize_hypers, FitContext, FitScratch};
use crate::{ArdSquaredExponential, CrossScratch, GpConfig, GpError, GpHyperParams, ScaledRows};

/// Reusable buffers of [`GpModel::predict_batch_into`]: the query matrix, the
/// cross-kernel block and its transpose/solve buffer, and the per-query
/// accumulators.  Create once (cheap, empty) and pass to every batched
/// prediction; the buffers grow to the largest batch seen and are reused
/// afterwards, so a steady-state acquisition scoring loop performs no
/// allocation in the GP prediction path.
#[derive(Debug, Clone)]
pub struct GpPredictScratch {
    /// Query rows assembled as a matrix.
    q: Matrix,
    /// Cross-kernel scratch (scaled query rows + norms).
    cross: CrossScratch,
    /// Cross-kernel block `K(Q, X)` (`Q × N`).
    k_star: Matrix,
    /// `K*ᵀ`, overwritten in place by the batched forward solve (`N × Q`).
    v: Matrix,
    /// `K* α` (per-query explained mean).
    weighted: Vec<f64>,
    /// Per-query explained variance `‖L⁻¹ k*‖²`.
    explained: Vec<f64>,
}

impl GpPredictScratch {
    /// Creates empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        GpPredictScratch {
            q: Matrix::zeros(0, 0),
            cross: CrossScratch::new(),
            k_star: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            weighted: Vec::new(),
            explained: Vec::new(),
        }
    }
}

impl Default for GpPredictScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Predictive distribution of the GP at one query point, in the original target
/// units: `y ~ N(mean, variance)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpPrediction {
    /// Predictive mean `µ(x)`.
    pub mean: f64,
    /// Predictive variance `σ²(x)` (includes the observation-noise term, as in eq. 3).
    pub variance: f64,
}

impl GpPrediction {
    /// Predictive standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// A fitted constant-mean, ARD-squared-exponential Gaussian-process regression
/// model.
///
/// Training follows section II.C of the paper: the hyper-parameters (signal
/// variance, per-dimension lengthscales, noise variance and the constant mean) are
/// found by maximising the log marginal likelihood of eq. 4 with a multi-restart
/// Adam optimizer on the analytic gradient.  Prediction follows eq. 3.
///
/// A fitted model serialises losslessly: every field — training set,
/// standardiser, hyper-parameters, cached Cholesky factor and α vector — round
/// trips through the workspace's bit-exact JSON floats, so a deserialised
/// model predicts bit-identically to the original (the checkpoint/resume
/// contract of the GP-backed baselines).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpModel {
    x: Matrix,
    /// Standardised residual targets `y_std`.
    y: Vec<f64>,
    standardizer: Standardizer,
    hyper: GpHyperParams,
    kernel: ArdSquaredExponential,
    /// Scaled/centred training rows, cached at fit time so every prediction
    /// skips re-scaling the `N × D` training matrix.
    scaled_x: ScaledRows,
    chol: Cholesky,
    /// `(K + σn² I)⁻¹ (y - µ0)` — the α vector of eq. 3.
    alpha: Vec<f64>,
    /// Diagonal jitter that was needed to factor the kernel matrix (0 when the
    /// plain factorization succeeded); incremental updates must add the same
    /// amount to stay consistent with the stored factor.
    jitter: f64,
    nll: f64,
}

impl GpModel {
    /// Fits a GP to the training set `(xs, ys)`.
    ///
    /// `xs` is a slice of N points of identical dimension d (in the caller's design
    /// space — typically already normalised to the unit cube by `nnbo-core`), and
    /// `ys` the N observed scalar targets.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingSet`] for empty or ragged input,
    /// [`GpError::OptimizationFailed`] if no restart produces a finite likelihood and
    /// [`GpError::KernelFactorization`] if the final kernel matrix cannot be factored.
    pub fn fit<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &GpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        Self::fit_warm(xs, ys, config, rng, None)
    }

    /// Fits a GP, optionally warm-starting the hyper-parameter optimization
    /// from a previous fit's optimum (see the crate-level docs for the fit
    /// pipeline).
    ///
    /// With `warm = None` this is exactly [`GpModel::fit`]: cold multi-restart
    /// Adam.  With `warm = Some(h)` (dimension matching; mismatches fall back
    /// to the cold path) a single descent of [`GpConfig::warm_iters`] steps
    /// runs from `h` — the dominant cost of a refit drops from
    /// `restarts × max_iters` likelihood evaluations to `warm_iters + 1`.  The
    /// warm result is accepted unless its NLL regresses past the evaluated
    /// likelihood of the standard initial point, in which case the full cold
    /// path runs as a fallback and the better of the two is kept; `rng` is
    /// only consumed by cold restarts.
    ///
    /// # Errors
    ///
    /// Same contract as [`GpModel::fit`].
    pub fn fit_warm<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &GpConfig,
        rng: &mut R,
        warm: Option<&GpHyperParams>,
    ) -> Result<Self, GpError> {
        validate_training_set(xs, ys)?;
        let x = Matrix::from_rows(xs);
        let ctx = FitContext::new(&x);
        Self::fit_prepared(&x, &ctx, ys, config, rng, warm)
    }

    /// Fits one GP per target column over the *same* design matrix, sharing
    /// one fit context (the training rows and their transpose) across all
    /// outputs — the multi-output refit the constrained BO loop performs for
    /// the objective plus every constraint.
    ///
    /// Equivalent to [`GpModel::fit_multi_warm`] with every warm slot empty.
    ///
    /// # Errors
    ///
    /// Returns the first per-output error (same contract as [`GpModel::fit`]);
    /// either every output fits or the whole call fails.
    pub fn fit_multi<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        config: &GpConfig,
        rng: &mut R,
    ) -> Result<Vec<Self>, GpError> {
        let warm = vec![None; targets.len()];
        Self::fit_multi_warm(xs, targets, config, rng, &warm)
    }

    /// Multi-output fitting with per-output warm starts.
    ///
    /// The shared fit context is built once per call; each output then runs
    /// its own hyper-parameter optimization (warm-started where `warm[i]` is
    /// given, cold otherwise) with per-output Adam state, Cholesky factors
    /// and gradient buffers.  The per-output optimizations run in contiguous
    /// bands on the shared worker pool ([`nnbo_pool::WorkerPool::map_bands`]).
    ///
    /// **Determinism:** one seed per output is drawn from `rng` up front (in
    /// target order) and output `i` is fitted with an [`StdRng`] seeded from
    /// it, so the result is independent of thread scheduling and bit-identical
    /// to calling [`GpModel::fit_warm`] per output with those derived seeds —
    /// the property tests pin this equivalence.
    ///
    /// # Errors
    ///
    /// The first per-output error, with [`GpError::InvalidTrainingSet`] when
    /// `warm.len() != targets.len()`.
    pub fn fit_multi_warm<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        config: &GpConfig,
        rng: &mut R,
        warm: &[Option<GpHyperParams>],
    ) -> Result<Vec<Self>, GpError> {
        if warm.len() != targets.len() {
            return Err(GpError::InvalidTrainingSet {
                details: format!(
                    "{} targets but {} warm-start slots",
                    targets.len(),
                    warm.len()
                ),
            });
        }
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        for ys in targets {
            validate_training_set(xs, ys)?;
        }
        let x = Matrix::from_rows(xs);
        let ctx = &FitContext::new(&x);
        let seeds: Vec<u64> = targets.iter().map(|_| rng.gen()).collect();

        let fit_one = |&(ys, seed, prev): &(&Vec<f64>, u64, &Option<GpHyperParams>)| {
            let mut output_rng = StdRng::seed_from_u64(seed);
            Self::fit_prepared(&x, ctx, ys, config, &mut output_rng, prev.as_ref())
        };
        let jobs: Vec<(&Vec<f64>, u64, &Option<GpHyperParams>)> = targets
            .iter()
            .zip(seeds.iter().zip(warm.iter()))
            .map(|(ys, (&seed, prev))| (ys, seed, prev))
            .collect();
        // One layer of parallelism on the shared worker pool: each band of
        // outputs (and their FitScratch buffers) is one task, so the thread
        // count and peak memory stay bounded for problems with many
        // constraints.
        let pool = nnbo_pool::WorkerPool::global();
        pool.map_bands(&jobs, pool.fan_out(), fit_one)
            .into_iter()
            .collect()
    }

    /// The per-output fit core shared by the single- and multi-output entry
    /// points: standardise, optimize hyper-parameters against the shared
    /// context, factor the final kernel matrix.
    fn fit_prepared<R: Rng + ?Sized>(
        x: &Matrix,
        ctx: &FitContext,
        ys: &[f64],
        config: &GpConfig,
        rng: &mut R,
        warm: Option<&GpHyperParams>,
    ) -> Result<Self, GpError> {
        let (y_std, standardizer) = if config.standardize_targets {
            let (v, s) = nnbo_linalg::standardize(ys);
            (v, s)
        } else {
            (ys.to_vec(), Standardizer::identity())
        };
        let mut scratch = FitScratch::new(ctx.len(), ctx.dim());
        let (nll, hyper) = optimize_hypers(ctx, &y_std, config, rng, warm, &mut scratch)?;

        let kernel = ArdSquaredExponential::new(hyper.signal_variance(), hyper.lengthscales());
        let mut k = kernel.gram(x);
        k.add_diag(hyper.noise_variance());
        let (chol, jitter) = Cholesky::decompose_with_jitter(&k, config.jitter, 10)?;
        let residual: Vec<f64> = y_std.iter().map(|v| v - hyper.mean).collect();
        let alpha = chol.solve_vec(&residual);
        let scaled_x = kernel.prepare(x);

        Ok(GpModel {
            x: x.clone(),
            y: y_std,
            standardizer,
            hyper,
            kernel,
            scaled_x,
            chol,
            alpha,
            jitter,
            nll,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.nrows()
    }

    /// Returns `true` when the model has no training data (never the case for a
    /// successfully fitted model).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.x.ncols()
    }

    /// The fitted hyper-parameters (in standardised target units).
    pub fn hyper_params(&self) -> &GpHyperParams {
        &self.hyper
    }

    /// Negative log marginal likelihood achieved by the fit (standardised units).
    pub fn nll(&self) -> f64 {
        self.nll
    }

    /// Target standardiser used internally (useful for diagnostics).
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Predictive distribution at a query point, in original target units.
    ///
    /// Delegates to the batched path with a single row, so single-point and
    /// batched predictions are arithmetically identical.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict(&self, x: &[f64]) -> GpPrediction {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        let mut out = Vec::with_capacity(1);
        let mut scratch = GpPredictScratch::new();
        self.predict_batch_into(std::slice::from_ref(&x.to_vec()), &mut out, &mut scratch);
        out.pop().expect("one query row yields one prediction")
    }

    /// Predicts a batch of points.
    ///
    /// The whole batch shares one packed-GEMM cross-kernel product `K(Q, X)`
    /// with a fused dispatched `exp` pass, one mean matvec against `α`, and
    /// one vectorised batched triangular solve for the variances — `O(QN)`
    /// memory traffic patterns instead of `Q` independent `O(N²)` dependency
    /// chains.  Each returned prediction equals the corresponding
    /// [`GpModel::predict`] result exactly.  Hot loops should prefer
    /// [`GpModel::predict_batch_into`], which reuses caller-owned buffers.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimension differs from `dim()`.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<GpPrediction> {
        let mut out = Vec::with_capacity(xs.len());
        let mut scratch = GpPredictScratch::new();
        self.predict_batch_into(xs, &mut out, &mut scratch);
        out
    }

    /// [`GpModel::predict_batch`] writing into a caller-owned output vector
    /// and reusing a caller-owned [`GpPredictScratch`], so repeated batched
    /// predictions (the acquisition scoring loop of a Bayesian-optimization
    /// run) are allocation-free once the buffers have grown to the batch
    /// size.  The predictions are exactly those of [`GpModel::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any query's dimension differs from `dim()`.
    pub fn predict_batch_into(
        &self,
        xs: &[Vec<f64>],
        out: &mut Vec<GpPrediction>,
        scratch: &mut GpPredictScratch,
    ) {
        out.clear();
        if xs.is_empty() {
            return;
        }
        let dim = self.dim();
        for x in xs {
            assert_eq!(x.len(), dim, "query dimension mismatch");
        }
        if scratch.q.shape() != (xs.len(), dim) {
            scratch.q = Matrix::zeros(xs.len(), dim);
        }
        for (i, x) in xs.iter().enumerate() {
            scratch.q.row_mut(i).copy_from_slice(x);
        }
        let GpPredictScratch {
            q,
            cross,
            k_star,
            v,
            weighted,
            explained,
        } = scratch;
        let n_q = q.nrows();
        // Cross-kernel block K(Q, X), then means µ0 + K* α in one pass.
        self.kernel
            .cross_with_into(q, &self.scaled_x, k_star, cross);
        weighted.clear();
        weighted.resize(n_q, 0.0);
        k_star.matvec_into(&self.alpha, weighted);
        // Variances: column norms of L⁻¹ K*ᵀ from one batched forward solve.
        k_star.transpose_into(v); // N×Q
        self.chol.solve_lower_matrix_in_place(v);
        explained.clear();
        explained.resize(n_q, 0.0);
        for row in v.rows_iter() {
            for (e, u) in explained.iter_mut().zip(row.iter()) {
                *e += u * u;
            }
        }
        let prior = self.hyper.noise_variance() + self.kernel.signal_variance();
        out.reserve(n_q);
        for (w, ex) in weighted.iter().zip(explained.iter()) {
            let mean_std = self.hyper.mean + w;
            let var_std = (prior - ex).max(1e-12);
            out.push(GpPrediction {
                mean: self.standardizer.inverse(mean_std),
                variance: self.standardizer.inverse_variance(var_std),
            });
        }
    }

    /// Incorporates one new observation in `O(N²)` by bordering the stored
    /// Cholesky factor ([`Cholesky::append_row`]) instead of refitting.
    ///
    /// The hyper-parameters, target standardiser and jitter stay frozen at
    /// their last fitted values, which is the LinEasyBO-style trade the
    /// Bayesian-optimization loop makes between hyper-parameter freshness and
    /// per-iteration cost; the stored negative log likelihood is refreshed for
    /// the extended data set under those frozen hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingSet`] for non-finite input and
    /// [`GpError::KernelFactorization`] when the bordered kernel matrix is no
    /// longer positive definite (e.g. a near-duplicate point); callers should
    /// fall back to a full refit in that case.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn append_observation(&self, x: &[f64], y: f64) -> Result<GpModel, GpError> {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        if x.iter().any(|v| !v.is_finite()) || !y.is_finite() {
            return Err(GpError::InvalidTrainingSet {
                details: "non-finite values in appended observation".to_string(),
            });
        }
        let mut row = self.kernel.cross(x, &self.x);
        row.push(self.kernel.signal_variance() + self.hyper.noise_variance() + self.jitter);
        let mut chol = self.chol.clone();
        // Jitter ladder on the bordered factorization: a clean append applies
        // zero jitter (bit-identical to the plain path), a near-duplicate
        // point escalates the new diagonal entry instead of failing outright.
        let applied = chol.append_row_with_jitter(
            &row,
            Cholesky::RECOVERY_JITTER_INITIAL,
            Cholesky::RECOVERY_JITTER_ATTEMPTS,
        )?;

        let x_mat = Matrix::vstack(&self.x, &Matrix::from_rows(&[x.to_vec()]));
        let mut scaled_x = self.scaled_x.clone();
        scaled_x.append(&self.kernel, x);
        let mut y_std = self.y.clone();
        y_std.push(self.standardizer.transform(y));
        let residual: Vec<f64> = y_std.iter().map(|v| v - self.hyper.mean).collect();
        let alpha = chol.solve_vec(&residual);
        let n = y_std.len();
        let fit_term: f64 = residual.iter().zip(alpha.iter()).map(|(r, a)| r * a).sum();
        let nll = 0.5 * (fit_term + chol.log_det() + n as f64 * (2.0 * std::f64::consts::PI).ln());

        Ok(GpModel {
            x: x_mat,
            y: y_std,
            standardizer: self.standardizer,
            hyper: self.hyper.clone(),
            kernel: self.kernel.clone(),
            scaled_x,
            chol,
            alpha,
            jitter: self.jitter.max(applied),
            nll,
        })
    }

    /// Leave-one-out style diagnostic: mean squared standardised residual on the
    /// training data (useful as a sanity metric in tests and experiments).
    pub fn training_mse(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.len() {
            let p = self.predict(self.x.row(i));
            let y = self.standardizer.inverse(self.y[i]);
            acc += (p.mean - y) * (p.mean - y);
        }
        acc / self.len() as f64
    }
}

fn validate_training_set(xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
    if xs.is_empty() || ys.is_empty() {
        return Err(GpError::InvalidTrainingSet {
            details: "training set is empty".to_string(),
        });
    }
    if xs.len() != ys.len() {
        return Err(GpError::InvalidTrainingSet {
            details: format!("{} inputs but {} targets", xs.len(), ys.len()),
        });
    }
    let dim = xs[0].len();
    if dim == 0 {
        return Err(GpError::InvalidTrainingSet {
            details: "zero-dimensional inputs".to_string(),
        });
    }
    if xs.iter().any(|x| x.len() != dim) {
        return Err(GpError::InvalidTrainingSet {
            details: "ragged input dimensions".to_string(),
        });
    }
    if xs.iter().flatten().any(|v| !v.is_finite()) || ys.iter().any(|v| !v.is_finite()) {
        return Err(GpError::InvalidTrainingSet {
            details: "non-finite values in training data".to_string(),
        });
    }
    Ok(())
}

/// Negative log marginal likelihood (eq. 4) and its gradient with respect to
/// the flat hyper-parameter vector, through the shared-context path the fit
/// pipeline uses (exposed for the finite-difference tests).
#[cfg(test)]
pub(crate) fn nll_and_grad(
    x: &Matrix,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
) -> Option<(f64, Vec<f64>)> {
    let ctx = FitContext::new(x);
    let mut scratch = FitScratch::new(x.nrows(), x.ncols());
    nll_and_grad_into(&ctx, y, hyper, jitter, &mut scratch).map(|nll| (nll, scratch.grad.clone()))
}

/// Negative log marginal likelihood (eq. 4) and its gradient, computed the
/// direct way as the test oracle for the fused shared-context evaluation: the
/// Gram matrix is rebuilt with the norm-expansion kernel, the inverse comes
/// from the dense two-sweep [`Cholesky::inverse`], and every `∂K/∂θ` is
/// materialised as a dense matrix.
///
/// Returns `None` when the kernel matrix cannot be factored or the likelihood is not
/// finite.
#[cfg(test)]
pub(crate) fn nll_and_grad_reference(
    x: &Matrix,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
) -> Option<(f64, Vec<f64>)> {
    let n = x.nrows();
    let dim = x.ncols();
    let kernel = ArdSquaredExponential::new(hyper.signal_variance(), hyper.lengthscales());
    let gram = kernel.gram(x);
    let mut k = gram.clone();
    k.add_diag(hyper.noise_variance());
    let (chol, _) = Cholesky::decompose_with_jitter(&k, jitter, 8).ok()?;

    let residual: Vec<f64> = y.iter().map(|v| v - hyper.mean).collect();
    let alpha = chol.solve_vec(&residual);
    let fit_term: f64 = residual.iter().zip(alpha.iter()).map(|(r, a)| r * a).sum();
    let log_det = chol.log_det();
    let nll = 0.5 * (fit_term + log_det + n as f64 * (2.0 * std::f64::consts::PI).ln());
    if !nll.is_finite() {
        return None;
    }

    // Gradient: dL/dθ = ½ tr((K⁻¹ - α αᵀ) ∂K/∂θ).
    let k_inv = chol.inverse();
    let mut grad = Vec::with_capacity(dim + 3);

    // Helper computing ½ Σ_ij (K⁻¹ - ααᵀ)_ij (∂K/∂θ)_ij for a dense symmetric ∂K/∂θ.
    let trace_term = |dk: &Matrix| -> f64 {
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                acc += (k_inv[(i, j)] - alpha[i] * alpha[j]) * dk[(i, j)];
            }
        }
        0.5 * acc
    };

    // log σf.
    grad.push(trace_term(&kernel.gram_grad_log_signal(&gram)));
    // log lengthscales.
    for d in 0..dim {
        grad.push(trace_term(&kernel.gram_grad_log_lengthscale(x, &gram, d)));
    }
    // log σn: ∂K/∂log σn = 2 σn² I.
    let noise_var = hyper.noise_variance();
    let mut acc = 0.0;
    for i in 0..n {
        acc += (k_inv[(i, i)] - alpha[i] * alpha[i]) * 2.0 * noise_var;
    }
    grad.push(0.5 * acc);
    // Mean: dL/dµ0 = -Σ α_i.
    grad.push(-alpha.iter().sum::<f64>());

    if grad.iter().any(|g| !g.is_finite()) {
        return None;
    }
    Some((nll, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnbo_nn::finite_difference_gradient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (3.0 * x[0]).sin() + 0.5 * x[1] * x[1])
            .collect();
        (xs, ys)
    }

    #[test]
    fn nll_gradient_matches_finite_differences() {
        let (xs, ys) = toy_data(12, 3);
        let x = Matrix::from_rows(&xs);
        let (y_std, _) = nnbo_linalg::standardize(&ys);
        let hyper = GpHyperParams {
            log_signal: 0.2,
            log_lengthscales: vec![-0.3, 0.4],
            log_noise: -2.0,
            mean: 0.1,
        };
        let (_, analytic) = nll_and_grad(&x, &y_std, &hyper, 1e-10).unwrap();
        let f = |flat: &[f64]| {
            let hp = GpHyperParams::from_flat(flat, 2);
            nll_and_grad(&x, &y_std, &hp, 1e-10).unwrap().0
        };
        let fd = finite_difference_gradient(&f, &hyper.to_flat(), 1e-5);
        for (a, b) in analytic.iter().zip(fd.iter()) {
            assert!(
                (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                "analytic {a} vs fd {b}"
            );
        }
    }

    #[test]
    fn shared_context_nll_matches_reference_path() {
        let (xs, ys) = toy_data(15, 9);
        let (toy_y, _) = nnbo_linalg::standardize(&ys);
        let toy_hyper = GpHyperParams {
            log_signal: 0.4,
            log_lengthscales: vec![-0.6, 0.2],
            log_noise: -2.5,
            mean: -0.2,
        };
        // 17 irregular points in three dimensions, with raw targets.
        let irregular: Vec<Vec<f64>> = (0..17)
            .map(|i| {
                vec![
                    i as f64 * 0.07,
                    ((i * i) % 11) as f64 * 0.09,
                    1.0 / (1.0 + i as f64),
                ]
            })
            .collect();
        let irregular_y: Vec<f64> = (0..17).map(|i| ((i * 5 % 7) as f64 - 3.0) * 0.4).collect();
        let irregular_hyper = GpHyperParams {
            log_signal: 0.3,
            log_lengthscales: vec![-0.4, 0.2, 0.6],
            log_noise: -2.2,
            mean: 0.05,
        };
        for (xs, y, hyper) in [
            (xs, toy_y, toy_hyper),
            (irregular, irregular_y, irregular_hyper),
        ] {
            let x = Matrix::from_rows(&xs);
            let (nll_ctx, grad_ctx) = nll_and_grad(&x, &y, &hyper, 1e-10).unwrap();
            let (nll_ref, grad_ref) = nll_and_grad_reference(&x, &y, &hyper, 1e-10).unwrap();
            assert!(
                (nll_ctx - nll_ref).abs() < 1e-8 * (1.0 + nll_ref.abs()),
                "nll {nll_ctx} vs reference {nll_ref}"
            );
            for (a, b) in grad_ctx.iter().zip(grad_ref.iter()) {
                assert!(
                    (a - b).abs() < 1e-7 * (1.0 + b.abs()),
                    "grad {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn warm_fit_tracks_cold_fit_quality_and_skips_restarts() {
        let (xs, ys) = toy_data(30, 41);
        let config = GpConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        let cold = GpModel::fit(&xs, &ys, &config, &mut rng).unwrap();

        // One more observation, refit warm from the previous optimum.
        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        xs2.push(vec![0.21, 0.77]);
        ys2.push((3.0 * 0.21_f64).sin() + 0.5 * 0.77 * 0.77);
        let mut warm_rng = StdRng::seed_from_u64(43);
        let warm = GpModel::fit_warm(
            &xs2,
            &ys2,
            &config,
            &mut warm_rng,
            Some(cold.hyper_params()),
        )
        .unwrap();
        let mut cold_rng = StdRng::seed_from_u64(43);
        let cold2 = GpModel::fit(&xs2, &ys2, &config, &mut cold_rng).unwrap();
        assert!(
            warm.nll() <= cold2.nll() + 0.5 * (1.0 + cold2.nll().abs()),
            "warm NLL {} vs cold NLL {}",
            warm.nll(),
            cold2.nll()
        );
        // The accepted warm path never touches the rng (no random restarts).
        assert_eq!(
            warm_rng.gen::<u64>(),
            StdRng::seed_from_u64(43).gen::<u64>()
        );
    }

    #[test]
    fn fit_multi_matches_per_output_fits_with_derived_seeds() {
        let (xs, ys_a) = toy_data(18, 51);
        let ys_b: Vec<f64> = xs.iter().map(|x| x[0] * x[0] - x[1]).collect();
        let config = GpConfig::fast();
        let mut rng = StdRng::seed_from_u64(7);
        let models =
            GpModel::fit_multi(&xs, &[ys_a.clone(), ys_b.clone()], &config, &mut rng).unwrap();
        assert_eq!(models.len(), 2);

        // Replay the documented seed-derivation scheme.
        let mut seed_rng = StdRng::seed_from_u64(7);
        let seeds: Vec<u64> = (0..2).map(|_| seed_rng.gen()).collect();
        for (model, (ys, seed)) in models.iter().zip([ys_a, ys_b].iter().zip(seeds.iter())) {
            let mut output_rng = StdRng::seed_from_u64(*seed);
            let reference = GpModel::fit(&xs, ys, &config, &mut output_rng).unwrap();
            assert_eq!(model.hyper_params(), reference.hyper_params());
            assert_eq!(model.nll(), reference.nll());
            let q = [0.31, 0.64];
            assert_eq!(model.predict(&q).mean, reference.predict(&q).mean);
            assert_eq!(model.predict(&q).variance, reference.predict(&q).variance);
        }
    }

    #[test]
    fn fit_multi_warm_rejects_mismatched_slots_and_handles_empty() {
        let (xs, ys) = toy_data(8, 61);
        let mut rng = StdRng::seed_from_u64(1);
        let err =
            GpModel::fit_multi_warm(&xs, &[ys], &GpConfig::fast(), &mut rng, &[]).unwrap_err();
        assert!(matches!(err, GpError::InvalidTrainingSet { .. }));
        let none: Vec<Vec<f64>> = Vec::new();
        assert!(GpModel::fit_multi(&xs, &none, &GpConfig::fast(), &mut rng)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fit_interpolates_training_data() {
        let (xs, ys) = toy_data(25, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let model = GpModel::fit(&xs, &ys, &GpConfig::default(), &mut rng).unwrap();
        assert!(
            model.training_mse() < 1e-2,
            "training MSE {}",
            model.training_mse()
        );
    }

    #[test]
    fn prediction_is_accurate_between_points() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).cos()).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let model = GpModel::fit(&xs, &ys, &GpConfig::default(), &mut rng).unwrap();
        for &t in &[0.15, 0.35, 0.62, 0.81] {
            let p = model.predict(&[t]);
            assert!(
                (p.mean - (4.0 * t).cos()).abs() < 0.05,
                "bad prediction at {t}"
            );
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![0.3 + 0.04 * i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let model = GpModel::fit(&xs, &ys, &GpConfig::fast(), &mut rng).unwrap();
        let near = model.predict(&[0.45]);
        let far = model.predict(&[3.0]);
        assert!(far.variance > near.variance * 5.0);
    }

    #[test]
    fn invalid_training_sets_are_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let err = GpModel::fit(&[], &[], &GpConfig::fast(), &mut rng).unwrap_err();
        assert!(matches!(err, GpError::InvalidTrainingSet { .. }));
        let err = GpModel::fit(&[vec![1.0]], &[1.0, 2.0], &GpConfig::fast(), &mut rng).unwrap_err();
        assert!(matches!(err, GpError::InvalidTrainingSet { .. }));
        let err = GpModel::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            &GpConfig::fast(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, GpError::InvalidTrainingSet { .. }));
        let err = GpModel::fit(&[vec![f64::NAN]], &[1.0], &GpConfig::fast(), &mut rng).unwrap_err();
        assert!(matches!(err, GpError::InvalidTrainingSet { .. }));
    }

    #[test]
    fn constant_targets_do_not_break_fitting() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let ys = vec![2.5; 8];
        let mut rng = StdRng::seed_from_u64(5);
        let model = GpModel::fit(&xs, &ys, &GpConfig::fast(), &mut rng).unwrap();
        let p = model.predict(&[0.5]);
        assert!((p.mean - 2.5).abs() < 0.2);
    }

    #[test]
    fn fitted_model_round_trips_through_json_bit_exactly() {
        let (xs, ys) = toy_data(18, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let model = GpModel::fit(&xs, &ys, &GpConfig::fast(), &mut rng).unwrap();
        let restored: GpModel = serde::from_json_str(&serde::to_json_string(&model)).unwrap();
        assert_eq!(restored.nll(), model.nll());
        assert_eq!(
            restored.hyper_params().lengthscales(),
            model.hyper_params().lengthscales()
        );
        for q in [[0.1, 0.9], [0.5, 0.5], [0.83, 0.07], [2.0, -1.0]] {
            let (a, b) = (model.predict(&q), restored.predict(&q));
            assert_eq!(a.mean, b.mean, "mean drifted through JSON at {q:?}");
            assert_eq!(a.variance, b.variance, "variance drifted at {q:?}");
        }
        // The restored model keeps absorbing observations identically.
        let orig = model.append_observation(&[0.4, 0.6], 0.7).unwrap();
        let back = restored.append_observation(&[0.4, 0.6], 0.7).unwrap();
        let (a, b) = (orig.predict(&[0.41, 0.59]), back.predict(&[0.41, 0.59]));
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.variance, b.variance);
    }

    #[test]
    fn predict_batch_matches_per_point_predict_exactly() {
        let (xs, ys) = toy_data(30, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let model = GpModel::fit(&xs, &ys, &GpConfig::fast(), &mut rng).unwrap();
        let queries: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0])
            .collect();
        let batch = model.predict_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(batch.iter()) {
            let single = model.predict(q);
            assert_eq!(single.mean, b.mean, "mean mismatch at {q:?}");
            assert_eq!(single.variance, b.variance, "variance mismatch at {q:?}");
        }
        assert!(model.predict_batch(&[]).is_empty());
    }

    #[test]
    fn append_observation_matches_frozen_hyper_refit() {
        let (xs, ys) = toy_data(20, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let model = GpModel::fit(&xs, &ys, &GpConfig::fast(), &mut rng).unwrap();
        let x_new = vec![0.42_f64, 0.58];
        let y_new = (3.0 * x_new[0]).sin() + 0.5 * x_new[1] * x_new[1];
        let updated = model.append_observation(&x_new, y_new).unwrap();
        assert_eq!(updated.len(), model.len() + 1);
        assert_eq!(updated.hyper_params(), model.hyper_params());
        // The updated model interpolates the appended point like a (frozen
        // hyper-parameter) refit would: the prediction at x_new moves towards
        // y_new and its uncertainty collapses towards the noise floor.
        let before = model.predict(&x_new);
        let after = updated.predict(&x_new);
        assert!((after.mean - y_new).abs() <= (before.mean - y_new).abs() + 1e-9);
        assert!(after.variance <= before.variance + 1e-12);
        // Rejects nonsense input.
        assert!(model.append_observation(&[f64::NAN, 0.0], 1.0).is_err());
    }

    #[test]
    fn prediction_units_are_restored_after_standardisation() {
        // Targets with a large offset and scale: predictions must come back in the
        // original units, not the standardised ones.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1000.0 + 50.0 * x[0]).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let model = GpModel::fit(&xs, &ys, &GpConfig::default(), &mut rng).unwrap();
        let p = model.predict(&[0.5]);
        assert!((p.mean - 1025.0).abs() < 5.0);
    }
}
