//! The neural-network Gaussian process (weight-space view) — the paper's surrogate.

use nnbo_linalg::{Cholesky, Matrix, Standardizer};
use nnbo_nn::{Activation, Adam, Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::surrogate::{Prediction, SurrogateModel};

/// Configuration of a [`NeuralGp`] surrogate.
///
/// The defaults follow the paper's architecture (Fig. 1): a fully-connected network
/// with two hidden ReLU layers feeding an `M`-dimensional linear feature layer, and
/// joint maximum-likelihood training of the network weights with the prior scale
/// `σp` and the noise level `σn`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuralGpConfig {
    /// Hidden-layer widths of the feature network (two hidden layers by default).
    pub hidden_dims: Vec<usize>,
    /// Feature dimension `M` (width of the network's output layer).
    pub feature_dim: usize,
    /// Number of Adam iterations on the negative log marginal likelihood.
    pub epochs: usize,
    /// Adam iterations of a warm-started refit ([`NeuralGp::fit_warm`]): the
    /// descent continues from the previous fit's parameters, so it needs far
    /// fewer steps than a cold training run.
    pub warm_epochs: usize,
    /// Gradient-RMS threshold below which a warm descent stops early (the
    /// continuation has already converged; spending the remaining
    /// [`NeuralGpConfig::warm_epochs`] would be wasted work).
    pub warm_grad_tol: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initial `log σn` (noise standard deviation, in standardised target units).
    pub init_log_noise: f64,
    /// Initial `log σp` (prior weight scale).
    pub init_log_prior: f64,
    /// Lower clamp for `log σn`, keeping the likelihood well conditioned.
    pub min_log_noise: f64,
    /// Upper clamp for `log σn` during training (in standardised target units;
    /// the default `ln 2` was previously hard-coded in the training loop).
    pub max_log_noise: f64,
    /// Symmetric clamp for `log σp`: the prior scale is kept inside
    /// `[-prior_log_clamp, prior_log_clamp]` during training (the default `3`
    /// was previously hard-coded).
    pub prior_log_clamp: f64,
    /// Whether targets are standardised before fitting.
    pub standardize_targets: bool,
    /// Jitter added to the feature Gram matrix when its Cholesky factorization
    /// fails.
    pub jitter: f64,
}

impl Default for NeuralGpConfig {
    fn default() -> Self {
        NeuralGpConfig {
            hidden_dims: vec![50, 50],
            feature_dim: 32,
            epochs: 200,
            warm_epochs: 60,
            warm_grad_tol: 1e-4,
            learning_rate: 0.01,
            init_log_noise: (0.1_f64).ln(),
            init_log_prior: 0.0,
            min_log_noise: (1e-3_f64).ln(),
            max_log_noise: (2.0_f64).ln(),
            prior_log_clamp: 3.0,
            standardize_targets: true,
            jitter: 1e-8,
        }
    }
}

impl NeuralGpConfig {
    /// A cheaper configuration for tests and smoke experiments.
    pub fn fast() -> Self {
        NeuralGpConfig {
            hidden_dims: vec![32, 32],
            feature_dim: 16,
            epochs: 80,
            warm_epochs: 25,
            ..NeuralGpConfig::default()
        }
    }

    /// Rejects a configuration no fit could succeed with: a zero feature
    /// dimension, a zero-width hidden layer, or an inverted clamp band.
    /// The optimization loop checks it once when a run starts
    /// ([`crate::SurrogateTrainer::validate`]).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.feature_dim == 0 {
            return Err("neural-GP feature_dim must be at least 1".to_string());
        }
        if self.hidden_dims.contains(&0) {
            return Err(format!(
                "neural-GP hidden_dims must all be at least 1, got {:?}",
                self.hidden_dims
            ));
        }
        self.validate_clamps()
    }

    /// The clamp bands of `log σn` and `log σp` must be ordered and not
    /// NaN; every fit checks this.
    fn validate_clamps(&self) -> Result<(), String> {
        if self.max_log_noise.is_nan()
            || self.min_log_noise.is_nan()
            || self.max_log_noise < self.min_log_noise
        {
            return Err(format!(
                "invalid log-noise clamp band [{}, {}]",
                self.min_log_noise, self.max_log_noise
            ));
        }
        if self.prior_log_clamp.is_nan() || self.prior_log_clamp < 0.0 {
            return Err(format!(
                "prior_log_clamp must be non-negative, got {}",
                self.prior_log_clamp
            ));
        }
        Ok(())
    }
}

/// A fitted neural-network Gaussian process (eqs. 8–12 of the paper).
///
/// The model is `f(x) = wᵀ φ(x)` with `w ~ N(0, σp²/M · I)` and observation noise
/// `σn²`; `φ` is the output of the feature network.  After training, prediction only
/// needs the `M × M` factorization of `A = ΦΦᵀ + (Mσn²/σp²)·I` and the vector
/// `A⁻¹Φy`, so its cost is independent of the number of training points.
///
/// The model serializes (all state is plain data — network weights, the
/// Cholesky factor, sufficient statistics), which is what lets the
/// optimization loop checkpoint and resume bit-identically.
#[derive(Debug, Clone, Serialize)]
pub struct NeuralGp {
    mlp: Mlp,
    log_noise: f64,
    /// `log σp` of the joint optimum, kept so a warm-started refit
    /// ([`NeuralGp::fit_warm`]) can continue the descent from the full flat
    /// parameter vector `[log σn, log σp, network weights...]`.
    log_prior: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// Projected targets `v = Φ y` (standardised units), kept so a single
    /// appended observation can update `α = A⁻¹ v` in `O(M²)`.
    v: Vec<f64>,
    /// `yᵀy` of the standardised targets, kept so an appended observation can
    /// refresh the likelihood in `O(M)` (the fit term needs `yᵀy − vᵀα`).
    yty: f64,
    standardizer: Standardizer,
    train_size: usize,
    final_nll: f64,
    /// Jitter the fit-time factorization of `A` needed (`0.0` for a clean
    /// factorization) — the per-model recovery record
    /// [`crate::SurrogateModel::resilience`] reports.
    fit_jitter: f64,
}

/// Checks what prediction and the incremental update rely on: the factor of
/// `A`, `α` and `v` are all as wide as the network's feature layer.
impl<'de> Deserialize<'de> for NeuralGp {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map for struct NeuralGp"))?;
        let model = NeuralGp {
            mlp: serde::from_field(entries, "mlp", "NeuralGp")?,
            log_noise: serde::from_field(entries, "log_noise", "NeuralGp")?,
            log_prior: serde::from_field(entries, "log_prior", "NeuralGp")?,
            chol: serde::from_field(entries, "chol", "NeuralGp")?,
            alpha: serde::from_field(entries, "alpha", "NeuralGp")?,
            v: serde::from_field(entries, "v", "NeuralGp")?,
            yty: serde::from_field(entries, "yty", "NeuralGp")?,
            standardizer: serde::from_field(entries, "standardizer", "NeuralGp")?,
            train_size: serde::from_field(entries, "train_size", "NeuralGp")?,
            final_nll: serde::from_field(entries, "final_nll", "NeuralGp")?,
            fit_jitter: serde::from_field(entries, "fit_jitter", "NeuralGp")?,
        };
        let m = model.mlp.output_dim();
        let widths = (model.chol.dim(), model.alpha.len(), model.v.len());
        if widths != (m, m, m) {
            return Err(serde::DeError::new(format!(
                "NeuralGp with {m} features holds a {}-wide factor, {} α and {} v values",
                widths.0, widths.1, widths.2
            )));
        }
        Ok(model)
    }
}

/// Reusable buffers of one training descent: the flat `[log σn, log σp,
/// weights...]` parameter vector handed to Adam, the matching gradient, and
/// the `M × M` matrices of the per-epoch symmetric inverse `A⁻¹`.
/// Allocated once per fit and reused across every epoch, so the warm loop's
/// per-epoch cost is the likelihood evaluation alone.
struct TrainScratch {
    flat: Vec<f64>,
    grad: Vec<f64>,
    inv: Matrix,
    inv_work: Matrix,
}

impl TrainScratch {
    fn new(num_params: usize) -> Self {
        TrainScratch {
            flat: Vec::with_capacity(num_params),
            grad: Vec::with_capacity(num_params),
            inv: Matrix::zeros(0, 0),
            inv_work: Matrix::zeros(0, 0),
        }
    }
}

/// End state of one Adam descent on the joint NLL: the clamped
/// hyper-parameters (the network weights are left in the `Mlp` itself).
struct Descent {
    log_noise: f64,
    log_prior: f64,
}

impl NeuralGp {
    /// Trains a neural GP on `(xs, ys)` where `xs` are normalised design points.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure when the training set is
    /// degenerate, the feature Gram matrix cannot be factored even with
    /// jitter, or no finite likelihood is ever reached.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &NeuralGpConfig,
        rng: &mut StdRng,
    ) -> Result<Self, String> {
        Self::fit_warm(xs, ys, config, rng, None)
    }

    /// Trains a neural GP, optionally continuing Adam from a previous fit's
    /// parameters (the DNN-Opt-style amortized retraining of the ensemble
    /// members, mirroring `GpModel::fit_warm` for the classical GP).
    ///
    /// With `prev = None` this is exactly [`NeuralGp::fit`]: a cold training
    /// run of [`NeuralGpConfig::epochs`] Adam steps from a random network
    /// initialisation.  With `prev = Some(m)` (matching architecture;
    /// mismatches fall back to the cold path) the descent continues from `m`'s
    /// flat parameters `[log σn, log σp, network weights...]` for at most
    /// [`NeuralGpConfig::warm_epochs`] steps, stopping early once the gradient
    /// RMS drops below [`NeuralGpConfig::warm_grad_tol`].  The warm result is
    /// accepted unless its final NLL regresses past the evaluated likelihood
    /// of the cold initial point (the same random initialisation a cold fit
    /// would have started from), in which case the full cold training runs as
    /// a fallback and the best of warm, cold and the initial point itself is
    /// kept — so the returned NLL never exceeds the cold initial NLL.
    ///
    /// The rng is consumed identically on both paths (the cold initial state
    /// is always drawn, warm start taken or not), so a `fit_warm` call leaves
    /// the rng stream exactly where a `fit` call would.
    ///
    /// Targets are re-standardised on the data passed here; `prev` only seeds
    /// the optimizer, so it may come from [`NeuralGp::append_observation`]
    /// (whose standardiser is frozen at its own fit-time statistics) without
    /// affecting the new model's units.
    ///
    /// # Errors
    ///
    /// Same contract as [`NeuralGp::fit`].
    pub fn fit_warm(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &NeuralGpConfig,
        rng: &mut StdRng,
        prev: Option<&NeuralGp>,
    ) -> Result<Self, String> {
        validate(xs, ys)?;
        config.validate_clamps()?;
        let dim = xs[0].len();
        let x = Matrix::from_rows(xs);
        let (y, standardizer) = if config.standardize_targets {
            let (v, s) = nnbo_linalg::standardize(ys);
            (v, s)
        } else {
            (ys.to_vec(), Standardizer::identity())
        };

        let mlp_config = MlpConfig::new(dim, &config.hidden_dims, config.feature_dim)
            .with_hidden_activation(Activation::ReLU);
        // Cold initial state — always drawn, in the same order as a cold fit,
        // so the rng stream is identical whether or not a warm start is taken.
        let cold_mlp = Mlp::new(&mlp_config, rng);
        let cold_log_noise = config.init_log_noise + rng.gen_range(-0.1..0.1);
        let cold_log_prior = config.init_log_prior + rng.gen_range(-0.1..0.1);
        let mut scratch = TrainScratch::new(2 + cold_mlp.num_params());

        let warm_prev = prev.filter(|p| p.mlp.config() == &mlp_config);
        let Some(prev) = warm_prev else {
            let mut mlp = cold_mlp;
            let descent = run_adam(
                &mut mlp,
                cold_log_noise,
                cold_log_prior,
                &x,
                &y,
                config,
                config.epochs,
                None,
                &mut scratch,
            );
            return finalize(mlp, descent, &x, &y, config, standardizer);
        };

        // Warm descent: continue Adam from the previous fit's parameters for
        // a reduced budget with a gradient-norm early stop.
        let mut warm_mlp = prev.mlp.clone();
        let warm_descent = run_adam(
            &mut warm_mlp,
            prev.log_noise
                .clamp(config.min_log_noise, config.max_log_noise),
            prev.log_prior
                .clamp(-config.prior_log_clamp, config.prior_log_clamp),
            &x,
            &y,
            config,
            config.warm_epochs,
            Some(config.warm_grad_tol),
            &mut scratch,
        );
        let warm_model = finalize(warm_mlp, warm_descent, &x, &y, config, standardizer);

        // Anchor: the likelihood of the *untrained* cold initial point — the
        // cheap reference that detects a stale or diverged warm start.
        let anchor_model = factorize(&cold_mlp, cold_log_noise, cold_log_prior, &x, &y, config)
            .and_then(|f| {
                f.nll.is_finite().then(|| NeuralGp {
                    mlp: cold_mlp.clone(),
                    log_noise: cold_log_noise,
                    log_prior: cold_log_prior,
                    chol: f.chol,
                    alpha: f.alpha,
                    v: f.v,
                    yty: f.yty,
                    standardizer,
                    train_size: xs.len(),
                    final_nll: f.nll,
                    fit_jitter: f.jitter,
                })
            });
        match (&warm_model, &anchor_model) {
            (Ok(w), Some(a)) if w.final_nll <= a.final_nll => return warm_model,
            (Ok(_), None) => return warm_model,
            _ => {}
        }

        // Regression fallback: the warm continuation is worse than not
        // training at all (or failed) — run the full cold training and keep
        // the best of warm, cold and the cold initial point itself.
        let mut cold_trained = cold_mlp;
        let cold_descent = run_adam(
            &mut cold_trained,
            cold_log_noise,
            cold_log_prior,
            &x,
            &y,
            config,
            config.epochs,
            None,
            &mut scratch,
        );
        let cold_model = finalize(cold_trained, cold_descent, &x, &y, config, standardizer);
        let first_error = warm_model.as_ref().err().cloned();
        let candidates = [warm_model.ok(), cold_model.ok(), anchor_model];
        candidates
            .into_iter()
            .flatten()
            .min_by(|a, b| {
                a.final_nll
                    .partial_cmp(&b.final_nll)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| {
                first_error.unwrap_or_else(|| "no finite fit candidate survived".to_string())
            })
    }

    /// Incorporates one new observation in `O(M²)` without retraining the
    /// feature network: the weight-space normal matrix `A = ΦΦᵀ + λI` grows by
    /// exactly `φ(x) φ(x)ᵀ`, which is a rank-1 Cholesky update, and
    /// `α = A⁻¹ Φy` follows from one `O(M²)` solve.
    ///
    /// The network weights, noise level and target standardiser stay frozen at
    /// their last trained values (the LinEasyBO-style trade); the stored
    /// likelihood is *refreshed* for the extended data set under those frozen
    /// parameters (an `O(M)` update of the fit term plus the updated factor's
    /// log-determinant) — this is the drift signal the Bayesian-optimization
    /// loop's `RefitPolicy::NllDrift` reads to decide when the incremental
    /// model has degraded enough to warrant a full warm refit.
    ///
    /// # Errors
    ///
    /// Returns a description when the appended observation is non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the network input dimension.
    pub fn append_observation(&self, x: &[f64], y: f64) -> Result<NeuralGp, String> {
        if x.iter().any(|v| !v.is_finite()) || !y.is_finite() {
            return Err("non-finite values in appended observation".to_string());
        }
        let phi = self.mlp.forward(x);
        let y_std = self.standardizer.transform(y);
        let mut chol = self.chol.clone();
        chol.rank_one_update(&phi);
        let mut v = self.v.clone();
        for (vi, p) in v.iter_mut().zip(phi.iter()) {
            *vi += p * y_std;
        }
        let alpha = chol.solve_vec(&v);
        let yty = self.yty + y_std * y_std;
        // Likelihood of the extended data under the frozen parameters — the
        // shared closed form `factorize` evaluates, with every O(N·M²)
        // sufficient statistic already maintained incrementally.
        let v_alpha: f64 = v.iter().zip(alpha.iter()).map(|(a, b)| a * b).sum();
        let nll = weight_space_nll(
            yty,
            v_alpha,
            chol.log_det(),
            self.feature_dim() as f64,
            (self.train_size + 1) as f64,
            (2.0 * self.log_noise).exp(),
            (2.0 * self.log_prior).exp(),
        );
        Ok(NeuralGp {
            mlp: self.mlp.clone(),
            log_noise: self.log_noise,
            log_prior: self.log_prior,
            chol,
            alpha,
            v,
            yty,
            standardizer: self.standardizer,
            train_size: self.train_size + 1,
            final_nll: nll,
            fit_jitter: self.fit_jitter,
        })
    }

    /// Number of training points the model was fitted on.
    pub fn train_size(&self) -> usize {
        self.train_size
    }

    /// Feature dimension `M`.
    pub fn feature_dim(&self) -> usize {
        self.mlp.output_dim()
    }

    /// Negative log marginal likelihood of the model on its training set
    /// (standardised units): the end-of-training value for a fitted model,
    /// refreshed under the frozen parameters by every
    /// [`NeuralGp::append_observation`].  Always finite after a fit: trainings
    /// that never reach a finite likelihood are rejected with an error
    /// instead of storing `∞`, so warm-start regression comparisons are
    /// always meaningful.
    pub fn nll(&self) -> f64 {
        self.final_nll
    }

    /// Fitted observation-noise standard deviation (standardised units).
    pub fn noise_std(&self) -> f64 {
        self.log_noise.exp()
    }
}

impl SurrogateModel for NeuralGp {
    /// Delegates to the batched path with a single row, so single-point and
    /// batched predictions are arithmetically identical.
    fn predict(&self, x: &[f64]) -> Prediction {
        self.predict_batch(std::slice::from_ref(&x.to_vec()))
            .pop()
            .expect("one query row yields one prediction")
    }

    /// The model's maintained likelihood (see [`NeuralGp::nll`]), exposed as
    /// the drift signal for adaptive refit policies.
    fn training_nll(&self) -> Option<f64> {
        Some(self.final_nll)
    }

    /// Reports whether this model's fit-time factorization needed the jitter
    /// ladder.
    fn resilience(&self) -> crate::resilience::ModelResilience {
        crate::resilience::ModelResilience {
            jitter_recoveries: usize::from(self.fit_jitter > 0.0),
            dropped_members: 0,
        }
    }

    /// Batched prediction: one feature-network forward pass over all queries,
    /// one mean matvec against `α`, and one vectorised batched triangular
    /// solve for the `M × M` weight-space system shared by the whole batch.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        if xs.is_empty() {
            return Vec::new();
        }
        let phi = self.mlp.forward_batch(&Matrix::from_rows(xs)); // Q×M
        let means = phi.matvec(&self.alpha);
        let v = self.chol.solve_lower_matrix(&phi.transpose()); // M×Q
        let mut quad = vec![0.0; xs.len()];
        for row in v.rows_iter() {
            for (q, u) in quad.iter_mut().zip(row.iter()) {
                *q += u * u;
            }
        }
        let noise_var = (2.0 * self.log_noise).exp();
        means
            .into_iter()
            .zip(quad)
            .map(|(mean_std, q)| {
                let var_std = noise_var * (1.0 + q);
                Prediction::new(
                    self.standardizer.inverse(mean_std),
                    self.standardizer.inverse_variance(var_std),
                )
            })
            .collect()
    }
}

fn validate(xs: &[Vec<f64>], ys: &[f64]) -> Result<(), String> {
    if xs.is_empty() {
        return Err("training set is empty".to_string());
    }
    if xs.len() != ys.len() {
        return Err(format!("{} inputs but {} targets", xs.len(), ys.len()));
    }
    let dim = xs[0].len();
    if dim == 0 || xs.iter().any(|x| x.len() != dim) {
        return Err("inconsistent input dimensions".to_string());
    }
    if xs.iter().flatten().any(|v| !v.is_finite()) || ys.iter().any(|v| !v.is_finite()) {
        return Err("non-finite training values".to_string());
    }
    Ok(())
}

/// Runs up to `epochs` Adam steps on the joint NLL from the given network and
/// hyper-parameter state, mutating `mlp` in place.  With `grad_tol = Some(t)`
/// the descent stops early once the gradient RMS drops below `t` (the
/// warm-continuation mode); `None` reproduces the cold training loop exactly.
/// All per-epoch buffers live in `scratch`.
#[allow(clippy::too_many_arguments)] // internal descent core; one call site per mode
fn run_adam(
    mlp: &mut Mlp,
    mut log_noise: f64,
    mut log_prior: f64,
    x: &Matrix,
    y: &[f64],
    config: &NeuralGpConfig,
    epochs: usize,
    grad_tol: Option<f64>,
    scratch: &mut TrainScratch,
) -> Descent {
    let mut adam = Adam::with_learning_rate(config.learning_rate);
    let mut nn_params = mlp.flat_params();
    for _ in 0..epochs {
        mlp.set_flat_params(&nn_params);
        if loss_and_grad_into(
            mlp,
            log_noise,
            log_prior,
            x,
            y,
            config,
            &mut scratch.grad,
            &mut scratch.inv,
            &mut scratch.inv_work,
        )
        .is_none()
        {
            break;
        }
        // One sum of squares serves the early-stop RMS and Adam's clip norm.
        let sum_sq: f64 = scratch.grad.iter().map(|g| g * g).sum();
        if let Some(tol) = grad_tol {
            let rms = (sum_sq / scratch.grad.len() as f64).sqrt();
            if rms <= tol {
                break;
            }
        }
        // Flat parameter vector: [log σn, log σp, network weights...].
        let flat = &mut scratch.flat;
        flat.clear();
        flat.push(log_noise);
        flat.push(log_prior);
        flat.extend_from_slice(&nn_params);
        adam.step_with_sum_sq(flat, &scratch.grad, sum_sq);
        log_noise = flat[0].clamp(config.min_log_noise, config.max_log_noise);
        log_prior = flat[1].clamp(-config.prior_log_clamp, config.prior_log_clamp);
        nn_params.copy_from_slice(&flat[2..]);
    }
    mlp.set_flat_params(&nn_params);
    Descent {
        log_noise,
        log_prior,
    }
}

/// Final factorization after a descent: builds the prediction state and
/// stores the likelihood *at the final parameters*.  A descent whose end
/// point has no finite likelihood is an error, never a model carrying `∞` or
/// a stale earlier-epoch value — the warm-start regression comparison depends
/// on `nll()` describing exactly the parameters the model predicts with.
fn finalize(
    mlp: Mlp,
    descent: Descent,
    x: &Matrix,
    y: &[f64],
    config: &NeuralGpConfig,
    standardizer: Standardizer,
) -> Result<NeuralGp, String> {
    let f = factorize(&mlp, descent.log_noise, descent.log_prior, x, y, config)
        .ok_or_else(|| "feature Gram matrix could not be factored".to_string())?;
    if !f.nll.is_finite() {
        return Err("no finite likelihood at the final parameters".to_string());
    }
    Ok(NeuralGp {
        mlp,
        log_noise: descent.log_noise,
        log_prior: descent.log_prior,
        chol: f.chol,
        alpha: f.alpha,
        v: f.v,
        yty: f.yty,
        standardizer,
        train_size: x.nrows(),
        final_nll: f.nll,
        fit_jitter: f.jitter,
    })
}

/// Negative log marginal likelihood (eq. 11, negated) of the weight-space
/// model from its sufficient statistics — the single closed form shared by
/// [`factorize`], the training loop's [`loss_and_grad_into`] and the
/// incremental [`NeuralGp::append_observation`], so the fit-time and
/// incrementally refreshed likelihoods (the drift signal) can never drift
/// apart through divergent copies of the formula.
fn weight_space_nll(
    yty: f64,
    v_alpha: f64,
    log_det: f64,
    m: f64,
    n: f64,
    noise_var: f64,
    prior_var: f64,
) -> f64 {
    let lambda = m * noise_var / prior_var;
    0.5 / noise_var * (yty - v_alpha) + 0.5 * log_det - 0.5 * m * lambda.ln()
        + 0.5 * n * (2.0 * std::f64::consts::PI * noise_var).ln()
}

/// Prediction-state pieces of one factorization at fixed parameters:
/// the Cholesky factor of `A = ΦΦᵀ + λI`, `α = A⁻¹Φy`, the projected targets
/// `v = Φy`, `yᵀy` and the likelihood.
struct Factorized {
    chol: Cholesky,
    alpha: Vec<f64>,
    v: Vec<f64>,
    yty: f64,
    nll: f64,
    /// Jitter the factorization needed (`0.0` when the plain decomposition
    /// succeeded) — kept as the model's recovery record.
    jitter: f64,
}

/// Builds `A = ΦΦᵀ + λI`, its Cholesky factor, `α = A⁻¹Φy`, `yᵀy` and the
/// likelihood at the given parameters.  Returns `None` if the factorization
/// fails.
fn factorize(
    mlp: &Mlp,
    log_noise: f64,
    log_prior: f64,
    x: &Matrix,
    y: &[f64],
    config: &NeuralGpConfig,
) -> Option<Factorized> {
    let out = mlp.forward_batch(x);
    let m = out.ncols();
    let n = out.nrows();
    let noise_var = (2.0 * log_noise).exp();
    let prior_var = (2.0 * log_prior).exp();
    let lambda = m as f64 * noise_var / prior_var;
    let mut a = out.transpose_matmul_self();
    a.add_diag(lambda);
    let (chol, jitter) = Cholesky::decompose_with_jitter(&a, config.jitter, 10).ok()?;
    let v = out.vecmat(y);
    let alpha = chol.solve_vec(&v);
    // Negative log marginal likelihood (eq. 11, negated).
    let yty: f64 = y.iter().map(|t| t * t).sum();
    let v_alpha: f64 = v.iter().zip(alpha.iter()).map(|(a, b)| a * b).sum();
    let nll = weight_space_nll(
        yty,
        v_alpha,
        chol.log_det(),
        m as f64,
        n as f64,
        noise_var,
        prior_var,
    );
    Some(Factorized {
        chol,
        alpha,
        v,
        yty,
        nll,
        jitter,
    })
}

/// Negative log marginal likelihood (eq. 11, negated) and its gradient with respect
/// to `[log σn, log σp, network parameters...]` (eq. 12 for the network part).
/// Exposed for the finite-difference and warm-anchor tests; the training loop
/// itself goes through the buffer-reusing [`loss_and_grad_into`].
#[cfg(test)]
pub(crate) fn loss_and_grad(
    mlp: &Mlp,
    log_noise: f64,
    log_prior: f64,
    x: &Matrix,
    y: &[f64],
    config: &NeuralGpConfig,
) -> Option<(f64, Vec<f64>)> {
    let mut grad = Vec::new();
    let mut inv = Matrix::zeros(0, 0);
    let mut inv_work = Matrix::zeros(0, 0);
    loss_and_grad_into(
        mlp,
        log_noise,
        log_prior,
        x,
        y,
        config,
        &mut grad,
        &mut inv,
        &mut inv_work,
    )
    .map(|nll| (nll, grad))
}

/// [`loss_and_grad`] writing the gradient into a caller-owned buffer and the
/// symmetric inverse into caller-owned matrices, so the training loop reuses
/// one set of allocations across every epoch.
#[allow(clippy::too_many_arguments)]
fn loss_and_grad_into(
    mlp: &Mlp,
    log_noise: f64,
    log_prior: f64,
    x: &Matrix,
    y: &[f64],
    config: &NeuralGpConfig,
    grad: &mut Vec<f64>,
    inv: &mut Matrix,
    inv_work: &mut Matrix,
) -> Option<f64> {
    let cache = mlp.forward_cached(x);
    let out = cache.output();
    let n = out.nrows();
    let m = out.ncols();
    let noise_var = (2.0 * log_noise).exp();
    let prior_var = (2.0 * log_prior).exp();
    let lambda = m as f64 * noise_var / prior_var;

    let mut a = out.transpose_matmul_self();
    a.add_diag(lambda);
    let (chol, _) = Cholesky::decompose_with_jitter(&a, config.jitter, 10).ok()?;
    let v = out.vecmat(y);
    let alpha = chol.solve_vec(&v);
    let pred = out.matvec(&alpha);
    let residual: Vec<f64> = y.iter().zip(pred.iter()).map(|(t, p)| t - p).collect();

    let yty: f64 = y.iter().map(|t| t * t).sum();
    let v_alpha: f64 = v.iter().zip(alpha.iter()).map(|(a, b)| a * b).sum();
    // `fit_term` is reused by the log-noise gradient below; the likelihood
    // itself goes through the shared closed form.
    let fit_term = 0.5 / noise_var * (yty - v_alpha);
    let nll = weight_space_nll(
        yty,
        v_alpha,
        chol.log_det(),
        m as f64,
        n as f64,
        noise_var,
        prior_var,
    );
    if !nll.is_finite() {
        return None;
    }

    // Gradient with respect to the feature matrix (in N x M orientation):
    //   ∂nll/∂Out = -(1/σn²)·r·αᵀ + Out·A⁻¹.
    chol.symmetric_inverse_into(inv, inv_work);
    let b = &*inv;
    let mut grad_out = out.matmul(b);
    for i in 0..n {
        let scale = -residual[i] / noise_var;
        let row = grad_out.row_mut(i);
        for (g, a) in row.iter_mut().zip(alpha.iter()) {
            *g += scale * a;
        }
    }
    let nn_grad = mlp.param_gradient(&cache, &grad_out);

    // Gradients with respect to log σn and log σp.
    let alpha_sq: f64 = alpha.iter().map(|a| a * a).sum();
    let trace_b = b.trace().expect("A is square");
    let lambda_sensitivity = alpha_sq / (2.0 * noise_var) + 0.5 * trace_b;
    let d_log_noise = -2.0 * fit_term + 2.0 * lambda * lambda_sensitivity - m as f64 + n as f64;
    let d_log_prior = -2.0 * lambda * lambda_sensitivity + m as f64;

    grad.clear();
    grad.reserve(2 + mlp.num_params());
    grad.push(d_log_noise);
    grad.push(d_log_prior);
    nn_grad.append_flat(grad);
    if grad.iter().any(|g| !g.is_finite()) {
        return None;
    }
    Some(nll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnbo_nn::finite_difference_gradient;
    use rand::SeedableRng;

    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (5.0 * x[0]).sin() + x[1] * x[1] - 0.5 * x[0] * x[1])
            .collect();
        (xs, ys)
    }

    #[test]
    fn nll_gradient_matches_finite_differences() {
        let (xs, ys) = toy_data(14, 1);
        let x = Matrix::from_rows(&xs);
        let (y, _) = nnbo_linalg::standardize(&ys);
        let config = NeuralGpConfig {
            hidden_dims: vec![6],
            feature_dim: 5,
            ..NeuralGpConfig::default()
        };
        let mlp_config = MlpConfig::new(2, &config.hidden_dims, config.feature_dim)
            .with_hidden_activation(Activation::Tanh);
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&mlp_config, &mut rng);
        let log_noise = (0.2_f64).ln();
        let log_prior = 0.3;

        let (_, analytic) = loss_and_grad(&mlp, log_noise, log_prior, &x, &y, &config).unwrap();

        let nn_params = mlp.flat_params();
        let mut flat = vec![log_noise, log_prior];
        flat.extend_from_slice(&nn_params);
        let f = |p: &[f64]| {
            let mut m = mlp.clone();
            m.set_flat_params(&p[2..]);
            loss_and_grad(&m, p[0], p[1], &x, &y, &config).unwrap().0
        };
        let fd = finite_difference_gradient(&f, &flat, 1e-5);
        let mut max_err = 0.0_f64;
        for (a, b) in analytic.iter().zip(fd.iter()) {
            max_err = max_err.max((a - b).abs() / (1.0 + b.abs()));
        }
        assert!(max_err < 1e-4, "max relative gradient error {max_err}");
    }

    #[test]
    fn fit_learns_a_smooth_function() {
        let (xs, ys) = toy_data(60, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let config = NeuralGpConfig {
            epochs: 400,
            ..NeuralGpConfig::default()
        };
        let model = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap();
        // In-sample accuracy: RMSE well below the target standard deviation.
        let rmse = (xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| {
                let p = model.predict(x);
                (p.mean - y) * (p.mean - y)
            })
            .sum::<f64>()
            / xs.len() as f64)
            .sqrt();
        let spread = nnbo_linalg::sample_std(&ys);
        assert!(
            rmse < 0.35 * spread,
            "rmse {rmse} vs target spread {spread}"
        );
    }

    #[test]
    fn prediction_interpolates_and_uncertainty_grows_off_data() {
        let xs: Vec<Vec<f64>> = (0..25).map(|i| vec![0.3 + 0.4 * i as f64 / 24.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).cos()).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let config = NeuralGpConfig {
            epochs: 400,
            ..NeuralGpConfig::default()
        };
        let model = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap();
        let inside = model.predict(&[0.5]);
        assert!((inside.mean - (3.0_f64).cos()).abs() < 0.3);
        let far = model.predict(&[0.95]);
        assert!(far.variance > inside.variance);
    }

    #[test]
    fn predictions_are_in_original_units() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 500.0 + 100.0 * x[0]).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let model = NeuralGp::fit(&xs, &ys, &NeuralGpConfig::fast(), &mut rng).unwrap();
        let p = model.predict(&[0.5]);
        assert!((p.mean - 550.0).abs() < 30.0, "mean {}", p.mean);
    }

    #[test]
    fn degenerate_training_sets_are_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(NeuralGp::fit(&[], &[], &NeuralGpConfig::fast(), &mut rng).is_err());
        assert!(NeuralGp::fit(
            &[vec![0.1], vec![0.2]],
            &[1.0],
            &NeuralGpConfig::fast(),
            &mut rng
        )
        .is_err());
        assert!(
            NeuralGp::fit(&[vec![f64::NAN]], &[1.0], &NeuralGpConfig::fast(), &mut rng).is_err()
        );
    }

    #[test]
    fn warm_refit_never_regresses_past_the_cold_initial_point() {
        // The regression-fallback contract: whatever the warm continuation
        // does, the returned NLL never exceeds the likelihood of the cold
        // initial point the same rng would have started a cold fit from.
        let config = NeuralGpConfig {
            hidden_dims: vec![16, 16],
            feature_dim: 8,
            epochs: 60,
            warm_epochs: 15,
            ..NeuralGpConfig::default()
        };
        for seed in [1u64, 2, 3, 4, 5] {
            let (xs, ys) = toy_data(22, seed);
            let mut rng = StdRng::seed_from_u64(seed * 10 + 1);
            let prev = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap();

            let mut xs2 = xs.clone();
            let mut ys2 = ys.clone();
            xs2.push(vec![0.51, 0.49]);
            ys2.push((5.0 * 0.51_f64).sin() + 0.49 * 0.49 - 0.5 * 0.51 * 0.49);
            let warm_seed = seed * 10 + 2;
            let mut warm_rng = StdRng::seed_from_u64(warm_seed);
            let warm = NeuralGp::fit_warm(&xs2, &ys2, &config, &mut warm_rng, Some(&prev)).unwrap();
            assert!(warm.nll().is_finite());

            // Replay the cold initial point the same seed would draw and
            // evaluate (not train) its likelihood.
            let mut replay = StdRng::seed_from_u64(warm_seed);
            let mlp_config = MlpConfig::new(2, &config.hidden_dims, config.feature_dim)
                .with_hidden_activation(Activation::ReLU);
            let cold_mlp = Mlp::new(&mlp_config, &mut replay);
            let ln = config.init_log_noise + replay.gen_range(-0.1..0.1);
            let lp = config.init_log_prior + replay.gen_range(-0.1..0.1);
            let (y_std, _) = nnbo_linalg::standardize(&ys2);
            let x = Matrix::from_rows(&xs2);
            let anchor = factorize(&cold_mlp, ln, lp, &x, &y_std, &config)
                .unwrap()
                .nll;
            assert!(
                warm.nll() <= anchor + 1e-9,
                "warm NLL {} regressed past the cold initial NLL {anchor}",
                warm.nll()
            );

            // The rng stream ends exactly where a cold fit's would.
            let mut cold_rng = StdRng::seed_from_u64(warm_seed);
            let _ = NeuralGp::fit(&xs2, &ys2, &config, &mut cold_rng).unwrap();
            assert_eq!(warm_rng.gen::<u64>(), cold_rng.gen::<u64>());
        }
    }

    #[test]
    fn append_observation_refreshes_the_nll_under_frozen_parameters() {
        let (xs, ys) = toy_data(20, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let model = NeuralGp::fit(&xs, &ys, &NeuralGpConfig::fast(), &mut rng).unwrap();
        let x_new = vec![0.41_f64, 0.59];
        let y_new = (5.0 * x_new[0]).sin() + x_new[1] * x_new[1] - 0.5 * x_new[0] * x_new[1];
        let updated = model.append_observation(&x_new, y_new).unwrap();
        assert!(updated.nll().is_finite());
        assert_ne!(updated.nll(), model.nll(), "NLL must be refreshed");
        // Reference: re-factorize the extended data set at the frozen
        // parameters and the frozen standardiser.
        let mut xs2 = xs.clone();
        xs2.push(x_new);
        let y2_std: Vec<f64> = ys
            .iter()
            .chain(std::iter::once(&y_new))
            .map(|&v| model.standardizer.transform(v))
            .collect();
        let x2 = Matrix::from_rows(&xs2);
        let reference = factorize(
            &model.mlp,
            model.log_noise,
            model.log_prior,
            &x2,
            &y2_std,
            &NeuralGpConfig::fast(),
        )
        .unwrap()
        .nll;
        assert!(
            (updated.nll() - reference).abs() < 1e-6 * (1.0 + reference.abs()),
            "incremental NLL {} vs refactorized {reference}",
            updated.nll()
        );
    }

    #[test]
    fn warm_refit_is_deterministic() {
        let (xs, ys) = toy_data(20, 14);
        let config = NeuralGpConfig::fast();
        let mut rng = StdRng::seed_from_u64(15);
        let prev = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap();
        let refit = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            let m = NeuralGp::fit_warm(&xs, &ys, &config, &mut r, Some(&prev)).unwrap();
            (m.nll(), m.predict(&[0.3, 0.7]).mean)
        };
        assert_eq!(refit(16), refit(16));
    }

    #[test]
    fn architecture_mismatch_falls_back_to_the_cold_path() {
        let (xs, ys) = toy_data(18, 6);
        let small = NeuralGpConfig {
            hidden_dims: vec![8],
            feature_dim: 4,
            epochs: 20,
            ..NeuralGpConfig::default()
        };
        let big = NeuralGpConfig {
            hidden_dims: vec![12],
            feature_dim: 6,
            epochs: 20,
            ..NeuralGpConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let prev = NeuralGp::fit(&xs, &ys, &small, &mut rng).unwrap();
        let warm =
            NeuralGp::fit_warm(&xs, &ys, &big, &mut StdRng::seed_from_u64(3), Some(&prev)).unwrap();
        let cold = NeuralGp::fit(&xs, &ys, &big, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(warm.nll(), cold.nll());
        let q = [0.3, 0.7];
        assert_eq!(warm.predict(&q).mean, cold.predict(&q).mean);
        assert_eq!(warm.predict(&q).variance, cold.predict(&q).variance);
    }

    #[test]
    fn noise_and_prior_clamps_come_from_config() {
        // The defaults reproduce the previously hard-coded training bounds.
        let defaults = NeuralGpConfig::default();
        assert_eq!(defaults.max_log_noise, (2.0_f64).ln());
        assert_eq!(defaults.prior_log_clamp, 3.0);
        // A degenerate clamp band pins the fitted noise to the configured value.
        let pinned = (0.05_f64).ln();
        let config = NeuralGpConfig {
            min_log_noise: pinned,
            max_log_noise: pinned,
            epochs: 30,
            ..NeuralGpConfig::fast()
        };
        let (xs, ys) = toy_data(16, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let model = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap();
        assert!(
            (model.noise_std() - 0.05).abs() < 1e-12,
            "noise {} escaped the configured clamp",
            model.noise_std()
        );
    }

    #[test]
    fn inverted_clamp_bands_are_rejected_not_panicking() {
        let (xs, ys) = toy_data(10, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let inverted = NeuralGpConfig {
            max_log_noise: -10.0, // below the default min_log_noise
            ..NeuralGpConfig::fast()
        };
        assert!(NeuralGp::fit(&xs, &ys, &inverted, &mut rng).is_err());
        let negative_prior = NeuralGpConfig {
            prior_log_clamp: -1.0,
            ..NeuralGpConfig::fast()
        };
        assert!(NeuralGp::fit(&xs, &ys, &negative_prior, &mut rng).is_err());
    }

    #[test]
    fn unreachable_likelihood_is_an_error_not_an_infinite_model() {
        // Unstandardised astronomically-scaled targets overflow yᵀy, so no
        // epoch (and no final factorization) ever yields a finite likelihood;
        // the fit must fail instead of storing final_nll = ∞, which would
        // poison every warm-start regression comparison downstream.
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 1e160 } else { -1e160 })
            .collect();
        let config = NeuralGpConfig {
            standardize_targets: false,
            ..NeuralGpConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let err = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap_err();
        assert!(err.contains("finite"), "unexpected error: {err}");
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (xs, ys) = toy_data(20, 8);
        let fit = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = NeuralGp::fit(&xs, &ys, &NeuralGpConfig::fast(), &mut rng).unwrap();
            m.predict(&[0.3, 0.7]).mean
        };
        assert_eq!(fit(11), fit(11));
        assert_ne!(fit(11), fit(12));
    }

    #[test]
    fn prediction_cost_does_not_grow_with_training_set() {
        // The feature dimension, not the training-set size, determines the size of
        // the factorization used at prediction time.
        let (xs_small, ys_small) = toy_data(15, 9);
        let (xs_large, ys_large) = toy_data(120, 10);
        let mut rng = StdRng::seed_from_u64(13);
        let config = NeuralGpConfig::fast();
        let small = NeuralGp::fit(&xs_small, &ys_small, &config, &mut rng).unwrap();
        let large = NeuralGp::fit(&xs_large, &ys_large, &config, &mut rng).unwrap();
        assert_eq!(small.feature_dim(), large.feature_dim());
        assert_eq!(large.train_size(), 120);
    }
}
