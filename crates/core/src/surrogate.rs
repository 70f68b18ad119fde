//! Surrogate-model abstraction shared by the neural GP and the classic-GP baselines.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::resilience::ModelResilience;

/// A Gaussian predictive distribution at one query point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive variance (never negative).
    pub variance: f64,
}

impl Prediction {
    /// Creates a prediction, clamping the variance at zero.
    pub fn new(mean: f64, variance: f64) -> Self {
        Prediction {
            mean,
            variance: variance.max(0.0),
        }
    }

    /// Predictive standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// A trained probabilistic surrogate: predicts a Gaussian distribution over the
/// modelled output at any normalised design point.
pub trait SurrogateModel: Send + Sync {
    /// Predicts the output distribution at `x` (normalised coordinates).
    fn predict(&self, x: &[f64]) -> Prediction;

    /// Predicts a batch of points (the default implementation simply loops).
    ///
    /// Implementations with a vectorisable hot path (the neural GP, the
    /// classical GP, their ensembles) override this to amortise the linear
    /// algebra over the whole batch; the acquisition maximiser scores its
    /// entire candidate pool through this entry point.  Overrides must return
    /// exactly what per-point [`SurrogateModel::predict`] calls would.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Batched prediction into a caller-owned vector, so a hot scoring loop
    /// reuses its output buffers across iterations.
    ///
    /// The default clears `out` and fills it from
    /// [`SurrogateModel::predict_batch`]; models with caller-independent
    /// scratch (the classical GP's `GpPredictScratch`-backed adapter in
    /// `nnbo-baselines`) override this to make the whole scoring path
    /// allocation-free.  Overrides must write exactly what
    /// [`SurrogateModel::predict_batch`] returns.
    fn predict_batch_into(&self, xs: &[Vec<f64>], out: &mut Vec<Prediction>) {
        let preds = self.predict_batch(xs);
        out.clear();
        out.extend(preds);
    }

    /// Negative log marginal likelihood of the model on its own training set,
    /// when the model tracks one (summed over the training points, in the
    /// model's internal standardised units).
    ///
    /// This is the drift signal adaptive refit policies read
    /// (`RefitPolicy::NllDrift` in the Bayesian-optimization loop): models
    /// whose incremental `append_observation` refreshes this value under the
    /// frozen hyper-parameters let the loop compare surrogate quality before
    /// and after absorbing observations without any extra factorization.  The
    /// default returns `None`, meaning "not tracked" — the loop then falls
    /// back to refitting on its minimum-gap cadence.
    fn training_nll(&self) -> Option<f64> {
        None
    }

    /// Recovery counters of this model's own construction — jittered
    /// factorizations, dropped ensemble members — so the optimization loop
    /// can aggregate them into its run-level `RecoveryLog` without knowing
    /// the surrogate family.  The default reports a clean construction.
    fn resilience(&self) -> ModelResilience {
        ModelResilience::default()
    }

    /// Per-dimension lengthscales of the model's kernel, when the family has
    /// them (the classical ARD GP exposes `exp(log ℓ_d)`; the neural GP's
    /// implicit kernel has none).
    ///
    /// This is the adaptive signal of the LinEasyBO subspace strategy
    /// (`SuggestStrategy::LineSubspace` with
    /// `DirectionRule::LengthscaleWeighted`): short lengthscales mark the
    /// dimensions the surrogate considers active, and the per-iteration
    /// search direction is tilted toward them.  The default returns `None`,
    /// meaning "not exposed" — the strategy then falls back to isotropic
    /// random directions.
    fn lengthscales(&self) -> Option<Vec<f64>> {
        None
    }
}

/// A recipe for training a [`SurrogateModel`] from scratch on a data set.
///
/// The Bayesian-optimization loop retrains one surrogate per modelled output
/// (objective plus every constraint) at every iteration, so trainers should be cheap
/// to clone and deterministic given the supplied random source.
pub trait SurrogateTrainer: Send + Sync {
    /// The model type this trainer produces.
    type Model: SurrogateModel;

    /// Checks the trainer's own configuration once, before a run starts.
    ///
    /// `BayesOpt::start` and `BayesOpt::resume` return an error here as
    /// `BoError::InvalidConfig`, so a configuration that no fit could ever
    /// succeed with (an ensemble without members, a zero-width network)
    /// fails up front instead of running to the end as random search.  The
    /// default accepts every configuration.
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending setting.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Trains a surrogate on `(xs, ys)`, where `xs` are normalised design points.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the model cannot be trained (degenerate
    /// data, factorization failure, ...).
    fn fit(&self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Result<Self::Model, String>;

    /// Trains one surrogate per target column over the *same* design points —
    /// the multi-output refit the Bayesian-optimization loop performs for the
    /// objective plus every constraint.
    ///
    /// `prev`, when given with one model per target, holds the surrogates of
    /// the previous refit so trainers can warm-start: the classical GP
    /// reuses each output's fitted hyper-parameters as the optimizer's
    /// starting point, and the neural-GP ensemble continues every member's
    /// feature network from its predecessor's weights instead of retraining
    /// from random initialisation.  The default implementation ignores `prev` and fits
    /// sequentially through [`SurrogateTrainer::fit`], consuming `rng`
    /// exactly as the equivalent sequence of single fits would; trainers with
    /// shareable fit structure (the classical GP's fit context, the
    /// ensemble's independent members) override this to share that work and
    /// band the per-output training over the shared worker pool.
    ///
    /// # Errors
    ///
    /// The first per-output error; either every output trains or the whole
    /// call fails.
    fn fit_many(
        &self,
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        prev: Option<&[&Self::Model]>,
        rng: &mut StdRng,
    ) -> Result<Vec<Self::Model>, String> {
        let _ = prev;
        targets.iter().map(|ys| self.fit(xs, ys, rng)).collect()
    }

    /// Attempts a cheap incremental refit of `prev` with one appended
    /// observation `(x, y)`.
    ///
    /// Trainers whose models support an `O(N²)` update (rank-1 / bordered
    /// Cholesky instead of a from-scratch refactorization) override this; the
    /// Bayesian-optimization loop calls it between full refits (see
    /// `RefitPolicy`).  The default returns `None`, meaning
    /// "unsupported — do a full fit".
    ///
    /// An implementation returning `Some(Err(..))` signals that the update was
    /// attempted but failed (e.g. the appended point made the kernel matrix
    /// numerically singular); callers should fall back to a full fit.
    fn update(
        &self,
        _prev: &Self::Model,
        _x: &[f64],
        _y: f64,
        _rng: &mut StdRng,
    ) -> Option<Result<Self::Model, String>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstantModel(f64);

    impl SurrogateModel for ConstantModel {
        fn predict(&self, _x: &[f64]) -> Prediction {
            Prediction::new(self.0, 1.0)
        }
    }

    #[test]
    fn prediction_clamps_negative_variance() {
        let p = Prediction::new(1.0, -0.5);
        assert_eq!(p.variance, 0.0);
        assert_eq!(p.std(), 0.0);
    }

    #[test]
    fn default_batch_prediction_loops() {
        let m = ConstantModel(2.5);
        let out = m.predict_batch(&[vec![0.0], vec![1.0]]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.mean == 2.5));
    }
}
