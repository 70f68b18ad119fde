//! WEIBO: constrained Bayesian optimization with a classical GP surrogate.

use std::sync::Mutex;

use nnbo_core::{BayesOpt, BoConfig, Prediction, SurrogateModel, SurrogateTrainer};
use nnbo_gp::{GpConfig, GpHyperParams, GpModel, GpPredictScratch, GpPrediction};
use rand::rngs::StdRng;
use serde::{DeError, Deserialize, Serialize, Value};

/// A classical-GP surrogate model (adapter around [`nnbo_gp::GpModel`]).
///
/// The adapter owns a lazily grown [`GpPredictScratch`] (behind a `Mutex`, so
/// the surrogate stays `Sync`): once the buffers have grown to the
/// acquisition pool size, every batched scoring round of a
/// Bayesian-optimization run predicts allocation-free through
/// [`GpModel::predict_batch_into`] — the packed-GEMM cross-kernel with its
/// fused `exp` pass, the in-place batched triangular solve, and the output
/// vectors all reuse the same memory.  A clone starts with fresh (empty)
/// scratch of its own.
#[derive(Debug)]
pub struct GpSurrogate {
    model: GpModel,
    scratch: Mutex<PredictBuffers>,
}

/// The per-surrogate prediction buffers: the GP scratch plus the raw
/// prediction vector mapped into `nnbo-core` predictions on the way out.
#[derive(Debug, Default)]
struct PredictBuffers {
    scratch: GpPredictScratch,
    preds: Vec<GpPrediction>,
}

impl Clone for GpSurrogate {
    fn clone(&self) -> Self {
        GpSurrogate::from_model(self.model.clone())
    }
}

impl GpSurrogate {
    fn from_model(model: GpModel) -> Self {
        GpSurrogate {
            model,
            scratch: Mutex::new(PredictBuffers::default()),
        }
    }

    /// The underlying GP model.
    pub fn model(&self) -> &GpModel {
        &self.model
    }
}

/// The surrogate serialises as its [`GpModel`] alone — the prediction scratch
/// is rebuilt empty on restore, so a round-tripped surrogate predicts
/// bit-identically while checkpoints stay free of buffer noise.  This is what
/// lets [`nnbo_core::BayesOpt::snapshot`] capture GP-backed runs (WEIBO,
/// LinEasyBO) with their fitted models inline.
impl Serialize for GpSurrogate {
    fn to_value(&self) -> Value {
        self.model.to_value()
    }
}

impl<'de> Deserialize<'de> for GpSurrogate {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        GpModel::from_value(value).map(GpSurrogate::from_model)
    }
}

impl SurrogateModel for GpSurrogate {
    fn predict(&self, x: &[f64]) -> Prediction {
        let p = self.model.predict(x);
        Prediction::new(p.mean, p.variance)
    }

    /// Batched prediction through [`nnbo_gp::GpModel::predict_batch`]: one
    /// packed-GEMM cross-kernel product with a fused `exp` pass and one
    /// batched triangular solve for the whole candidate set.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let mut out = Vec::with_capacity(xs.len());
        self.predict_batch_into(xs, &mut out);
        out
    }

    /// The allocation-free variant: scores the batch through the adapter's
    /// cached [`GpPredictScratch`] into the caller's output vector.
    fn predict_batch_into(&self, xs: &[Vec<f64>], out: &mut Vec<Prediction>) {
        let mut buffers = self
            .scratch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let PredictBuffers { scratch, preds } = &mut *buffers;
        self.model.predict_batch_into(xs, preds, scratch);
        out.clear();
        out.extend(preds.iter().map(|p| Prediction::new(p.mean, p.variance)));
    }

    /// The GP's negative log marginal likelihood on its training set
    /// ([`GpModel::nll`]) — refreshed by the incremental
    /// `append_observation`, so `RefitPolicy::NllDrift` can watch the
    /// incremental model's quality between full refits.
    fn training_nll(&self) -> Option<f64> {
        Some(self.model.nll())
    }

    /// The fitted ARD lengthscales `exp(log ℓ_d)` — the adaptive signal the
    /// LinEasyBO line strategy's `DirectionRule::LengthscaleWeighted` reads
    /// to tilt its search direction toward the active dimensions.
    fn lengthscales(&self) -> Option<Vec<f64>> {
        Some(self.model.hyper_params().lengthscales())
    }
}

/// Trainer producing classical-GP surrogates, used by the WEIBO, LinEasyBO
/// and GASPAD baselines.  It holds only its configuration, so every fit
/// depends on its inputs alone.
#[derive(Debug, Clone, Default)]
pub struct GpSurrogateTrainer {
    /// GP fitting configuration.
    pub config: GpConfig,
}

impl GpSurrogateTrainer {
    /// Creates a trainer with the given GP configuration.
    pub fn new(config: GpConfig) -> Self {
        GpSurrogateTrainer { config }
    }

    /// A cheaper trainer for tests and smoke experiments.
    pub fn fast() -> Self {
        Self::new(GpConfig::fast())
    }
}

impl SurrogateTrainer for GpSurrogateTrainer {
    type Model = GpSurrogate;

    fn fit(&self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Result<GpSurrogate, String> {
        GpModel::fit(xs, ys, &self.config, rng)
            .map(GpSurrogate::from_model)
            .map_err(|e| e.to_string())
    }

    /// Multi-output fitting through [`GpModel::fit_multi_warm`]: the
    /// objective and every constraint share one fit context (the common
    /// design points and their transpose, built once per call), train on
    /// the shared worker pool, and — when the previous refit's surrogates are
    /// supplied — warm-start each output's hyper-parameter optimization from
    /// its last optimum instead of rerunning the multi-restart schedule.
    fn fit_many(
        &self,
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        prev: Option<&[&GpSurrogate]>,
        rng: &mut StdRng,
    ) -> Result<Vec<GpSurrogate>, String> {
        let warm: Vec<Option<GpHyperParams>> = match prev {
            Some(models) if models.len() == targets.len() => models
                .iter()
                .map(|m| Some(m.model().hyper_params().clone()))
                .collect(),
            _ => vec![None; targets.len()],
        };
        GpModel::fit_multi_warm(xs, targets, &self.config, rng, &warm)
            .map(|models| models.into_iter().map(GpSurrogate::from_model).collect())
            .map_err(|e| e.to_string())
    }

    /// Incremental single-observation refit through the bordered Cholesky
    /// update ([`nnbo_gp::GpModel::append_observation`]), keeping the
    /// hyper-parameters frozen between full refits.
    fn update(
        &self,
        prev: &GpSurrogate,
        x: &[f64],
        y: f64,
        _rng: &mut StdRng,
    ) -> Option<Result<GpSurrogate, String>> {
        Some(
            prev.model
                .append_observation(x, y)
                .map(GpSurrogate::from_model)
                .map_err(|e| e.to_string()),
        )
    }
}

/// Builds the WEIBO baseline: the constrained BO loop of `nnbo-core` with a
/// classical GP surrogate and the wEI acquisition — the state-of-the-art algorithm
/// the paper compares against.
///
/// # Example
///
/// ```
/// use nnbo_baselines::weibo;
/// use nnbo_core::{problems::ConstrainedBranin, BoConfig};
///
/// # fn main() -> Result<(), nnbo_core::BoError> {
/// let result = weibo(BoConfig::fast(8, 12).with_seed(1)).run(&ConstrainedBranin::new())?;
/// assert_eq!(result.num_evaluations(), 12);
/// # Ok(())
/// # }
/// ```
pub fn weibo(config: BoConfig) -> BayesOpt<GpSurrogateTrainer> {
    BayesOpt::with_trainer(config, GpSurrogateTrainer::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnbo_core::problems::{ConstrainedBranin, Problem};
    use rand::SeedableRng;

    #[test]
    fn gp_surrogate_trains_and_predicts() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin()).collect();
        let trainer = GpSurrogateTrainer::fast();
        let mut rng = StdRng::seed_from_u64(0);
        let model = trainer.fit(&xs, &ys, &mut rng).unwrap();
        let p = model.predict(&[0.5]);
        assert!((p.mean - (1.5_f64).sin()).abs() < 0.2);
        assert!(p.variance >= 0.0);
    }

    #[test]
    fn weibo_improves_on_constrained_branin() {
        let problem = ConstrainedBranin::new();
        let bo = BayesOpt::with_trainer(
            BoConfig::fast(10, 26).with_seed(3),
            GpSurrogateTrainer::fast(),
        );
        let result = bo.run(&problem).unwrap();
        let best = result.best_objective().expect("found a feasible point");
        assert!(best < 5.0, "WEIBO best {best}");
        // The proposal phase actually helped compared to the initial design alone.
        let initial_best = result.evaluations()[..10]
            .iter()
            .filter(|(_, e)| e.is_feasible())
            .map(|(_, e)| e.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best <= initial_best);
    }

    #[test]
    fn degenerate_training_data_reports_an_error() {
        let trainer = GpSurrogateTrainer::fast();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(trainer.fit(&[], &[], &mut rng).is_err());
    }

    #[test]
    fn gp_surrogate_batch_prediction_matches_per_point() {
        let xs: Vec<Vec<f64>> = (0..18).map(|i| vec![i as f64 / 17.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).cos()).collect();
        let trainer = GpSurrogateTrainer::fast();
        let mut rng = StdRng::seed_from_u64(8);
        let model = trainer.fit(&xs, &ys, &mut rng).unwrap();
        let queries: Vec<Vec<f64>> = (0..25).map(|i| vec![(i as f64 * 0.41) % 1.0]).collect();
        let batch = model.predict_batch(&queries);
        for (q, b) in queries.iter().zip(batch.iter()) {
            let single = model.predict(q);
            assert_eq!(single.mean, b.mean);
            assert_eq!(single.variance, b.variance);
        }
    }

    #[test]
    fn fit_many_trains_every_output_and_warm_starts_from_previous_models() {
        let xs: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 15.0]).collect();
        let targets = vec![
            xs.iter().map(|x| (3.0 * x[0]).sin()).collect::<Vec<f64>>(),
            xs.iter().map(|x| x[0] * x[0]).collect::<Vec<f64>>(),
        ];
        let trainer = GpSurrogateTrainer::fast();
        let mut rng = StdRng::seed_from_u64(11);
        let cold = trainer.fit_many(&xs, &targets, None, &mut rng).unwrap();
        assert_eq!(cold.len(), 2);

        // Warm refit over one more observation: models stay accurate.
        let mut xs2 = xs.clone();
        xs2.push(vec![0.42]);
        let targets2 = vec![
            xs2.iter().map(|x| (3.0 * x[0]).sin()).collect::<Vec<f64>>(),
            xs2.iter().map(|x| x[0] * x[0]).collect::<Vec<f64>>(),
        ];
        let prev: Vec<&GpSurrogate> = cold.iter().collect();
        let warm = trainer
            .fit_many(&xs2, &targets2, Some(&prev), &mut rng)
            .unwrap();
        assert_eq!(warm.len(), 2);
        let p = warm[0].predict(&[0.5]);
        assert!((p.mean - (1.5_f64).sin()).abs() < 0.2, "mean {}", p.mean);
        let p1 = warm[1].predict(&[0.5]);
        assert!((p1.mean - 0.25).abs() < 0.1, "mean {}", p1.mean);
    }

    #[test]
    fn cached_fit_context_is_bit_identical_to_fresh_fits() {
        // One trainer reused across a growing history (its context cache
        // appends rows) must produce exactly the models a fresh trainer
        // (fresh context every call) produces.
        let grow = |n: usize| -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64 / 24.0, ((i * i) % 7) as f64 / 7.0])
                .collect();
            let targets = vec![
                xs.iter().map(|x| (3.0 * x[0]).sin() + x[1]).collect(),
                xs.iter().map(|x| x[0] * x[0] - x[1]).collect(),
            ];
            (xs, targets)
        };
        let cached = GpSurrogateTrainer::fast();
        for n in [12, 13, 14] {
            let (xs, targets) = grow(n);
            let mut rng_cached = StdRng::seed_from_u64(n as u64);
            let with_cache = cached
                .fit_many(&xs, &targets, None, &mut rng_cached)
                .unwrap();
            let fresh = GpSurrogateTrainer::fast();
            let mut rng_fresh = StdRng::seed_from_u64(n as u64);
            let without_cache = fresh.fit_many(&xs, &targets, None, &mut rng_fresh).unwrap();
            for (a, b) in with_cache.iter().zip(without_cache.iter()) {
                assert_eq!(a.model().hyper_params(), b.model().hyper_params());
                assert_eq!(a.model().nll(), b.model().nll());
                let q = [0.37, 0.81];
                assert_eq!(a.predict(&q).mean, b.predict(&q).mean);
                assert_eq!(a.predict(&q).variance, b.predict(&q).variance);
            }
        }
    }

    #[test]
    fn weibo_supports_incremental_refits() {
        use nnbo_core::RefitPolicy;
        let problem = ConstrainedBranin::new();
        let bo = BayesOpt::with_trainer(
            BoConfig::fast(8, 18)
                .with_seed(7)
                .with_refit_policy(RefitPolicy::Fixed(5)),
            GpSurrogateTrainer::fast(),
        );
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 18);
        assert!(result.best_objective().is_some());
        assert!(result.full_refits() < 10);
    }

    #[test]
    fn weibo_drift_policy_saves_refits_and_zero_threshold_matches_always_refit() {
        use nnbo_core::RefitPolicy;
        let problem = ConstrainedBranin::new();
        let always = BayesOpt::with_trainer(
            BoConfig::fast(8, 20).with_seed(13),
            GpSurrogateTrainer::fast(),
        )
        .run(&problem)
        .unwrap();
        // threshold = 0 reproduces always-refit bit for bit (the GP's
        // incremental update freezes the warm-start hyper-parameters).
        let zero = BayesOpt::with_trainer(
            BoConfig::fast(8, 20)
                .with_seed(13)
                .with_refit_policy(RefitPolicy::NllDrift {
                    threshold: 0.0,
                    min_gap: 1,
                    max_gap: 1000,
                }),
            GpSurrogateTrainer::fast(),
        )
        .run(&problem)
        .unwrap();
        assert_eq!(always.evaluations(), zero.evaluations());
        assert_eq!(always.full_refits(), zero.full_refits());
        // A real threshold performs measurably fewer full fits on the same
        // budget and still optimizes.
        let drift = BayesOpt::with_trainer(
            BoConfig::fast(8, 20)
                .with_seed(13)
                .with_refit_policy(RefitPolicy::nll_drift(0.2)),
            GpSurrogateTrainer::fast(),
        )
        .run(&problem)
        .unwrap();
        assert_eq!(drift.num_evaluations(), always.num_evaluations());
        assert!(
            drift.full_refits() < always.full_refits(),
            "drift {} vs always {}",
            drift.full_refits(),
            always.full_refits()
        );
        assert!(drift.best_objective().is_some());
    }

    #[test]
    fn weibo_uses_the_requested_budget() {
        let problem = ConstrainedBranin::new();
        assert_eq!(problem.num_constraints(), 1);
        let result = weibo(BoConfig::fast(6, 9).with_seed(5))
            .run(&problem)
            .unwrap();
        assert_eq!(result.num_evaluations(), 9);
    }
}
