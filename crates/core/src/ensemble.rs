//! Model averaging over independently initialised neural GPs (eq. 13).

use nnbo_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::neural_gp::{NeuralGp, NeuralGpConfig};
use crate::surrogate::{Prediction, SurrogateModel, SurrogateTrainer};

/// Configuration of a [`NeuralGpEnsemble`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Number of ensemble members `K` (5 in the paper).
    pub members: usize,
    /// Configuration of each member.
    pub member_config: NeuralGpConfig,
    /// Train the members in bands on the shared worker pool (the paper notes
    /// the ensemble can be constructed in parallel); `false` trains them in
    /// one band on the calling thread.  The trained members are the same
    /// either way.
    pub parallel: bool,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            members: 5,
            member_config: NeuralGpConfig::default(),
            parallel: true,
        }
    }
}

impl EnsembleConfig {
    /// A cheaper configuration (3 members, fast member settings) for tests.
    pub fn fast() -> Self {
        EnsembleConfig {
            members: 3,
            member_config: NeuralGpConfig::fast(),
            parallel: false,
        }
    }
}

/// An ensemble of `K` independently initialised [`NeuralGp`] models whose
/// predictions are combined by moment matching (eq. 13 of the paper):
///
/// ```text
/// µ(x)  = (1/K) Σ µ_k(x)
/// σ²(x) = (1/K) Σ (µ_k²(x) + σ_k²(x)) − µ²(x)
/// ```
///
/// The ensemble both averages out the random fluctuations of individual trainings
/// and widens the predicted uncertainty where the members disagree, which is what
/// the acquisition function needs for reliable exploration.
///
/// # Graceful degradation
///
/// A fit keeps every member that trained and drops the rest, as long as at
/// least a *quorum* — `max(1, K/2)` of the `K` configured members — survived;
/// below quorum the whole fit fails (the first member's error is reported)
/// and the optimization loop falls back to its previous surrogates.  The
/// planned member count is kept so [`NeuralGpEnsemble::dropped_members`]
/// reports how many members this ensemble is short, which the loop folds into
/// its run-level recovery log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuralGpEnsemble {
    members: Vec<NeuralGp>,
    /// Members the configuration asked for (`members.len()` ≤ this; the
    /// difference is the drop count).
    planned_members: usize,
}

impl NeuralGpEnsemble {
    /// Trains `config.members` neural GPs with different random initialisations.
    ///
    /// # Errors
    ///
    /// Returns the first member's error message if every member fails to train; as
    /// long as at least one member trains the ensemble is usable.  With
    /// `config.members == 0` nothing trains, and the error is
    /// `"no ensemble member trained"`.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &EnsembleConfig,
        rng: &mut StdRng,
    ) -> Result<Self, String> {
        Self::fit_warm(xs, ys, config, rng, None)
    }

    /// Trains the ensemble, warm-starting member `k` from `prev`'s member `k`
    /// where available ([`NeuralGp::fit_warm`]): each member continues Adam
    /// from its predecessor's network weights and hyper-parameters for the
    /// reduced [`crate::NeuralGpConfig::warm_epochs`] budget, with the
    /// per-member cold-fallback guarantee that its final NLL never exceeds the
    /// cold initial point's.  Members without a predecessor (a previously
    /// failed member, a grown ensemble, an architecture change) train cold.
    ///
    /// With `prev = None` this is exactly [`NeuralGpEnsemble::fit`], drawing
    /// the same member seeds from `rng`.
    ///
    /// # Errors
    ///
    /// Same contract as [`NeuralGpEnsemble::fit`].
    pub fn fit_warm(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &EnsembleConfig,
        rng: &mut StdRng,
        prev: Option<&NeuralGpEnsemble>,
    ) -> Result<Self, String> {
        let seeds: Vec<u64> = (0..config.members).map(|_| rng.gen()).collect();
        Self::fit_with_seeds(xs, ys, config, &seeds, prev)
    }

    /// Trains one member per seed (each member's rng derives solely from its
    /// seed, so the result is deterministic and independent of scheduling),
    /// warm-starting member `k` from `prev`'s member `k` when given.
    /// This is the core [`NeuralGpEnsemble::fit_warm`] delegates to, and what
    /// [`NeuralGpEnsembleTrainer::fit_many`] uses to train several outputs'
    /// ensembles concurrently from pre-drawn seeds.
    pub(crate) fn fit_with_seeds(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &EnsembleConfig,
        seeds: &[u64],
        prev: Option<&NeuralGpEnsemble>,
    ) -> Result<Self, String> {
        let jobs: Vec<MemberJob<'_>> = seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| MemberJob {
                ys,
                seed,
                prev: prev.and_then(|e| e.members().get(k)),
            })
            .collect();
        let results = train_members(xs, &jobs, config);
        Self::from_member_results(results)
    }

    /// Assembles an ensemble from per-member training results, applying the
    /// minimum-quorum rule: the ensemble is usable as long as at least
    /// `max(1, planned/2)` members trained (failed members are dropped and
    /// counted), otherwise the first member's error is reported.
    fn from_member_results(results: Vec<Result<NeuralGp, String>>) -> Result<Self, String> {
        let planned = results.len();
        let quorum = (planned / 2).max(1);
        let mut members = Vec::with_capacity(planned);
        let mut first_error = None;
        for r in results {
            match r {
                Ok(m) => members.push(m),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if members.len() < quorum {
            let reason = first_error.unwrap_or_else(|| "no ensemble member trained".into());
            return Err(if members.is_empty() {
                reason
            } else {
                format!(
                    "only {} of {planned} ensemble members trained (quorum {quorum}): {reason}",
                    members.len()
                )
            });
        }
        Ok(NeuralGpEnsemble {
            members,
            planned_members: planned,
        })
    }

    /// Number of successfully trained members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the ensemble has no members (never the case after a successful
    /// [`Self::fit`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The individual members.
    pub fn members(&self) -> &[NeuralGp] {
        &self.members
    }

    /// Members the fit planned but dropped because their training failed
    /// (zero for a fully healthy ensemble).
    pub fn dropped_members(&self) -> usize {
        self.planned_members.saturating_sub(self.members.len())
    }

    /// Incorporates one new observation into every member in `O(K·M²)` via
    /// the members' rank-1 updates ([`NeuralGp::append_observation`]), without
    /// retraining any feature network.
    ///
    /// # Errors
    ///
    /// Returns the first member's error message if any member rejects the
    /// observation (the ensemble is only replaced as a whole).
    pub fn append_observation(&self, x: &[f64], y: f64) -> Result<NeuralGpEnsemble, String> {
        let members = self
            .members
            .iter()
            .map(|m| m.append_observation(x, y))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NeuralGpEnsemble {
            members,
            planned_members: self.planned_members,
        })
    }
}

/// One member training of a flat outputs × members fan-out: the target
/// column, the seed its rng derives from, and (for warm-started refits) the
/// previous refit's corresponding member.
struct MemberJob<'a> {
    ys: &'a [f64],
    seed: u64,
    prev: Option<&'a NeuralGp>,
}

/// Trains one [`NeuralGp`] per job over the shared design points, in job
/// order, warm-starting from each job's previous member when present.
///
/// With `config.parallel` the flat job list is split into
/// [`nnbo_pool::WorkerPool::fan_out`] contiguous bands on the shared worker
/// pool, one layer of parallelism however many outputs × members the jobs
/// span; without it every member trains in one band on the calling thread.
/// Every member's rng derives solely from its job seed, so the results do
/// not depend on the band count.
fn train_members(
    xs: &[Vec<f64>],
    jobs: &[MemberJob<'_>],
    config: &EnsembleConfig,
) -> Vec<Result<NeuralGp, String>> {
    let bands = if config.parallel {
        nnbo_pool::WorkerPool::global().fan_out()
    } else {
        1
    };
    train_members_with_workers(xs, jobs, config, bands)
}

/// [`train_members`] with an explicit band count, so tests can force the
/// banded path on any machine.
///
/// A panicking member fails alone, on every band count: its payload becomes
/// that member's training error, naming the actual assertion so a failure
/// is actionable, and the quorum rule decides whether the ensemble survives.
fn train_members_with_workers(
    xs: &[Vec<f64>],
    jobs: &[MemberJob<'_>],
    config: &EnsembleConfig,
    bands: usize,
) -> Vec<Result<NeuralGp, String>> {
    nnbo_pool::WorkerPool::global().map_bands(jobs, bands, |job| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut member_rng = StdRng::seed_from_u64(job.seed);
            NeuralGp::fit_warm(xs, job.ys, &config.member_config, &mut member_rng, job.prev)
        }))
        .unwrap_or_else(|payload| {
            let reason = nnbo_pool::panic_message(payload.as_ref());
            Err(format!("member thread panicked: {reason}"))
        })
    })
}

/// Batch size from which scoring the members in one pool task each pays
/// for the batch overhead.
const PARALLEL_PREDICT_MIN_BATCH: usize = 256;

impl SurrogateModel for NeuralGpEnsemble {
    /// Mean of the members' maintained likelihoods ([`NeuralGp::nll`]) — the
    /// drift signal adaptive refit policies read.  Every member refreshes its
    /// likelihood on `append_observation`, so the mean tracks the whole
    /// ensemble's quality between full refits.
    fn training_nll(&self) -> Option<f64> {
        if self.members.is_empty() {
            return None;
        }
        Some(self.members.iter().map(NeuralGp::nll).sum::<f64>() / self.members.len() as f64)
    }

    /// Sums the members' recovery counters and adds the members this fit
    /// dropped.
    fn resilience(&self) -> crate::resilience::ModelResilience {
        let mut total = self
            .members
            .iter()
            .map(|m| m.resilience())
            .fold(crate::resilience::ModelResilience::default(), |a, b| {
                a.merged(b)
            });
        total.dropped_members += self.dropped_members();
        total
    }

    fn predict(&self, x: &[f64]) -> Prediction {
        self.predict_batch(std::slice::from_ref(&x.to_vec()))
            .pop()
            .expect("one query row yields one prediction")
    }

    /// Batched moment matching (eq. 13): the query matrix is built once,
    /// every member scores it through its own vectorised path, and large
    /// batches run one member per pool task.  Combination runs in member
    /// order regardless of thread scheduling, so the result is deterministic
    /// and identical to the per-point path.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        if xs.is_empty() {
            return Vec::new();
        }
        let bands = if xs.len() >= PARALLEL_PREDICT_MIN_BATCH {
            self.members.len()
        } else {
            1
        };
        let queries = Matrix::from_rows(xs);
        let member_preds = nnbo_pool::WorkerPool::global()
            .map_bands(&self.members, bands, |m| m.predict_rows(&queries));

        let k = self.members.len() as f64;
        let mut out = Vec::with_capacity(xs.len());
        for i in 0..xs.len() {
            let mut mean = 0.0;
            let mut second_moment = 0.0;
            for preds in &member_preds {
                let p = preds[i];
                mean += p.mean;
                second_moment += p.mean * p.mean + p.variance;
            }
            mean /= k;
            second_moment /= k;
            out.push(Prediction::new(mean, second_moment - mean * mean));
        }
        out
    }
}

/// Trainer producing [`NeuralGpEnsemble`] models (implements [`SurrogateTrainer`]).
///
/// This is the surrogate used by the paper's algorithm ("Ours" in Tables I and II).
#[derive(Debug, Clone, Default)]
pub struct NeuralGpEnsembleTrainer {
    /// Configuration used for every fit.
    pub config: EnsembleConfig,
}

impl NeuralGpEnsembleTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: EnsembleConfig) -> Self {
        NeuralGpEnsembleTrainer { config }
    }
}

impl SurrogateTrainer for NeuralGpEnsembleTrainer {
    type Model = NeuralGpEnsemble;

    /// Rejects an ensemble without members and a member configuration no
    /// member could train with ([`NeuralGpConfig`]'s feature and hidden
    /// widths and clamp bands).
    fn validate(&self) -> Result<(), String> {
        if self.config.members == 0 {
            return Err("ensemble members must be at least 1".to_string());
        }
        self.config.member_config.validate()
    }

    fn fit(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        rng: &mut StdRng,
    ) -> Result<NeuralGpEnsemble, String> {
        NeuralGpEnsemble::fit(xs, ys, &self.config, rng)
    }

    /// Multi-output training with one flat fan-out: the member seeds of
    /// every output are drawn from `rng` up front (in the same order as
    /// sequential [`NeuralGpEnsemble::fit`] calls, so the rng stream and —
    /// without previous models — every trained member are bit-identical to
    /// the sequential path), then all `outputs × members` trainings run as
    /// one flat job list banded over the worker pool (`train_members`) —
    /// the constraint surrogates do not wait for the objective's ensemble
    /// to finish, and the thread count never exceeds the hardware.
    ///
    /// When `prev` carries the previous refit's ensembles (one per target, as
    /// `BayesOpt::refresh_models` passes them), output `t`'s member `k`
    /// warm-starts from `prev[t]`'s member `k` ([`NeuralGp::fit_warm`]):
    /// the feature networks continue Adam from their previous weights for
    /// the reduced warm budget instead of retraining from random
    /// initialisation, with a per-member cold fallback when the warm descent
    /// regresses.
    fn fit_many(
        &self,
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        prev: Option<&[&NeuralGpEnsemble]>,
        rng: &mut StdRng,
    ) -> Result<Vec<NeuralGpEnsemble>, String> {
        let members = self.config.members;
        let jobs: Vec<MemberJob<'_>> = targets
            .iter()
            .enumerate()
            .flat_map(|(t, ys)| {
                (0..members)
                    .map(|k| MemberJob {
                        ys: ys.as_slice(),
                        seed: rng.gen(),
                        prev: prev
                            .and_then(|ensembles| ensembles.get(t))
                            .and_then(|e| e.members().get(k)),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut results = train_members(xs, &jobs, &self.config).into_iter();
        targets
            .iter()
            .map(|_| {
                NeuralGpEnsemble::from_member_results(results.by_ref().take(members).collect())
            })
            .collect()
    }

    fn update(
        &self,
        prev: &NeuralGpEnsemble,
        x: &[f64],
        y: f64,
        _rng: &mut StdRng,
    ) -> Option<Result<NeuralGpEnsemble, String>> {
        Some(prev.append_observation(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin() + x[0]).collect();
        (xs, ys)
    }

    #[test]
    fn ensemble_mean_is_average_of_member_means() {
        let (xs, ys) = toy_data(20);
        let mut rng = StdRng::seed_from_u64(1);
        let ens = NeuralGpEnsemble::fit(&xs, &ys, &EnsembleConfig::fast(), &mut rng).unwrap();
        assert_eq!(ens.len(), 3);
        let x = [0.37];
        let expected: f64 = ens
            .members()
            .iter()
            .map(|m| m.predict(&x).mean)
            .sum::<f64>()
            / ens.len() as f64;
        let p = ens.predict(&x);
        assert!((p.mean - expected).abs() < 1e-12);
    }

    #[test]
    fn ensemble_variance_includes_member_disagreement() {
        let (xs, ys) = toy_data(20);
        let mut rng = StdRng::seed_from_u64(2);
        let ens = NeuralGpEnsemble::fit(&xs, &ys, &EnsembleConfig::fast(), &mut rng).unwrap();
        // Far outside the data, the members disagree, so the combined variance must
        // be at least as large as the average member variance.
        let x = [3.0];
        let avg_member_var: f64 = ens
            .members()
            .iter()
            .map(|m| m.predict(&x).variance)
            .sum::<f64>()
            / ens.len() as f64;
        let p = ens.predict(&x);
        assert!(p.variance >= avg_member_var - 1e-12);
    }

    #[test]
    fn parallel_and_sequential_training_agree() {
        let (xs, ys) = toy_data(16);
        let config_seq = EnsembleConfig {
            parallel: false,
            ..EnsembleConfig::fast()
        };
        let config_par = EnsembleConfig {
            parallel: true,
            ..EnsembleConfig::fast()
        };
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let a = NeuralGpEnsemble::fit(&xs, &ys, &config_seq, &mut rng1).unwrap();
        let b = NeuralGpEnsemble::fit(&xs, &ys, &config_par, &mut rng2).unwrap();
        let x = [0.61];
        assert!((a.predict(&x).mean - b.predict(&x).mean).abs() < 1e-12);
        assert!((a.predict(&x).variance - b.predict(&x).variance).abs() < 1e-12);
    }

    #[test]
    fn fit_many_is_bit_identical_to_sequential_fits() {
        use crate::surrogate::SurrogateTrainer;
        let (xs, ys_a) = toy_data(16);
        let ys_b: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let targets = vec![ys_a, ys_b];
        for parallel in [false, true] {
            let trainer = NeuralGpEnsembleTrainer::new(EnsembleConfig {
                parallel,
                ..EnsembleConfig::fast()
            });
            let mut rng_many = StdRng::seed_from_u64(9);
            let many = trainer
                .fit_many(&xs, &targets, None, &mut rng_many)
                .unwrap();
            let mut rng_seq = StdRng::seed_from_u64(9);
            let sequential: Vec<_> = targets
                .iter()
                .map(|ys| trainer.fit(&xs, ys, &mut rng_seq).unwrap())
                .collect();
            // Same models *and* the same rng stream afterwards.
            assert_eq!(rng_many.gen::<u64>(), rng_seq.gen::<u64>());
            let q = [0.47];
            for (a, b) in many.iter().zip(sequential.iter()) {
                assert_eq!(a.len(), b.len());
                assert_eq!(a.predict(&q).mean, b.predict(&q).mean);
                assert_eq!(a.predict(&q).variance, b.predict(&q).variance);
            }
        }
    }

    #[test]
    fn warm_members_never_regress_past_their_cold_anchors() {
        use crate::neural_gp::loss_and_grad;
        use nnbo_linalg::Matrix;
        use nnbo_nn::{Activation, Mlp, MlpConfig};

        let (xs, ys) = toy_data(18);
        let config = EnsembleConfig {
            parallel: false,
            ..EnsembleConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(31);
        let prev = NeuralGpEnsemble::fit(&xs, &ys, &config, &mut rng).unwrap();

        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        xs2.push(vec![0.123]);
        ys2.push((4.0 * 0.123_f64).sin() + 0.123);
        let master_seed = 77u64;
        let mut warm_rng = StdRng::seed_from_u64(master_seed);
        let warm =
            NeuralGpEnsemble::fit_warm(&xs2, &ys2, &config, &mut warm_rng, Some(&prev)).unwrap();
        assert_eq!(warm.len(), config.members);

        // Replay each member's seed and cold initial draw, and evaluate (not
        // train) the likelihood at that initial point: the per-member
        // regression fallback guarantees no warm member ends above it.
        let mut seed_rng = StdRng::seed_from_u64(master_seed);
        let seeds: Vec<u64> = (0..config.members).map(|_| seed_rng.gen()).collect();
        let (y_std, _) = nnbo_linalg::standardize(&ys2);
        let x = Matrix::from_rows(&xs2);
        let mc = &config.member_config;
        let mlp_config = MlpConfig::new(1, &mc.hidden_dims, mc.feature_dim)
            .with_hidden_activation(Activation::ReLU);
        for (member, &seed) in warm.members().iter().zip(seeds.iter()) {
            let mut member_rng = StdRng::seed_from_u64(seed);
            let cold_mlp = Mlp::new(&mlp_config, &mut member_rng);
            let ln = mc.init_log_noise + member_rng.gen_range(-0.1..0.1);
            let lp = mc.init_log_prior + member_rng.gen_range(-0.1..0.1);
            let (anchor, _) = loss_and_grad(&cold_mlp, ln, lp, &x, &y_std, mc).unwrap();
            assert!(
                member.nll() <= anchor + 1e-9,
                "member NLL {} regressed past its cold anchor {anchor}",
                member.nll()
            );
        }
    }

    #[test]
    fn fit_many_warm_matches_sequential_fit_warm_calls() {
        use crate::surrogate::SurrogateTrainer;
        let (xs, ys_a) = toy_data(16);
        let ys_b: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let targets = vec![ys_a, ys_b];
        for parallel in [false, true] {
            let config = EnsembleConfig {
                parallel,
                ..EnsembleConfig::fast()
            };
            let trainer = NeuralGpEnsembleTrainer::new(config.clone());
            let mut prev_rng = StdRng::seed_from_u64(3);
            let prev: Vec<NeuralGpEnsemble> = targets
                .iter()
                .map(|ys| NeuralGpEnsemble::fit(&xs, ys, &config, &mut prev_rng).unwrap())
                .collect();
            let prev_refs: Vec<&NeuralGpEnsemble> = prev.iter().collect();

            let mut rng_many = StdRng::seed_from_u64(4);
            let many = trainer
                .fit_many(&xs, &targets, Some(&prev_refs), &mut rng_many)
                .unwrap();
            let mut rng_seq = StdRng::seed_from_u64(4);
            let sequential: Vec<_> = targets
                .iter()
                .zip(prev.iter())
                .map(|(ys, p)| {
                    NeuralGpEnsemble::fit_warm(&xs, ys, &config, &mut rng_seq, Some(p)).unwrap()
                })
                .collect();
            // Same models *and* the same rng stream afterwards.
            assert_eq!(rng_many.gen::<u64>(), rng_seq.gen::<u64>());
            let q = [0.47];
            for (a, b) in many.iter().zip(sequential.iter()) {
                assert_eq!(a.len(), b.len());
                assert_eq!(a.predict(&q).mean, b.predict(&q).mean);
                assert_eq!(a.predict(&q).variance, b.predict(&q).variance);
            }
        }
    }

    #[test]
    fn member_thread_panics_propagate_their_message() {
        // feature_dim = 0 makes MlpConfig::new panic inside the member
        // threads; the banded fan-out must surface that assertion text, not a
        // generic placeholder.  The worker count is forced so the threaded
        // path runs even on a single-core machine.
        let (xs, ys) = toy_data(10);
        let config = EnsembleConfig {
            members: 2,
            member_config: NeuralGpConfig {
                feature_dim: 0,
                ..NeuralGpConfig::fast()
            },
            parallel: true,
        };
        let jobs: Vec<MemberJob<'_>> = [1u64, 2]
            .iter()
            .map(|&seed| MemberJob {
                ys: &ys,
                seed,
                prev: None,
            })
            .collect();
        let results = train_members_with_workers(&xs, &jobs, &config, 2);
        assert_eq!(results.len(), 2);
        for r in results {
            let err = r.unwrap_err();
            assert!(err.contains("member thread panicked"), "{err}");
            assert!(err.contains("output dimension must be positive"), "{err}");
        }
    }

    #[test]
    fn member_panics_become_one_error_per_member_on_every_band_count() {
        // The catch is per member, so a panic never unwinds out of training
        // and never stands in for a band's other members: each of the four
        // members reports its own error, however the jobs are banded, and
        // also with `parallel: false`, which trains in one band inline.
        let (xs, ys) = toy_data(10);
        let jobs: Vec<MemberJob<'_>> = (1u64..=4)
            .map(|seed| MemberJob {
                ys: &ys,
                seed,
                prev: None,
            })
            .collect();
        for parallel in [false, true] {
            let config = EnsembleConfig {
                members: 4,
                member_config: NeuralGpConfig {
                    feature_dim: 0,
                    ..NeuralGpConfig::fast()
                },
                parallel,
            };
            let planned = train_members(&xs, &jobs, &config);
            for bands in [1, 2, 3, 4] {
                let forced = train_members_with_workers(&xs, &jobs, &config, bands);
                for results in [&planned, &forced] {
                    assert_eq!(results.len(), 4, "parallel={parallel} bands={bands}");
                    for r in results {
                        let err = r.as_ref().unwrap_err();
                        assert!(err.contains("output dimension must be positive"), "{err}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_ensemble_without_members_is_an_error_not_a_panic() {
        use crate::surrogate::SurrogateTrainer;
        let (xs, ys) = toy_data(10);
        let config = EnsembleConfig {
            members: 0,
            ..EnsembleConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let err = NeuralGpEnsemble::fit(&xs, &ys, &config, &mut rng).unwrap_err();
        assert_eq!(err, "no ensemble member trained");
        let many =
            NeuralGpEnsembleTrainer::new(config).fit_many(&xs, &[ys.clone(), ys], None, &mut rng);
        assert_eq!(many.unwrap_err(), "no ensemble member trained");
    }

    #[test]
    fn quorum_drops_failed_members_but_rejects_a_decimated_ensemble() {
        let (xs, ys) = toy_data(14);
        let mut rng = StdRng::seed_from_u64(21);
        let config = EnsembleConfig {
            members: 1,
            parallel: false,
            ..EnsembleConfig::fast()
        };
        let healthy = NeuralGpEnsemble::fit(&xs, &ys, &config, &mut rng).unwrap();
        let member = healthy.members()[0].clone();

        // 4 planned, 2 trained: exactly at quorum (max(1, 4/2) = 2) — usable,
        // with the two failures reported as drops.
        let at_quorum = NeuralGpEnsemble::from_member_results(vec![
            Ok(member.clone()),
            Err("boom".into()),
            Ok(member.clone()),
            Err("boom".into()),
        ])
        .unwrap();
        assert_eq!(at_quorum.len(), 2);
        assert_eq!(at_quorum.dropped_members(), 2);
        assert_eq!(at_quorum.resilience().dropped_members, 2);

        // 4 planned, 1 trained: below quorum — the whole fit fails.
        let below = NeuralGpEnsemble::from_member_results(vec![
            Err("first failure".into()),
            Ok(member.clone()),
            Err("boom".into()),
            Err("boom".into()),
        ]);
        let err = below.unwrap_err();
        assert!(err.contains("quorum"), "{err}");
        assert!(err.contains("first failure"), "{err}");

        // All failed: the first error comes back verbatim.
        let none = NeuralGpEnsemble::from_member_results(vec![Err("a".into()), Err("b".into())]);
        assert_eq!(none.unwrap_err(), "a");

        // Drops survive incremental updates.
        let appended = at_quorum.append_observation(&[0.77], 1.1).unwrap();
        assert_eq!(appended.dropped_members(), 2);
    }

    #[test]
    fn single_member_ensemble_matches_plain_neural_gp_variance_form() {
        let (xs, ys) = toy_data(14);
        let config = EnsembleConfig {
            members: 1,
            parallel: false,
            ..EnsembleConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let ens = NeuralGpEnsemble::fit(&xs, &ys, &config, &mut rng).unwrap();
        let x = [0.4];
        let member = &ens.members()[0];
        let pm = member.predict(&x);
        let pe = ens.predict(&x);
        assert!((pm.mean - pe.mean).abs() < 1e-12);
        assert!((pm.variance - pe.variance).abs() < 1e-9);
    }
}
