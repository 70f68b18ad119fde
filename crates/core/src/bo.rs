//! The constrained single-objective Bayesian-optimization loop (Algorithm 1),
//! hardened for failing evaluation backends: failure-aware evaluations with
//! retry/imputation policies, graceful surrogate degradation, and versioned
//! checkpoint/resume ([`BoSnapshot`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::acquisition::{self, AcquisitionKind};
use crate::ensemble::{EnsembleConfig, NeuralGpEnsembleTrainer};
use crate::error::BoError;
use crate::problems::{EvalOutcome, Evaluation, Problem};
use crate::resilience::{FailureAction, FailurePolicy, ModelResilience, RecoveryLog};
use crate::sampling::latin_hypercube;
use crate::strategy::{AcquisitionOracle, SuggestContext, SuggestStrategy};
use crate::surrogate::{SurrogateModel, SurrogateTrainer};

/// When the loop performs a *full* surrogate refit (hyper-parameter
/// optimization / network retraining) versus absorbing the newest observation
/// through the trainers' `O(N²)` incremental updates
/// ([`crate::SurrogateTrainer::update`]).
///
/// The paper's Algorithm 1 refits at every iteration
/// ([`RefitPolicy::Fixed`]`(1)`, the default).  A fixed larger cadence
/// amortizes the fit cost but is blind to what the incremental model actually
/// does between refits: it wastes full fits when the frozen hyper-parameters
/// still explain the data, and tolerates drift when they do not.
/// [`RefitPolicy::NllDrift`] closes that gap by watching the surrogates' own
/// maintained likelihood ([`crate::SurrogateModel::training_nll`], refreshed
/// in `O(M)`/`O(N²)` by every incremental update) and refitting only when the
/// per-point NLL has moved past a threshold since the last full fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RefitPolicy {
    /// Full refit every `k` evaluations; iterations in between use the
    /// incremental updates.  `Fixed(1)` is the paper's always-refit loop.
    /// The loop decides it exactly like a drift policy whose `min_gap` and
    /// `max_gap` are both `k`: below gap `k` the update is always kept.
    Fixed(usize),
    /// Adaptive: after each incremental update, compare the models' per-point
    /// NLL (averaged over the objective and every constraint) against its
    /// value at the last full fit, and refit once the absolute change reaches
    /// `threshold` — but never before `min_gap` evaluations have accumulated
    /// since the last full fit, and always once `max_gap` have.
    ///
    /// With `threshold = 0` every measured drift (the comparison is
    /// `drift ≥ threshold`) triggers a refit, reproducing `Fixed(min_gap)` —
    /// in particular `Fixed(1)` for `min_gap = 1` — bit for bit.  When a
    /// surrogate does not expose a likelihood
    /// ([`crate::SurrogateModel::training_nll`] returns `None`) the drift is
    /// unknown and the policy conservatively refits on the `min_gap` cadence.
    NllDrift {
        /// Absolute per-point NLL change (standardised units, averaged over
        /// outputs) at which a full refit triggers.
        threshold: f64,
        /// Evaluations that must accumulate since the last full fit before
        /// drift can trigger one (≥ 1).
        min_gap: usize,
        /// Evaluations after which a full refit happens regardless of drift
        /// (≥ `min_gap`).
        max_gap: usize,
    },
}

impl Default for RefitPolicy {
    fn default() -> Self {
        RefitPolicy::Fixed(1)
    }
}

impl RefitPolicy {
    /// A drift policy with the default gap band: drift may trigger from the
    /// first incremental update, and a refit is forced after 25 evaluations
    /// without one.
    pub fn nll_drift(threshold: f64) -> Self {
        RefitPolicy::NllDrift {
            threshold,
            min_gap: 1,
            max_gap: 25,
        }
    }

    /// Decides whether a full refit is due, `gap` evaluations after the last
    /// full fit, given the observed absolute per-point NLL `drift` (`None`
    /// when the surrogates do not expose a likelihood).
    ///
    /// An unknown (`None`) or non-finite drift is treated conservatively as
    /// "refit": a NaN drift means the incremental model's likelihood itself
    /// degenerated (e.g. a near-duplicate observation drove the bordered
    /// factor singular), which is precisely when keeping it would be wrong.
    ///
    /// This is the exact decision rule the loop applies after each
    /// incremental update; it is public so benchmarks and external
    /// surrogate-lifecycle drivers replicate the loop's behaviour.
    pub fn due(&self, gap: usize, drift: Option<f64>) -> bool {
        match *self {
            RefitPolicy::Fixed(k) => gap >= k.max(1),
            RefitPolicy::NllDrift {
                threshold,
                min_gap,
                max_gap,
            } => {
                gap >= max_gap
                    || (gap >= min_gap && drift.is_none_or(|d| !d.is_finite() || d >= threshold))
            }
        }
    }

    /// Evaluations after the last full fit at which a refit is due whatever
    /// the drift: `k` for `Fixed(k)` and `max_gap` for a drift policy, at
    /// least 1.
    fn max_gap(&self) -> usize {
        match *self {
            RefitPolicy::Fixed(k) => k,
            RefitPolicy::NllDrift { max_gap, .. } => max_gap,
        }
        .max(1)
    }

    /// Human-readable validity check, used by [`BayesOpt::run`]'s config
    /// validation.
    fn validate(&self) -> Result<(), String> {
        match *self {
            RefitPolicy::Fixed(0) => Err("refit cadence must be at least 1".to_string()),
            RefitPolicy::Fixed(_) => Ok(()),
            RefitPolicy::NllDrift {
                threshold,
                min_gap,
                max_gap,
            } => {
                if threshold.is_nan() || threshold < 0.0 {
                    return Err(format!("drift threshold must be >= 0, got {threshold}"));
                }
                if min_gap == 0 {
                    return Err("drift min_gap must be at least 1".to_string());
                }
                if max_gap < min_gap {
                    return Err(format!(
                        "drift max_gap {max_gap} must be >= min_gap {min_gap}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Configuration of a [`BayesOpt`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoConfig {
    /// Number of initial (Latin-hypercube) samples before the model-guided phase
    /// (30 for Table I, 100 for Table II in the paper).
    pub initial_samples: usize,
    /// Total evaluation budget, including the initial samples.
    pub max_evaluations: usize,
    /// Acquisition function (wEI by default, as in the paper).
    pub acquisition: AcquisitionKind,
    /// Number of uniformly random candidates considered when maximising the
    /// acquisition function.
    pub candidate_pool: usize,
    /// Number of additional candidates drawn as Gaussian perturbations of the
    /// incumbent (local refinement of the acquisition search).
    pub local_candidates: usize,
    /// How the acquisition is maximised each iteration (see
    /// [`SuggestStrategy`]): the paper's full-pool scoring by default, or the
    /// LinEasyBO-style one-dimensional subspace search whose per-iteration
    /// cost does not grow with the candidate pool.
    pub strategy: SuggestStrategy,
    /// When the surrogates are refitted from scratch versus incrementally
    /// updated (see [`RefitPolicy`]; the default refits every iteration,
    /// exactly as the paper's Algorithm 1 does).
    pub refit: RefitPolicy,
    /// How failed or timed-out evaluations are retried and imputed (see
    /// [`FailurePolicy`]).  On a failure-free run the policy is inert: no
    /// extra random draws happen, so results are bit-identical across
    /// policies.
    pub failure: FailurePolicy,
    /// Random seed; every stochastic component of the run derives from it.
    pub seed: u64,
}

impl BoConfig {
    /// Creates a configuration with the paper-style defaults for the candidate
    /// search.
    pub fn new(initial_samples: usize, max_evaluations: usize) -> Self {
        BoConfig {
            initial_samples,
            max_evaluations,
            acquisition: AcquisitionKind::WeightedExpectedImprovement,
            candidate_pool: 1024,
            local_candidates: 256,
            strategy: SuggestStrategy::FullPool,
            refit: RefitPolicy::Fixed(1),
            failure: FailurePolicy::default(),
            seed: 0,
        }
    }

    /// A cheaper configuration (smaller candidate pool) for tests and smoke runs.
    pub fn fast(initial_samples: usize, max_evaluations: usize) -> Self {
        BoConfig {
            candidate_pool: 128,
            local_candidates: 32,
            ..BoConfig::new(initial_samples, max_evaluations)
        }
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the acquisition function.
    pub fn with_acquisition(mut self, acquisition: AcquisitionKind) -> Self {
        self.acquisition = acquisition;
        self
    }

    /// Sets the surrogate refit policy (see [`RefitPolicy`]).
    pub fn with_refit_policy(mut self, refit: RefitPolicy) -> Self {
        self.refit = refit;
        self
    }

    /// Sets the acquisition-maximization strategy (see [`SuggestStrategy`]).
    pub fn with_strategy(mut self, strategy: SuggestStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the evaluation-failure policy (see [`FailurePolicy`]).
    pub fn with_failure_policy(mut self, failure: FailurePolicy) -> Self {
        self.failure = failure;
        self
    }
}

/// Cumulative acquisition-maximization cost of a run: how many model-guided
/// suggestions were made and the wall-clock they took.
///
/// The nanoseconds cover candidate generation, batched surrogate scoring and
/// the argmax — *not* surrogate (re)fits, which
/// [`OptimizationResult::full_refits`] tracks separately.  This is the
/// counter strategy comparisons read ([`SuggestStrategy::FullPool`] scores
/// `candidate_pool + local_candidates` points per iteration, the LinEasyBO
/// line search a small constant), without needing the bench binary's external
/// timers.  `calls` is deterministic; `nanos` is wall-clock and therefore
/// machine-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SuggestCost {
    /// Model-guided suggestions performed (one per acquisition maximisation;
    /// space-filling fallbacks after a surrogate-training failure are not
    /// counted — [`RecoveryLog::fallback_suggests`] tracks those).
    pub calls: usize,
    /// Total wall-clock nanoseconds spent maximising the acquisition.
    pub nanos: u64,
}

impl SuggestCost {
    /// Mean nanoseconds per suggestion (`0.0` before any call).
    pub fn mean_nanos(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }

    /// Accumulates one suggestion of `nanos` wall-clock nanoseconds.
    pub(crate) fn record(&mut self, nanos: u64) {
        self.calls += 1;
        self.nanos += nanos;
    }
}

/// The record of one run, kept in one place: every evaluation in order and
/// every counter the loop accumulates.
///
/// [`BoState`] owns it while the run is in flight and the loop's helpers
/// append to it, [`BoSnapshot`] clones it whole, and [`BayesOpt::finish`]
/// moves it into the [`OptimizationResult`].  Everything in it but the
/// wall-clock `suggest.nanos` is deterministic for a given configuration,
/// so a resumed run ends with the same ledger as the uninterrupted one.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct RunLedger {
    /// Every evaluated `(normalised point, evaluation)` pair, in order.
    history: Vec<(Vec<f64>, Evaluation)>,
    /// Full surrogate refits performed.
    full_refits: usize,
    /// Acquisition-maximization cost (see [`SuggestCost`]).
    suggest: SuggestCost,
    /// Every recovery the run performed.
    recovery: RecoveryLog,
    /// Consecutive full refits triggered by drift right after an *imputed*
    /// observation: capped by [`FailurePolicy::max_failure_refits`], reset
    /// by any real observation.
    consecutive_failure_refits: usize,
}

impl RunLedger {
    /// Appends one evaluation.  An imputed one is indexed in the recovery
    /// log; a real one ends any failure burst, so drift refits are
    /// trustworthy again.
    fn record(&mut self, x: Vec<f64>, eval: Evaluation, imputed: bool) {
        if imputed {
            self.recovery.imputed.push(self.history.len());
        } else {
            self.consecutive_failure_refits = 0;
        }
        self.history.push((x, eval));
    }
}

/// The result of one optimization run: every evaluated point in order, plus
/// convenience accessors for the best feasible design and convergence statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationResult {
    initial_samples: usize,
    ledger: RunLedger,
}

impl OptimizationResult {
    /// Builds a result from a raw evaluation history.
    ///
    /// This is how the non-Bayesian baselines (differential evolution, GASPAD,
    /// random search) report their runs so that every algorithm is summarised by
    /// the same statistics code.  The refit and suggestion counters are zero
    /// and the recovery log is empty for such histories: they are only
    /// meaningful for surrogate-driven [`BayesOpt`] runs.
    pub fn from_history(evaluations: Vec<(Vec<f64>, Evaluation)>, initial_samples: usize) -> Self {
        OptimizationResult {
            initial_samples,
            ledger: RunLedger {
                history: evaluations,
                ..RunLedger::default()
            },
        }
    }

    /// Cumulative acquisition-maximization cost of the run (see
    /// [`SuggestCost`]); zero for histories built by
    /// [`OptimizationResult::from_history`].
    pub fn suggest_cost(&self) -> SuggestCost {
        self.ledger.suggest
    }

    /// The run's recovery log: evaluation failures and retries, imputed
    /// observations, surrogate degradations and space-filling fallbacks.  A
    /// [`RecoveryLog::is_clean`] log means the run needed no recovery at all.
    pub fn recovery(&self) -> &RecoveryLog {
        &self.ledger.recovery
    }

    /// Number of full surrogate refits (hyper-parameter optimizations /
    /// network retrainings) the run performed; iterations not counted here
    /// absorbed their observation through the trainers' incremental updates.
    /// The contrast against `max_evaluations − initial_samples` (what
    /// [`RefitPolicy::Fixed`]`(1)` performs) is the direct measure of how
    /// much surrogate maintenance an adaptive policy saved.
    pub fn full_refits(&self) -> usize {
        self.ledger.full_refits
    }

    /// All evaluated `(normalised point, evaluation)` pairs, in evaluation order.
    pub fn evaluations(&self) -> &[(Vec<f64>, Evaluation)] {
        &self.ledger.history
    }

    /// Number of evaluations performed.
    pub fn num_evaluations(&self) -> usize {
        self.ledger.history.len()
    }

    /// Number of initial (space-filling) samples.
    pub fn initial_samples(&self) -> usize {
        self.initial_samples
    }

    /// Index of the best feasible evaluation, if any point was feasible.
    ///
    /// Imputed evaluations (failed points the [`FailurePolicy`] replaced with
    /// a finite stand-in, see [`RecoveryLog::imputed`]) are never selected:
    /// an optimum must come from a real simulation.
    pub fn best_index(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, e)) in self.ledger.history.iter().enumerate() {
            if self.ledger.recovery.imputed.contains(&i) {
                continue;
            }
            if e.is_feasible() && best.is_none_or(|(_, v)| e.objective < v) {
                best = Some((i, e.objective));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The best feasible point and its evaluation.
    pub fn best(&self) -> Option<(&[f64], &Evaluation)> {
        self.best_index().map(|i| {
            let (x, e) = &self.ledger.history[i];
            (x.as_slice(), e)
        })
    }

    /// Objective value of the best feasible point.
    pub fn best_objective(&self) -> Option<f64> {
        self.best().map(|(_, e)| e.objective)
    }

    /// Index (1-based count of simulations) at which the first feasible point was
    /// found.
    pub fn first_feasible_at(&self) -> Option<usize> {
        self.evaluations()
            .iter()
            .position(|(_, e)| e.is_feasible())
            .map(|i| i + 1)
    }

    /// Number of simulations needed to reach within `tolerance` of the final best
    /// feasible objective (the "Avg. # Sim" statistic of the paper's tables).
    pub fn simulations_to_converge(&self, tolerance: f64) -> Option<usize> {
        let target = self.best_objective()? + tolerance;
        let mut best_so_far = f64::INFINITY;
        for (i, (_, e)) in self.ledger.history.iter().enumerate() {
            if e.is_feasible() && e.objective < best_so_far {
                best_so_far = e.objective;
            }
            if best_so_far <= target {
                return Some(i + 1);
            }
        }
        None
    }

    /// Best feasible objective value after each evaluation (∞ before the first
    /// feasible point) — the convergence curve of the run.
    pub fn convergence_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.evaluations()
            .iter()
            .map(|(_, e)| {
                if e.is_feasible() && e.objective < best {
                    best = e.objective;
                }
                best
            })
            .collect()
    }
}

/// The constrained Bayesian-optimization driver (Algorithm 1 of the paper),
/// generic over the surrogate trainer so that both the paper's neural-GP ensemble
/// and the classical-GP baselines can run through the same loop.
#[derive(Debug, Clone)]
pub struct BayesOpt<T: SurrogateTrainer> {
    config: BoConfig,
    trainer: T,
}

impl BayesOpt<NeuralGpEnsembleTrainer> {
    /// Creates the paper's algorithm: neural-GP ensemble surrogate (K = 5) with the
    /// wEI acquisition.
    pub fn neural(config: BoConfig) -> Self {
        BayesOpt {
            config,
            trainer: NeuralGpEnsembleTrainer::default(),
        }
    }

    /// Creates the paper's algorithm with a custom ensemble configuration.
    pub fn neural_with(config: BoConfig, ensemble: EnsembleConfig) -> Self {
        BayesOpt {
            config,
            trainer: NeuralGpEnsembleTrainer::new(ensemble),
        }
    }
}

impl<T: SurrogateTrainer> BayesOpt<T> {
    /// Creates a driver with an arbitrary surrogate trainer (used by the WEIBO
    /// baseline, which plugs in the classical GP).
    pub fn with_trainer(config: BoConfig, trainer: T) -> Self {
        BayesOpt { config, trainer }
    }

    /// The configuration of this driver.
    pub fn config(&self) -> &BoConfig {
        &self.config
    }

    /// Runs the optimization on `problem`.
    ///
    /// Equivalent to [`BayesOpt::start`], [`BayesOpt::step`] until the budget
    /// is exhausted, then [`BayesOpt::finish`] — drive those directly to
    /// interleave checkpoints ([`BayesOpt::snapshot`]) or external work
    /// between evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::InvalidConfig`] / [`BoError::InvalidProblem`] for
    /// inconsistent setups and [`BoError::Internal`] if a trainer violates
    /// the loop's invariants.  Evaluation failures and surrogate-training
    /// failures do *not* abort the run: they are retried, imputed, or worked
    /// around per the configured [`FailurePolicy`], and every such recovery
    /// is recorded in [`OptimizationResult::recovery`].
    pub fn run(&self, problem: &dyn Problem) -> Result<OptimizationResult, BoError> {
        let mut state = self.start(problem)?;
        while self.step(problem, &mut state)? {}
        Ok(self.finish(state))
    }

    /// Validates the setup and performs the space-filling initial design
    /// (phase 1 of Algorithm 1), returning the loop state that
    /// [`BayesOpt::step`] advances one evaluation at a time.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::InvalidConfig`] / [`BoError::InvalidProblem`] for
    /// inconsistent setups, including a trainer configuration that can never
    /// train ([`SurrogateTrainer::validate`]).
    pub fn start(&self, problem: &dyn Problem) -> Result<BoState<T::Model>, BoError> {
        self.validate(problem)?;
        let dim = problem.dim();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut ledger = RunLedger::default();
        for x in latin_hypercube(self.config.initial_samples, dim, &mut rng) {
            self.evaluate_with_policy(problem, x, &mut rng, &mut ledger);
        }
        Ok(BoState {
            ledger,
            rng,
            surrogate: SurrogateState::new(None),
        })
    }

    /// Performs one model-guided iteration (phase 2 of Algorithm 1):
    /// refreshes the surrogates per the [`RefitPolicy`], maximises the
    /// acquisition over a fresh candidate set, and evaluates the winner under
    /// the [`FailurePolicy`].  Returns `Ok(false)` once the evaluation budget
    /// is exhausted (the state is then ready for [`BayesOpt::finish`]).
    ///
    /// The fitted surrogates persist inside `state` across iterations so
    /// that, between full refits, the single observation appended per
    /// iteration can be absorbed through the trainers' incremental Cholesky
    /// updates; the scoring buffers persist too, so the prediction path
    /// reuses its allocations.
    ///
    /// A recoverable surrogate-training failure never aborts the step: the
    /// iteration falls back to a space-filling candidate (recorded in
    /// [`RecoveryLog::fallback_suggests`]) and the run continues.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::Internal`] only for violated loop invariants.
    pub fn step(
        &self,
        problem: &dyn Problem,
        state: &mut BoState<T::Model>,
    ) -> Result<bool, BoError> {
        if state.ledger.history.len() >= self.config.max_evaluations {
            return Ok(false);
        }
        let dim = problem.dim();
        let candidate = match self.next_candidate(
            problem,
            &mut state.ledger,
            &mut state.surrogate,
            &mut state.rng,
        ) {
            Ok(x) => x,
            Err(BoError::SurrogateTraining { .. }) => {
                // Graceful degradation, last line: no usable surrogate this
                // iteration — a space-filling point keeps the run going.
                state.surrogate.models = None;
                state.ledger.recovery.fallback_suggests += 1;
                (0..dim).map(|_| state.rng.gen_range(0.0..1.0)).collect()
            }
            Err(e) => return Err(e),
        };
        self.evaluate_with_policy(problem, candidate, &mut state.rng, &mut state.ledger);
        Ok(true)
    }

    /// Consumes the loop state into the run's [`OptimizationResult`].
    pub fn finish(&self, state: BoState<T::Model>) -> OptimizationResult {
        OptimizationResult {
            initial_samples: self.config.initial_samples,
            ledger: state.ledger,
        }
    }

    /// Captures the loop state as a versioned, serializable checkpoint.
    ///
    /// The snapshot records everything [`BayesOpt::resume`] needs to continue
    /// the run *bit-identically*: the run's ledger (the evaluation history,
    /// the refit and suggestion counters, the recovery log and the
    /// failure-refit streak), the exact rng stream position and the fitted
    /// surrogates (serialized through the self-describing value tree) with
    /// their refit-policy bookkeeping.  Through [`BoSnapshot::to_json`] and
    /// [`BoSnapshot::from_json`] every finite `f64` in it round-trips bit for
    /// bit, as the shortest digits that parse back to the same bits.  NaN
    /// and ±inf (an infinite [`RefitPolicy::NllDrift`] threshold, say) are
    /// written as the strings `"NaN"`, `"inf"` and `"-inf"` and read back as
    /// NaN and ±inf.
    pub fn snapshot(&self, state: &BoState<T::Model>) -> BoSnapshot
    where
        T::Model: Serialize,
    {
        BoSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            ledger: state.ledger.clone(),
            rng_state: state.rng.state(),
            models: state.surrogate.models.as_ref().map(|f| ModelSnapshot {
                objective: f.objective.to_value(),
                constraints: f.constraints.iter().map(|m| m.to_value()).collect(),
                trained_on: f.trained_on,
                last_full_fit: f.last_full_fit,
                fit_nll_per_point: f.fit_nll_per_point,
            }),
        }
    }

    /// Restores the loop state from a checkpoint taken by
    /// [`BayesOpt::snapshot`], continuing the run bit-identically (same
    /// future evaluations, same rng stream) as if it had never stopped.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::InvalidConfig`] when this driver's trainer
    /// configuration can never train (as [`BayesOpt::start`] does), and
    /// [`BoError::SnapshotMismatch`] when the snapshot's version or
    /// configuration differs from this driver's, or when a model payload no
    /// longer deserializes.
    pub fn resume(&self, snapshot: &BoSnapshot) -> Result<BoState<T::Model>, BoError>
    where
        T::Model: for<'de> Deserialize<'de>,
    {
        if let Err(details) = self.trainer.validate() {
            return Err(BoError::InvalidConfig { details });
        }
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(BoError::SnapshotMismatch {
                details: format!(
                    "snapshot version {} (this build writes {SNAPSHOT_VERSION})",
                    snapshot.version
                ),
            });
        }
        if snapshot.config != self.config {
            return Err(BoError::SnapshotMismatch {
                details: "snapshot was taken under a different configuration".to_string(),
            });
        }
        let models = match &snapshot.models {
            None => None,
            Some(ms) => {
                let objective =
                    T::Model::from_value(&ms.objective).map_err(|e| BoError::SnapshotMismatch {
                        details: format!("objective model payload: {e}"),
                    })?;
                let constraints = ms
                    .constraints
                    .iter()
                    .map(T::Model::from_value)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| BoError::SnapshotMismatch {
                        details: format!("constraint model payload: {e}"),
                    })?;
                Some(FittedModels {
                    objective,
                    constraints,
                    trained_on: ms.trained_on,
                    last_full_fit: ms.last_full_fit,
                    fit_nll_per_point: ms.fit_nll_per_point,
                })
            }
        };
        Ok(BoState {
            ledger: snapshot.ledger.clone(),
            rng: StdRng::from_state(snapshot.rng_state),
            surrogate: SurrogateState::new(models),
        })
    }

    /// Fits fresh surrogates to `history` and returns the next design point
    /// the acquisition function proposes.
    ///
    /// This is the stateless one-shot variant of the loop body — useful for
    /// serving "give me the next point to simulate" requests against an
    /// externally managed evaluation history.  [`BayesOpt::run`] uses the same
    /// machinery but keeps the fitted surrogates alive across iterations so
    /// incremental updates can kick in.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::SurrogateTraining`] when surrogate training fails
    /// (there is no previous model to degrade to here) and
    /// [`BoError::Internal`] if a trainer violates the loop's invariants.
    pub fn suggest(
        &self,
        problem: &dyn Problem,
        history: &[(Vec<f64>, Evaluation)],
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, BoError> {
        let mut ledger = RunLedger {
            history: history.to_vec(),
            ..RunLedger::default()
        };
        self.next_candidate(problem, &mut ledger, &mut SurrogateState::new(None), rng)
    }

    /// Evaluates `x` under the configured [`FailurePolicy`] and appends the
    /// result to `ledger`: failed or timed-out attempts are retried up to
    /// `max_retries` times at deterministically jittered points (rng draws
    /// happen *only* on the failure path, so clean runs are bit-identical
    /// across policies), and an exhausted point is recorded at its original
    /// coordinates with a finite imputed evaluation, indexed in
    /// [`RecoveryLog::imputed`].
    fn evaluate_with_policy(
        &self,
        problem: &dyn Problem,
        x: Vec<f64>,
        rng: &mut StdRng,
        ledger: &mut RunLedger,
    ) {
        let policy = &self.config.failure;
        let original = x.clone();
        let mut point = x;
        for attempt in 0..=policy.max_retries {
            let outcome = problem.try_evaluate(&point);
            let recovery = &mut ledger.recovery;
            match outcome {
                EvalOutcome::Ok(eval)
                    if eval.objective.is_finite()
                        && eval.constraints.iter().all(|g| g.is_finite()) =>
                {
                    ledger.record(point, eval, false);
                    return;
                }
                // An override returning Ok with non-finite values is a
                // failure regardless — the surrogates must never see NaN.
                EvalOutcome::Ok(_) | EvalOutcome::Failed(_) => recovery.eval_failures += 1,
                EvalOutcome::Timeout => recovery.eval_timeouts += 1,
            }
            if attempt < policy.max_retries {
                recovery.eval_retries += 1;
                for v in point.iter_mut() {
                    *v = (*v + policy.retry_jitter * standard_normal(rng)).clamp(0.0, 1.0);
                }
            }
        }
        let eval = self.impute_failure(problem, ledger);
        ledger.record(original, eval, true);
    }

    /// Builds the finite stand-in evaluation for a point whose retries are
    /// exhausted, per [`FailureAction`].  Only *real* (non-imputed) history
    /// entries inform the imputed values, so repeated failures cannot ratchet
    /// the imputation ever further.
    fn impute_failure(&self, problem: &dyn Problem, ledger: &RunLedger) -> Evaluation {
        let action = self.config.failure.on_exhausted;
        let real: Vec<&Evaluation> = ledger
            .history
            .iter()
            .enumerate()
            .filter(|(i, _)| !ledger.recovery.imputed.contains(i))
            .map(|(_, (_, e))| e)
            .collect();
        let mut worst = f64::NEG_INFINITY;
        let mut best = f64::INFINITY;
        for e in &real {
            worst = worst.max(e.objective);
            best = best.min(e.objective);
        }
        let objective = if real.is_empty() {
            // Nothing observed yet (a failure inside the initial design
            // before any success): a neutral finite stand-in.
            0.0
        } else if let FailureAction::Penalize { margin } = action {
            let span = worst - best;
            worst + margin * if span > 0.0 { span } else { 1.0 }
        } else {
            worst
        };
        let constraints: Vec<f64> = (0..problem.num_constraints())
            .map(|c| {
                if action == FailureAction::MarkInfeasible {
                    return 1.0;
                }
                let worst_c = real
                    .iter()
                    .map(|e| e.constraints[c])
                    .fold(f64::NEG_INFINITY, f64::max);
                if worst_c.is_finite() {
                    worst_c
                } else {
                    1.0
                }
            })
            .collect();
        Evaluation::new(objective, constraints)
    }

    fn validate(&self, problem: &dyn Problem) -> Result<(), BoError> {
        if problem.dim() == 0 {
            return Err(BoError::InvalidProblem {
                details: "zero-dimensional design space".to_string(),
            });
        }
        if self.config.initial_samples < 2 {
            return Err(BoError::InvalidConfig {
                details: "need at least two initial samples".to_string(),
            });
        }
        if self.config.max_evaluations < self.config.initial_samples {
            return Err(BoError::InvalidConfig {
                details: format!(
                    "evaluation budget {} is smaller than the initial design {}",
                    self.config.max_evaluations, self.config.initial_samples
                ),
            });
        }
        if self.config.candidate_pool == 0 {
            return Err(BoError::InvalidConfig {
                details: "candidate pool must not be empty".to_string(),
            });
        }
        if let Err(details) = self.config.strategy.validate() {
            return Err(BoError::InvalidConfig { details });
        }
        if let Err(details) = self.config.refit.validate() {
            return Err(BoError::InvalidConfig { details });
        }
        if let Err(details) = self.config.failure.validate() {
            return Err(BoError::InvalidConfig { details });
        }
        if let Err(details) = self.trainer.validate() {
            return Err(BoError::InvalidConfig { details });
        }
        Ok(())
    }

    /// Brings the surrogates up to date with the ledger's history (full fit
    /// or incremental update, per the configured [`RefitPolicy`]), then
    /// maximises the acquisition function over a candidate set scored in one
    /// batch through the buffer-reusing prediction path.
    fn next_candidate(
        &self,
        problem: &dyn Problem,
        ledger: &mut RunLedger,
        surrogate: &mut SurrogateState<T::Model>,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, BoError> {
        let dim = problem.dim();
        let SurrogateState { models, scores } = surrogate;
        match self.refresh_models(problem, ledger, models, rng) {
            Ok(true) => ledger.full_refits += 1,
            Ok(false) => {}
            Err(RefreshError::Fit(reason)) => {
                return Err(BoError::SurrogateTraining {
                    target: "surrogate family".to_string(),
                    reason,
                });
            }
            Err(RefreshError::Internal(details)) => {
                return Err(BoError::Internal { details });
            }
        }
        let fitted = models.as_ref().ok_or_else(|| BoError::Internal {
            details: "refresh_models succeeded without populating the model slot".to_string(),
        })?;
        let history = &ledger.history;

        // Incumbent: best feasible objective, if any.
        let tau = history
            .iter()
            .filter(|(_, e)| e.is_feasible())
            .map(|(_, e)| e.objective)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            });

        // Anchor for the local candidates: best feasible point, or the point with
        // the smallest constraint violation when nothing is feasible yet.
        let anchor = history
            .iter()
            .min_by(|(_, a), (_, b)| {
                let key = |e: &Evaluation| {
                    if e.is_feasible() {
                        (0.0, e.objective)
                    } else {
                        (e.violation(), f64::INFINITY)
                    }
                };
                key(a)
                    .partial_cmp(&key(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(x, _)| x.clone())
            .unwrap_or_else(|| vec![0.5; dim]);

        // The objective surrogate's lengthscales feed the adaptive direction
        // rule; extracting them is skipped entirely for strategies that do
        // not read them.
        let lengthscales = if self.config.strategy.wants_lengthscales() {
            fitted.objective.lengthscales()
        } else {
            None
        };

        // The configured strategy generates the candidate sets (the paper's
        // full pool, or the LinEasyBO line search) and scores them through
        // the oracle below — one batch per call through the buffer-reusing
        // prediction path, band-split over the worker pool when the batch
        // size makes it worthwhile (bit-identical either way).
        let started = std::time::Instant::now();
        let context = SuggestContext {
            dim,
            anchor: &anchor,
            candidate_pool: self.config.candidate_pool,
            local_candidates: self.config.local_candidates,
            lengthscales,
        };
        let mut oracle = ModelOracle {
            fitted,
            kind: self.config.acquisition,
            tau,
            scores,
        };
        let choice = self.config.strategy.propose(&context, &mut oracle, rng);
        ledger.suggest.record(started.elapsed().as_nanos() as u64);
        Ok(choice)
    }

    /// Ensures `models` reflects the ledger's history, returning `true` when
    /// a *full* fit was performed and `false` when the models were kept or
    /// incrementally updated.
    ///
    /// Both policies decide in one flow.  Inside the policy's `max_gap`
    /// window the incremental update runs *first*: it absorbs the newest
    /// observation and refreshes the surrogates' maintained likelihood,
    /// whose per-point change since the last full fit is the drift
    /// [`RefitPolicy::due`] then thresholds.  `Fixed(k)` is a drift policy
    /// whose gap band is `[k, k]`: below gap `k` `due` is false, so the
    /// update is kept, and at gap `k` the update is skipped for a full fit.  When drift triggers, the full fit warm-starts from the
    /// incrementally updated models, whose hyper-parameters and networks
    /// are frozen copies of the last full fit's, so the fit is bit-identical
    /// to one warm-started from those (the `threshold = 0` ≡ always-refit
    /// equivalence the tests pin).  A first call, a history that did not
    /// grow by exactly one point, or a trainer that cannot update also fits
    /// in full.
    ///
    /// Full fits go through [`SurrogateTrainer::fit_many`], handing the
    /// trainer every output (objective plus constraints) in one call so
    /// shareable fit structure is computed once and the per-output training
    /// can run in bands on the shared worker pool; the previous refit's
    /// surrogates are passed along for trainers that warm-start (the
    /// classical GP's hyper-parameters, the neural ensemble's member
    /// networks).
    fn refresh_models(
        &self,
        problem: &dyn Problem,
        ledger: &mut RunLedger,
        models: &mut Option<FittedModels<T::Model>>,
        rng: &mut StdRng,
    ) -> Result<bool, RefreshError> {
        let history = &ledger.history;
        let n = history.len();
        let policy = self.config.refit;

        if let Some(fitted) = models.as_mut() {
            let gap = n.saturating_sub(fitted.last_full_fit);
            if n == fitted.trained_on {
                // Nothing new to learn (e.g. repeated suggest on a static
                // history); a fixed cadence may still owe a full fit after a
                // run of incremental updates.
                if !policy.due(gap, fitted.drift()) {
                    return Ok(false);
                }
            } else if n == fitted.trained_on + 1 {
                // Without a drift reference (the surrogates do not track an
                // NLL) the conservative decision is known up front — skip
                // the O(N²) incremental update whose result a full fit would
                // immediately replace.
                let refit_known_up_front =
                    fitted.fit_nll_per_point.is_none() && policy.due(gap, None);
                if gap < policy.max_gap() && !refit_known_up_front {
                    let (x_new, eval) = &history[n - 1];
                    if let Some(updated) = self.try_incremental_update(fitted, x_new, eval, rng) {
                        let due = policy.due(gap, updated.drift());
                        // Keep the absorbed observation either way: if a
                        // full fit follows it warm-starts from these
                        // (frozen-parameter) models.
                        *fitted = updated;
                        if !due {
                            return Ok(false);
                        }
                        // An imputed stand-in moves the likelihood by
                        // construction, so drift it triggers is not a
                        // model-quality signal.  Cap how many consecutive
                        // failure-driven full refits the policy may charge
                        // (FailurePolicy::max_failure_refits); suppressed
                        // ones stay on the incremental path.
                        if ledger.recovery.imputed.last() == Some(&(n - 1)) {
                            if ledger.consecutive_failure_refits
                                >= self.config.failure.max_failure_refits
                            {
                                ledger.recovery.failure_refits_suppressed += 1;
                                return Ok(false);
                            }
                            ledger.consecutive_failure_refits += 1;
                        }
                    }
                    // Unsupported / failed update: full fit below (drift
                    // unknown, conservative).
                }
            }
            // Any other history shape (shrunk, jumped): full fit below.
        }

        let xs: Vec<Vec<f64>> = history.iter().map(|(x, _)| x.clone()).collect();
        let num_constraints = problem.num_constraints();
        let mut targets: Vec<Vec<f64>> = Vec::with_capacity(1 + num_constraints);
        targets.push(history.iter().map(|(_, e)| e.objective).collect());
        for c in 0..num_constraints {
            targets.push(history.iter().map(|(_, e)| e.constraints[c]).collect());
        }
        // Previous surrogates (objective first, constraints in order) seed the
        // trainers' warm starts when their shape matches the new fit.
        let prev: Option<Vec<&T::Model>> = models.as_ref().and_then(|fitted| {
            (fitted.constraints.len() == num_constraints).then(|| {
                std::iter::once(&fitted.objective)
                    .chain(fitted.constraints.iter())
                    .collect()
            })
        });
        let mut trained = match self.trainer.fit_many(&xs, &targets, prev.as_deref(), rng) {
            Ok(trained) => trained,
            Err(reason) => {
                if models.is_some() {
                    // Graceful degradation: the previous surrogates are a
                    // usable (if stale) posterior — keep scoring with them
                    // rather than discarding the iteration.  Their
                    // `trained_on` no longer matches the history, so the
                    // next iteration attempts a full fit again.
                    ledger.recovery.degraded_refits += 1;
                    return Ok(false);
                }
                return Err(RefreshError::Fit(reason));
            }
        };
        if trained.len() != targets.len() {
            return Err(RefreshError::Internal(format!(
                "trainer returned {} models for {} targets",
                trained.len(),
                targets.len()
            )));
        }
        let constraints = trained.split_off(1);
        let objective = trained.pop().ok_or_else(|| {
            RefreshError::Internal("fit_many returned no objective model".to_string())
        })?;
        let mut fitted = FittedModels {
            objective,
            constraints,
            trained_on: n,
            last_full_fit: n,
            fit_nll_per_point: None,
        };
        // Anchor the drift reference at the freshly fitted models' quality.
        fitted.fit_nll_per_point = fitted.nll_per_point();
        // Surface what the surrogates had to recover from while fitting
        // (jittered factorizations, dropped ensemble members) in the
        // run-level log.
        let resilience = fitted.resilience_total();
        ledger.recovery.jitter_promotions += resilience.jitter_recoveries;
        ledger.recovery.member_drops += resilience.dropped_members;
        *models = Some(fitted);
        Ok(true)
    }

    /// Applies the trainer's incremental update to the objective model and
    /// every constraint model for one appended evaluation.  Returns `None`
    /// (meaning "do a full fit instead") if the trainer does not support
    /// updates or any individual update fails.
    fn try_incremental_update(
        &self,
        fitted: &FittedModels<T::Model>,
        x_new: &[f64],
        eval: &Evaluation,
        rng: &mut StdRng,
    ) -> Option<FittedModels<T::Model>> {
        let objective = match self
            .trainer
            .update(&fitted.objective, x_new, eval.objective, rng)?
        {
            Ok(m) => m,
            Err(_) => return None,
        };
        let mut constraints = Vec::with_capacity(fitted.constraints.len());
        for (model, &value) in fitted.constraints.iter().zip(eval.constraints.iter()) {
            match self.trainer.update(model, x_new, value, rng)? {
                Ok(m) => constraints.push(m),
                Err(_) => return None,
            }
        }
        Some(FittedModels {
            objective,
            constraints,
            trained_on: fitted.trained_on + 1,
            last_full_fit: fitted.last_full_fit,
            fit_nll_per_point: fitted.fit_nll_per_point,
        })
    }
}

/// Surrogates fitted to a prefix of the evaluation history, kept alive across
/// loop iterations so incremental updates can replace full refits between
/// the [`RefitPolicy`]'s full-fit boundaries.
struct FittedModels<M> {
    objective: M,
    constraints: Vec<M>,
    /// Number of history points the current models incorporate.
    trained_on: usize,
    /// History length at the last from-scratch fit.
    last_full_fit: usize,
    /// Per-point NLL (averaged over outputs) recorded at the last full fit —
    /// the reference the drift policy compares against.  `None` when the
    /// surrogates do not expose a likelihood.
    fit_nll_per_point: Option<f64>,
}

impl<M: SurrogateModel> FittedModels<M> {
    /// Current per-point NLL, averaged over the objective and every
    /// constraint model; `None` as soon as any model does not track one.
    fn nll_per_point(&self) -> Option<f64> {
        if self.trained_on == 0 {
            return None;
        }
        let mut total = self.objective.training_nll()?;
        for c in &self.constraints {
            total += c.training_nll()?;
        }
        Some(total / ((1 + self.constraints.len()) * self.trained_on) as f64)
    }

    /// Absolute change of the per-point NLL since the last full fit — the
    /// drift signal [`RefitPolicy::NllDrift`] thresholds.
    fn drift(&self) -> Option<f64> {
        Some((self.nll_per_point()? - self.fit_nll_per_point?).abs())
    }

    /// Recovery counters accumulated across the objective model and every
    /// constraint model (see [`SurrogateModel::resilience`]).
    fn resilience_total(&self) -> ModelResilience {
        self.constraints
            .iter()
            .fold(self.objective.resilience(), |acc, m| {
                acc.merged(m.resilience())
            })
    }
}

/// Why [`BayesOpt::refresh_models`] could not bring the surrogates up to
/// date: a recoverable training failure (the caller degrades gracefully) or
/// a violated loop invariant (the caller aborts).
enum RefreshError {
    /// The trainer reported a failure and no stale models exist to fall back
    /// on.  Recoverable: the loop suggests a space-filling point instead.
    Fit(String),
    /// A trainer broke the fit-many contract — not recoverable.
    Internal(String),
}

/// The surrogate side of the loop state: the fitted models and the scoring
/// buffers they are queried through.
struct SurrogateState<M> {
    models: Option<FittedModels<M>>,
    scores: ScoreBuffers,
}

impl<M> SurrogateState<M> {
    /// `models` with fresh (empty) scoring buffers.
    fn new(models: Option<FittedModels<M>>) -> Self {
        SurrogateState {
            models,
            scores: ScoreBuffers::new(),
        }
    }
}

/// Resumable state of an in-flight optimization run, produced by
/// [`BayesOpt::start`] and advanced by [`BayesOpt::step`].
///
/// Checkpoint it with [`BayesOpt::snapshot`] / [`BayesOpt::resume`]; turn it
/// into the final [`OptimizationResult`] with [`BayesOpt::finish`].
pub struct BoState<M> {
    ledger: RunLedger,
    rng: StdRng,
    surrogate: SurrogateState<M>,
}

impl<M> BoState<M> {
    /// The evaluations performed so far, in order.
    pub fn evaluations(&self) -> &[(Vec<f64>, Evaluation)] {
        &self.ledger.history
    }

    /// The recovery log accumulated so far.
    pub fn recovery(&self) -> &RecoveryLog {
        &self.ledger.recovery
    }

    /// Number of full surrogate refits performed so far.
    pub fn full_refits(&self) -> usize {
        self.ledger.full_refits
    }
}

/// Snapshot format version written by this build (bumped on any breaking
/// layout change; [`BayesOpt::resume`] refuses other versions).  Version 2
/// added the [`SuggestStrategy`] configuration field and the accumulated
/// [`SuggestCost`] counters.  Version 3 moved the history, the refit and
/// suggestion counters, the recovery log and the failure-refit streak
/// from the top level into one `ledger` object, the loop's single record
/// of the run, so a version-2 snapshot no longer parses.
const SNAPSHOT_VERSION: u32 = 3;

/// A versioned, serializable checkpoint of an optimization run — see
/// [`BayesOpt::snapshot`] and [`BayesOpt::resume`].
///
/// It holds the run's configuration, its ledger cloned whole (the
/// evaluation history, the full-refit count, the [`SuggestCost`], the
/// [`RecoveryLog`] and the failure-refit streak), the rng state and the
/// fitted surrogates with their refit bookkeeping.
///
/// Serialize it with [`BoSnapshot::to_json`] (every finite `f64`
/// round-trips bit-exactly, NaN and ±inf round-trip as themselves) or
/// through the `serde` value tree directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoSnapshot {
    version: u32,
    config: BoConfig,
    ledger: RunLedger,
    rng_state: [u64; 4],
    models: Option<ModelSnapshot>,
}

impl BoSnapshot {
    /// The snapshot format version this checkpoint was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of evaluations the checkpoint contains.
    pub fn num_evaluations(&self) -> usize {
        self.ledger.history.len()
    }

    /// Serializes the snapshot to a JSON string.
    pub fn to_json(&self) -> String {
        serde::to_json_string(self)
    }

    /// Parses a snapshot from the JSON produced by [`BoSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`BoError::SnapshotMismatch`] when the payload does not parse
    /// as a snapshot.
    pub fn from_json(text: &str) -> Result<Self, BoError> {
        serde::from_json_str(text).map_err(|e| BoError::SnapshotMismatch {
            details: format!("snapshot JSON does not parse: {e}"),
        })
    }
}

/// The surrogate payloads inside a [`BoSnapshot`], held as self-describing
/// `serde` values so the snapshot type itself stays non-generic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ModelSnapshot {
    objective: Value,
    constraints: Vec<Value>,
    trained_on: usize,
    last_full_fit: usize,
    fit_nll_per_point: Option<f64>,
}

/// Scoring buffers reused across the acquisition scoring of every loop
/// iteration, so the batched prediction path writes into stable
/// allocations.
struct ScoreBuffers {
    /// Acquisition value of every candidate, in candidate order.
    acquisition: Vec<f64>,
    /// Prediction buffers of each scoring band (one band scores inline).
    bands: Vec<BandBuffers>,
}

impl ScoreBuffers {
    fn new() -> Self {
        ScoreBuffers {
            acquisition: Vec::new(),
            bands: Vec::new(),
        }
    }
}

/// One scoring band's private prediction buffers (one vector per modelled
/// output): each band predicts its contiguous candidate chunk into its own
/// vectors, so the banded split shares nothing but the disjoint acquisition
/// output slices.
#[derive(Default)]
struct BandBuffers {
    objective: Vec<crate::surrogate::Prediction>,
    constraints: Vec<Vec<crate::surrogate::Prediction>>,
}

/// The loop's [`AcquisitionOracle`]: scores candidate batches under the
/// fitted surrogates through [`score_candidates`] (and therefore through the
/// persistent [`ScoreBuffers`] and the banded worker-pool split).
struct ModelOracle<'a, M: SurrogateModel> {
    fitted: &'a FittedModels<M>,
    kind: AcquisitionKind,
    tau: Option<f64>,
    scores: &'a mut ScoreBuffers,
}

impl<M: SurrogateModel> AcquisitionOracle for ModelOracle<'_, M> {
    fn score(&mut self, candidates: &[Vec<f64>]) -> &[f64] {
        score_candidates(
            self.fitted,
            candidates,
            self.kind,
            self.tau,
            self.scores,
            score_bands(candidates.len()),
        );
        &self.scores.acquisition
    }
}

/// Candidate pools below this size are scored single-threaded: the
/// per-band dispatch overhead outweighs the prediction work.
const PARALLEL_SCORE_MIN_CANDIDATES: usize = 256;

/// Minimum candidates per band, so the split never degenerates into
/// per-point dispatch (and band batches stay below the surrogates' own
/// internal fan-out thresholds).
const PARALLEL_SCORE_BAND_MIN: usize = 128;

/// Number of bands to split `n` candidates over: bounded by the pool's
/// useful fan-out and by [`PARALLEL_SCORE_BAND_MIN`] points per band; `1`
/// (the sequential reference) below the parallel threshold or on a
/// single-participant pool.
fn score_bands(n: usize) -> usize {
    if n < PARALLEL_SCORE_MIN_CANDIDATES {
        return 1;
    }
    nnbo_pool::WorkerPool::global()
        .fan_out()
        .min(n / PARALLEL_SCORE_BAND_MIN)
        .max(1)
}

/// Scores `candidates` under the fitted surrogates, filling
/// `scores.acquisition` with one acquisition value per candidate (in
/// candidate order).
///
/// The candidates are split into at most `bands` contiguous chunks, each
/// predicted into its own [`BandBuffers`] and scored into its disjoint
/// slice of the acquisition output.  One band (`bands <= 1`, or fewer than
/// two candidates) is the sequential reference and runs inline; more run as
/// one [`nnbo_pool::WorkerPool::global`] batch task each.  Because
/// [`SurrogateModel::predict_batch_into`] is contractually per-point
/// (overrides must write exactly what per-point `predict` calls would),
/// chunked prediction — and therefore the whole banded path — is
/// **bit-identical** to the sequential reference, which the loop's tests
/// pin at forced band counts.
fn score_candidates<M: SurrogateModel>(
    fitted: &FittedModels<M>,
    candidates: &[Vec<f64>],
    kind: AcquisitionKind,
    tau: Option<f64>,
    scores: &mut ScoreBuffers,
    bands: usize,
) {
    let n = candidates.len();
    scores.acquisition.clear();
    scores.acquisition.resize(n, f64::NEG_INFINITY);
    let chunk = n.div_ceil(bands.max(1)).max(1);
    let n_bands = n.div_ceil(chunk).max(1);
    if scores.bands.len() < n_bands {
        scores.bands.resize_with(n_bands, BandBuffers::default);
    }
    let score_band = |chunk_xs: &[Vec<f64>], out: &mut [f64], band: &mut BandBuffers| {
        fitted
            .objective
            .predict_batch_into(chunk_xs, &mut band.objective);
        band.constraints
            .resize_with(fitted.constraints.len(), Vec::new);
        for (model, preds) in fitted.constraints.iter().zip(band.constraints.iter_mut()) {
            model.predict_batch_into(chunk_xs, preds);
        }
        let mut constraint_buf = Vec::with_capacity(band.constraints.len());
        for (idx, objective_pred) in band.objective.iter().enumerate() {
            constraint_buf.clear();
            constraint_buf.extend(band.constraints.iter().map(|preds| preds[idx]));
            out[idx] = acquisition::evaluate(kind, objective_pred, &constraint_buf, tau);
        }
    };
    if n_bands == 1 {
        score_band(candidates, &mut scores.acquisition, &mut scores.bands[0]);
        return;
    }
    let score_band = &score_band;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = candidates
        .chunks(chunk)
        .zip(scores.acquisition.chunks_mut(chunk))
        .zip(scores.bands.iter_mut())
        .map(|((chunk_xs, out), band)| {
            Box::new(move || score_band(chunk_xs, out, band)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    nnbo_pool::WorkerPool::global().run_batch(tasks);
}

/// Draws a standard-normal sample by the Box–Muller transform (avoids pulling in a
/// distribution crate).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{ConstrainedBranin, Hartmann6};

    fn fast_neural(config: BoConfig) -> BayesOpt<NeuralGpEnsembleTrainer> {
        BayesOpt::neural_with(config, EnsembleConfig::fast())
    }

    /// A deterministic analytic surrogate: predictions depend only on the
    /// query point and a weight, so banded and sequential scoring of the
    /// same candidates must agree bit for bit.
    struct RampModel {
        w: f64,
    }

    impl SurrogateModel for RampModel {
        fn predict(&self, x: &[f64]) -> crate::surrogate::Prediction {
            let s: f64 = x
                .iter()
                .enumerate()
                .map(|(i, v)| v * (i as f64 + self.w))
                .sum();
            crate::surrogate::Prediction::new(s.sin(), 0.1 + s.cos().abs())
        }
    }

    #[test]
    fn banded_acquisition_scoring_is_bit_identical_to_sequential() {
        let fitted = FittedModels {
            objective: RampModel { w: 1.3 },
            constraints: vec![RampModel { w: 2.7 }, RampModel { w: 0.4 }],
            trained_on: 16,
            last_full_fit: 16,
            fit_nll_per_point: None,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let candidates: Vec<Vec<f64>> = (0..1280)
            .map(|_| (0..6).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        for (kind, tau) in [
            (AcquisitionKind::WeightedExpectedImprovement, Some(0.2)),
            (AcquisitionKind::WeightedExpectedImprovement, None),
            (
                AcquisitionKind::LowerConfidenceBound { kappa: 2.0 },
                Some(-0.4),
            ),
        ] {
            let mut reference = ScoreBuffers::new();
            score_candidates(&fitted, &candidates, kind, tau, &mut reference, 1);
            assert_eq!(reference.acquisition.len(), candidates.len());
            // Forced band counts stand in for forced worker counts: each band
            // is one worker-pool task, whichever thread picks it up.
            for bands in [2, 3, 5, 8] {
                let mut banded = ScoreBuffers::new();
                score_candidates(&fitted, &candidates, kind, tau, &mut banded, bands);
                assert_eq!(
                    banded.acquisition, reference.acquisition,
                    "bands={bands} diverged for {kind:?}/tau={tau:?}"
                );
            }
        }
    }

    #[test]
    fn score_bands_respects_the_thresholds() {
        assert_eq!(score_bands(0), 1);
        assert_eq!(score_bands(PARALLEL_SCORE_MIN_CANDIDATES - 1), 1);
        let bands = score_bands(1280);
        assert!((1..=8).contains(&bands));
        assert!(bands <= 1280 / PARALLEL_SCORE_BAND_MIN);
    }

    #[test]
    fn untrainable_ensembles_are_rejected_when_the_run_starts() {
        let fast = EnsembleConfig::fast();
        let untrainable = [
            (
                "members",
                EnsembleConfig {
                    members: 0,
                    ..fast.clone()
                },
            ),
            (
                "feature_dim",
                EnsembleConfig {
                    member_config: crate::NeuralGpConfig {
                        feature_dim: 0,
                        ..fast.member_config.clone()
                    },
                    ..fast.clone()
                },
            ),
            (
                "hidden_dims",
                EnsembleConfig {
                    member_config: crate::NeuralGpConfig {
                        hidden_dims: vec![0, 8],
                        ..fast.member_config.clone()
                    },
                    ..fast.clone()
                },
            ),
            (
                "log-noise clamp band",
                EnsembleConfig {
                    member_config: crate::NeuralGpConfig {
                        min_log_noise: 0.5,
                        max_log_noise: -0.5,
                        ..fast.member_config.clone()
                    },
                    ..fast.clone()
                },
            ),
        ];
        let problem = ConstrainedBranin::new();
        let config = BoConfig::fast(4, 7).with_seed(1);
        let trainable = BayesOpt::neural_with(config.clone(), fast.clone());
        let snapshot = trainable.snapshot(&trainable.start(&problem).unwrap());
        for (setting, ensemble) in untrainable {
            for parallel in [false, true] {
                let ensemble = EnsembleConfig {
                    parallel,
                    ..ensemble.clone()
                };
                let bo = BayesOpt::neural_with(config.clone(), ensemble.clone());
                match bo.run(&problem) {
                    Err(BoError::InvalidConfig { details }) => {
                        assert!(details.contains(setting), "{ensemble:?}: {details}");
                    }
                    other => panic!("{ensemble:?}: expected InvalidConfig, got {other:?}"),
                }
                // A checkpoint taken under the same loop configuration does
                // not make the trainer trainable either.
                assert!(
                    matches!(bo.resume(&snapshot), Err(BoError::InvalidConfig { .. })),
                    "{ensemble:?}: resume accepted an untrainable trainer"
                );
            }
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let problem = ConstrainedBranin::new();
        let too_few_init = fast_neural(BoConfig::fast(1, 10));
        assert!(matches!(
            too_few_init.run(&problem),
            Err(BoError::InvalidConfig { .. })
        ));
        let budget_too_small = fast_neural(BoConfig::fast(10, 5));
        assert!(matches!(
            budget_too_small.run(&problem),
            Err(BoError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn respects_the_evaluation_budget() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(6, 10).with_seed(3));
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 10);
        assert_eq!(result.initial_samples(), 6);
    }

    #[test]
    fn suggest_cost_counts_model_guided_iterations_only() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(6, 11).with_seed(9));
        let result = bo.run(&problem).unwrap();
        let cost = result.suggest_cost();
        // One acquisition maximization per model-guided iteration; the
        // initial design and any fallback suggests are never counted.
        assert_eq!(cost.calls, 11 - 6);
        assert!(cost.nanos > 0, "scoring a candidate pool takes time");
        assert!((cost.mean_nanos() - cost.nanos as f64 / cost.calls as f64).abs() < 1e-9);
        // Histories assembled outside the loop carry no acquisition cost.
        let synthetic = OptimizationResult::from_history(result.evaluations().to_vec(), 6);
        assert_eq!(synthetic.suggest_cost(), SuggestCost::default());
        assert_eq!(synthetic.suggest_cost().mean_nanos(), 0.0);
    }

    #[test]
    fn finds_a_feasible_branin_point_and_improves_over_initial_design() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(10, 28).with_seed(11));
        let result = bo.run(&problem).unwrap();
        let best = result.best_objective().expect("a feasible point is found");
        // The initial-design-only best (first 10 evaluations).
        let initial_best = result.evaluations()[..10]
            .iter()
            .filter(|(_, e)| e.is_feasible())
            .map(|(_, e)| e.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best <= initial_best,
            "BO best {best} vs initial {initial_best}"
        );
        assert!(
            best < 3.0,
            "best Branin value {best} is far from the optimum"
        );
    }

    #[test]
    fn unconstrained_problems_work_too() {
        let problem = Hartmann6::new();
        let bo = fast_neural(BoConfig::fast(12, 22).with_seed(5));
        let result = bo.run(&problem).unwrap();
        // Every evaluation of an unconstrained problem is feasible.
        assert_eq!(result.first_feasible_at(), Some(1));
        assert!(result.best_objective().unwrap() < -0.5);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let problem = ConstrainedBranin::new();
        let run = |seed| {
            fast_neural(BoConfig::fast(6, 12).with_seed(seed))
                .run(&problem)
                .unwrap()
                .evaluations()
                .iter()
                .map(|(_, e)| e.objective)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn convergence_curve_is_monotone_nonincreasing() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(8, 16).with_seed(7));
        let result = bo.run(&problem).unwrap();
        let curve = result.convergence_curve();
        assert_eq!(curve.len(), result.num_evaluations());
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn simulations_to_converge_is_consistent_with_history() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(8, 16).with_seed(19));
        let result = bo.run(&problem).unwrap();
        if let Some(n) = result.simulations_to_converge(1e-9) {
            assert!(n <= result.num_evaluations());
            let curve = result.convergence_curve();
            assert!((curve[n - 1] - result.best_objective().unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_refit_cadence_runs_and_still_optimizes() {
        let problem = ConstrainedBranin::new();
        // Full hyper-parameter refit only every 4 evaluations; the iterations
        // in between absorb their observation through rank-1 updates.
        let bo = fast_neural(
            BoConfig::fast(10, 26)
                .with_seed(11)
                .with_refit_policy(RefitPolicy::Fixed(4)),
        );
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 26);
        // 16 model-guided iterations at cadence 4: far fewer full refits than
        // always-refit would perform.
        assert!(
            result.full_refits() < 16,
            "cadence 4 performed {} full refits",
            result.full_refits()
        );
        let best = result.best_objective().expect("a feasible point is found");
        assert!(
            best < 5.0,
            "best Branin value {best} with incremental refits"
        );
    }

    #[test]
    fn refit_every_one_matches_the_always_refit_reference() {
        // Fixed(1) must reproduce the plain always-refit loop exactly: the
        // incremental path never triggers and the rng stream is untouched.
        let problem = ConstrainedBranin::new();
        let base = fast_neural(BoConfig::fast(6, 12).with_seed(21))
            .run(&problem)
            .unwrap();
        let explicit = fast_neural(
            BoConfig::fast(6, 12)
                .with_seed(21)
                .with_refit_policy(RefitPolicy::Fixed(1)),
        )
        .run(&problem)
        .unwrap();
        assert_eq!(base.evaluations(), explicit.evaluations());
        // Always-refit means one full fit per model-guided iteration.
        assert_eq!(base.full_refits(), 12 - 6);
    }

    #[test]
    fn nll_drift_with_zero_threshold_is_bit_identical_to_always_refit() {
        // threshold = 0 means every measured drift (the comparison is ≥)
        // triggers a full refit on the min_gap = 1 cadence, and the full fit
        // warm-starts from incrementally updated models whose parameters are
        // frozen copies of the last fit's — so the suggestions, evaluations
        // and rng stream reproduce the always-refit loop exactly.
        let problem = ConstrainedBranin::new();
        let always = fast_neural(BoConfig::fast(6, 13).with_seed(29))
            .run(&problem)
            .unwrap();
        let drift = fast_neural(BoConfig::fast(6, 13).with_seed(29).with_refit_policy(
            RefitPolicy::NllDrift {
                threshold: 0.0,
                min_gap: 1,
                max_gap: 1000,
            },
        ))
        .run(&problem)
        .unwrap();
        assert_eq!(always.evaluations(), drift.evaluations());
        assert_eq!(always.full_refits(), drift.full_refits());
    }

    #[test]
    fn nll_drift_saves_full_refits_and_still_optimizes() {
        let problem = ConstrainedBranin::new();
        let always = fast_neural(BoConfig::fast(10, 26).with_seed(11))
            .run(&problem)
            .unwrap();
        let drift = fast_neural(
            BoConfig::fast(10, 26)
                .with_seed(11)
                .with_refit_policy(RefitPolicy::nll_drift(0.5)),
        )
        .run(&problem)
        .unwrap();
        assert_eq!(drift.num_evaluations(), always.num_evaluations());
        assert!(
            drift.full_refits() < always.full_refits(),
            "drift performed {} full refits vs always-refit's {}",
            drift.full_refits(),
            always.full_refits()
        );
        let best = drift.best_objective().expect("a feasible point is found");
        assert!(best < 5.0, "best Branin value {best} under drift refits");
    }

    #[test]
    fn invalid_refit_policies_are_rejected() {
        let problem = ConstrainedBranin::new();
        for policy in [
            RefitPolicy::Fixed(0),
            RefitPolicy::NllDrift {
                threshold: -1.0,
                min_gap: 1,
                max_gap: 4,
            },
            RefitPolicy::NllDrift {
                threshold: f64::NAN,
                min_gap: 1,
                max_gap: 4,
            },
            RefitPolicy::NllDrift {
                threshold: 0.1,
                min_gap: 0,
                max_gap: 4,
            },
            RefitPolicy::NllDrift {
                threshold: 0.1,
                min_gap: 5,
                max_gap: 4,
            },
        ] {
            let bo = fast_neural(BoConfig::fast(6, 10).with_refit_policy(policy));
            assert!(
                matches!(bo.run(&problem), Err(BoError::InvalidConfig { .. })),
                "policy {policy:?} was not rejected"
            );
        }
    }

    #[test]
    fn refit_policy_due_rule_is_the_documented_one() {
        assert!(RefitPolicy::Fixed(1).due(1, None));
        assert!(!RefitPolicy::Fixed(4).due(3, Some(1e9)));
        assert!(RefitPolicy::Fixed(4).due(4, None));
        let drift = RefitPolicy::NllDrift {
            threshold: 0.25,
            min_gap: 2,
            max_gap: 6,
        };
        // Below min_gap: never, no matter the drift.
        assert!(!drift.due(1, Some(10.0)));
        // In the band: thresholded (the comparison is ≥).
        assert!(!drift.due(2, Some(0.1)));
        assert!(drift.due(2, Some(0.25)));
        // Unknown drift: conservative refit.
        assert!(drift.due(2, None));
        // Degenerate (non-finite) drift — the incremental likelihood itself
        // broke — is also a conservative refit, not "no drift measured".
        assert!(drift.due(2, Some(f64::NAN)));
        assert!(drift.due(2, Some(f64::INFINITY)));
        // At max_gap: always.
        assert!(drift.due(6, Some(0.0)));
    }

    #[test]
    fn suggest_returns_a_point_in_the_unit_cube() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(6, 12).with_seed(3));
        let mut rng = StdRng::seed_from_u64(9);
        let history: Vec<_> = latin_hypercube_history(&problem, 8, &mut rng);
        let x = bo.suggest(&problem, &history, &mut rng).unwrap();
        assert_eq!(x.len(), problem.dim());
        assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    fn latin_hypercube_history(
        problem: &dyn crate::problems::Problem,
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<(Vec<f64>, crate::problems::Evaluation)> {
        crate::sampling::latin_hypercube(n, problem.dim(), rng)
            .into_iter()
            .map(|x| {
                let e = problem.evaluate(&x);
                (x, e)
            })
            .collect()
    }

    #[test]
    fn alternative_acquisitions_run_end_to_end() {
        let problem = ConstrainedBranin::new();
        for kind in [
            AcquisitionKind::ExpectedImprovement,
            AcquisitionKind::LowerConfidenceBound { kappa: 2.0 },
            AcquisitionKind::ProbabilityOfImprovement,
        ] {
            let bo = fast_neural(BoConfig::fast(6, 10).with_seed(2).with_acquisition(kind));
            let result = bo.run(&problem).unwrap();
            assert_eq!(result.num_evaluations(), 10);
        }
    }

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fault injection: fails every `try_evaluate` whose 0-based call index
    /// falls in `fail_from..fail_until` (retries consume call indices too).
    struct BurstFailure<P> {
        inner: P,
        calls: AtomicUsize,
        fail_from: usize,
        fail_until: usize,
    }

    impl<P: Problem> BurstFailure<P> {
        fn new(inner: P, fail_from: usize, fail_until: usize) -> Self {
            BurstFailure {
                inner,
                calls: AtomicUsize::new(0),
                fail_from,
                fail_until,
            }
        }
    }

    impl<P: Problem> Problem for BurstFailure<P> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn num_constraints(&self) -> usize {
            self.inner.num_constraints()
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            self.inner.evaluate(x)
        }
        fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
            let i = self.calls.fetch_add(1, Ordering::SeqCst);
            if i >= self.fail_from && i < self.fail_until {
                EvalOutcome::Failed(format!("injected failure on call {i}"))
            } else {
                self.inner.try_evaluate(x)
            }
        }
    }

    /// Fault injection: fails the `fit_many` calls whose 0-based call index
    /// is listed, delegating everything else to the wrapped trainer.
    struct FailNthFit<T> {
        inner: T,
        calls: AtomicUsize,
        fail_calls: Vec<usize>,
    }

    impl<T: SurrogateTrainer> SurrogateTrainer for FailNthFit<T> {
        type Model = T::Model;

        fn fit(
            &self,
            xs: &[Vec<f64>],
            ys: &[f64],
            rng: &mut StdRng,
        ) -> Result<Self::Model, String> {
            self.inner.fit(xs, ys, rng)
        }

        fn fit_many(
            &self,
            xs: &[Vec<f64>],
            targets: &[Vec<f64>],
            prev: Option<&[&Self::Model]>,
            rng: &mut StdRng,
        ) -> Result<Vec<Self::Model>, String> {
            let i = self.calls.fetch_add(1, Ordering::SeqCst);
            if self.fail_calls.contains(&i) {
                return Err(format!("injected fit failure on call {i}"));
            }
            self.inner.fit_many(xs, targets, prev, rng)
        }

        fn update(
            &self,
            prev: &Self::Model,
            x: &[f64],
            y: f64,
            rng: &mut StdRng,
        ) -> Option<Result<Self::Model, String>> {
            self.inner.update(prev, x, y, rng)
        }
    }

    #[test]
    fn failed_evaluations_are_retried_imputed_and_never_win() {
        // Calls 8..12 fail: the initial design (6 calls) stays clean, then a
        // model-guided evaluation exhausts its retries (3 calls under the
        // default policy) and is imputed, and the next one recovers through
        // a retry.
        let problem = BurstFailure::new(ConstrainedBranin::new(), 8, 12);
        let bo = fast_neural(BoConfig::fast(6, 14).with_seed(17));
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 14);
        let rec = result.recovery();
        assert!(rec.eval_failures > 0, "no failures recorded: {rec:?}");
        assert!(rec.eval_retries > 0, "no retries recorded: {rec:?}");
        assert!(!rec.imputed.is_empty(), "nothing imputed: {rec:?}");
        assert!(!rec.is_clean());
        for (i, (x, e)) in result.evaluations().iter().enumerate() {
            assert!(
                e.objective.is_finite() && e.constraints.iter().all(|g| g.is_finite()),
                "non-finite evaluation at index {i}"
            );
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // An optimum must come from a real simulation, never an imputed
        // stand-in.
        let best = result.best_index().expect("a real feasible point exists");
        assert!(!rec.imputed.contains(&best));
    }

    #[test]
    fn clean_runs_are_bit_identical_across_failure_policies() {
        // The resilience layer must be inert on a failure-free run: no extra
        // rng draws, no recovery events, identical evaluations whatever the
        // policy.
        let problem = ConstrainedBranin::new();
        let base = fast_neural(BoConfig::fast(6, 12).with_seed(33))
            .run(&problem)
            .unwrap();
        assert!(base.recovery().is_clean());
        assert_eq!(base.recovery().total_events(), 0);
        for policy in [
            FailurePolicy::no_retries(),
            FailurePolicy {
                max_retries: 5,
                retry_jitter: 0.2,
                on_exhausted: FailureAction::Penalize { margin: 0.5 },
                max_failure_refits: 1,
            },
            FailurePolicy {
                on_exhausted: FailureAction::ImputeWorst,
                ..FailurePolicy::default()
            },
        ] {
            let run = fast_neural(
                BoConfig::fast(6, 12)
                    .with_seed(33)
                    .with_failure_policy(policy),
            )
            .run(&problem)
            .unwrap();
            assert_eq!(base.evaluations(), run.evaluations());
            assert!(run.recovery().is_clean());
        }
    }

    #[test]
    fn snapshot_resume_is_bit_identical_through_json() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(6, 14).with_seed(5));
        let reference = bo.run(&problem).unwrap();

        let mut state = bo.start(&problem).unwrap();
        for _ in 0..3 {
            assert!(bo.step(&problem, &mut state).unwrap());
        }
        let snap = bo.snapshot(&state);
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.num_evaluations(), 6 + 3);
        let restored = BoSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, restored);

        let mut resumed = bo.resume(&restored).unwrap();
        while bo.step(&problem, &mut state).unwrap() {}
        while bo.step(&problem, &mut resumed).unwrap() {}
        let direct = bo.finish(state);
        let from_snapshot = bo.finish(resumed);
        assert_eq!(direct.evaluations(), from_snapshot.evaluations());
        assert_eq!(direct.full_refits(), from_snapshot.full_refits());
        // And both match the uninterrupted run bit for bit.
        assert_eq!(direct.evaluations(), reference.evaluations());
        assert_eq!(direct.full_refits(), reference.full_refits());
    }

    #[test]
    fn resume_rejects_version_and_config_mismatches() {
        let problem = ConstrainedBranin::new();
        let bo = fast_neural(BoConfig::fast(6, 12).with_seed(1));
        let mut state = bo.start(&problem).unwrap();
        assert!(bo.step(&problem, &mut state).unwrap());
        let snap = bo.snapshot(&state);

        let mut wrong_version = snap.clone();
        wrong_version.version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            bo.resume(&wrong_version),
            Err(BoError::SnapshotMismatch { .. })
        ));

        let other_config = fast_neural(BoConfig::fast(6, 12).with_seed(2));
        assert!(matches!(
            other_config.resume(&snap),
            Err(BoError::SnapshotMismatch { .. })
        ));

        assert!(matches!(
            BoSnapshot::from_json("not a snapshot"),
            Err(BoError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn deeply_nested_snapshot_json_is_an_error_not_an_abort() {
        // Uncapped, the recursive JSON parser overflowed the stack (aborting
        // the process) on a run of 50,000 `[`.
        let deep = "{\"version\":".to_string() + &"[".repeat(200_000);
        assert!(matches!(
            BoSnapshot::from_json(&deep),
            Err(BoError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn drift_refits_from_imputed_observations_are_capped() {
        // Every model-guided evaluation fails and is imputed; the imputed
        // stand-ins move the likelihood, so an uncapped drift policy would
        // charge a full refit every iteration for observations that carry no
        // information.  The cap allows max_failure_refits consecutive
        // failure-driven refits, then pins the loop to the incremental path.
        let problem = BurstFailure::new(ConstrainedBranin::new(), 6, usize::MAX);
        let policy = FailurePolicy {
            max_retries: 0,
            on_exhausted: FailureAction::ImputeWorst,
            max_failure_refits: 2,
            ..FailurePolicy::default()
        };
        let bo = fast_neural(
            BoConfig::fast(6, 12)
                .with_seed(13)
                .with_failure_policy(policy)
                .with_refit_policy(RefitPolicy::NllDrift {
                    threshold: 0.0,
                    min_gap: 1,
                    max_gap: 1000,
                }),
        );
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 12);
        let rec = result.recovery();
        assert_eq!(rec.imputed.len(), 6, "all guided evaluations imputed");
        // 1 initial fit + the 2 allowed failure-driven refits.
        assert_eq!(result.full_refits(), 3, "recovery: {rec:?}");
        // The remaining 3 drift triggers were suppressed.
        assert_eq!(rec.failure_refits_suppressed, 3, "recovery: {rec:?}");
    }

    #[test]
    fn a_run_resumed_mid_failure_burst_ends_with_the_same_ledger() {
        // Guided calls 6..10 fail and are imputed; a drift threshold of 0
        // makes every one of them trigger a refit, so the failure-refit
        // streak climbs to its cap of 2 and then suppresses.  The run is
        // checkpointed through JSON with the streak open, resumed on the
        // same problem (whose call counter carries the burst on), and must
        // end with the uninterrupted run's ledger: history, refit and
        // suggestion counts, recovery log and streak.
        let config = BoConfig::fast(6, 14)
            .with_seed(23)
            .with_failure_policy(FailurePolicy {
                max_retries: 0,
                on_exhausted: FailureAction::ImputeWorst,
                max_failure_refits: 2,
                ..FailurePolicy::default()
            })
            .with_refit_policy(RefitPolicy::NllDrift {
                threshold: 0.0,
                min_gap: 1,
                max_gap: 1000,
            });
        let bo = fast_neural(config);
        let burst = || BurstFailure::new(ConstrainedBranin::new(), 6, 10);
        let timeless = |mut result: OptimizationResult| {
            result.ledger.suggest.nanos = 0;
            result.ledger
        };
        let reference = timeless(bo.run(&burst()).unwrap());
        assert!(reference.recovery.failure_refits_suppressed > 0);

        let problem = burst();
        let mut state = bo.start(&problem).unwrap();
        for _ in 0..3 {
            assert!(bo.step(&problem, &mut state).unwrap());
        }
        assert!(
            state.ledger.consecutive_failure_refits > 0,
            "no open failure-refit streak at the checkpoint: {:?}",
            state.ledger
        );
        let snapshot = BoSnapshot::from_json(&bo.snapshot(&state).to_json()).unwrap();
        drop(state);
        let mut resumed = bo.resume(&snapshot).unwrap();
        while bo.step(&problem, &mut resumed).unwrap() {}
        assert_eq!(timeless(bo.finish(resumed)), reference);
    }

    #[test]
    fn fit_failures_degrade_to_stale_models_or_space_filling() {
        let problem = ConstrainedBranin::new();
        // Fit call 2 fails with models alive: the loop keeps scoring with the
        // stale surrogates and recovers on the next iteration's full fit.
        let bo = BayesOpt::with_trainer(
            BoConfig::fast(6, 12).with_seed(7),
            FailNthFit {
                inner: NeuralGpEnsembleTrainer::new(EnsembleConfig::fast()),
                calls: AtomicUsize::new(0),
                fail_calls: vec![2],
            },
        );
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 12);
        assert_eq!(result.recovery().degraded_refits, 1);
        assert_eq!(result.recovery().fallback_suggests, 0);
        // 6 model-guided iterations, one of which kept stale models.
        assert_eq!(result.full_refits(), 5);

        // The very first fit fails with nothing to fall back on: that
        // iteration degrades all the way to a space-filling suggestion.
        let bo = BayesOpt::with_trainer(
            BoConfig::fast(6, 12).with_seed(7),
            FailNthFit {
                inner: NeuralGpEnsembleTrainer::new(EnsembleConfig::fast()),
                calls: AtomicUsize::new(0),
                fail_calls: vec![0],
            },
        );
        let result = bo.run(&problem).unwrap();
        assert_eq!(result.num_evaluations(), 12);
        assert_eq!(result.recovery().fallback_suggests, 1);
        assert_eq!(result.full_refits(), 5);
    }
}
