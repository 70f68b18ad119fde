//! # `nnbo-core` — Bayesian optimization with a neural-network Gaussian process
//!
//! This crate implements the primary contribution of *"Bayesian Optimization
//! Approach for Analog Circuit Synthesis Using Neural Network"* (Zhang et al.,
//! DATE 2019):
//!
//! * [`NeuralGp`] — a Gaussian-process surrogate whose kernel is defined implicitly
//!   by a learned feature map: a fully-connected ReLU network maps the design point
//!   to an `M`-dimensional feature vector and a Bayesian linear model on those
//!   features is an exact GP (weight-space view, eqs. 8–10 of the paper).  The
//!   network weights and the hyper-parameters `σn`, `σp` are trained jointly by
//!   maximising the log marginal likelihood (eqs. 11–12) with Adam.  Training cost
//!   is `O(N·M² + M³)` — linear in the number of observations — and prediction cost
//!   is constant, versus `O(N³)`/`O(N²)` for the classical GP.
//! * [`NeuralGpEnsemble`] — the model average of `K` randomly-initialised neural
//!   GPs (eq. 13), improving the quality of the predicted uncertainty.
//! * [`acquisition`] — expected improvement, the constraint-weighted expected
//!   improvement (wEI, eq. 7) used by the paper, UCB and PI.
//! * [`BayesOpt`] — the constrained single-objective Bayesian-optimization loop of
//!   Algorithm 1, generic over the surrogate so the classic-GP baselines can reuse
//!   it.
//! * [`problems`] — ready-made [`Problem`] adapters for the paper's two circuits
//!   (the two-stage op-amp of Table I and the charge pump of Table II, both
//!   simulated by [`nnbo_circuits`]) plus synthetic constrained benchmarks.
//!
//! # Surrogate lifecycle: refit policies and warm refits
//!
//! The Bayesian-optimization loop decides *when* to perform a full surrogate
//! refit through [`RefitPolicy`] (`BoConfig::refit`):
//!
//! * [`RefitPolicy::Fixed`]`(k)` refits every `k` evaluations —
//!   `Fixed(1)` is the paper's Algorithm 1, retraining at every iteration.
//! * [`RefitPolicy::NllDrift`] adapts the cadence to observed model quality:
//!   every incremental `append_observation` refreshes the surrogates'
//!   maintained likelihood ([`SurrogateModel::training_nll`]) under the
//!   frozen parameters, and a full warm refit triggers only when the
//!   per-point NLL has drifted past a threshold since the last full fit
//!   (with a `min_gap`/`max_gap` band bounding the cadence).  With
//!   `threshold = 0` it reproduces always-refit bit for bit; with a real
//!   threshold it reaches near-always-refit likelihoods at a fraction of
//!   the full fits (`reproduce fit`'s `refit_policy` section measures
//!   this).
//!
//! Both surrogate families amortize the full refits that do happen instead
//! of starting from scratch:
//!
//! * [`NeuralGp::fit_warm`] continues Adam from the previous fit's flat
//!   parameters (`log σn`, `log σp`, network weights) for the reduced
//!   [`NeuralGpConfig::warm_epochs`] budget with a gradient-norm early stop,
//!   falling back to the full cold training when the warm descent's final
//!   likelihood regresses past the cold initial point — so a warm refit is
//!   never worse than not training at all.
//! * [`NeuralGpEnsemble::fit_warm`] applies that member-by-member: member `k`
//!   continues from the previous ensemble's member `k` (DNN-Opt-style
//!   amortized retraining), and `NeuralGpEnsembleTrainer`'s
//!   [`SurrogateTrainer::fit_many`] pairs the previous ensembles that
//!   [`BayesOpt`] passes with the flat outputs × members job list.
//! * Between full refits, `append_observation` on either surrogate absorbs a
//!   single observation in `O(M²)` / `O(K·M²)` with everything else frozen.
//!
//! # Fault tolerance: the error and recovery taxonomy
//!
//! Real circuit simulations fail — a corner doesn't converge, a license times
//! out, a small-signal system is singular at some design point.  The loop separates
//! *recoverable faults*, which it absorbs and logs, from *errors*, which
//! abort the run via [`BoError`]:
//!
//! * **Evaluation faults.**  [`Problem::try_evaluate`] returns an
//!   [`EvalOutcome`]: `Ok(evaluation)`, `Failed(reason)` or `Timeout`.  On a
//!   fault, [`FailurePolicy`] (`BoConfig::failure`) first retries up to
//!   `max_retries` times with a small deterministic jitter on the design
//!   point, then imputes a stand-in via [`FailureAction`]: mark the point
//!   infeasible, impute the worst observed objective, or penalize by a
//!   margin.  Imputed values are derived from *real* observations only, the
//!   imputed indices are recorded, and an imputed stand-in can never be
//!   reported as the optimum.  The retry jitter draws from the run's RNG only
//!   on the failure path, so a clean run is bit-identical under every policy.
//! * **Linear-algebra faults.**  A Cholesky factorization that fails inside a
//!   fit or an incremental append is retried under a geometric jitter ladder
//!   (nugget `1e-10 → 1e-4`) before the fault is surfaced; recoveries are
//!   counted per model ([`ModelResilience`]).
//! * **Surrogate degradation.**  When a full refit fails with previous models
//!   in hand, the loop keeps the stale models for the iteration and retries a
//!   full fit next time (`degraded_refits`).  When no models exist at all,
//!   the iteration falls back to a space-filling random suggestion
//!   (`fallback_suggests`) instead of aborting.  A refit triggered *by* an
//!   imputed observation is capped at `FailurePolicy::max_failure_refits`
//!   consecutive occurrences (`failure_refits_suppressed`), so a failure
//!   burst cannot thrash the refit schedule.
//! * **Accounting.**  Every recovery increments a counter in the run's
//!   [`RecoveryLog`] ([`OptimizationResult::recovery`]); `is_clean()` is the
//!   loop's promise that nothing above happened.
//! * **Errors.**  What remains is a typed [`BoError`]: `InvalidConfig` /
//!   `InvalidProblem` before the loop starts (the trainer's own configuration
//!   is checked there too, through [`SurrogateTrainer::validate`], so an
//!   ensemble without members or with a zero-width network is refused up
//!   front rather than run as random search), `SurrogateTraining` when even
//!   the degradation ladder is out of options, `SnapshotMismatch` when a
//!   checkpoint can't be restored, and `Internal` for violated loop
//!   invariants (which abort rather than corrupt state).
//!
//! # Checkpoint and resume
//!
//! The loop is also re-entrant: [`BayesOpt::start`] / [`BayesOpt::step`] /
//! [`BayesOpt::finish`] expose one model-guided iteration at a time over a
//! [`BoState`].  The state keeps the run's record once, in one ledger: the
//! evaluation history, the full-refit count, the [`SuggestCost`], the
//! [`RecoveryLog`] and the streak of failure-driven refits.
//! [`BayesOpt::snapshot`] captures a versioned [`BoSnapshot`] (the ledger
//! cloned whole, the RNG state and the fitted model payloads with their refit
//! bookkeeping) that serialises to JSON with bit-exact floats,
//! [`BayesOpt::resume`] restores it after validating the snapshot version and
//! configuration, and [`BayesOpt::finish`] moves the ledger into the
//! [`OptimizationResult`].  A resumed run continues **bit-identically** to
//! the uninterrupted one and ends with the same ledger — including
//! mid-drift-window, where the snapshot carries the incrementally updated
//! surrogates and the NLL drift reference exactly, and mid-failure-burst,
//! where it carries the open failure-refit streak.
//!
//! # Serving many sessions
//!
//! The checkpoint machinery is the persistence substrate of the workspace's
//! serving layer, `nnbo-serve`: a supervised multi-session service that runs
//! each optimization as `start`/`step`/`finish` on a process-wide bounded
//! worker pool, persists every iteration's `BoSnapshot` JSON through a
//! crash-safe atomic session store (write-then-rename with checksummed
//! snapshots, so a `kill -9` loses at most the in-flight iteration), isolates
//! per-session panics via quarantine instead of poisoning the process, and
//! applies per-step deadlines plus admission control (bounded concurrent
//! sessions with explicit backpressure and checkpoint-and-park shedding).
//! Because resumption is bit-identical, a killed-and-restarted service
//! replays the lost iterations and converges to exactly the run it would
//! have produced uninterrupted — `reproduce serve` measures the throughput,
//! supervision overhead and recovery cost of that stack.
//!
//! # Quick start
//!
//! ```
//! use nnbo_core::{BayesOpt, BoConfig, problems::ConstrainedBranin};
//!
//! # fn main() -> Result<(), nnbo_core::BoError> {
//! let problem = ConstrainedBranin::new();
//! let config = BoConfig::fast(8, 12).with_seed(7);
//! let result = BayesOpt::neural(config).run(&problem)?;
//! assert!(result.evaluations().len() <= 12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
mod bo;
mod design_space;
mod ensemble;
mod error;
mod neural_gp;
pub mod problems;
mod report;
mod resilience;
mod sampling;
pub mod strategy;
mod surrogate;

pub use bo::{
    BayesOpt, BoConfig, BoSnapshot, BoState, OptimizationResult, RefitPolicy, SuggestCost,
};
pub use design_space::DesignSpace;
pub use ensemble::{EnsembleConfig, NeuralGpEnsemble, NeuralGpEnsembleTrainer};
pub use error::BoError;
pub use neural_gp::{NeuralGp, NeuralGpConfig};
pub use problems::{EvalOutcome, Evaluation, Problem, SweepAggregation, SweepProblem};
pub use report::{RunStatistics, RunSummary};
pub use resilience::{FailureAction, FailurePolicy, ModelResilience, RecoveryLog};
pub use sampling::{latin_hypercube, uniform_random};
pub use strategy::{DirectionRule, LineSubspaceConfig, SuggestStrategy};
pub use surrogate::{Prediction, SurrogateModel, SurrogateTrainer};
