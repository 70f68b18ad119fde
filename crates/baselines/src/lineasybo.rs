//! LinEasyBO: Bayesian optimization along one-dimensional subspaces.
//!
//! LinEasyBO (Zhang et al., arXiv 2109.00617) keeps the surrogate, the
//! acquisition and the constraint handling of WEIBO but replaces the
//! full-pool acquisition maximization with a line search: every iteration
//! draws a one-dimensional subspace through the incumbent, clips the line
//! exactly to the unit cube, and optimizes the acquisition along that segment
//! only.  Scoring cost per iteration drops from
//! `O((candidate_pool + local_candidates) · N)` surrogate predictions to a
//! small constant (`LineSubspaceConfig::points_per_iteration`, independent of
//! the design dimension), which is what makes model-guided sizing tractable
//! past ~20 design variables.
//!
//! The strategy itself lives in `nnbo-core`
//! ([`SuggestStrategy::LineSubspace`]); this module binds it to the classical
//! ARD-GP surrogate whose fitted lengthscales drive the adaptive
//! [`DirectionRule::LengthscaleWeighted`] direction sampling.  Everything
//! else — warm refits through `GpModel::fit_multi_warm`, incremental
//! `append_observation` updates, failure policies, snapshot/resume — is the
//! exact machinery WEIBO uses, so the two differ *only* in how the next point
//! is proposed.

use nnbo_core::{BayesOpt, BoConfig, DirectionRule, LineSubspaceConfig, SuggestStrategy};

use crate::weibo::GpSurrogateTrainer;

/// Builds the LinEasyBO baseline with the default line-search budget
/// ([`LineSubspaceConfig::default`]: lengthscale-weighted directions, a
/// 64-point coarse grid and two 16-point refinement rounds).
///
/// Any strategy already set on `config` is overridden — this constructor *is*
/// the choice of strategy.
///
/// # Example
///
/// ```
/// use nnbo_baselines::lineasybo;
/// use nnbo_core::{problems::ConstrainedBranin, BoConfig};
///
/// # fn main() -> Result<(), nnbo_core::BoError> {
/// let result = lineasybo(BoConfig::fast(8, 12).with_seed(1)).run(&ConstrainedBranin::new())?;
/// assert_eq!(result.num_evaluations(), 12);
/// # Ok(())
/// # }
/// ```
pub fn lineasybo(config: BoConfig) -> BayesOpt<GpSurrogateTrainer> {
    lineasybo_with(config, LineSubspaceConfig::default())
}

/// Builds LinEasyBO with an explicit line-search configuration (grid budget,
/// refinement rounds, [`DirectionRule`]).
pub fn lineasybo_with(config: BoConfig, line: LineSubspaceConfig) -> BayesOpt<GpSurrogateTrainer> {
    BayesOpt::with_trainer(
        config.with_strategy(SuggestStrategy::LineSubspace(line)),
        GpSurrogateTrainer::default(),
    )
}

/// The purely random-direction variant (no lengthscale adaptation) — the
/// ablation the LinEasyBO paper compares its adaptive directions against.
pub fn lineasybo_random_directions(config: BoConfig) -> BayesOpt<GpSurrogateTrainer> {
    lineasybo_with(
        config,
        LineSubspaceConfig {
            direction: DirectionRule::Random,
            ..LineSubspaceConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnbo_core::problems::ConstrainedBranin;

    fn fast_lineasybo(config: BoConfig) -> BayesOpt<GpSurrogateTrainer> {
        BayesOpt::with_trainer(
            config.with_strategy(SuggestStrategy::line_subspace()),
            GpSurrogateTrainer::fast(),
        )
    }

    #[test]
    fn respects_the_budget_and_stays_in_the_cube() {
        let problem = ConstrainedBranin::new();
        let result = fast_lineasybo(BoConfig::fast(8, 16).with_seed(2))
            .run(&problem)
            .unwrap();
        assert_eq!(result.num_evaluations(), 16);
        for (x, _) in result.evaluations() {
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "escaped: {x:?}");
        }
    }

    #[test]
    fn improves_on_constrained_branin() {
        let problem = ConstrainedBranin::new();
        let result = fast_lineasybo(BoConfig::fast(10, 30).with_seed(5))
            .run(&problem)
            .unwrap();
        let best = result.best_objective().expect("found a feasible point");
        let initial_best = result.evaluations()[..10]
            .iter()
            .filter(|(_, e)| e.is_feasible())
            .map(|(_, e)| e.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best <= initial_best);
        assert!(best < 6.0, "LinEasyBO best {best}");
    }

    #[test]
    fn runs_are_seeded_deterministic() {
        let problem = ConstrainedBranin::new();
        let run = || {
            fast_lineasybo(BoConfig::fast(6, 12).with_seed(7))
                .run(&problem)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.evaluations(), b.evaluations());
        assert_eq!(a.suggest_cost().calls, b.suggest_cost().calls);
    }

    #[test]
    fn suggest_cost_counts_one_line_search_per_guided_iteration() {
        let problem = ConstrainedBranin::new();
        let result = fast_lineasybo(BoConfig::fast(6, 13).with_seed(3))
            .run(&problem)
            .unwrap();
        let cost = result.suggest_cost();
        assert_eq!(cost.calls, 13 - 6);
        assert!(cost.nanos > 0);
    }

    #[test]
    fn random_direction_variant_runs() {
        let problem = ConstrainedBranin::new();
        let result = BayesOpt::with_trainer(
            BoConfig::fast(6, 10)
                .with_seed(4)
                .with_strategy(SuggestStrategy::LineSubspace(LineSubspaceConfig {
                    direction: DirectionRule::Random,
                    ..LineSubspaceConfig::default()
                })),
            GpSurrogateTrainer::fast(),
        )
        .run(&problem)
        .unwrap();
        assert_eq!(result.num_evaluations(), 10);
    }
}
