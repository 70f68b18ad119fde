//! Cross-strategy conformance harness: every acquisition-maximization
//! strategy this crate ships — WEIBO's full-pool search, GASPAD's
//! surrogate-screened evolution, and LinEasyBO's line-subspace search — must
//! honour the same contract, whatever it does internally:
//!
//! * seeded runs are bit-identical, under **both** kernel dispatch paths
//!   (vectorised, and portable inside `nnbo_linalg::with_portable_kernels`);
//! * every suggested point lies inside the unit cube and every recorded
//!   value is finite;
//! * an imputed stand-in for a failed evaluation is never reported as the
//!   optimum;
//! * a snapshot taken mid-run resumes bit-identically, through a JSON
//!   round trip, with the strategy's own snapshot format.
//!
//! The harness is what pins "adding a strategy" to "adding a strategy that
//! behaves": a new variant only has to be added to [`STRATEGIES`] and the
//! whole contract applies to it.

use std::sync::atomic::{AtomicUsize, Ordering};

use nnbo_baselines::{Gaspad, GaspadConfig, GaspadSnapshot, GpSurrogateTrainer};
use nnbo_core::problems::ConstrainedBranin;
use nnbo_core::{
    BayesOpt, BoConfig, BoSnapshot, EvalOutcome, Evaluation, FailureAction, FailurePolicy,
    OptimizationResult, Problem, SuggestStrategy,
};

/// Every strategy under the conformance contract.
const STRATEGIES: [&str; 3] = ["weibo", "lineasybo", "gaspad"];

const INITIAL: usize = 6;
const BUDGET: usize = 14;

fn bo_config(seed: u64) -> BoConfig {
    BoConfig::fast(INITIAL, BUDGET).with_seed(seed)
}

fn weibo_fast(config: BoConfig) -> BayesOpt<GpSurrogateTrainer> {
    BayesOpt::with_trainer(config, GpSurrogateTrainer::fast())
}

fn lineasybo_fast(config: BoConfig) -> BayesOpt<GpSurrogateTrainer> {
    BayesOpt::with_trainer(
        config.with_strategy(SuggestStrategy::line_subspace()),
        GpSurrogateTrainer::fast(),
    )
}

fn gaspad_fast(seed: u64) -> Gaspad {
    Gaspad::with_trainer(
        GaspadConfig::new(INITIAL, BUDGET).with_seed(seed),
        GpSurrogateTrainer::fast(),
    )
}

/// Runs the named strategy on the shared benchmark under the shared budget.
fn run_strategy(name: &str, seed: u64) -> OptimizationResult {
    let problem = ConstrainedBranin::new();
    match name {
        "weibo" => weibo_fast(bo_config(seed)).run(&problem).unwrap(),
        "lineasybo" => lineasybo_fast(bo_config(seed)).run(&problem).unwrap(),
        "gaspad" => gaspad_fast(seed).run(&problem),
        other => panic!("unknown strategy {other}"),
    }
}

#[test]
fn every_strategy_is_seeded_deterministic_under_both_dispatch_paths() {
    for forced in [false, true] {
        let check = || {
            if forced {
                assert_eq!(nnbo_linalg::kernel_isa(), "portable");
            }
            for name in STRATEGIES {
                let a = run_strategy(name, 17);
                let b = run_strategy(name, 17);
                assert_eq!(
                    a.evaluations(),
                    b.evaluations(),
                    "{name} (portable={forced}): same seed must give the same run"
                );
                assert_eq!(a.recovery(), b.recovery(), "{name} (portable={forced})");
            }
        };
        if forced {
            nnbo_linalg::with_portable_kernels(check);
        } else {
            check();
        }
    }
}

#[test]
fn every_strategy_stays_inside_the_unit_cube_with_finite_values() {
    for name in STRATEGIES {
        let result = run_strategy(name, 3);
        assert_eq!(result.num_evaluations(), BUDGET, "{name}: budget honoured");
        for (i, (x, e)) in result.evaluations().iter().enumerate() {
            assert!(
                x.iter().all(|v| (0.0..=1.0).contains(v)),
                "{name}: point {i} escaped the cube: {x:?}"
            );
            assert!(
                e.objective.is_finite() && e.constraints.iter().all(|g| g.is_finite()),
                "{name}: non-finite evaluation {i}"
            );
        }
    }
}

/// The strategy seam changes only the model-guided phase: WEIBO and LinEasyBO
/// share the seeded initial design exactly, then genuinely search differently.
#[test]
fn the_strategy_seam_only_changes_the_model_guided_phase() {
    let problem = ConstrainedBranin::new();
    let full = weibo_fast(bo_config(29)).run(&problem).unwrap();
    let line = lineasybo_fast(bo_config(29)).run(&problem).unwrap();
    assert_eq!(
        full.evaluations()[..INITIAL],
        line.evaluations()[..INITIAL],
        "the initial design must be strategy-independent"
    );
    assert_ne!(
        full.evaluations()[INITIAL..],
        line.evaluations()[INITIAL..],
        "full-pool and line-subspace search must actually propose differently"
    );
}

/// Fails every `try_evaluate` call whose 0-based index lies in `fail` —
/// enough consecutive indices exhaust the retry budget and force imputation.
struct FailAt {
    inner: ConstrainedBranin,
    fail: std::ops::Range<usize>,
    calls: AtomicUsize,
}

impl FailAt {
    fn new(fail: std::ops::Range<usize>) -> Self {
        FailAt {
            inner: ConstrainedBranin::new(),
            fail,
            calls: AtomicUsize::new(0),
        }
    }
}

impl Problem for FailAt {
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
        if self.fail.contains(&i) {
            EvalOutcome::Failed(format!("conformance: scripted failure at call {i}"))
        } else {
            self.inner.try_evaluate(x)
        }
    }
}

#[test]
fn imputed_points_are_never_reported_as_the_optimum() {
    // Default policy retries twice, so three consecutive failing calls
    // exhaust one guided point's budget and (under ImputeWorst) impute it.
    let policy = FailurePolicy {
        on_exhausted: FailureAction::ImputeWorst,
        ..FailurePolicy::default()
    };
    let drivers: [(&str, BayesOpt<GpSurrogateTrainer>); 2] = [
        (
            "weibo",
            weibo_fast(bo_config(41).with_failure_policy(policy)),
        ),
        (
            "lineasybo",
            lineasybo_fast(bo_config(41).with_failure_policy(policy)),
        ),
    ];
    for (name, driver) in drivers {
        let problem = FailAt::new(7..10);
        let result = driver.run(&problem).unwrap();
        let rec = result.recovery();
        assert!(
            !rec.imputed.is_empty(),
            "{name}: the scripted burst must force an imputation, got {rec:?}"
        );
        let best = result
            .best_index()
            .unwrap_or_else(|| panic!("{name}: a feasible point exists"));
        assert!(
            !rec.imputed.contains(&best),
            "{name}: imputed stand-in {best} reported as optimum"
        );
    }

    // GASPAD evaluates through the infallible path and never imputes: its
    // result must always carry a clean recovery log.
    let gaspad = run_strategy("gaspad", 41);
    assert!(gaspad.recovery().is_clean(), "gaspad never imputes");
}

/// Mid-run snapshot → JSON → resume must continue bit-identically to the
/// uninterrupted run, for every strategy, using its own snapshot format.
#[test]
fn mid_run_snapshots_resume_bit_identically_for_every_strategy() {
    let problem = ConstrainedBranin::new();

    // WEIBO and LinEasyBO share the BoSnapshot path.
    type BoCtor = fn(BoConfig) -> BayesOpt<GpSurrogateTrainer>;
    let bo_drivers: [(&str, BoCtor); 2] = [("weibo", weibo_fast), ("lineasybo", lineasybo_fast)];
    for (name, make) in bo_drivers {
        let bo = make(bo_config(53));
        let mut state = bo.start(&problem).unwrap();
        for _ in 0..3 {
            assert!(bo.step(&problem, &mut state).unwrap(), "{name}");
        }
        let snap = BoSnapshot::from_json(&bo.snapshot(&state).to_json()).unwrap();
        while bo.step(&problem, &mut state).unwrap() {}
        let direct = bo.finish(state);

        let bo2 = make(bo_config(53));
        let mut resumed = bo2.resume(&snap).unwrap();
        while bo2.step(&problem, &mut resumed).unwrap() {}
        let from_snapshot = bo2.finish(resumed);

        assert_eq!(direct.evaluations(), from_snapshot.evaluations(), "{name}");
        assert_eq!(direct.recovery(), from_snapshot.recovery(), "{name}");
        assert_eq!(
            direct.suggest_cost().calls,
            from_snapshot.suggest_cost().calls
        );
    }

    // GASPAD resumes through its own GaspadSnapshot.
    let gaspad = gaspad_fast(53);
    let mut state = gaspad.start(&problem);
    for _ in 0..2 {
        assert!(gaspad.step(&problem, &mut state));
    }
    let snap = GaspadSnapshot::from_json(&gaspad.snapshot(&state).to_json()).unwrap();
    while gaspad.step(&problem, &mut state) {}
    let direct = gaspad.finish(state);

    let gaspad2 = gaspad_fast(53);
    let mut resumed = gaspad2.resume(&snap).unwrap();
    while gaspad2.step(&problem, &mut resumed) {}
    let from_snapshot = gaspad2.finish(resumed);
    assert_eq!(direct.evaluations(), from_snapshot.evaluations(), "gaspad");
}
