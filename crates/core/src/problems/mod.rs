//! Optimization-problem abstraction and ready-made benchmark problems.
//!
//! A [`Problem`] is the constrained minimisation problem of eq. 1 of the paper:
//!
//! ```text
//! minimize  f(x)
//! s.t.      g_i(x) < 0,  i = 1..Nc
//! ```
//!
//! over a normalised design space (the unit hypercube); the adapter types in this
//! module translate the circuit testbenches of [`nnbo_circuits`] and a collection of
//! synthetic benchmarks into that form.

mod circuit;
mod sweep;
mod synthetic;

pub use circuit::{ChargePumpProblem, OpAmpProblem};
pub use sweep::{SweepAggregation, SweepProblem};
pub use synthetic::{
    Ackley, ConstrainedBranin, GardnerSine, Hartmann6, Levy, Rosenbrock, WeightedSphere,
};

// Re-exported so downstream crates (e.g. `nnbo-serve`) can build sweep
// problems without depending on `nnbo-circuits` directly.
pub use nnbo_circuits::{CornerContext, CornerSweep, PvtCorner, Testbench};

use serde::{Deserialize, Serialize};

/// The outcome of one (expensive) evaluation of a design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Objective value `f(x)` (to be minimised).
    pub objective: f64,
    /// Constraint values `g_i(x)`; the design is feasible when all are `< 0`.
    pub constraints: Vec<f64>,
}

impl Evaluation {
    /// Creates an evaluation from an objective and constraint values.
    pub fn new(objective: f64, constraints: Vec<f64>) -> Self {
        Evaluation {
            objective,
            constraints,
        }
    }

    /// An unconstrained evaluation.
    pub fn unconstrained(objective: f64) -> Self {
        Evaluation {
            objective,
            constraints: Vec::new(),
        }
    }

    /// `true` when every constraint is satisfied (`g_i < 0`).
    pub fn is_feasible(&self) -> bool {
        self.constraints.iter().all(|g| *g < 0.0)
    }

    /// Total constraint violation `Σ max(g_i, 0)` — zero for feasible points.
    pub fn violation(&self) -> f64 {
        self.constraints.iter().map(|g| g.max(0.0)).sum()
    }
}

/// The honest outcome of one (expensive) evaluation attempt: real simulators
/// crash, diverge, and time out, and the optimization loop needs to know.
///
/// [`Problem::try_evaluate`] returns this instead of panicking or smuggling
/// `NaN` through an [`Evaluation`]; the loop's failure policy
/// (`FailurePolicy` in this crate) decides whether to retry, impute, or mark
/// the point infeasible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EvalOutcome {
    /// The evaluation completed with finite objective and constraint values.
    Ok(Evaluation),
    /// The evaluation failed (solver non-convergence, non-finite measures,
    /// a crashed testbench) with a human-readable reason.
    Failed(String),
    /// The evaluation exceeded its time budget.
    Timeout,
}

impl EvalOutcome {
    /// `true` for a completed evaluation.
    pub fn is_ok(&self) -> bool {
        matches!(self, EvalOutcome::Ok(_))
    }

    /// The evaluation, if the attempt completed.
    pub fn ok(self) -> Option<Evaluation> {
        match self {
            EvalOutcome::Ok(e) => Some(e),
            _ => None,
        }
    }

    /// A short description of the failure mode (`None` for [`EvalOutcome::Ok`]).
    pub fn failure_reason(&self) -> Option<&str> {
        match self {
            EvalOutcome::Ok(_) => None,
            EvalOutcome::Failed(reason) => Some(reason),
            EvalOutcome::Timeout => Some("evaluation timed out"),
        }
    }
}

/// A constrained, expensive black-box minimisation problem over the unit hypercube.
///
/// Implementations should be deterministic: the optimizer relies on re-evaluating
/// the same point giving the same answer (the circuit simulators in this workspace
/// are deterministic, and the paper's HSPICE runs are treated the same way).
pub trait Problem: Sync {
    /// Dimension of the design space.
    fn dim(&self) -> usize;

    /// Number of constraints.
    fn num_constraints(&self) -> usize;

    /// Evaluates a design point given in normalised `[0, 1]` coordinates.
    ///
    /// This is the infallible legacy entry point; problems whose evaluation
    /// can genuinely fail should override [`Problem::try_evaluate`] and keep
    /// this as a best-effort projection (the circuit adapters return a large
    /// penalty evaluation here).
    fn evaluate(&self, x: &[f64]) -> Evaluation;

    /// Evaluates a design point, reporting failure honestly.
    ///
    /// The default wraps [`Problem::evaluate`] and converts any non-finite
    /// objective or constraint value into [`EvalOutcome::Failed`], so every
    /// problem is NaN-safe by construction and the optimization loop never
    /// ingests a non-finite observation.  Problems backed by real solvers
    /// override this to report non-convergence and timeouts directly.
    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        let eval = self.evaluate(x);
        if !eval.objective.is_finite() {
            return EvalOutcome::Failed(format!(
                "non-finite objective {} at evaluation",
                eval.objective
            ));
        }
        if let Some((i, g)) = eval
            .constraints
            .iter()
            .enumerate()
            .find(|(_, g)| !g.is_finite())
        {
            return EvalOutcome::Failed(format!("non-finite constraint {i} value {g}"));
        }
        EvalOutcome::Ok(eval)
    }

    /// Evaluates a batch of design points, reporting each outcome honestly.
    ///
    /// The default is a sequential loop over [`Problem::try_evaluate`] — the
    /// reference semantics every existing problem gets for free.  Problems
    /// whose evaluations parallelise internally (corner sweeps, external
    /// simulator farms) override this to fan the whole batch out at once;
    /// overrides must return outcomes in input order, bit-identical to the
    /// sequential loop.
    fn try_evaluate_batch(&self, xs: &[&[f64]]) -> Vec<EvalOutcome> {
        xs.iter().map(|x| self.try_evaluate(x)).collect()
    }

    /// A short human-readable name used in reports.
    fn name(&self) -> &str {
        "problem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_and_violation() {
        let ok = Evaluation::new(1.0, vec![-0.1, -2.0]);
        assert!(ok.is_feasible());
        assert_eq!(ok.violation(), 0.0);
        let bad = Evaluation::new(1.0, vec![0.5, -1.0, 0.25]);
        assert!(!bad.is_feasible());
        assert!((bad.violation() - 0.75).abs() < 1e-12);
        let unc = Evaluation::unconstrained(3.0);
        assert!(unc.is_feasible());
    }

    #[test]
    fn boundary_constraint_is_infeasible() {
        // The paper formulates constraints strictly (`g < 0`), so exactly zero is
        // not feasible.
        let e = Evaluation::new(0.0, vec![0.0]);
        assert!(!e.is_feasible());
    }

    struct NanAt {
        trigger: f64,
        nan_constraint: bool,
    }

    impl Problem for NanAt {
        fn dim(&self) -> usize {
            1
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            if (x[0] - self.trigger).abs() < 1e-9 {
                if self.nan_constraint {
                    Evaluation::new(1.0, vec![f64::NAN])
                } else {
                    Evaluation::new(f64::INFINITY, vec![-1.0])
                }
            } else {
                Evaluation::new(x[0], vec![-1.0])
            }
        }
    }

    #[test]
    fn default_try_evaluate_converts_non_finite_values_into_failures() {
        let p = NanAt {
            trigger: 0.5,
            nan_constraint: false,
        };
        assert!(p.try_evaluate(&[0.25]).is_ok());
        let failed = p.try_evaluate(&[0.5]);
        assert!(!failed.is_ok());
        assert!(failed.failure_reason().unwrap().contains("objective"));

        let pc = NanAt {
            trigger: 0.5,
            nan_constraint: true,
        };
        let failed = pc.try_evaluate(&[0.5]);
        assert!(failed.failure_reason().unwrap().contains("constraint 0"));
    }

    #[test]
    fn eval_outcome_accessors() {
        let ok = EvalOutcome::Ok(Evaluation::unconstrained(1.0));
        assert!(ok.is_ok());
        assert_eq!(ok.failure_reason(), None);
        assert_eq!(ok.ok().unwrap().objective, 1.0);
        assert_eq!(
            EvalOutcome::Timeout.failure_reason(),
            Some("evaluation timed out")
        );
        assert!(EvalOutcome::Failed("x".into()).ok().is_none());
    }
}
