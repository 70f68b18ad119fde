//! PVT corner sweeps as batched optimization problems.
//!
//! [`SweepProblem`] adapts a [`CornerSweep`] (a [`Testbench`] expanded over
//! K [`PvtCorner`]s — see `nnbo_circuits`) into a [`Problem`]: one
//! suggestion becomes K corner evaluations fanned out over the process-wide
//! [`nnbo_pool::WorkerPool`], aggregated back into a single constrained
//! evaluation.  The parallel fan-out is bit-identical to the sequential
//! corner loop by construction — every corner is measured independently and
//! deterministically, gathered in corner order, and aggregated by the same
//! code — and a failed corner flows into the loop's `FailurePolicy` as an
//! honest [`EvalOutcome::Failed`] naming the corner, never as a silent
//! `NaN`.

use std::sync::Arc;

use nnbo_circuits::{
    ChargePump, ChargePumpCornerMeasurement, CornerSweep, OpAmpPerformance, PvtCorner, Testbench,
    TwoStageOpAmp,
};

use super::{EvalOutcome, Evaluation, Problem};

/// How the per-corner [`Evaluation`]s of one sweep combine into the single
/// evaluation the optimizer observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAggregation {
    /// Worst case per component: the objective and each constraint take
    /// their maximum over the corners (pessimistic for minimisation and
    /// for `g_i < 0` feasibility).  A design is feasible iff it is
    /// feasible at *every* corner.
    WorstCase,
    /// Evaluate only the sweep's nominal corner — the sweep degenerates to
    /// the plain single-corner problem (and costs one evaluation).
    Nominal,
    /// Objective worst case, but the constraints of every corner are kept
    /// side by side (`num_constraints` becomes `K × base`), so the
    /// optimizer models each corner's constraint surface separately.
    PerCornerConstraints,
}

/// The boxed spec closure mapping one corner's measured output to that
/// corner's [`Evaluation`].
type SpecFn<O> = Arc<dyn Fn(&O) -> Evaluation + Send + Sync>;

/// A [`CornerSweep`] exposed as a constrained [`Problem`]: one suggestion →
/// K corner measurements → one aggregated evaluation.
///
/// The per-corner measurement is mapped to a per-corner [`Evaluation`] by
/// the problem's *spec* closure, and the per-corner evaluations combine
/// according to the [`SweepAggregation`].  Note that for the charge pump
/// the eq. 15–16 worst case folds each raw metric *before* forming the
/// FOM; that exact aggregation lives in
/// [`super::ChargePumpProblem`] — this adapter's [`SweepAggregation::WorstCase`]
/// instead maximises the per-corner objective, which is the generic
/// worst-case-over-scenarios formulation.
///
/// Every (suggestion, corner) measurement is one task on
/// [`nnbo_pool::WorkerPool::global`] (the submitting thread participates)
/// unless [`SweepProblem::with_parallel`] disables the fan-out; the
/// one-band path is the bit-identity reference.
pub struct SweepProblem<T: Testbench> {
    sweep: CornerSweep<T>,
    spec: SpecFn<T::Output>,
    base_constraints: usize,
    name: String,
    aggregation: SweepAggregation,
    parallel: bool,
}

impl<T: Testbench> Clone for SweepProblem<T>
where
    CornerSweep<T>: Clone,
{
    fn clone(&self) -> Self {
        SweepProblem {
            sweep: self.sweep.clone(),
            spec: Arc::clone(&self.spec),
            base_constraints: self.base_constraints,
            name: self.name.clone(),
            aggregation: self.aggregation,
            parallel: self.parallel,
        }
    }
}

impl<T: Testbench> SweepProblem<T> {
    /// Wraps a corner sweep as a problem.
    ///
    /// `spec` maps one corner's measured output to that corner's
    /// [`Evaluation`]; it must return exactly `base_constraints` constraint
    /// values and be deterministic.
    pub fn new(
        sweep: CornerSweep<T>,
        name: impl Into<String>,
        base_constraints: usize,
        spec: impl Fn(&T::Output) -> Evaluation + Send + Sync + 'static,
    ) -> Self {
        SweepProblem {
            sweep,
            spec: Arc::new(spec),
            base_constraints,
            name: name.into(),
            aggregation: SweepAggregation::WorstCase,
            parallel: true,
        }
    }

    /// Replaces the aggregation (default: [`SweepAggregation::WorstCase`]).
    pub fn with_aggregation(mut self, aggregation: SweepAggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Enables or disables the worker-pool corner fan-out.  With `false`
    /// every corner is measured in one band on the calling thread: the
    /// bit-identity reference the parallel path is pinned against.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// The underlying corner sweep.
    pub fn sweep(&self) -> &CornerSweep<T> {
        &self.sweep
    }

    /// The configured aggregation.
    pub fn aggregation(&self) -> SweepAggregation {
        self.aggregation
    }

    /// The corner indices one evaluation actually measures: just the
    /// nominal corner under [`SweepAggregation::Nominal`], every corner
    /// otherwise.
    fn corner_indices(&self) -> Vec<usize> {
        match self.aggregation {
            SweepAggregation::Nominal => vec![self.sweep.nominal_index()],
            _ => (0..self.sweep.corners().len()).collect(),
        }
    }

    /// Applies the spec to one corner's output, asserting its shape.
    fn corner_evaluation(&self, output: &T::Output) -> Evaluation {
        let eval = (self.spec)(output);
        assert_eq!(
            eval.constraints.len(),
            self.base_constraints,
            "sweep spec returned the wrong constraint count"
        );
        eval
    }

    /// Combines per-corner evaluations (in corner order) into the single
    /// evaluation the optimizer observes, according to the configured
    /// aggregation.
    ///
    /// Public so the aggregation laws are testable in isolation: the
    /// worst-case objective is monotone in every corner's objective, and
    /// aggregating a single corner is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `per_corner` is empty or the constraint counts disagree.
    pub fn aggregate(&self, per_corner: &[Evaluation]) -> Evaluation {
        assert!(!per_corner.is_empty(), "no corner evaluations to aggregate");
        match self.aggregation {
            SweepAggregation::Nominal => per_corner[0].clone(),
            SweepAggregation::WorstCase => {
                let mut worst = per_corner[0].clone();
                for eval in &per_corner[1..] {
                    assert_eq!(worst.constraints.len(), eval.constraints.len());
                    worst.objective = worst.objective.max(eval.objective);
                    for (g, other) in worst.constraints.iter_mut().zip(&eval.constraints) {
                        *g = g.max(*other);
                    }
                }
                worst
            }
            SweepAggregation::PerCornerConstraints => {
                let objective = per_corner[1..]
                    .iter()
                    .fold(per_corner[0].objective, |worst, e| worst.max(e.objective));
                let constraints = per_corner
                    .iter()
                    .flat_map(|e| e.constraints.iter().copied())
                    .collect();
                Evaluation::new(objective, constraints)
            }
        }
    }

    /// Turns the ordered per-corner results of one suggestion into its
    /// outcome: the first failing corner fails the whole evaluation (in
    /// corner order, so parallel and sequential paths report the same
    /// corner), otherwise the spec + aggregation produce the evaluation.
    fn outcome_from_results(&self, results: Vec<Result<T::Output, String>>) -> EvalOutcome {
        let mut outputs = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(output) => outputs.push(output),
                Err(reason) => {
                    return EvalOutcome::Failed(format!("{} sweep failed: {reason}", self.name))
                }
            }
        }
        let per_corner: Vec<Evaluation> =
            outputs.iter().map(|o| self.corner_evaluation(o)).collect();
        EvalOutcome::Ok(self.aggregate(&per_corner))
    }
}

impl SweepProblem<TwoStageOpAmp> {
    /// The Table-I op-amp specification (`UGF > 40 MHz`, `PM > 60°`,
    /// maximise gain) enforced over a PVT corner sweep with worst-case
    /// aggregation.  With `corners == [PvtCorner::nominal()]` this is
    /// exactly [`super::OpAmpProblem`]'s honest evaluation.
    pub fn opamp(corners: Vec<PvtCorner>) -> Self {
        let sweep = CornerSweep::new(TwoStageOpAmp::new(), corners);
        SweepProblem::new(sweep, "two-stage-opamp-pvt", 2, |p: &OpAmpPerformance| {
            Evaluation::new(-p.gain_db, vec![(40e6 - p.ugf_hz) / 1e6, 60.0 - p.pm_deg])
        })
    }
}

impl SweepProblem<ChargePump> {
    /// The Table-II charge-pump limits (`diff1,2 < 20 µA`, `diff3,4 < 5 µA`,
    /// `deviation < 5 µA`) enforced per corner, with the per-corner FOM
    /// `0.3·Σdiff + 0.5·deviation` as the objective.
    ///
    /// Note the difference from [`super::ChargePumpProblem`]: eq. 16 folds
    /// each raw metric over the corners *before* forming the FOM, while
    /// this generic sweep aggregates the per-corner objectives — use the
    /// dedicated problem when the paper's exact FOM is required.
    pub fn charge_pump(corners: Vec<PvtCorner>) -> Self {
        let sweep = CornerSweep::new(ChargePump::new(), corners);
        SweepProblem::new(
            sweep,
            "charge-pump-pvt",
            5,
            |m: &ChargePumpCornerMeasurement| {
                let to_ua = 1e6;
                let diff1 = m.diff1 * to_ua;
                let diff2 = m.diff2 * to_ua;
                let diff3 = m.diff3 * to_ua;
                let diff4 = m.diff4 * to_ua;
                let deviation = (m.dev_up + m.dev_down) * to_ua;
                let fom = 0.3 * (diff1 + diff2 + diff3 + diff4) + 0.5 * deviation;
                Evaluation::new(
                    fom,
                    vec![
                        diff1 - 20.0,
                        diff2 - 20.0,
                        diff3 - 5.0,
                        diff4 - 5.0,
                        deviation - 5.0,
                    ],
                )
            },
        )
    }
}

impl<T: Testbench> Problem for SweepProblem<T> {
    fn dim(&self) -> usize {
        self.sweep.bench().dim()
    }

    fn num_constraints(&self) -> usize {
        match self.aggregation {
            SweepAggregation::PerCornerConstraints => {
                self.base_constraints * self.sweep.corners().len()
            }
            _ => self.base_constraints,
        }
    }

    /// Infallible projection: a failed sweep becomes a neutral infeasible
    /// evaluation (`objective 0`, every constraint violated) rather than a
    /// panic or a `NaN`.  Use [`Problem::try_evaluate`] to observe the
    /// failure and its corner honestly.
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        match self.try_evaluate(x) {
            EvalOutcome::Ok(eval) => eval,
            _ => Evaluation::new(0.0, vec![1.0; self.num_constraints()]),
        }
    }

    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        let outcomes = self.try_evaluate_batch(&[x]);
        outcomes.into_iter().next().expect("one outcome per input")
    }

    /// Evaluates a batch of suggestions as `suggestions × corners`
    /// independent measurements in **one** worker-pool batch
    /// ([`nnbo_pool::WorkerPool::map_bands`], one band per measurement),
    /// gathered back in input-then-corner order — bit-identical to the
    /// sequential double loop.
    fn try_evaluate_batch(&self, xs: &[&[f64]]) -> Vec<EvalOutcome> {
        let corner_indices = self.corner_indices();
        let per_point = corner_indices.len();
        let points: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| self.sweep.bench().denormalize(x))
            .collect();

        let jobs: Vec<(&[f64], usize)> = points
            .iter()
            .flat_map(|p| corner_indices.iter().map(move |&k| (p.as_slice(), k)))
            .collect();
        let bands = if self.parallel { jobs.len() } else { 1 };
        let sweep = &self.sweep;
        let mut results = nnbo_pool::WorkerPool::global()
            .map_bands(&jobs, bands, |&(point, k)| sweep.run_corner(point, k))
            .into_iter();
        (0..points.len())
            .map(|_| self.outcome_from_results(results.by_ref().take(per_point).collect()))
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnbo_circuits::CornerContext;

    fn opamp_18() -> SweepProblem<TwoStageOpAmp> {
        SweepProblem::opamp(PvtCorner::standard_18())
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_the_sequential_reference() {
        let parallel = opamp_18();
        let sequential = opamp_18().with_parallel(false);
        for x in [vec![0.3; 10], vec![0.5; 10], vec![0.7; 10]] {
            assert_eq!(parallel.try_evaluate(&x), sequential.try_evaluate(&x));
        }
    }

    #[test]
    fn batch_evaluation_matches_the_default_sequential_loop() {
        let problem = opamp_18();
        let a = vec![0.35; 10];
        let b = vec![0.55; 10];
        let c = vec![0.75; 10];
        let batch = problem.try_evaluate_batch(&[&a, &b, &c]);
        let single: Vec<EvalOutcome> = [&a, &b, &c]
            .iter()
            .map(|x| problem.try_evaluate(x))
            .collect();
        assert_eq!(batch, single);
        // And both agree with the trait's default sequential-loop semantics.
        let sequential = opamp_18().with_parallel(false);
        let reference: Vec<EvalOutcome> = [&a, &b, &c]
            .iter()
            .map(|x| sequential.try_evaluate(x))
            .collect();
        assert_eq!(batch, reference);
    }

    #[test]
    fn charge_pump_sweep_is_bit_identical_too() {
        let parallel = SweepProblem::charge_pump(PvtCorner::standard_18());
        let sequential = SweepProblem::charge_pump(PvtCorner::standard_18()).with_parallel(false);
        let x = vec![0.5; 36];
        let p = parallel.try_evaluate(&x);
        assert_eq!(p, sequential.try_evaluate(&x));
        assert!(p.is_ok());
    }

    #[test]
    fn nominal_aggregation_of_the_nominal_corner_equals_the_plain_problem() {
        let sweep = SweepProblem::opamp(vec![PvtCorner::nominal()])
            .with_aggregation(SweepAggregation::Nominal);
        let plain = super::super::OpAmpProblem::new();
        for x in [vec![0.4; 10], vec![0.6; 10]] {
            assert_eq!(sweep.try_evaluate(&x), plain.try_evaluate(&x));
        }
    }

    #[test]
    fn per_corner_constraints_concatenate_in_corner_order() {
        let corners = vec![
            PvtCorner::nominal(),
            PvtCorner {
                process: nnbo_circuits::Process::SlowSlow,
                vdd: 0.99,
                temperature: 125.0,
            },
        ];
        let problem = SweepProblem::opamp(corners.clone())
            .with_aggregation(SweepAggregation::PerCornerConstraints);
        assert_eq!(problem.num_constraints(), 4);
        let x = vec![0.5; 10];
        let eval = match problem.try_evaluate(&x) {
            EvalOutcome::Ok(e) => e,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(eval.constraints.len(), 4);
        // Each corner's pair appears verbatim at its offset.
        let phys = problem.sweep().bench().denormalize(&x);
        for (k, _corner) in corners.iter().enumerate() {
            let out = problem.sweep().run_corner(&phys, k).unwrap();
            let per = problem.corner_evaluation(&out);
            assert_eq!(
                &eval.constraints[2 * k..2 * k + 2],
                per.constraints.as_slice()
            );
        }
    }

    #[test]
    fn a_failed_corner_fails_the_evaluation_naming_the_corner() {
        let sweep = CornerSweep::new(TwoStageOpAmp::stressed(), PvtCorner::standard_18());
        let problem = SweepProblem::new(sweep, "stressed-opamp-pvt", 0, |_: &OpAmpPerformance| {
            Evaluation::unconstrained(0.0)
        });
        match problem.try_evaluate(&[0.5; 10]) {
            EvalOutcome::Failed(reason) => {
                assert!(
                    reason.contains("stressed-opamp-pvt sweep failed"),
                    "{reason}"
                );
                assert!(reason.contains("corner SS/0.99V/-40C (1/18)"), "{reason}");
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        // The infallible projection is a neutral infeasible point.
        let projected = problem.evaluate(&[0.5; 10]);
        assert_eq!(projected, Evaluation::new(0.0, vec![]));
    }

    #[test]
    fn corner_context_index_flows_through_the_sweep() {
        // The charge pump's mismatch sign is seeded by the corner index, so
        // sweeping corner k must match a direct context-k measurement.
        let problem = SweepProblem::charge_pump(PvtCorner::standard_18());
        let phys = problem.sweep().bench().denormalize(&[0.5; 36]);
        for (k, corner) in problem.sweep().corners().iter().enumerate() {
            let direct = problem
                .sweep()
                .bench()
                .measure(&phys, &CornerContext::new(*corner, k))
                .unwrap();
            assert_eq!(problem.sweep().run_corner(&phys, k).unwrap(), direct);
        }
    }
}
