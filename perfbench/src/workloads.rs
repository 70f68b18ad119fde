//! The three workloads: what each runs, how it is sized, the output checks
//! that fail a run, and the metrics it reports.
//!
//! * `opamp_ngp` — the Table-I op-amp under the paper's method, exactly
//!   `Protocol::table1_paper()`.  One unit is one seed.
//! * `chargepump_gp` — the Table-II charge pump under WEIBO (classical ARD
//!   GP), 100-point initial design, budget cut to 160.  One unit is one
//!   seed.
//! * `serve_pvt` — more sessions than pool workers, submitted at once to
//!   one `BoService` over a `SessionStore`; each session is the op-amp under
//!   the 18-corner worst-case sweep.  One unit is one round of sessions.
//!
//! Units chain seeds derived from `--seed`, so a run measures at least 100
//! model-guided steps without stretching any one run's budget.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nnbo_baselines::{weibo, GpSurrogateTrainer};
use nnbo_bench::Protocol;
use nnbo_circuits::TwoStageOpAmp;
use nnbo_core::problems::{ChargePumpProblem, OpAmpProblem, PvtCorner};
use nnbo_core::{
    BayesOpt, BoConfig, EnsembleConfig, Evaluation, NeuralGpEnsembleTrainer, OptimizationResult,
    Problem, RefitPolicy, SurrogateTrainer, SweepProblem,
};
use nnbo_pool::WorkerPool;
use nnbo_serve::{percentile_of, BoService, ServeConfig, SessionStatus};
use serde::{Deserialize, Serialize};

use crate::layers::{self, Analysis, LayerTotals};
use crate::probe::{self, Window, WindowStats};
use crate::trace::{ServeStore, Span, SpanKind, TracedProblem, TracedTrainer, Tracer};

/// Where runs write their transient files (session stores, span dumps),
/// relative to the working directory.
pub const OUT_DIR: &str = ".perfbench-out";

/// A closure-check step may miss its wall time by this share.
const CLOSURE_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpampNgp,
    ChargepumpGp,
    ServePvt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OpampNgp,
        Workload::ChargepumpGp,
        Workload::ServePvt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpampNgp => "opamp_ngp",
            Workload::ChargepumpGp => "chargepump_gp",
            Workload::ServePvt => "serve_pvt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Median wall seconds of one unit on a 2-vCPU x86-64 box (Xeon,
    /// AVX2+FMA kernels, two pool workers); `--seconds` is divided by it to
    /// size a run.
    fn unit_seconds(self) -> f64 {
        match self {
            Workload::OpampNgp => 12.7,
            Workload::ChargepumpGp => 14.3,
            Workload::ServePvt => 6.0,
        }
    }

    /// Units that give at least 100 model-guided steps.
    fn min_units(self) -> usize {
        match self {
            Workload::OpampNgp | Workload::ChargepumpGp => 2,
            Workload::ServePvt => 1,
        }
    }
}

/// One invocation's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny budgets that exercise every check in seconds.
    pub smoke: bool,
}

/// Unit indices from here on seed the set-up-only repetitions.
const EXTRA_SETUP_INDEX: usize = 1 << 20;

impl RunSpec {
    /// Set-up-only repetitions a BO run adds to its units' own set-ups.
    fn extra_setups(&self) -> usize {
        if self.smoke {
            0
        } else {
            3
        }
    }

    pub fn units(&self) -> usize {
        if self.smoke {
            return 1;
        }
        let w = self.workload;
        ((self.seconds / w.unit_seconds()).round() as usize).max(w.min_units())
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured and found.
pub struct Report {
    /// Model-guided steps run.
    pub attempted: usize,
    /// Steps that recovered from a fault, or whose seed or session ended
    /// quarantined or without a feasible design.
    pub failed: usize,
    /// Failed output checks; any entry fails the run.
    pub problems: Vec<String>,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Run context printed beside the metrics, as JSON values.
    pub stamp: Vec<(&'static str, String)>,
    /// The traced run's spans, arranged into steps.
    pub trace: Option<Analysis>,
}

/// The seed of unit `index` of a run seeded with `seed` (splitmix64).
pub fn unit_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(spec: &RunSpec) -> Result<Report, String> {
    match spec.workload {
        Workload::OpampNgp | Workload::ChargepumpGp => run_bo(spec),
        Workload::ServePvt => run_serve(spec),
    }
}

/// Static facts of a workload that the checks and layer metrics use.
struct Shape {
    /// Evaluation budget of every seed or session.
    budget: usize,
    dim: usize,
    /// Circuit simulations per evaluation (PVT corners).
    corners: usize,
    /// Candidates one acquisition maximisation scores.
    points_per_call: usize,
}

impl Shape {
    fn new(config: &BoConfig, problem: &dyn Problem, corners: usize) -> Self {
        Shape {
            budget: config.max_evaluations,
            dim: problem.dim(),
            corners,
            points_per_call: config.candidate_pool + config.local_candidates,
        }
    }
}

// ---------------------------------------------------------------- checks

/// What a run found, seed by seed: its output checks, its operation counts
/// and the context stamped beside its metrics.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Best feasible objective of every untraced seed or session.
    best: Vec<f64>,
    stamp: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Checks one finished seed or session: the budget consumed exactly,
    /// every evaluation finite and inside the unit cube, a clean recovery
    /// log, and (at full size) a feasible design.  Its model-guided steps
    /// count as failed, all of them when no feasible design came out (smoke
    /// budgets are too small to expect one), else one per recovery event.
    fn finished(
        &mut self,
        label: &str,
        result: &OptimizationResult,
        spec: &RunSpec,
        shape: &Shape,
        traced: bool,
    ) {
        let steps = shape.budget - result.initial_samples();
        self.attempted += steps;
        if result.num_evaluations() != shape.budget {
            self.problems.push(format!(
                "{label}: {} evaluations for a budget of {}",
                result.num_evaluations(),
                shape.budget
            ));
        }
        let bad = result.evaluations().iter().position(|(x, e)| {
            x.len() != shape.dim
                || x.iter().any(|v| !(0.0..=1.0).contains(v))
                || !e.objective.is_finite()
                || e.constraints.iter().any(|g| !g.is_finite())
        });
        if let Some(i) = bad {
            self.problems.push(format!(
                "{label}: evaluation {i} is non-finite or outside the unit cube"
            ));
        }
        if !result.recovery().is_clean() {
            self.problems.push(format!(
                "{label}: recovery log is not clean: {:?}",
                result.recovery()
            ));
        }
        match result.best_objective() {
            Some(best) => {
                self.failed += result.recovery().total_events().min(steps);
                if !traced {
                    self.best.push(best);
                }
            }
            None if spec.smoke => self.failed += result.recovery().total_events().min(steps),
            None => {
                self.failed += steps;
                self.problems
                    .push(format!("{label}: no feasible design at the budget"));
            }
        }
    }

    /// A session that never finished: all its steps failed.
    fn unfinished(&mut self, label: &str, why: &str, steps: usize) {
        self.attempted += steps;
        self.failed += steps;
        self.problems.push(format!("{label}: {why}"));
    }

    fn into_report(mut self, metrics: Vec<Metric>, trace: Option<Analysis>) -> Report {
        let best = json_number(mean(&self.best));
        self.stamp.push(("best_objective", best));
        Report {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            stamp: self.stamp,
            trace,
        }
    }
}

fn same_history(a: &[(Vec<f64>, Evaluation)], b: &[(Vec<f64>, Evaluation)]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|((xa, ea), (xb, eb))| {
            bits(xa) == bits(xb)
                && ea.objective.to_bits() == eb.objective.to_bits()
                && bits(&ea.constraints) == bits(&eb.constraints)
        })
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

// --------------------------------------------------------------- metrics

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    setups: &[f64],
    window: &WindowStats,
    step_ms_p50: Option<f64>,
    step_ms_p90: Option<f64>,
) -> Vec<Metric> {
    vec![
        metric("setup_s", probe::median(setups), "s"),
        metric("run_s", window.run_s, "s"),
        metric("cpu_s", window.cpu_s, "s"),
        metric("step_ms_p50", step_ms_p50.unwrap_or(f64::NAN), "ms"),
        metric("step_ms_p90", step_ms_p90.unwrap_or(f64::NAN), "ms"),
        metric("peak_heap_mb", window.peak_heap_mb, "MB"),
    ]
}

/// Counters read around the traced units that the spans cannot give.
#[derive(Debug, Clone, Copy, Default)]
struct TracedWindow {
    run_s: f64,
    steal_s: f64,
    pool_jobs: usize,
    pool_batch_tasks: usize,
}

impl TracedWindow {
    /// Runs `unit`, adding its wall time, steal and pool activity.
    fn measure<R>(&mut self, unit: impl FnOnce() -> R) -> R {
        let pool = WorkerPool::global();
        let before = pool.stats();
        let steal = probe::steal_s();
        let started = Instant::now();
        let out = unit();
        self.run_s += started.elapsed().as_secs_f64();
        self.steal_s += probe::steal_s() - steal;
        let after = pool.stats();
        self.pool_jobs += after.jobs_executed - before.jobs_executed;
        self.pool_batch_tasks += after.batch_tasks_executed - before.batch_tasks_executed;
        out
    }
}

/// The per-layer metrics of a traced run, after its closure check (whose
/// failures go to `outcome`).  `traced` are the traced seeds' or sessions'
/// results; `untraced_run_s` is the wall time of their untraced twins.
fn traced_metrics<'a>(
    spec: &RunSpec,
    tracer: &Tracer,
    shape: &Shape,
    window: &TracedWindow,
    untraced_run_s: f64,
    traced: impl Iterator<Item = &'a OptimizationResult>,
    outcome: &mut Outcome,
) -> (Vec<Metric>, Analysis) {
    // Served steps run on pool workers, so they are rebuilt from the seams.
    let analysis = layers::analyse(tracer.spans(), spec.workload == Workload::ServePvt);
    let t = LayerTotals::from_analysis(&analysis);
    let suggest = traced.fold((0, 0.0), |(calls, ms), r| {
        let cost = r.suggest_cost();
        (calls + cost.calls, ms + cost.nanos as f64 / 1e6)
    });
    closure_check(spec.workload, &analysis, &t, suggest, outcome);

    let workers = WorkerPool::global().workers();
    let count = |n: usize| n as f64;
    let metrics = vec![
        metric("core.fit_ms", t.fit_ms, "ms"),
        metric("core.fit_calls", count(t.fit_calls), "count"),
        metric("core.update_ms", t.update_ms, "ms"),
        metric("core.update_calls", count(t.update_calls), "count"),
        metric("core.update_kept_share", t.update_kept_share, "share"),
        metric("core.refit_share", t.refit_share, "share"),
        metric("core.acquisition_ms", t.acquisition_ms, "ms"),
        metric(
            "core.acquisition_calls",
            count(t.acquisition_calls),
            "count",
        ),
        metric(
            "core.points_scored",
            count(t.acquisition_calls * shape.points_per_call),
            "count",
        ),
        metric("core.step_self_ms", t.step_self_ms, "ms"),
        metric("core.step_wall_ms", t.step_wall_ms, "ms"),
        metric("core.steps", count(t.steps), "count"),
        metric("circuits.eval_ms", t.eval_ms, "ms"),
        metric("circuits.evals", count(t.evals), "count"),
        metric(
            "circuits.corner_sims",
            count(t.evals * shape.corners),
            "count",
        ),
        metric("circuits.eval_failed", count(t.eval_failed), "count"),
        metric("serve.serialize_ms", t.serialize_ms, "ms"),
        metric("serve.persist_ms", t.persist_ms, "ms"),
        metric("serve.persists", count(t.persists), "count"),
        metric("serve.snapshot_kb", t.snapshot_kb, "kB"),
        metric("serve.queue_wait_ms", t.queue_wait_ms, "ms"),
        metric(
            "serve.worker_busy_share",
            t.step_wall_ms / 1e3 / (workers.max(1) as f64 * window.run_s),
            "share",
        ),
        metric("pool.jobs", count(window.pool_jobs), "count"),
        metric("pool.batch_tasks", count(window.pool_batch_tasks), "count"),
        metric("pool.workers", count(workers), "count"),
        metric("env.steal_s", window.steal_s, "s"),
        metric(
            "tracing_overhead",
            window.run_s / untraced_run_s - 1.0,
            "share",
        ),
    ];
    (metrics, analysis)
}

/// The closure check of a traced run: per step, children plus self time
/// add up to the wall time; the measured shares match the workload's
/// expected profile; and acquisition timed from outside agrees with the
/// loop's own `suggest_cost()` (`suggest` = its calls and milliseconds).
fn closure_check(
    workload: Workload,
    analysis: &Analysis,
    t: &LayerTotals,
    suggest: (usize, f64),
    outcome: &mut Outcome,
) {
    let Outcome {
        problems, stamp, ..
    } = outcome;
    let violations = layers::closure_violations(&analysis.steps, CLOSURE_TOLERANCE);
    if let Some(first) = violations.first() {
        problems.push(format!(
            "closure: {} of {} steps miss their wall time by more than {}% (first: {first})",
            violations.len(),
            analysis.steps.len(),
            CLOSURE_TOLERANCE * 100.0
        ));
    }
    let share = |ms: f64| ms / t.step_wall_ms;
    match workload {
        Workload::OpampNgp | Workload::ChargepumpGp => {
            if share(t.fit_ms) < 0.8 {
                problems.push(format!(
                    "closure: core.fit_ms is {:.1}% of step wall, expected at least 80%",
                    100.0 * share(t.fit_ms)
                ));
            }
            if t.update_calls != 0 {
                problems.push(format!(
                    "closure: {} incremental updates on an always-refit workload",
                    t.update_calls
                ));
            }
        }
        Workload::ServePvt => {
            let io = share(t.serialize_ms + t.persist_ms + t.step_eval_ms);
            if io < 0.25 {
                problems.push(format!(
                    "closure: serve.* plus circuits.* is {:.1}% of step wall, expected at least 25%",
                    100.0 * io
                ));
            }
        }
    }
    let (calls, suggest_ms) = suggest;
    if calls != t.acquisition_calls {
        problems.push(format!(
            "closure: {} acquisition gaps but suggest_cost() counts {calls} calls",
            t.acquisition_calls
        ));
    }
    let ratio = t.acquisition_ms / suggest_ms;
    if !(0.99..=1.5).contains(&ratio) {
        problems.push(format!(
            "closure: acquisition gaps total {:.1} ms against {suggest_ms:.1} ms in suggest_cost()",
            t.acquisition_ms
        ));
    }
    let worst = analysis
        .steps
        .iter()
        .map(|s| ((s.children + s.self_ns) as f64 / s.wall as f64 - 1.0).abs())
        .fold(0.0, f64::max);
    stamp.push(("closure_max_error", json_number(worst)));
    stamp.push(("acquisition_over_suggest_cost", json_number(ratio)));
    stamp.push((
        "step_shares",
        format!(
            "{{\"fit\": {}, \"update\": {}, \"acquisition\": {}, \"eval\": {}, \"serialize\": {}, \"persist\": {}, \"self\": {}}}",
            json_number(share(t.fit_ms)),
            json_number(share(t.update_ms)),
            json_number(share(t.acquisition_ms)),
            json_number(share(t.step_eval_ms)),
            json_number(share(t.serialize_ms)),
            json_number(share(t.persist_ms)),
            json_number(share(t.step_self_ms)),
        ),
    ));
}

fn json_list(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(json_number).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip form gives,
/// or `null` for a non-finite value.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ------------------------------------------------------------ BO workloads

fn opamp_protocol(smoke: bool) -> Protocol {
    if smoke {
        Protocol {
            initial_samples: 12,
            max_sims_bo: 18,
            ensemble_members: 2,
            epochs: 100,
            ..Protocol::table1_paper()
        }
    } else {
        Protocol::table1_paper()
    }
}

fn chargepump_config(smoke: bool) -> BoConfig {
    let mut config = Protocol::table2_paper().bo_config(0);
    config.max_evaluations = if smoke { 106 } else { 160 };
    config
}

/// BO seeds `chargepump_gp` draws from.  At the 160-evaluation budget about
/// one seed in eight ends without a feasible design (seeds 5, 11, 16, 27,
/// 44 and 47 of 0..48), which would fail the run; every seed here ended
/// feasible with a clean recovery log under `weibo()` at this budget.
const CHARGEPUMP_SEEDS: [u64; 42] = [
    0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 28, 29,
    30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 45, 46,
];

/// The BO seeds of a run's units, derived from `--seed`: consecutive
/// entries of [`CHARGEPUMP_SEEDS`] from a derived offset on the charge
/// pump, derived seeds elsewhere.
fn bo_seeds(spec: &RunSpec) -> Vec<u64> {
    let units = spec.units();
    if spec.workload == Workload::ChargepumpGp && !spec.smoke {
        let pool = &CHARGEPUMP_SEEDS;
        let start = (unit_seed(spec.seed, 0) % pool.len() as u64) as usize;
        (0..units).map(|i| pool[(start + i) % pool.len()]).collect()
    } else {
        (0..units).map(|i| unit_seed(spec.seed, i)).collect()
    }
}

/// One seed of a BO workload, driven step by step.
struct SeedRun {
    wall_s: f64,
    /// Machine-wide steal over the seed's run.
    steal_s: f64,
    /// `start` plus the first model-guided step: initial design, cold fit
    /// and first acquisition.
    setup_s: f64,
    /// Wall time of every step after the first.
    step_ms: Vec<f64>,
    result: OptimizationResult,
}

/// Drives `bo` to its budget, or with `setup_only` through the first
/// model-guided step.
fn drive<T: SurrogateTrainer>(
    bo: &BayesOpt<T>,
    problem: &dyn Problem,
    trace: Option<(&Tracer, &Arc<str>)>,
    setup_only: bool,
) -> Result<SeedRun, String> {
    let budget = if setup_only {
        bo.config().initial_samples + 1
    } else {
        bo.config().max_evaluations
    };
    let steal = probe::steal_s();
    let started = Instant::now();
    let mut state = bo.start(problem).map_err(|e| e.to_string())?;
    let mut setup_s = None;
    let mut step_ms = Vec::with_capacity(budget);
    while state.evaluations().len() < budget {
        let span_start = trace.map(|(tracer, _)| tracer.now_ns());
        let step_started = Instant::now();
        let more = bo.step(problem, &mut state).map_err(|e| e.to_string())?;
        let elapsed = step_started.elapsed();
        if let (Some((tracer, id)), Some(start_ns)) = (trace, span_start) {
            tracer.record(Span {
                kind: SpanKind::Step,
                request: Arc::clone(id),
                start_ns,
                end_ns: tracer.now_ns(),
                bytes: 0,
                failed: false,
            });
        }
        if !more {
            return Err(format!(
                "step reported the budget exhausted at {} of {budget} evaluations",
                state.evaluations().len()
            ));
        }
        match setup_s {
            None => setup_s = Some(started.elapsed().as_secs_f64()),
            Some(_) => step_ms.push(elapsed.as_secs_f64() * 1e3),
        }
    }
    if !setup_only && bo.step(problem, &mut state).map_err(|e| e.to_string())? {
        return Err("a step past the budget reported more work".to_string());
    }
    Ok(SeedRun {
        wall_s: started.elapsed().as_secs_f64(),
        steal_s: probe::steal_s() - steal,
        setup_s: setup_s.unwrap_or(f64::NAN),
        step_ms,
        result: bo.finish(state),
    })
}

fn bo_seed(
    spec: &RunSpec,
    seed: u64,
    trace: Option<(&Tracer, &Arc<str>)>,
    setup_only: bool,
) -> Result<SeedRun, String> {
    match spec.workload {
        Workload::OpampNgp => {
            let protocol = opamp_protocol(spec.smoke);
            let config = protocol.bo_config(0).with_seed(seed);
            let problem = OpAmpProblem::new();
            match trace {
                None => drive(
                    &BayesOpt::neural_with(config, protocol.ensemble_config()),
                    &problem,
                    None,
                    setup_only,
                ),
                Some((tracer, id)) => {
                    let trainer = NeuralGpEnsembleTrainer::new(protocol.ensemble_config());
                    drive(
                        &BayesOpt::with_trainer(config, TracedTrainer::new(trainer, tracer, id)),
                        &TracedProblem::new(problem, tracer, id),
                        trace,
                        setup_only,
                    )
                }
            }
        }
        Workload::ChargepumpGp => {
            let config = chargepump_config(spec.smoke).with_seed(seed);
            let problem = ChargePumpProblem::new();
            match trace {
                None => drive(&weibo(config), &problem, None, setup_only),
                Some((tracer, id)) => {
                    let trainer = GpSurrogateTrainer::default();
                    drive(
                        &BayesOpt::with_trainer(config, TracedTrainer::new(trainer, tracer, id)),
                        &TracedProblem::new(problem, tracer, id),
                        trace,
                        setup_only,
                    )
                }
            }
        }
        Workload::ServePvt => unreachable!("the served workload is not a BO seed chain"),
    }
}

fn run_bo(spec: &RunSpec) -> Result<Report, String> {
    let shape = if spec.workload == Workload::OpampNgp {
        Shape::new(
            &opamp_protocol(spec.smoke).bo_config(0),
            &OpAmpProblem::new(),
            1,
        )
    } else {
        let problem = ChargePumpProblem::new();
        let corners = problem.bench().corners().len();
        Shape::new(&chargepump_config(spec.smoke), &problem, corners)
    };
    let seeds = bo_seeds(spec);
    let tracer = spec.trace.then(Tracer::new);
    let mut traced_window = TracedWindow::default();
    let mut runs = Vec::new();
    let mut traced_runs = Vec::new();

    // Extra set-ups on further seeds steady the set-up median; run first,
    // they also warm the process before the window opens.
    let mut setups = Vec::new();
    for j in 0..spec.extra_setups() {
        let seed = unit_seed(spec.seed, EXTRA_SETUP_INDEX + j);
        setups.push(bo_seed(spec, seed, None, true)?.setup_s);
    }

    let window = Window::open();
    for (i, &seed) in seeds.iter().enumerate() {
        runs.push(bo_seed(spec, seed, None, false)?);
        if let Some(tracer) = &tracer {
            let id: Arc<str> = Arc::from(format!("seed{i}"));
            traced_runs
                .push(traced_window.measure(|| bo_seed(spec, seed, Some((tracer, &id)), false))?);
        }
    }
    let stats = window.close();
    setups.extend(runs.iter().map(|r| r.setup_s));

    let mut outcome = Outcome::default();
    for (run, seed) in runs.iter().zip(&seeds) {
        outcome.finished(&format!("seed {seed}"), &run.result, spec, &shape, false);
    }
    for (run, seed) in traced_runs.iter().zip(&seeds) {
        let label = format!("seed {seed} (traced)");
        outcome.finished(&label, &run.result, spec, &shape, true);
    }
    for (plain, traced) in runs.iter().zip(&traced_runs) {
        if !same_history(plain.result.evaluations(), traced.result.evaluations()) {
            outcome
                .problems
                .push("tracing changed a seed's history".to_string());
        }
    }

    let step_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    outcome.stamp = vec![
        ("units", seeds.len().to_string()),
        ("step_samples", step_ms.len().to_string()),
        ("steal_s", json_number(stats.steal_s)),
        ("unit_wall_s", json_list(runs.iter().map(|r| r.wall_s))),
        ("unit_steal_s", json_list(runs.iter().map(|r| r.steal_s))),
    ];
    let (metrics, trace) = match &tracer {
        None => {
            let p50 = percentile_of(&step_ms, 50.0);
            let p90 = percentile_of(&step_ms, 90.0);
            (end_to_end(&setups, &stats, p50, p90), None)
        }
        Some(tracer) => {
            let (metrics, analysis) = traced_metrics(
                spec,
                tracer,
                &shape,
                &traced_window,
                runs.iter().map(|r| r.wall_s).sum(),
                traced_runs.iter().map(|r| &r.result),
                &mut outcome,
            );
            (metrics, Some(analysis))
        }
    };
    Ok(outcome.into_report(metrics, trace))
}

// ------------------------------------------------------- served workload

fn serve_config(smoke: bool, seed: u64) -> BoConfig {
    let config = if smoke {
        BoConfig::new(10, 16)
    } else {
        BoConfig::new(10, 100)
    };
    config
        .with_refit_policy(RefitPolicy::nll_drift(0.5))
        .with_seed(seed)
}

fn serve_problem() -> SweepProblem<TwoStageOpAmp> {
    SweepProblem::opamp(PvtCorner::standard_18())
}

/// One round of sessions, submitted at once and drained.
struct Round {
    wall_s: f64,
    /// Machine-wide steal over the round.
    steal_s: f64,
    /// Until every session of the round persisted its first step.
    setup_s: f64,
    /// Each session's id and finished result (or why it has none).
    sessions: Vec<(String, Result<OptimizationResult, String>)>,
}

type History = Vec<(Vec<f64>, Evaluation)>;

type Session<T> = (String, BayesOpt<T>, Arc<dyn Problem + Send + Sync>);

fn serve_round<T>(
    service: &BoService<T, ServeStore>,
    sessions: Vec<Session<T>>,
) -> Result<Round, String>
where
    T: SurrogateTrainer + 'static,
    T::Model: Serialize + for<'de> Deserialize<'de> + 'static,
{
    let steal = probe::steal_s();
    let started = Instant::now();
    let ids: Vec<String> = sessions.iter().map(|(id, _, _)| id.clone()).collect();
    for (id, bo, problem) in sessions {
        service
            .submit(&id, bo, problem)
            .map_err(|e| format!("submitting {id}: {e}"))?;
    }
    service.drain();
    let wall_s = started.elapsed().as_secs_f64();
    let mut setup_s: f64 = 0.0;
    let mut finished = Vec::new();
    for id in ids {
        match service.store().first_persist(&id) {
            Some(at) => setup_s = setup_s.max(at.duration_since(started).as_secs_f64()),
            None => setup_s = f64::NAN,
        }
        let result = match service.status(&id) {
            Ok(SessionStatus::Completed) => service.result(&id).map_err(|e| e.to_string()),
            Ok(status) => Err(format!("ended {status:?}")),
            Err(e) => Err(e.to_string()),
        };
        finished.push((id, result));
    }
    Ok(Round {
        wall_s,
        steal_s: probe::steal_s() - steal,
        setup_s,
        sessions: finished,
    })
}

fn open_service<T>(dir: &Path, tracer: Option<&Tracer>) -> Result<BoService<T, ServeStore>, String>
where
    T: SurrogateTrainer + 'static,
    T::Model: Serialize + for<'de> Deserialize<'de> + 'static,
{
    ServeStore::open(dir, tracer)
        .map(|store| BoService::new(store, ServeConfig::default()))
        .map_err(|e| e.to_string())
}

fn run_serve(spec: &RunSpec) -> Result<Report, String> {
    let workers = WorkerPool::global().workers();
    let per_round = workers + 2;
    let rounds = spec.units();
    let seeds: Vec<Vec<u64>> = (0..rounds)
        .map(|r| {
            (0..per_round)
                .map(|k| unit_seed(spec.seed, r * per_round + k))
                .collect()
        })
        .collect();
    let problem = serve_problem();
    let shape = Shape::new(
        &serve_config(spec.smoke, 0),
        &problem,
        problem.sweep().corners().len(),
    );

    // The bit-identity reference: each session's `BayesOpt` run directly,
    // outside the timed window.  The runs are independent, so they share
    // the pool to keep the unmeasured part of a run short.
    let mut references: Vec<Option<Result<History, String>>> =
        seeds.iter().flatten().map(|_| None).collect();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = references
        .iter_mut()
        .zip(seeds.iter().flatten())
        .map(|(slot, &seed)| {
            let problem = &problem;
            Box::new(move || {
                let bo =
                    BayesOpt::neural_with(serve_config(spec.smoke, seed), EnsembleConfig::fast());
                *slot = Some(
                    bo.run(problem)
                        .map(|r| r.evaluations().to_vec())
                        .map_err(|e| e.to_string()),
                );
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    WorkerPool::global().run_batch(tasks);
    let references: Vec<History> = references
        .into_iter()
        .map(|slot| slot.expect("run_batch runs every task"))
        .collect::<Result<_, _>>()?;

    let stores = Path::new(OUT_DIR).join(format!("stores-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&stores);
    let tracer = spec.trace.then(Tracer::new);
    let plain = open_service::<NeuralGpEnsembleTrainer>(&stores.join("plain"), None)?;
    let traced = tracer
        .as_ref()
        .map(|t| {
            open_service::<TracedTrainer<NeuralGpEnsembleTrainer>>(&stores.join("traced"), Some(t))
        })
        .transpose()?;
    let mut traced_window = TracedWindow::default();
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();

    let window = Window::open();
    for (r, round_seeds) in seeds.iter().enumerate() {
        let sessions = round_seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| {
                let bo =
                    BayesOpt::neural_with(serve_config(spec.smoke, seed), EnsembleConfig::fast());
                let problem: Arc<dyn Problem + Send + Sync> = Arc::new(serve_problem());
                (format!("r{r}-s{k}"), bo, problem)
            })
            .collect();
        plain_rounds.push(serve_round(&plain, sessions)?);
        if let (Some(service), Some(tracer)) = (&traced, &tracer) {
            let sessions = round_seeds
                .iter()
                .enumerate()
                .map(|(k, &seed)| {
                    let id = format!("t{r}-s{k}");
                    let request: Arc<str> = Arc::from(id.as_str());
                    let trainer = NeuralGpEnsembleTrainer::new(EnsembleConfig::fast());
                    let bo = BayesOpt::with_trainer(
                        serve_config(spec.smoke, seed),
                        TracedTrainer::new(trainer, tracer, &request),
                    );
                    let problem: Arc<dyn Problem + Send + Sync> =
                        Arc::new(TracedProblem::new(serve_problem(), tracer, &request));
                    (id, bo, problem)
                })
                .collect();
            traced_rounds.push(traced_window.measure(|| serve_round(service, sessions))?);
        }
    }
    let stats = window.close();

    let mut outcome = Outcome::default();
    let steps_per_session = shape.budget - serve_config(spec.smoke, 0).initial_samples;
    for (traced, rounds_of_kind) in [(false, &plain_rounds), (true, &traced_rounds)] {
        let sessions = rounds_of_kind.iter().flat_map(|round| &round.sessions);
        for ((id, finished), reference) in sessions.zip(&references) {
            let label = format!("session {id}");
            match finished {
                Err(why) => outcome.unfinished(&label, why, steps_per_session),
                Ok(result) => {
                    outcome.finished(&label, result, spec, &shape, traced);
                    if !same_history(result.evaluations(), reference) {
                        outcome.problems.push(format!(
                            "{label}: history differs from a direct run of its BayesOpt"
                        ));
                    }
                }
            }
        }
    }
    for service_stats in std::iter::once(plain.stats()).chain(traced.as_ref().map(|s| s.stats())) {
        if service_stats.session_panics + service_stats.step_errors + service_stats.persist_failures
            > 0
        {
            outcome
                .problems
                .push(format!("service counters report faults: {service_stats:?}"));
        }
    }

    outcome.stamp = vec![
        ("units", rounds.to_string()),
        ("sessions_per_round", per_round.to_string()),
        ("step_samples", plain.stats().steps_persisted.to_string()),
        ("steal_s", json_number(stats.steal_s)),
        (
            "unit_wall_s",
            json_list(plain_rounds.iter().map(|r| r.wall_s)),
        ),
        (
            "unit_steal_s",
            json_list(plain_rounds.iter().map(|r| r.steal_s)),
        ),
    ];
    let (metrics, trace) = match &tracer {
        None => {
            let setups: Vec<f64> = plain_rounds.iter().map(|r| r.setup_s).collect();
            let p50 = plain.step_latency_ms(50.0);
            let p90 = plain.step_latency_ms(90.0);
            (end_to_end(&setups, &stats, p50, p90), None)
        }
        Some(tracer) => {
            let (metrics, analysis) = traced_metrics(
                spec,
                tracer,
                &shape,
                &traced_window,
                plain_rounds.iter().map(|r| r.wall_s).sum(),
                traced_rounds
                    .iter()
                    .flat_map(|r| &r.sessions)
                    .filter_map(|(_, result)| result.as_ref().ok()),
                &mut outcome,
            );
            (metrics, Some(analysis))
        }
    };
    drop(plain);
    drop(traced);
    let _ = std::fs::remove_dir_all(&stores);
    Ok(outcome.into_report(metrics, trace))
}
