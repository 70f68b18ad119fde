//! Fault-tolerance benchmark: measures the resilience layer's clean-path
//! overhead and demonstrates its recovery behaviour under a canned fault
//! plan, emitting `BENCH_robustness.json` so later PRs can track both.
//!
//! Four sections:
//!
//! * **clean** — a failure-free optimization run.  The resilience layer must
//!   be inert here: zero recovery events, and a per-evaluation overhead (the
//!   failure-aware `try_evaluate` wrapper plus the loop's bookkeeping,
//!   measured directly against the raw `evaluate` path) that stays a small
//!   fraction of the run — the budget is < 2 %.
//! * **faulted** — the same run under a deterministic fault plan (a burst of
//!   evaluation failures, a timeout, one aborted refit).  Reports every
//!   `RecoveryLog` counter so the recovery behaviour is pinned, and checks
//!   the optimum came from a real simulation.
//! * **snapshot** — checkpoint → JSON → restore mid-run, timing the round
//!   trip and verifying the resumed continuation is bit-identical.
//! * **store_faults** — the injectable-I/O store.  Clean-path persist
//!   latency through the trait-dispatched `StdIo` backend vs the same
//!   write→fsync→rename→fsync-dir sequence issued with direct `std::fs`
//!   calls (the pre-indirection store; the overhead budget is the same
//!   < 2 %), persist latency through a four-way `ShardedStore`, and a
//!   canned disk-fault scenario (torn write mid-persist, then bit-rot on
//!   the latest generation) proving scrub removes the debris, promotes the
//!   backup, and hands recovery the acknowledged payload.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use nnbo_core::problems::ConstrainedBranin;
use nnbo_core::{
    BayesOpt, BoConfig, BoSnapshot, EnsembleConfig, EvalOutcome, Evaluation, Problem, RecoveryLog,
};
use nnbo_serve::io::ScriptedFault;
use nnbo_serve::{
    fnv1a64, FaultIo, FaultKind, FaultPlan, SessionStore, ShardConfig, ShardedStore, SnapshotStore,
};

use crate::json;
use crate::BenchError;

/// Everything `BENCH_robustness.json` reports.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Wall time of the failure-free run (milliseconds).
    pub clean_run_ms: f64,
    /// Total recovery events on the clean run (must be 0).
    pub clean_total_events: usize,
    /// Estimated clean-path overhead of the resilience layer, as a percent
    /// of the whole run: evaluations × (failure-aware wrapper cost − raw
    /// evaluation cost) ÷ run time.
    pub clean_path_overhead_pct: f64,
    /// Wall time of the faulted run (milliseconds).
    pub faulted_run_ms: f64,
    /// Recovery log of the faulted run.
    pub faulted_recovery: RecoveryLog,
    /// Whether the faulted run's reported optimum came from a real
    /// (non-imputed) simulation.
    pub faulted_best_is_real: bool,
    /// Wall time of snapshot → JSON → parse → restore (milliseconds).
    pub snapshot_roundtrip_ms: f64,
    /// Whether the resumed continuation reproduced the uninterrupted run
    /// bit for bit.
    pub snapshot_bit_identical: bool,
    /// Median per-persist latency through the trait-dispatched `StdIo`
    /// store (microseconds).
    pub store_persist_us: f64,
    /// Median per-persist latency of the identical syscall sequence issued
    /// with direct `std::fs` calls — the pre-indirection baseline
    /// (microseconds).
    pub store_raw_persist_us: f64,
    /// Clean-path overhead of the `StoreIo` indirection as a percent of
    /// the raw persist (budget: < 2 %).
    pub store_dispatch_overhead_pct: f64,
    /// Median per-persist latency through a four-shard `ShardedStore`
    /// (rendezvous routing + retry wrapper included), microseconds.
    pub store_sharded_persist_us: f64,
    /// Torn-write debris files removed by the post-fault scrub.
    pub store_tmp_removed: usize,
    /// Backup generations scrub promoted over bit-rotted latest files.
    pub store_backups_promoted: usize,
    /// Whether both fault scenarios handed recovery the exact acknowledged
    /// payload after restart + scrub.
    pub store_fault_recovered: bool,
}

/// Fails scripted `try_evaluate` calls of the wrapped problem (the canned
/// fault plan of the faulted section).
struct ScriptedFaults<P> {
    inner: P,
    calls: AtomicUsize,
    fail: std::ops::Range<usize>,
    timeout_at: usize,
}

impl<P: Problem> Problem for ScriptedFaults<P> {
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
            EvalOutcome::Failed(format!("bench: scripted failure at call {i}"))
        } else if i == self.timeout_at {
            EvalOutcome::Timeout
        } else {
            self.inner.try_evaluate(x)
        }
    }
}

fn bench_config(quick: bool) -> BoConfig {
    if quick {
        BoConfig::fast(8, 18).with_seed(7)
    } else {
        BoConfig::new(10, 40).with_seed(7)
    }
}

fn driver(config: BoConfig, quick: bool) -> BayesOpt<nnbo_core::NeuralGpEnsembleTrainer> {
    let ensemble = if quick {
        EnsembleConfig::fast()
    } else {
        EnsembleConfig::default()
    };
    BayesOpt::neural_with(config, ensemble)
}

/// Median-of-3 wall time of `f` in milliseconds.
fn time_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(3);
    let start = Instant::now();
    let mut last = f();
    times.push(start.elapsed().as_secs_f64() * 1e3);
    for _ in 1..3 {
        let start = Instant::now();
        last = f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[1], last)
}

/// Per-call cost (nanoseconds) of `f` over `iters` calls.
fn per_call_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Wall time of one call of `f`, in microseconds.
fn timed_us(f: &mut impl FnMut(usize), i: usize) -> f64 {
    let start = Instant::now();
    f(i);
    start.elapsed().as_secs_f64() * 1e6
}

/// Median of a non-empty sample vector.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The exact syscall sequence `SessionStore::persist` issues, with direct
/// `std::fs` calls instead of the `StoreIo` trait object — the
/// pre-indirection store, kept here as the overhead baseline.
fn raw_persist(dir: &Path, id: &str, snapshot_json: &str) -> std::io::Result<()> {
    let payload = snapshot_json.as_bytes();
    let frame = format!(
        "nnbo-session v1 {} {:016x}\n{snapshot_json}\n",
        payload.len(),
        fnv1a64(payload)
    );
    let tmp = dir.join(format!("{id}.session.tmp"));
    let latest = dir.join(format!("{id}.session"));
    std::fs::write(&tmp, frame.as_bytes())?;
    std::fs::File::open(&tmp)?.sync_all()?;
    if latest.exists() {
        std::fs::rename(&latest, dir.join(format!("{id}.session.prev")))?;
    }
    std::fs::rename(&tmp, &latest)?;
    std::fs::File::open(dir)?.sync_all()
}

/// Store section results, in declaration order of the report fields.
struct StoreSection {
    persist_us: f64,
    raw_persist_us: f64,
    dispatch_overhead_pct: f64,
    sharded_persist_us: f64,
    tmp_removed: usize,
    backups_promoted: usize,
    fault_recovered: bool,
}

/// Measures the injectable-I/O store's clean path and runs the canned
/// disk-fault scenario.
fn store_faults_section(quick: bool) -> Result<StoreSection, BenchError> {
    let scratch =
        std::env::temp_dir().join(format!("nnbo-bench-store-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let history: Vec<f64> = (0..48).map(|i| i as f64 * 0.137).collect();
    let payload = serde::to_json_string(&json::row(&[
        ("iter", &12),
        ("best", &0.3978),
        ("history", &history),
    ]));
    let pairs = if quick { 192 } else { 768 };
    let ids = ["s0", "s1", "s2", "s3"];

    // Clean path: trait-dispatched StdIo vs the direct-fs baseline.
    // fsync latency on this box drifts by >10% over seconds and has
    // heavy tails, so the overhead comes from tightly paired samples:
    // each pair times one StdIo persist against one raw persist
    // back-to-back (alternating which goes first, killing order bias),
    // and the estimate is the median pair ratio — drift hits both sides
    // of a pair, and the median rejects the fsync-stall outliers.
    let stdio = SessionStore::open(scratch.join("stdio"))?;
    let raw_dir = scratch.join("raw");
    std::fs::create_dir_all(&raw_dir)?;
    let mut stdio_one = |i: usize| {
        stdio
            .persist(ids[i % ids.len()], &payload)
            .expect("clean persist");
    };
    let mut raw_one = |i: usize| {
        raw_persist(&raw_dir, ids[i % ids.len()], &payload).expect("raw persist");
    };
    for i in 0..8 {
        stdio_one(i);
        raw_one(i);
    }
    let mut stdio_samples = Vec::with_capacity(pairs);
    let mut raw_samples = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (s, r) = if i % 2 == 0 {
            let s = timed_us(&mut stdio_one, i);
            (s, timed_us(&mut raw_one, i))
        } else {
            let r = timed_us(&mut raw_one, i);
            (timed_us(&mut stdio_one, i), r)
        };
        stdio_samples.push(s);
        raw_samples.push(r);
        ratios.push(s / r);
    }
    let persist_us = median(stdio_samples);
    let raw_persist_us = median(raw_samples);
    let dispatch_overhead_pct = (median(ratios) - 1.0).max(0.0) * 100.0;

    // Sharded path: rendezvous routing + retry wrapper on top.
    let sharded = ShardedStore::open(scratch.join("sharded"), ShardConfig::new(4))?;
    let mut sharded_one = |i: usize| {
        sharded
            .persist(ids[i % ids.len()], &payload)
            .expect("sharded persist");
    };
    for i in 0..8 {
        sharded_one(i);
    }
    let sharded_persist_us = median((0..pairs).map(|i| timed_us(&mut sharded_one, i)).collect());

    // Fault scenario 1: a torn write tears persist #2 mid-file and crashes
    // the process.  Ops per persist: write, sync_file, [rename], rename,
    // sync_dir — so persist #0 is ops 0..4, #1 is 4..9, and op 9 is the
    // write of persist #2.
    let faulted_dir = scratch.join("faulted");
    let faulted = SessionStore::open_with(
        &faulted_dir,
        std::sync::Arc::new(FaultIo::new(FaultPlan::scripted(vec![ScriptedFault {
            at_op: 9,
            kind: FaultKind::TornWrite,
        }]))),
    )?;
    let mut acked = None;
    for i in 0..4 {
        let p = serde::to_json_string(&json::row(&[("iter", &i)]));
        if faulted.persist("s", &p).is_ok() {
            acked = Some(p);
        }
    }
    let survivor = SessionStore::open(&faulted_dir)?;
    let scrub_torn = survivor.scrub()?;
    let torn_recovered = survivor.load("s")?.map(|l| l.snapshot_json) == acked;

    // Fault scenario 2: the latest generation bit-rots on disk; scrub must
    // promote the intact backup and recovery must read it.
    let rot_dir = scratch.join("bitrot");
    let rot = SessionStore::open(&rot_dir)?;
    rot.persist("s", "{\"iter\": 0}")?;
    rot.persist("s", "{\"iter\": 1}")?;
    std::fs::write(
        rot_dir.join("s.session"),
        b"nnbo-session v1 9 deadbeef\ngarbage\n",
    )?;
    let scrub_rot = rot.scrub()?;
    let rot_recovered =
        rot.load("s")?.map(|l| l.snapshot_json) == Some("{\"iter\": 0}".to_string());

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(StoreSection {
        persist_us,
        raw_persist_us,
        dispatch_overhead_pct,
        sharded_persist_us,
        tmp_removed: scrub_torn.tmp_removed,
        backups_promoted: scrub_rot.backups_promoted,
        fault_recovered: torn_recovered && rot_recovered,
    })
}

/// Runs the four sections and assembles the report.
pub fn run_robustness_bench(quick: bool) -> Result<RobustnessReport, BenchError> {
    let config = bench_config(quick);

    // --- clean section ----------------------------------------------------
    let problem = ConstrainedBranin::new();
    let (clean_run_ms, clean) = time_ms(|| driver(config.clone(), quick).run(&problem));
    let clean = clean?;
    let clean_total_events = clean.recovery().total_events();

    // The failure-aware wrapper's cost per evaluation, measured against the
    // raw evaluation path it guards.
    let iters = if quick { 2_000 } else { 20_000 };
    let points: Vec<Vec<f64>> = (0..64)
        .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61 + 0.11) % 1.0])
        .collect();
    let wrapped_ns = per_call_ns(iters, |i| {
        std::hint::black_box(problem.try_evaluate(&points[i % points.len()]));
    });
    let raw_ns = per_call_ns(iters, |i| {
        std::hint::black_box(problem.evaluate(&points[i % points.len()]));
    });
    let evals = config.max_evaluations as f64;
    let clean_path_overhead_pct =
        (evals * (wrapped_ns - raw_ns).max(0.0)) / (clean_run_ms * 1e6) * 100.0;

    // --- faulted section --------------------------------------------------
    // Burst of failures right after the initial design, one timeout later.
    let init = config.initial_samples;
    let faulted_problem = ScriptedFaults {
        inner: ConstrainedBranin::new(),
        calls: AtomicUsize::new(0),
        fail: (init + 1)..(init + 5),
        timeout_at: init + 8,
    };
    let (faulted_run_ms, faulted) = time_ms(|| {
        faulted_problem.calls.store(0, Ordering::SeqCst);
        driver(config.clone(), quick).run(&faulted_problem)
    });
    let faulted = faulted?;
    let faulted_recovery = faulted.recovery().clone();
    let faulted_best_is_real = faulted
        .best_index()
        .is_some_and(|i| !faulted_recovery.imputed.contains(&i));

    // --- snapshot section -------------------------------------------------
    let bo = driver(config.clone(), quick);
    let reference = bo.run(&problem)?;
    let mut state = bo.start(&problem)?;
    for _ in 0..3 {
        bo.step(&problem, &mut state)?;
    }
    let start = Instant::now();
    let snap = BoSnapshot::from_json(&bo.snapshot(&state).to_json())?;
    let mut resumed = bo.resume(&snap)?;
    let snapshot_roundtrip_ms = start.elapsed().as_secs_f64() * 1e3;
    while bo.step(&problem, &mut resumed)? {}
    let continued = bo.finish(resumed);
    let snapshot_bit_identical = continued.evaluations() == reference.evaluations()
        && continued.full_refits() == reference.full_refits();

    // --- store_faults section ---------------------------------------------
    let store = store_faults_section(quick)?;

    Ok(RobustnessReport {
        clean_run_ms,
        clean_total_events,
        clean_path_overhead_pct,
        faulted_run_ms,
        faulted_recovery,
        faulted_best_is_real,
        snapshot_roundtrip_ms,
        snapshot_bit_identical,
        store_persist_us: store.persist_us,
        store_raw_persist_us: store.raw_persist_us,
        store_dispatch_overhead_pct: store.dispatch_overhead_pct,
        store_sharded_persist_us: store.sharded_persist_us,
        store_tmp_removed: store.tmp_removed,
        store_backups_promoted: store.backups_promoted,
        store_fault_recovered: store.fault_recovered,
    })
}

/// Human-readable summary of the report.
pub fn format_robustness_table(r: &RobustnessReport) -> String {
    let rec = &r.faulted_recovery;
    let mut out = String::new();
    out.push_str(&format!(
        "clean run        {:>6.1} ms   recovery events {}   est. overhead {:.3}%\n",
        r.clean_run_ms, r.clean_total_events, r.clean_path_overhead_pct
    ));
    out.push_str(&format!(
        "faulted run      {:>6.1} ms   failures {}  timeouts {}  retries {}  imputed {}  best-is-real {}\n",
        r.faulted_run_ms,
        rec.eval_failures,
        rec.eval_timeouts,
        rec.eval_retries,
        rec.imputed.len(),
        r.faulted_best_is_real
    ));
    out.push_str(&format!(
        "                 degraded refits {}  fallback suggests {}  suppressed failure-refits {}  jitter {}  drops {}\n",
        rec.degraded_refits,
        rec.fallback_suggests,
        rec.failure_refits_suppressed,
        rec.jitter_promotions,
        rec.member_drops
    ));
    out.push_str(&format!(
        "snapshot         {:>6.2} ms round trip   bit-identical {}\n",
        r.snapshot_roundtrip_ms, r.snapshot_bit_identical
    ));
    out.push_str(&format!(
        "store persist    {:>6.2} µs (StdIo)  {:>6.2} µs (raw fs)  dispatch overhead {:.2}%  {:>6.2} µs (4 shards)\n",
        r.store_persist_us,
        r.store_raw_persist_us,
        r.store_dispatch_overhead_pct,
        r.store_sharded_persist_us
    ));
    out.push_str(&format!(
        "store faults     tmp-removed {}  backups-promoted {}  recovered {}\n",
        r.store_tmp_removed, r.store_backups_promoted, r.store_fault_recovered
    ));
    out
}

/// Serialises the report as the `BENCH_robustness.json` document.
pub fn format_robustness_json(r: &RobustnessReport, quick: bool) -> String {
    let rec = &r.faulted_recovery;
    let rows = vec![
        json::row(&[
            ("section", &"clean"),
            ("run_ms", &r.clean_run_ms),
            ("recovery_events", &r.clean_total_events),
            ("overhead_pct", &r.clean_path_overhead_pct),
        ]),
        json::row(&[
            ("section", &"faulted"),
            ("run_ms", &r.faulted_run_ms),
            ("eval_failures", &rec.eval_failures),
            ("eval_timeouts", &rec.eval_timeouts),
            ("eval_retries", &rec.eval_retries),
            ("imputed", &rec.imputed.len()),
            ("degraded_refits", &rec.degraded_refits),
            ("fallback_suggests", &rec.fallback_suggests),
            ("failure_refits_suppressed", &rec.failure_refits_suppressed),
            ("jitter_promotions", &rec.jitter_promotions),
            ("member_drops", &rec.member_drops),
            ("best_is_real", &r.faulted_best_is_real),
        ]),
        json::row(&[
            ("section", &"snapshot"),
            ("roundtrip_ms", &r.snapshot_roundtrip_ms),
            ("bit_identical", &r.snapshot_bit_identical),
        ]),
        json::row(&[
            ("section", &"store_faults"),
            ("persist_us", &r.store_persist_us),
            ("raw_persist_us", &r.store_raw_persist_us),
            ("dispatch_overhead_pct", &r.store_dispatch_overhead_pct),
            ("sharded_persist_us", &r.store_sharded_persist_us),
            ("tmp_removed", &r.store_tmp_removed),
            ("backups_promoted", &r.store_backups_promoted),
            ("fault_recovered", &r.store_fault_recovered),
        ]),
    ];
    json::document(
        "nnbo-robustness-v1",
        "robustness",
        quick,
        &[("sections", rows)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_consistent_and_serialises() {
        let r = run_robustness_bench(true).expect("quick robustness bench runs");
        assert_eq!(r.clean_total_events, 0, "clean run must be clean");
        assert!(r.clean_path_overhead_pct.is_finite());
        assert!(
            r.clean_path_overhead_pct < 2.0,
            "clean-path overhead {:.3}% breaches the 2% budget",
            r.clean_path_overhead_pct
        );
        assert!(r.faulted_recovery.eval_failures > 0);
        assert!(r.faulted_recovery.eval_timeouts > 0);
        assert!(r.faulted_best_is_real);
        assert!(r.snapshot_bit_identical);
        assert!(r.store_persist_us > 0.0 && r.store_raw_persist_us > 0.0);
        // The honest number lives in the committed full-run JSON, where the
        // budget is < 2 %; here a lenient ceiling guards against a real
        // regression without flaking on filesystem noise.
        assert!(
            r.store_dispatch_overhead_pct.is_finite() && r.store_dispatch_overhead_pct < 10.0,
            "StoreIo dispatch overhead {:.2}% is far beyond the 2% budget",
            r.store_dispatch_overhead_pct
        );
        assert_eq!(
            r.store_tmp_removed, 1,
            "torn write must leave exactly one debris file"
        );
        assert_eq!(
            r.store_backups_promoted, 1,
            "bit-rot must force one promotion"
        );
        assert!(
            r.store_fault_recovered,
            "scrub must hand recovery the acked payload"
        );
        let json = format_robustness_json(&r, true);
        assert!(json.contains("\"schema\": \"nnbo-robustness-v1\""));
        assert!(json.contains("\"section\": \"faulted\""));
        assert!(json.contains("\"section\": \"store_faults\""));
        assert!(!format_robustness_table(&r).is_empty());
    }
}
