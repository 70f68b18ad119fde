//! Parallel-vs-sequential PVT corner-sweep throughput, emitted as
//! `BENCH_pvt.json`.
//!
//! Each entry evaluates the same deterministic batch of suggestions through a
//! [`SweepProblem`] twice — once on the sequential reference path
//! (`with_parallel(false)`, the plain corner loop) and once fanned out over
//! [`nnbo_pool::WorkerPool::global`] via `try_evaluate_batch` — and records
//! the timing of both alongside the *pin* that matters: the two outcome
//! vectors must compare equal bit for bit ([`EvalOutcome`] derives
//! `PartialEq` over exact `f64`s).  A mismatch aborts the benchmark with an
//! error rather than writing a document that quietly blesses a broken
//! fan-out.
//!
//! Workloads:
//!
//! * `opamp_sweep_18` — the Table-I two-stage op-amp over the 18 standard
//!   corners with worst-case aggregation.
//! * `charge_pump_sweep_18` — the Table-II charge pump over the same
//!   corners (per-corner FOM objective); its mismatch sign is seeded by the
//!   corner *index*, so this workload also exercises the corner-context
//!   plumbing.
//! * `opamp_sweep_batched_18` — the op-amp sweep again, but the whole
//!   suggestion batch submitted as one `try_evaluate_batch` call
//!   (suggestions × corners in a single pool batch) against the one-at-a-time
//!   sequential loop — the shape the BO loop's batched evaluation uses.

use nnbo_circuits::{PvtCorner, Testbench};
use nnbo_core::{EvalOutcome, Problem, SweepProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linalg_bench::time_best;
use crate::{json, BenchError};

/// One parallel-vs-sequential sweep comparison.
pub struct PvtBenchEntry {
    /// Workload name.
    pub name: &'static str,
    /// Number of PVT corners per sweep.
    pub corners: usize,
    /// Number of design points (suggestions) evaluated.
    pub points: usize,
    /// Best-of-reps wall time of the sequential reference, nanoseconds.
    pub sequential_ns: f64,
    /// Best-of-reps wall time of the pool fan-out, nanoseconds.
    pub parallel_ns: f64,
    /// `true` when the parallel outcomes compared equal (bit for bit) to
    /// the sequential reference — always `true` in an emitted document,
    /// since a mismatch fails the run instead.
    pub bit_identical: bool,
}

impl PvtBenchEntry {
    /// Sequential-over-parallel speedup (≈ 1 on a single-core box).
    pub fn speedup(&self) -> f64 {
        self.sequential_ns / self.parallel_ns
    }

    /// Parallel sweep throughput in full corner sweeps per second.
    pub fn sweeps_per_sec(&self) -> f64 {
        self.points as f64 / (self.parallel_ns / 1e9)
    }
}

/// Deterministic normalized design points for a `dim`-dimensional problem.
fn design_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.05..0.95)).collect())
        .collect()
}

/// Times one problem's sequential reference against its pool fan-out on the
/// same points and checks the outcomes are identical.  `batched` submits the
/// whole batch as a single `try_evaluate_batch` call on both sides;
/// otherwise each suggestion is evaluated on its own (one pool batch per
/// sweep), which is what the optimization loop's single-suggestion path does.
fn compare<T: Testbench>(
    name: &'static str,
    problem: &SweepProblem<T>,
    points: &[Vec<f64>],
    reps: usize,
    batched: bool,
) -> Result<PvtBenchEntry, BenchError>
where
    SweepProblem<T>: Clone,
{
    let sequential = problem.clone().with_parallel(false);
    let parallel = problem.clone().with_parallel(true);
    let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();

    let run = |p: &SweepProblem<T>| -> Vec<EvalOutcome> {
        if batched {
            p.try_evaluate_batch(&refs)
        } else {
            refs.iter().map(|x| p.try_evaluate(x)).collect()
        }
    };

    let seq_outcomes = run(&sequential);
    let par_outcomes = run(&parallel);
    if seq_outcomes != par_outcomes {
        return Err(format!(
            "{name}: parallel corner sweep diverged from the sequential reference"
        )
        .into());
    }
    if let Some(bad) = seq_outcomes.iter().find(|o| !o.is_ok()) {
        return Err(format!(
            "{name}: benchmark design point unexpectedly failed: {:?}",
            bad.failure_reason()
        )
        .into());
    }

    let sequential_ns = time_best(reps, || {
        std::hint::black_box(run(&sequential));
    });
    let parallel_ns = time_best(reps, || {
        std::hint::black_box(run(&parallel));
    });

    Ok(PvtBenchEntry {
        name,
        corners: problem.sweep().corners().len(),
        points: points.len(),
        sequential_ns,
        parallel_ns,
        bit_identical: true,
    })
}

/// Runs the corner-sweep throughput suite.  `quick` shrinks the suggestion
/// count and repetitions so CI can smoke-test the harness in seconds.
pub fn run_pvt_bench(quick: bool) -> Result<Vec<PvtBenchEntry>, BenchError> {
    let points = if quick { 4 } else { 16 };
    let reps = if quick { 2 } else { 5 };

    let opamp = SweepProblem::opamp(PvtCorner::standard_18());
    let opamp_points = design_points(points, opamp.dim(), 41);
    let charge_pump = SweepProblem::charge_pump(PvtCorner::standard_18());
    let cp_points = design_points(points, charge_pump.dim(), 43);

    Ok(vec![
        compare("opamp_sweep_18", &opamp, &opamp_points, reps, false)?,
        compare(
            "charge_pump_sweep_18",
            &charge_pump,
            &cp_points,
            reps,
            false,
        )?,
        compare("opamp_sweep_batched_18", &opamp, &opamp_points, reps, true)?,
    ])
}

/// Serialises the entries as the `BENCH_pvt.json` document.
pub fn format_pvt_json(entries: &[PvtBenchEntry], quick: bool) -> String {
    let rows = entries
        .iter()
        .map(|e| {
            json::row(&[
                ("name", &e.name),
                ("corners", &e.corners),
                ("points", &e.points),
                ("sequential_ms", &(e.sequential_ns / 1e6)),
                ("parallel_ms", &(e.parallel_ns / 1e6)),
                ("speedup", &e.speedup()),
                ("sweeps_per_sec", &e.sweeps_per_sec()),
                ("bit_identical", &e.bit_identical),
            ])
        })
        .collect();
    json::document("nnbo-bench-pvt-v1", "pvt", quick, &[("entries", rows)])
}

/// Renders a human-readable table of the same entries for stdout.
pub fn format_pvt_table(entries: &[PvtBenchEntry]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>7} {:>16} {:>14} {:>9} {:>12} {:>10}\n",
        "workload",
        "corners",
        "points",
        "sequential (ms)",
        "parallel (ms)",
        "speedup",
        "sweeps/s",
        "identical"
    );
    for e in entries {
        out.push_str(&format!(
            "{:<24} {:>8} {:>7} {:>16.3} {:>14.3} {:>8.1}x {:>12.1} {:>10}\n",
            e.name,
            e.corners,
            e.points,
            e.sequential_ns / 1e6,
            e.parallel_ns / 1e6,
            e.speedup(),
            e.sweeps_per_sec(),
            e.bit_identical,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_pins_bit_identity_and_emits_valid_json() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let entries = run_pvt_bench(true).expect("quick pvt bench runs");
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        for expected in [
            "opamp_sweep_18",
            "charge_pump_sweep_18",
            "opamp_sweep_batched_18",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
        for e in &entries {
            assert!(e.bit_identical, "{} diverged", e.name);
            assert_eq!(e.corners, 18);
            assert!(e.sequential_ns > 0.0 && e.parallel_ns > 0.0);
        }
        let json = format_pvt_json(&entries, true);
        assert!(json.contains("\"schema\": \"nnbo-bench-pvt-v1\""));
        assert_eq!(
            json.matches("\"bit_identical\": true").count(),
            entries.len()
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!format_pvt_table(&entries).is_empty());
    }

    #[test]
    fn a_failing_workload_would_fail_the_run_not_the_document() {
        // `compare` refuses to produce an entry whose design points fail —
        // the pin is an error path, not a silently-false flag.
        let problem = SweepProblem::new(
            nnbo_circuits::CornerSweep::new(
                nnbo_circuits::TwoStageOpAmp::stressed(),
                PvtCorner::standard_18(),
            ),
            "stressed",
            0,
            |_: &nnbo_circuits::OpAmpPerformance| nnbo_core::Evaluation::unconstrained(0.0),
        );
        let points = design_points(2, problem.dim(), 7);
        let err = compare("stressed", &problem, &points, 1, false)
            .err()
            .expect("stressed bench points fail");
        assert!(err.to_string().contains("unexpectedly failed"), "{err}");
    }
}
