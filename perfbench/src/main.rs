//! `perfbench` — end-to-end benchmark of the neural-GP BO workspace.
//!
//! ```text
//! perfbench --workload <opamp_ngp|chargepump_gp|serve_pvt> --seed <n>
//!           [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! One invocation runs one workload from one driving thread, through the
//! library's public API only.  The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`.  The line before it stamps the run's context (cores, pool
//! workers, kernel ISA, hypervisor steal).  A failed output check prints
//! the failures on standard error, reports `"correct": false` without
//! numbers, and exits 1; bad arguments exit 2.

mod layers;
mod probe;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use workloads::{json_number, RunSpec, Workload};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <opamp_ngp|chargepump_gp|serve_pvt> --seed <n> \
                     [--seconds <s>] [--trace <0|1>] [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let spec = match parse_args(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Lazy set-up every process pays once, outside the measured window:
    // the pool's threads and the kernel dispatch probe.
    let workers = nnbo_pool::WorkerPool::global().workers();
    let isa = nnbo_linalg::kernel_isa();

    let report = match workloads::run(&spec) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("{}: run failed: {why}", spec.workload.name());
            return ExitCode::FAILURE;
        }
    };

    if let Some(analysis) = &report.trace {
        let path = Path::new(workloads::OUT_DIR).join(format!(
            "spans-{}-{}.jsonl",
            spec.workload.name(),
            spec.seed
        ));
        if let Err(e) = trace::write_spans(&path, &analysis.spans, &analysis.parents) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut stamp = vec![
        ("workload", format!("\"{}\"", spec.workload.name())),
        ("seed", spec.seed.to_string()),
        ("trace", u8::from(spec.trace).to_string()),
        ("smoke", spec.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("pool_workers", workers.to_string()),
        ("kernel_isa", format!("\"{isa}\"")),
    ];
    stamp.extend(report.stamp.iter().cloned());
    let stamp: Vec<String> = stamp.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"stamp\": {{{}}}}}", stamp.join(", "));

    let mut problems = report.problems.clone();
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} is not finite", m.name));
    }
    for problem in &problems {
        eprintln!("check failed: {problem}");
    }
    let correct = problems.is_empty();
    let metrics: Vec<String> = if correct {
        report
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunSpec, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let spec = parse(&[
            "--workload",
            "serve_pvt",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(spec.workload, Workload::ServePvt);
        assert_eq!(
            (spec.seed, spec.seconds, spec.trace, spec.smoke),
            (7, 20.0, true, false)
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_missing_values() {
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "opamp_ngp"]).is_err());
        assert!(parse(&["--workload", "opamp_ngp", "--seed"]).is_err());
        assert!(parse(&["--workload", "opamp_ngp", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn unit_seeds_are_distinct_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|i| workloads::unit_seed(40, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| workloads::unit_seed(40, i)).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_ne!(workloads::unit_seed(41, 0), a[0]);
    }
}
