//! Smoke sizes of every workload, untraced and traced: the output checks
//! and the closure check run end to end in seconds, and the result line has
//! the shape `BENCHMARK.json` promises.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["opamp_ngp", "chargepump_gp", "serve_pvt"];

fn perfbench(args: &[&str]) -> Output {
    // Runs write their stores and span dumps under the working directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("create the smoke working directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run perfbench")
}

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, read without a JSON parser: every `"name"` value
/// between the section's key and the next top-level key.
fn metric_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn check_run(workload: &str, trace: &str, section: &str) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stderr}\n{stdout}"
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines.last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    assert!(lines[lines.len() - 2].starts_with("{\"stamp\": {"));
    let names = metric_names(section);
    assert!(!names.is_empty());
    for name in names {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} --trace {trace} lacks {name}: {result}"
        );
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        check_run(workload, "0", "end_to_end");
    }
}

#[test]
fn every_traced_workload_closes_and_reports_every_per_layer_metric() {
    for workload in WORKLOADS {
        check_run(workload, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "opamp_ngp"][..],
        &["--workload", "opamp_ngp", "--seed", "1", "--trace", "2"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
