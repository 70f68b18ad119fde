//! `reproduce` — regenerates the paper's tables and complexity study.
//!
//! Usage:
//!
//! ```text
//! reproduce [--quick] table1           # Table I  (two-stage op-amp) → BENCH_table1.json
//! reproduce [--quick] table2           # Table II (charge pump) + D=20 high-dim study → BENCH_table2.json
//! reproduce [--quick] scaling          # §III.D complexity scaling + subspace acquisition study → BENCH_scaling.json
//! reproduce [--quick] linalg           # kernel old-vs-new benchmark → BENCH_linalg.json
//! reproduce [--quick] fit              # fit-path old-vs-new benchmark → BENCH_fit.json
//! reproduce [--quick] predict          # packed-vs-blocked batched prediction → BENCH_predict.json
//! reproduce [--quick] pvt              # parallel-vs-sequential PVT corner-sweep throughput → BENCH_pvt.json
//! reproduce [--quick] robustness       # fault-tolerance: overhead + recovery → BENCH_robustness.json
//! reproduce [--quick] serve            # multi-session serving layer: throughput, recovery, shedding → BENCH_serve.json
//! reproduce [--quick] ablation-ensemble      # ensemble-size ablation (E4)
//! reproduce [--quick] ablation-acquisition   # acquisition-function ablation (E5)
//! reproduce [--quick] all              # every experiment above, in this order; stops at the first failure
//! ```
//!
//! `--quick` shrinks every experiment to a smoke-test scale so CI can execute
//! the whole harness in seconds.  Environment variables: `NNBO_FULL=1` runs
//! the paper-scale protocol, `NNBO_RUNS=<n>` overrides the repetition count,
//! `NNBO_MAX_SIMS=<n>` the BO simulation budget (ignored under `--quick`).

use nnbo_bench::{
    format_fit_json, format_fit_table, format_linalg_json, format_linalg_table,
    format_predict_json, format_predict_table, format_pvt_json, format_pvt_table,
    format_robustness_json, format_robustness_table, format_scaling_json, format_serve_json,
    format_serve_table, format_table1, format_table1_json, format_table2, format_table2_highdim,
    format_table2_json, run_ablation_acquisition, run_ablation_ensemble, run_fit_bench,
    run_linalg_bench, run_predict_bench, run_pvt_bench, run_robustness_bench, run_scaling,
    run_serve_bench, run_subspace_scaling, run_table1, run_table2, run_table2_highdim, BenchError,
    Protocol, SubspaceProtocol,
};

/// Signature of one experiment: `--quick` in, a written document or an
/// error out.
type Experiment = fn(bool) -> Result<(), BenchError>;

/// Every experiment, by subcommand name, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("table2", table2),
    ("scaling", scaling),
    ("linalg", linalg),
    ("fit", fit),
    ("predict", predict),
    ("pvt", pvt),
    ("robustness", robustness),
    ("serve", serve),
    ("ablation-ensemble", ablation_ensemble),
    ("ablation-acquisition", ablation_acquisition),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = if let Some(pos) = args.iter().position(|a| a == "--quick") {
        args.remove(pos);
        true
    } else {
        false
    };
    let command = args.first().map(String::as_str).unwrap_or("all");
    let selected: Vec<&(&str, Experiment)> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| command == "all" || *name == command)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown command `{command}`");
        eprintln!("expected one of: {} | all", names.join(" | "));
        std::process::exit(2);
    }
    for (name, experiment) in selected {
        if let Err(e) = experiment(quick) {
            eprintln!("reproduce {name} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Smallest protocol that still runs every algorithm end to end.
fn smoke(mut protocol: Protocol) -> Protocol {
    protocol.runs = 1;
    protocol.initial_samples = protocol.initial_samples.min(8);
    protocol.max_sims_bo = protocol.initial_samples + 4;
    protocol.max_sims_gaspad = protocol.max_sims_bo + 4;
    protocol.max_sims_de = 40;
    protocol.ensemble_members = 2;
    protocol.epochs = 20;
    protocol.candidate_pool = 64;
    protocol
}

fn table1_protocol(quick: bool) -> Protocol {
    if quick {
        smoke(Protocol::table1_quick())
    } else {
        Protocol::table1_quick().with_env_overrides(Protocol::table1_paper())
    }
}

fn table2_protocol(quick: bool) -> Protocol {
    if quick {
        smoke(Protocol::table2_quick())
    } else {
        Protocol::table2_quick().with_env_overrides(Protocol::table2_paper())
    }
}

/// Writes a `BENCH_*.json` document into the working directory.  A document
/// the vendored `serde::json` parser rejects is refused before anything is
/// written, so every committed document is one a reader can parse; that
/// refusal and an IO failure both propagate, and the run exits non-zero.
fn write_json(path: &str, json: &str) -> Result<(), BenchError> {
    serde::json::from_str(json)
        .map_err(|e| format!("refusing to write {path}: the document does not parse: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn table1(quick: bool) -> Result<(), BenchError> {
    let protocol = table1_protocol(quick);
    println!("# Experiment E1 (Table I) — protocol: {protocol:?}\n");
    let rows = run_table1(&protocol)?;
    println!("{}", format_table1(&rows));
    write_json("BENCH_table1.json", &format_table1_json(&rows, quick))?;
    println!();
    Ok(())
}

fn table2(quick: bool) -> Result<(), BenchError> {
    let protocol = table2_protocol(quick);
    println!("# Experiment E2 (Table II) — protocol: {protocol:?}\n");
    let rows = run_table2(&protocol)?;
    println!("{}", format_table2(&rows));
    // The high-dimensional companion study rides Table II's protocol but only
    // the BO budget matters, so the smoke-scale shrink applies unchanged.
    let highdim = run_table2_highdim(&protocol)?;
    println!("{}", format_table2_highdim(&highdim));
    write_json(
        "BENCH_table2.json",
        &format_table2_json(&rows, &highdim, quick),
    )?;
    println!();
    Ok(())
}

fn scaling(quick: bool) -> Result<(), BenchError> {
    println!("# Experiment E3 (section III.D) — surrogate cost vs. number of observations\n");
    let full = std::env::var("NNBO_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let sizes: &[usize] = if quick {
        &[25, 50]
    } else if full {
        &[50, 100, 200, 400, 800]
    } else {
        &[50, 100, 200, 400]
    };
    let epochs = if quick {
        20
    } else if full {
        200
    } else {
        100
    };
    let points = run_scaling(sizes, epochs)?;
    println!(
        "{:>6} {:>14} {:>16} {:>16} {:>18}",
        "N", "GP fit (ms)", "GP predict (us)", "NN-GP fit (ms)", "NN-GP predict (us)"
    );
    for p in &points {
        println!(
            "{:>6} {:>14.2} {:>16.2} {:>16.2} {:>18.2}",
            p.n, p.gp_fit_ms, p.gp_predict_us, p.neural_fit_ms, p.neural_predict_us
        );
    }
    println!();

    println!("## Acquisition-search scaling — full-pool WEIBO vs LinEasyBO line subspaces\n");
    let protocol = if quick {
        SubspaceProtocol::quick()
    } else {
        SubspaceProtocol::full()
    };
    let subspace = run_subspace_scaling(&protocol)?;
    println!(
        "{:>10} {:>5} {:>12} {:>14} {:>18} {:>10}",
        "Alg", "D", "scored/iter", "suggest calls", "suggest mean (us)", "best"
    );
    for p in &subspace {
        println!(
            "{:>10} {:>5} {:>12} {:>14} {:>18.2} {:>10.4}",
            p.algorithm,
            p.dim,
            p.scored_per_iteration,
            p.suggest_calls,
            p.suggest_mean_us,
            p.best_fom
        );
    }
    for &dim in protocol.dims {
        let cost = |name: &str| {
            subspace
                .iter()
                .find(|p| p.dim == dim && p.algorithm == name)
                .map(|p| p.suggest_mean_us)
        };
        if let (Some(pool), Some(line)) = (cost("WEIBO"), cost("LinEasyBO")) {
            println!("D = {dim}: per-suggestion speedup {:.1}x", pool / line);
        }
    }
    println!();
    write_json(
        "BENCH_scaling.json",
        &format_scaling_json(&points, &subspace, quick),
    )?;
    println!();
    Ok(())
}

fn linalg(quick: bool) -> Result<(), BenchError> {
    println!("# Prediction-path benchmark — reference vs blocked/batched/incremental\n");
    let entries = run_linalg_bench(quick)?;
    print!("{}", format_linalg_table(&entries));
    println!();
    write_json("BENCH_linalg.json", &format_linalg_json(&entries, quick))?;
    println!();
    Ok(())
}

fn fit(quick: bool) -> Result<(), BenchError> {
    println!("# Fit-path benchmark — cold vs warm refits, sequential vs shared multi-output\n");
    let entries = run_fit_bench(quick)?;
    print!("{}", format_fit_table(&entries));
    println!();
    write_json("BENCH_fit.json", &format_fit_json(&entries, quick))?;
    println!();
    Ok(())
}

fn predict(quick: bool) -> Result<(), BenchError> {
    println!(
        "# Batched-prediction benchmark — packed (AVX2+FMA + fused exp) vs portable kernels\n"
    );
    let entries = run_predict_bench(quick)?;
    print!("{}", format_predict_table(&entries));
    println!();
    write_json("BENCH_predict.json", &format_predict_json(&entries, quick))?;
    println!();
    Ok(())
}

fn pvt(quick: bool) -> Result<(), BenchError> {
    println!(
        "# Corner-sweep benchmark — parallel fan-out vs sequential reference (bit-identity pinned)\n"
    );
    let entries = run_pvt_bench(quick)?;
    print!("{}", format_pvt_table(&entries));
    println!();
    write_json("BENCH_pvt.json", &format_pvt_json(&entries, quick))?;
    println!();
    Ok(())
}

fn robustness(quick: bool) -> Result<(), BenchError> {
    println!(
        "# Robustness benchmark — clean-path overhead, fault recovery, checkpoint round trip\n"
    );
    let report = run_robustness_bench(quick)?;
    print!("{}", format_robustness_table(&report));
    println!();
    write_json(
        "BENCH_robustness.json",
        &format_robustness_json(&report, quick),
    )?;
    println!();
    Ok(())
}

fn serve(quick: bool) -> Result<(), BenchError> {
    println!(
        "# Serving-layer benchmark — throughput, supervision overhead, crash recovery, shedding\n"
    );
    let report = run_serve_bench(quick)?;
    print!("{}", format_serve_table(&report));
    println!();
    write_json("BENCH_serve.json", &format_serve_json(&report, quick))?;
    println!();
    Ok(())
}

fn ablation_ensemble(quick: bool) -> Result<(), BenchError> {
    let protocol = table1_protocol(quick);
    println!("# Experiment E4 — ensemble-size ablation on the op-amp problem\n");
    let sizes: &[usize] = if quick { &[1, 2] } else { &[1, 3, 5] };
    let rows = run_ablation_ensemble(&protocol, sizes)?;
    print_ablation(
        &rows,
        "GAIN (dB), higher is better (reported as -objective)",
    );
    Ok(())
}

fn ablation_acquisition(quick: bool) -> Result<(), BenchError> {
    let protocol = table1_protocol(quick);
    println!("# Experiment E5 — acquisition-function ablation on the op-amp problem\n");
    let rows = run_ablation_acquisition(&protocol)?;
    print_ablation(
        &rows,
        "GAIN (dB), higher is better (reported as -objective)",
    );
    Ok(())
}

fn print_ablation(rows: &[nnbo_bench::AblationRow], note: &str) {
    println!("({note})");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "setting", "mean", "median", "best", "worst", "Avg.#Sim", "success"
    );
    for row in rows {
        match &row.stats {
            Some(s) => println!(
                "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>10.1} {:>9}",
                row.setting,
                -s.mean,
                -s.median,
                -s.best,
                -s.worst,
                s.avg_simulations,
                s.success_rate()
            ),
            None => println!("{:<14} (no successful run)", row.setting),
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::write_json;

    #[test]
    fn a_document_that_does_not_parse_is_refused_and_not_written() {
        let path =
            std::env::temp_dir().join(format!("reproduce-refused-{}.json", std::process::id()));
        let path = path.to_str().expect("the temp path is UTF-8");
        let _ = std::fs::remove_file(path);
        let err = write_json(path, "{\"a\": NaN}\n").expect_err("a bare NaN does not parse");
        assert!(err.to_string().contains("does not parse"), "{err}");
        assert!(
            !std::path::Path::new(path).exists(),
            "a refused document was written"
        );
    }
}
