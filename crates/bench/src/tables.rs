//! Table I / Table II reproduction and the ablation experiments.

use nnbo_baselines::{lineasybo, weibo, DeConfig, DifferentialEvolution, Gaspad, GaspadConfig};
use nnbo_core::acquisition::AcquisitionKind;
use nnbo_core::problems::{ChargePumpProblem, OpAmpProblem, WeightedSphere};
use nnbo_core::{
    BayesOpt, EnsembleConfig, LineSubspaceConfig, OptimizationResult, Problem, RunStatistics,
    RunSummary,
};
use serde::{Deserialize, Serialize};

use crate::json;
use crate::protocol::{Algorithm, Protocol};
use crate::BenchError;

/// One row of the reproduced Table I (two-stage op-amp).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Mean UGF of the best designs, in MHz.
    pub ugf_mhz: f64,
    /// Mean phase margin of the best designs, in degrees.
    pub pm_deg: f64,
    /// Mean best GAIN (dB) over the successful runs.
    pub mean_gain: f64,
    /// Median best GAIN (dB).
    pub median_gain: f64,
    /// Best GAIN (dB) over all runs.
    pub best_gain: f64,
    /// Worst GAIN (dB) over the successful runs.
    pub worst_gain: f64,
    /// Average number of simulations to convergence.
    pub avg_sims: f64,
    /// Success count formatted as "k/n".
    pub success: String,
}

/// One row of the reproduced Table II (charge pump).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Mean `diff1` (µA) of the best designs.
    pub diff1: f64,
    /// Mean `diff2` (µA).
    pub diff2: f64,
    /// Mean `diff3` (µA).
    pub diff3: f64,
    /// Mean `diff4` (µA).
    pub diff4: f64,
    /// Mean `deviation` (µA).
    pub deviation: f64,
    /// Mean best FOM over the successful runs.
    pub mean_fom: f64,
    /// Median best FOM.
    pub median_fom: f64,
    /// Best FOM over all runs.
    pub best_fom: f64,
    /// Worst FOM over the successful runs.
    pub worst_fom: f64,
    /// Average number of simulations to convergence.
    pub avg_sims: f64,
    /// Success count formatted as "k/n".
    pub success: String,
}

/// One row of an ablation study (objective statistics only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// The varied setting ("K = 3", "wEI", ...).
    pub setting: String,
    /// Aggregate statistics of the best objective over the runs.
    pub stats: Option<RunStatistics>,
}

/// Runs one algorithm once on `problem` under `protocol` with the given run index
/// (which offsets the random seed).
pub fn run_algorithm(
    algorithm: Algorithm,
    problem: &dyn Problem,
    protocol: &Protocol,
    run: usize,
) -> Result<OptimizationResult, BenchError> {
    let seed = protocol.seed + run as u64;
    Ok(match algorithm {
        Algorithm::NeuralBo => {
            BayesOpt::neural_with(protocol.bo_config(run), protocol.ensemble_config())
                .run(problem)?
        }
        Algorithm::Weibo => weibo(protocol.bo_config(run)).run(problem)?,
        Algorithm::LinEasyBo => lineasybo(protocol.bo_config(run)).run(problem)?,
        Algorithm::Gaspad => {
            let population = protocol.initial_samples.max(10);
            Gaspad::new(GaspadConfig::new(population, protocol.max_sims_gaspad).with_seed(seed))
                .run(problem)
        }
        Algorithm::De => {
            let population = (protocol.max_sims_de / 20).clamp(10, 50);
            DifferentialEvolution::new(
                DeConfig::new(population, protocol.max_sims_de).with_seed(seed),
            )
            .run(problem)
        }
    })
}

fn summaries_for(
    algorithm: Algorithm,
    problem: &dyn Problem,
    protocol: &Protocol,
    tolerance: f64,
) -> Result<(Vec<RunSummary>, Vec<OptimizationResult>), BenchError> {
    let mut summaries = Vec::with_capacity(protocol.runs);
    let mut results = Vec::with_capacity(protocol.runs);
    for run in 0..protocol.runs {
        let result = run_algorithm(algorithm, problem, protocol, run)?;
        summaries.push(RunSummary::from_result(&result, tolerance));
        results.push(result);
    }
    Ok((summaries, results))
}

/// Mean of one circuit performance over the runs' best designs: NaN (printed
/// `null`, like the objective columns beside it) when no run has one.
fn best_point_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        nnbo_linalg::mean(values)
    }
}

/// Reproduces Table I: the two-stage op-amp sizing comparison.
pub fn run_table1(protocol: &Protocol) -> Result<Vec<Table1Row>, BenchError> {
    let problem = OpAmpProblem::new();
    let mut rows = Vec::new();
    for algorithm in Algorithm::all() {
        let (summaries, _) = summaries_for(algorithm, &problem, protocol, 0.5)?;
        let stats = RunStatistics::from_summaries(&summaries);
        // Circuit performances of each run's best design, for the UGF/PM rows.
        let mut ugf = Vec::new();
        let mut pm = Vec::new();
        for s in &summaries {
            if let Some(x) = &s.best_point {
                let perf = problem.performances(x);
                ugf.push(perf.ugf_hz / 1e6);
                pm.push(perf.pm_deg);
            }
        }
        let (mean_gain, median_gain, best_gain, worst_gain, avg_sims, success) = match &stats {
            Some(st) => (
                -st.mean,
                -st.median,
                -st.best,
                -st.worst,
                st.avg_simulations,
                st.success_rate(),
            ),
            None => (
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
                format!("0/{}", protocol.runs),
            ),
        };
        rows.push(Table1Row {
            algorithm: algorithm.name().to_string(),
            ugf_mhz: best_point_mean(&ugf),
            pm_deg: best_point_mean(&pm),
            mean_gain,
            median_gain,
            best_gain,
            worst_gain,
            avg_sims,
            success,
        });
    }
    Ok(rows)
}

/// Reproduces Table II: the charge-pump sizing comparison over 18 PVT corners.
pub fn run_table2(protocol: &Protocol) -> Result<Vec<Table2Row>, BenchError> {
    let problem = ChargePumpProblem::new();
    let mut rows = Vec::new();
    for algorithm in Algorithm::all() {
        let (summaries, _) = summaries_for(algorithm, &problem, protocol, 0.05)?;
        let stats = RunStatistics::from_summaries(&summaries);
        let mut diff = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let mut deviation = Vec::new();
        for s in &summaries {
            if let Some(x) = &s.best_point {
                let perf = problem.performances(x);
                diff[0].push(perf.diff1);
                diff[1].push(perf.diff2);
                diff[2].push(perf.diff3);
                diff[3].push(perf.diff4);
                deviation.push(perf.deviation);
            }
        }
        let (mean_fom, median_fom, best_fom, worst_fom, avg_sims, success) = match &stats {
            Some(st) => (
                st.mean,
                st.median,
                st.best,
                st.worst,
                st.avg_simulations,
                st.success_rate(),
            ),
            None => (
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
                format!("0/{}", protocol.runs),
            ),
        };
        rows.push(Table2Row {
            algorithm: algorithm.name().to_string(),
            diff1: best_point_mean(&diff[0]),
            diff2: best_point_mean(&diff[1]),
            diff3: best_point_mean(&diff[2]),
            diff4: best_point_mean(&diff[3]),
            deviation: best_point_mean(&deviation),
            mean_fom,
            median_fom,
            best_fom,
            worst_fom,
            avg_sims,
            success,
        });
    }
    Ok(rows)
}

/// Dimensionality of the high-dimensional synthesis family reported in the
/// `highdim` section of `BENCH_table2.json`.
pub const HIGHDIM_DIM: usize = 20;

/// One row of the high-dimensional companion study: full-pool WEIBO versus
/// LinEasyBO's line-subspace search on the [`WeightedSphere`] family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HighDimRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Design-space dimensionality.
    pub dim: usize,
    /// Acquisition candidates scored per model-guided iteration — the
    /// structural cost the line search cuts (constant versus pool-sized).
    pub scored_per_iteration: usize,
    /// Mean best objective over the successful runs.
    pub mean_fom: f64,
    /// Median best objective.
    pub median_fom: f64,
    /// Best objective over all runs.
    pub best_fom: f64,
    /// Worst best-objective over the successful runs.
    pub worst_fom: f64,
    /// Average number of simulations to convergence.
    pub avg_sims: f64,
    /// Success count formatted as "k/n".
    pub success: String,
}

/// Acquisition candidates one model-guided iteration scores under `protocol`:
/// the full candidate pool for the pool-search algorithms, the constant line
/// budget for LinEasyBO.
fn scored_per_iteration(algorithm: Algorithm, protocol: &Protocol) -> usize {
    match algorithm {
        Algorithm::LinEasyBo => LineSubspaceConfig::default().points_per_iteration(),
        _ => {
            let config = protocol.bo_config(0);
            config.candidate_pool + config.local_candidates
        }
    }
}

/// The high-dimensional companion to Table II: WEIBO's full-pool search
/// against LinEasyBO on the D = [`HIGHDIM_DIM`] [`WeightedSphere`] synthesis
/// family, under the same budget and seeds.  The paper's tables stop at 10
/// design variables; this section pins the claim that the line-subspace
/// search keeps the final quality while scoring a constant, pool-independent
/// number of candidates per iteration.
pub fn run_table2_highdim(protocol: &Protocol) -> Result<Vec<HighDimRow>, BenchError> {
    let problem = WeightedSphere::new(HIGHDIM_DIM);
    let mut rows = Vec::new();
    for algorithm in [Algorithm::Weibo, Algorithm::LinEasyBo] {
        let (summaries, _) = summaries_for(algorithm, &problem, protocol, 0.05)?;
        let stats = RunStatistics::from_summaries(&summaries);
        let (mean_fom, median_fom, best_fom, worst_fom, avg_sims, success) = match &stats {
            Some(st) => (
                st.mean,
                st.median,
                st.best,
                st.worst,
                st.avg_simulations,
                st.success_rate(),
            ),
            None => (
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
                format!("0/{}", protocol.runs),
            ),
        };
        rows.push(HighDimRow {
            algorithm: algorithm.name().to_string(),
            dim: HIGHDIM_DIM,
            scored_per_iteration: scored_per_iteration(algorithm, protocol),
            mean_fom,
            median_fom,
            best_fom,
            worst_fom,
            avg_sims,
            success,
        });
    }
    Ok(rows)
}

/// Ablation E4: optimization quality versus ensemble size `K` on the op-amp problem.
pub fn run_ablation_ensemble(
    protocol: &Protocol,
    members: &[usize],
) -> Result<Vec<AblationRow>, BenchError> {
    let problem = OpAmpProblem::new();
    let mut rows = Vec::with_capacity(members.len());
    for &k in members {
        let mut summaries = Vec::with_capacity(protocol.runs);
        for run in 0..protocol.runs {
            let ensemble = EnsembleConfig {
                members: k,
                ..protocol.ensemble_config()
            };
            let result = BayesOpt::neural_with(protocol.bo_config(run), ensemble).run(&problem)?;
            summaries.push(RunSummary::from_result(&result, 0.5));
        }
        rows.push(AblationRow {
            setting: format!("K = {k}"),
            stats: RunStatistics::from_summaries(&summaries),
        });
    }
    Ok(rows)
}

/// Ablation E5: acquisition-function comparison on the op-amp problem.
pub fn run_ablation_acquisition(protocol: &Protocol) -> Result<Vec<AblationRow>, BenchError> {
    let problem = OpAmpProblem::new();
    let kinds = [
        ("wEI", AcquisitionKind::WeightedExpectedImprovement),
        ("EI+penalty", AcquisitionKind::ExpectedImprovement),
        ("LCB", AcquisitionKind::LowerConfidenceBound { kappa: 2.0 }),
        ("PI", AcquisitionKind::ProbabilityOfImprovement),
    ];
    let mut rows = Vec::with_capacity(kinds.len());
    for (name, kind) in &kinds {
        let mut summaries = Vec::with_capacity(protocol.runs);
        for run in 0..protocol.runs {
            let config = protocol.bo_config(run).with_acquisition(*kind);
            let result = BayesOpt::neural_with(config, protocol.ensemble_config()).run(&problem)?;
            summaries.push(RunSummary::from_result(&result, 0.5));
        }
        rows.push(AblationRow {
            setting: (*name).to_string(),
            stats: RunStatistics::from_summaries(&summaries),
        });
    }
    Ok(rows)
}

/// Formats Table I in the layout of the paper.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("Table I: two-stage operational amplifier (GAIN in dB, UGF in MHz, PM in deg)\n");
    s.push_str(&format!(
        "{:<10} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}\n",
        "Alg", "UGF", "PM", "mean", "median", "best", "worst", "Avg.#Sim", "Success"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>9.2} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>11.1} {:>9}\n",
            r.algorithm,
            r.ugf_mhz,
            r.pm_deg,
            r.mean_gain,
            r.median_gain,
            r.best_gain,
            r.worst_gain,
            r.avg_sims,
            r.success
        ));
    }
    s
}

/// Formats Table II in the layout of the paper.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    s.push_str("Table II: charge pump over 18 PVT corners (all values in uA)\n");
    s.push_str(&format!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9} {:>7} {:>8} {:>7} {:>7} {:>10} {:>8}\n",
        "Alg",
        "diff1",
        "diff2",
        "diff3",
        "diff4",
        "deviation",
        "mean",
        "median",
        "best",
        "worst",
        "Avg.#Sim",
        "Success"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>9.2} {:>7.2} {:>8.2} {:>7.2} {:>7.2} {:>10.1} {:>8}\n",
            r.algorithm,
            r.diff1,
            r.diff2,
            r.diff3,
            r.diff4,
            r.deviation,
            r.mean_fom,
            r.median_fom,
            r.best_fom,
            r.worst_fom,
            r.avg_sims,
            r.success
        ));
    }
    s
}

/// Formats the high-dimensional companion study as text.
pub fn format_table2_highdim(rows: &[HighDimRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "High-dimensional companion: WeightedSphere, D = {HIGHDIM_DIM} (objective, lower is better)\n"
    ));
    s.push_str(&format!(
        "{:<10} {:>5} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8}\n",
        "Alg", "D", "scored/iter", "mean", "median", "best", "worst", "Avg.#Sim", "Success"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>5} {:>12} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.1} {:>8}\n",
            r.algorithm,
            r.dim,
            r.scored_per_iteration,
            r.mean_fom,
            r.median_fom,
            r.best_fom,
            r.worst_fom,
            r.avg_sims,
            r.success
        ));
    }
    s
}

/// Serialises Table I rows as the `BENCH_table1.json` document so the result
/// trajectory can be tracked across changes.
pub fn format_table1_json(rows: &[Table1Row], quick: bool) -> String {
    let rows = rows.iter().map(Serialize::to_value).collect();
    json::document("nnbo-bench-table1-v1", "table1", quick, &[("rows", rows)])
}

/// Serialises Table II rows plus the high-dimensional companion study as the
/// `BENCH_table2.json` document (see [`format_table1_json`]): a `rows` array
/// for the charge pump and a `highdim` array for the D = 20 family.
pub fn format_table2_json(rows: &[Table2Row], highdim: &[HighDimRow], quick: bool) -> String {
    json::document(
        "nnbo-bench-table2-v2",
        "table2",
        quick,
        &[
            ("rows", rows.iter().map(Serialize::to_value).collect()),
            ("highdim", highdim.iter().map(Serialize::to_value).collect()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol small enough for unit tests.
    fn tiny_protocol() -> Protocol {
        Protocol {
            runs: 1,
            initial_samples: 8,
            max_sims_bo: 12,
            max_sims_gaspad: 14,
            max_sims_de: 40,
            ensemble_members: 2,
            epochs: 30,
            candidate_pool: 64,
            seed: 1,
        }
    }

    #[test]
    fn every_algorithm_runs_on_the_opamp_problem() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let protocol = tiny_protocol();
        let problem = OpAmpProblem::new();
        for algorithm in Algorithm::all() {
            let result = run_algorithm(algorithm, &problem, &protocol, 0).expect("algorithm runs");
            assert!(result.num_evaluations() >= protocol.initial_samples);
        }
    }

    #[test]
    fn table_formatting_contains_all_algorithms() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let rows = vec![Table1Row {
            algorithm: "Ours".into(),
            ugf_mhz: 40.0,
            pm_deg: 61.0,
            mean_gain: 88.0,
            median_gain: 88.2,
            best_gain: 89.9,
            worst_gain: 86.0,
            avg_sims: 86.0,
            success: "10/10".into(),
        }];
        let text = format_table1(&rows);
        assert!(text.contains("Ours"));
        assert!(text.contains("10/10"));
        let rows2 = vec![Table2Row {
            algorithm: "WEIBO".into(),
            diff1: 6.58,
            diff2: 5.30,
            diff3: 0.24,
            diff4: 0.37,
            deviation: 0.41,
            mean_fom: 3.95,
            median_fom: 3.97,
            best_fom: 3.48,
            worst_fom: 4.48,
            avg_sims: 790.0,
            success: "12/12".into(),
        }];
        assert!(format_table2(&rows2).contains("WEIBO"));
    }

    #[test]
    fn table_json_is_structurally_valid_and_encodes_nan_as_null() {
        let rows = vec![Table1Row {
            algorithm: "DE".into(),
            ugf_mhz: f64::NAN,
            pm_deg: 61.0,
            mean_gain: 88.0,
            median_gain: 88.2,
            best_gain: 89.9,
            worst_gain: 86.0,
            avg_sims: 86.0,
            success: "0/10".into(),
        }];
        let json = format_table1_json(&rows, true);
        assert!(json.contains("\"schema\": \"nnbo-bench-table1-v1\""));
        assert!(json.contains("\"ugf_mhz\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        let rows2 = vec![Table2Row {
            algorithm: "Ours".into(),
            diff1: 1.0,
            diff2: 2.0,
            diff3: 3.0,
            diff4: 4.0,
            deviation: 0.5,
            mean_fom: 3.95,
            median_fom: 3.97,
            best_fom: 3.48,
            worst_fom: 4.48,
            avg_sims: 100.0,
            success: "10/10".into(),
        }];
        let highdim = vec![HighDimRow {
            algorithm: "LinEasyBO".into(),
            dim: 20,
            scored_per_iteration: 96,
            mean_fom: 0.2,
            median_fom: 0.2,
            best_fom: 0.1,
            worst_fom: 0.4,
            avg_sims: 80.0,
            success: "2/2".into(),
        }];
        let json2 = format_table2_json(&rows2, &highdim, false);
        assert!(json2.contains("\"schema\": \"nnbo-bench-table2-v2\""));
        assert!(json2.contains("\"quick\": false"));
        assert!(json2.contains("\"highdim\": ["));
        assert!(json2.contains("\"scored_per_iteration\": 96"));
        assert_eq!(json2.matches('{').count(), json2.matches('}').count());
        assert_eq!(json2.matches('[').count(), json2.matches(']').count());
    }

    #[test]
    fn performance_columns_without_a_best_point_print_null() {
        assert_eq!(best_point_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(best_point_mean(&[]).is_nan());
    }

    /// The structural claim behind the high-dimensional section: under the
    /// same protocol, LinEasyBO scores a small constant number of candidates
    /// per iteration while the pool search scores the whole pool.
    #[test]
    fn line_subspace_scores_at_least_five_times_fewer_candidates_per_iteration() {
        let line = scored_per_iteration(Algorithm::LinEasyBo, &Protocol::table2_paper());
        assert_eq!(line, LineSubspaceConfig::default().points_per_iteration());
        for protocol in [Protocol::table1_paper(), Protocol::table2_paper()] {
            let pool = scored_per_iteration(Algorithm::Weibo, &protocol);
            assert!(
                pool >= 5 * line,
                "pool search scores {pool}/iter, line search {line}/iter"
            );
        }
        // Even the CI-scale pool is never cheaper than the constant line budget.
        let quick_pool = scored_per_iteration(Algorithm::Weibo, &Protocol::table2_quick());
        assert!(quick_pool > line);
    }

    #[test]
    fn highdim_study_runs_both_strategies_on_the_weighted_sphere() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let rows = run_table2_highdim(&tiny_protocol()).expect("highdim study runs");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].algorithm, "WEIBO");
        assert_eq!(rows[1].algorithm, "LinEasyBO");
        for r in &rows {
            assert_eq!(r.dim, HIGHDIM_DIM);
            assert!(r.scored_per_iteration > 0);
        }
        assert!(format_table2_highdim(&rows).contains("LinEasyBO"));
    }
}
