//! Timings of the surrogate *fit* path, emitted as `BENCH_fit.json` so the
//! performance trajectory can be tracked across changes (companion of the
//! prediction-path benchmark in `BENCH_linalg.json`).
//!
//! Every entry compares two ways the production API can fit the same data —
//! a cold schedule against a warm or shared one, or two refit policies — and
//! records the achieved negative log marginal likelihood of both so the
//! speedups are tied to fit quality:
//!
//! * `gp_refit_warm` — a cold multi-restart refit after one appended
//!   observation vs the warm-started refit from the previous optimum.
//! * `gp_fit_multi_cold` — sequential per-output cold fits vs the
//!   shared-context `fit_multi` on a 1-objective + 2-constraint problem
//!   (the threading only pays off on multi-core machines; the shared context
//!   alone is a small constant saving).
//! * `gp_fit_multi_warm` — the end-to-end BO-loop refresh contrast on the
//!   same 3-output problem: sequential cold fits (what `refresh_models` did
//!   before the multi-output path) vs `fit_multi_warm` seeded with the
//!   previous refit's hyper-parameters (what it does now).
//! * `ngp_refit_warm` — the paper's surrogate: a neural-GP refit after one
//!   appended observation, cold (full retraining of the feature network from
//!   random initialisation) vs warm-started continuation from the previous
//!   fit's flat parameters (`NeuralGp::fit_warm`).
//! * `ngp_ensemble_refit_warm` — the same contrast for the full K-member
//!   ensemble, every member continuing from its predecessor's weights
//!   (`NeuralGpEnsemble::fit_warm`); the NLL columns sum the members' final
//!   likelihoods.
//! * `refit_policy_nll_drift` — the surrogate lifecycle end to end
//!   ([`run_refit_lifecycle`]): a growing observation stream maintained by
//!   always-refit (`RefitPolicy::Fixed(1)`, baseline) vs the adaptive
//!   `RefitPolicy::NllDrift` (optimized), recording each strategy's final
//!   NLL and its count of full refits alongside the wall-clock contrast.

use std::time::Instant;

use nnbo_core::{EnsembleConfig, NeuralGp, NeuralGpConfig, NeuralGpEnsemble, RefitPolicy};
use nnbo_gp::{GpConfig, GpHyperParams, GpModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::{json, BenchError};

/// One measured comparison of the fit path, with the NLL both strategies
/// reached (summed over outputs for the multi-output workloads).
#[derive(Debug, Clone)]
pub struct FitBenchEntry {
    /// Workload name (e.g. `gp_refit_warm`).
    pub name: &'static str,
    /// Number of training points of the (re)fit being measured.
    pub n: usize,
    /// Number of outputs fitted over the shared design points.
    pub outputs: usize,
    /// Wall-clock nanoseconds of the baseline strategy (best of the reps).
    pub baseline_ns: f64,
    /// Wall-clock nanoseconds of the optimized strategy (best of the reps).
    pub optimized_ns: f64,
    /// NLL achieved by the baseline strategy (summed over outputs).
    pub baseline_nll: f64,
    /// NLL achieved by the optimized strategy (summed over outputs).
    pub optimized_nll: f64,
    /// `(baseline, optimized)` counts of *full* refits, for the
    /// surrogate-lifecycle workloads (`None` for single-fit workloads).
    pub refits: Option<(usize, usize)>,
}

impl FitBenchEntry {
    /// Speed-up factor of the optimized strategy.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns.max(1.0)
    }
}

/// Shared design points and target columns (one objective plus two
/// constraint-like outputs) for the fit-path measurements — used by
/// `reproduce fit` and by the surrogate-lifecycle tests.
pub fn fit_dataset(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    // Objective plus two constraint-like outputs over the same designs.
    let targets = vec![
        xs.iter()
            .map(|x| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| ((i + 1) as f64 * v).sin())
                    .sum()
            })
            .collect(),
        xs.iter()
            .map(|x| x.iter().map(|v| v * v).sum::<f64>() - 2.0)
            .collect(),
        xs.iter()
            .map(|x| (3.0 * x[0]).cos() + x[1] * x[2])
            .collect(),
    ];
    (xs, targets)
}

/// Times `f`, returning `(best_ns, last_result)` over `reps` repetitions.
fn time_best<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (f64, T) {
    let start = Instant::now();
    let mut out = f();
    let mut best = start.elapsed().as_nanos() as f64;
    for _ in 1..reps.max(1) {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    (best, out)
}

/// Runs the fit-path comparison suite.  `quick` shrinks the training-set size
/// and optimizer effort so CI can smoke-test the harness in seconds.
pub fn run_fit_bench(quick: bool) -> Result<Vec<FitBenchEntry>, BenchError> {
    let n = if quick { 64 } else { 256 };
    let dim = 10;
    let config = if quick {
        GpConfig {
            max_iters: 30,
            warm_iters: 10,
            ..GpConfig::default()
        }
    } else {
        GpConfig::default()
    };
    let reps = if quick { 2 } else { 3 };
    let (xs, targets) = fit_dataset(n + 1, dim, 71);
    let xs_base: Vec<Vec<f64>> = xs[..n].to_vec();
    let targets_base: Vec<Vec<f64>> = targets.iter().map(|t| t[..n].to_vec()).collect();
    let objective = &targets_base[0];
    let mut entries = Vec::new();

    // 1. Refit after one appended observation: cold restart schedule vs
    //    warm start from the optimum of a cold fit on the base data.
    let cold_model = GpModel::fit(&xs_base, objective, &config, &mut StdRng::seed_from_u64(5))?;
    let objective_ext = &targets[0];
    let (refit_cold_ns, refit_cold) = time_best(reps, || {
        GpModel::fit(&xs, objective_ext, &config, &mut StdRng::seed_from_u64(6))
    });
    let refit_cold = refit_cold?;
    let warm_hyper = cold_model.hyper_params().clone();
    let (refit_warm_ns, refit_warm) = time_best(reps, || {
        GpModel::fit_warm(
            &xs,
            objective_ext,
            &config,
            &mut StdRng::seed_from_u64(6),
            Some(&warm_hyper),
        )
    });
    let refit_warm = refit_warm?;
    entries.push(FitBenchEntry {
        name: "gp_refit_warm",
        n: n + 1,
        outputs: 1,
        baseline_ns: refit_cold_ns,
        optimized_ns: refit_warm_ns,
        baseline_nll: refit_cold.nll(),
        optimized_nll: refit_warm.nll(),
        refits: None,
    });

    // 2. Multi-output cold: sequential per-output fits vs one shared-context
    //    fit_multi call (same cold optimizer schedule per output).
    let multi_reps = if quick { 2 } else { 3 };
    let nll_sum = |models: &[GpModel]| models.iter().map(GpModel::nll).sum::<f64>();
    let (seq_cold_ns, seq_cold) = time_best(multi_reps, || {
        let mut fit_rng = StdRng::seed_from_u64(7);
        targets_base
            .iter()
            .map(|ys| {
                let seed: u64 = fit_rng.gen();
                GpModel::fit(&xs_base, ys, &config, &mut StdRng::seed_from_u64(seed))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let seq_cold = seq_cold?;
    let (multi_cold_ns, multi_cold) = time_best(multi_reps, || {
        GpModel::fit_multi(
            &xs_base,
            &targets_base,
            &config,
            &mut StdRng::seed_from_u64(7),
        )
    });
    let multi_cold = multi_cold?;
    entries.push(FitBenchEntry {
        name: "gp_fit_multi_cold",
        n,
        outputs: targets_base.len(),
        baseline_ns: seq_cold_ns,
        optimized_ns: multi_cold_ns,
        baseline_nll: nll_sum(&seq_cold),
        optimized_nll: nll_sum(&multi_cold),
        refits: None,
    });

    // 3. The BO-loop refresh contrast: sequential cold fits over the extended
    //    data (the pre-multi-output refresh_models path) vs fit_multi_warm
    //    seeded with the previous refit's hyper-parameters.
    let (refresh_cold_ns, refresh_cold) = time_best(multi_reps, || {
        let mut fit_rng = StdRng::seed_from_u64(8);
        targets
            .iter()
            .map(|ys| GpModel::fit(&xs, ys, &config, &mut fit_rng))
            .collect::<Result<Vec<_>, _>>()
    });
    let refresh_cold = refresh_cold?;
    let warm_hypers: Vec<Option<GpHyperParams>> = multi_cold
        .iter()
        .map(|m| Some(m.hyper_params().clone()))
        .collect();
    let (refresh_warm_ns, refresh_warm) = time_best(multi_reps, || {
        GpModel::fit_multi_warm(
            &xs,
            &targets,
            &config,
            &mut StdRng::seed_from_u64(8),
            &warm_hypers,
        )
    });
    let refresh_warm = refresh_warm?;
    entries.push(FitBenchEntry {
        name: "gp_fit_multi_warm",
        n: n + 1,
        outputs: targets.len(),
        baseline_ns: refresh_cold_ns,
        optimized_ns: refresh_warm_ns,
        baseline_nll: nll_sum(&refresh_cold),
        optimized_nll: nll_sum(&refresh_warm),
        refits: None,
    });

    // 4. The paper's surrogate: neural-GP refit after one appended
    //    observation — cold retraining from random initialisation vs the
    //    warm-started continuation of the previous network.
    let ngp_config = if quick {
        NeuralGpConfig {
            epochs: 40,
            warm_epochs: 12,
            ..NeuralGpConfig::fast()
        }
    } else {
        NeuralGpConfig::default()
    };
    // The refit trains on `ngp_n + 1` = 100 points, the largest N the
    // neural-GP BO runs reach (Table I's 100-simulation budget), which keeps
    // every product of the epoch inside the direct GEMM's 256-deep k-block.
    let ngp_n = if quick { 32 } else { 99 };
    let (nxs, ntargets) = fit_dataset(ngp_n + 1, dim, 91);
    let nys = &ntargets[0];
    let nxs_base: Vec<Vec<f64>> = nxs[..ngp_n].to_vec();
    let nys_base: Vec<f64> = nys[..ngp_n].to_vec();
    let prev_single = NeuralGp::fit(
        &nxs_base,
        &nys_base,
        &ngp_config,
        &mut StdRng::seed_from_u64(17),
    )?;
    let (ngp_cold_ns, ngp_cold) = time_best(reps, || {
        NeuralGp::fit(&nxs, nys, &ngp_config, &mut StdRng::seed_from_u64(18))
    });
    let ngp_cold = ngp_cold?;
    let (ngp_warm_ns, ngp_warm) = time_best(reps, || {
        NeuralGp::fit_warm(
            &nxs,
            nys,
            &ngp_config,
            &mut StdRng::seed_from_u64(18),
            Some(&prev_single),
        )
    });
    let ngp_warm = ngp_warm?;
    entries.push(FitBenchEntry {
        name: "ngp_refit_warm",
        n: ngp_n + 1,
        outputs: 1,
        baseline_ns: ngp_cold_ns,
        optimized_ns: ngp_warm_ns,
        baseline_nll: ngp_cold.nll(),
        optimized_nll: ngp_warm.nll(),
        refits: None,
    });

    // 5. The same contrast for the K-member ensemble (eq. 13), every member
    //    continuing Adam from its predecessor's weights.
    let ens_config = EnsembleConfig {
        members: if quick { 2 } else { 3 },
        member_config: ngp_config.clone(),
        parallel: true,
    };
    let member_nll_sum = |e: &NeuralGpEnsemble| e.members().iter().map(NeuralGp::nll).sum::<f64>();
    let prev_ens = NeuralGpEnsemble::fit(
        &nxs_base,
        &nys_base,
        &ens_config,
        &mut StdRng::seed_from_u64(19),
    )?;
    let (ens_cold_ns, ens_cold) = time_best(reps, || {
        NeuralGpEnsemble::fit(&nxs, nys, &ens_config, &mut StdRng::seed_from_u64(20))
    });
    let ens_cold = ens_cold?;
    let (ens_warm_ns, ens_warm) = time_best(reps, || {
        NeuralGpEnsemble::fit_warm(
            &nxs,
            nys,
            &ens_config,
            &mut StdRng::seed_from_u64(20),
            Some(&prev_ens),
        )
    });
    let ens_warm = ens_warm?;
    entries.push(FitBenchEntry {
        name: "ngp_ensemble_refit_warm",
        n: ngp_n + 1,
        outputs: 1,
        baseline_ns: ens_cold_ns,
        optimized_ns: ens_warm_ns,
        baseline_nll: member_nll_sum(&ens_cold),
        optimized_nll: member_nll_sum(&ens_warm),
        refits: None,
    });

    // 6. The surrogate lifecycle end to end: the same growing observation
    //    stream maintained with always-refit (`Fixed(1)`) vs the adaptive
    //    NLL-drift policy, which absorbs most observations through the
    //    bordered-Cholesky update and refits only when the incremental
    //    model's per-point likelihood drifts.  The NLL columns record each
    //    strategy's *final* model likelihood (the acceptance check: drift
    //    stays within ~1% of always-refit at a fraction of the full fits).
    let life_start = if quick { 24 } else { 64 };
    let life_end = if quick { 40 } else { 160 };
    let (life_xs, life_targets) = fit_dataset(life_end, dim, 131);
    let life_ys = &life_targets[0];
    let (fixed_ns, fixed) = time_best(1, || {
        run_refit_lifecycle(
            &life_xs,
            life_ys,
            &config,
            RefitPolicy::Fixed(1),
            life_start,
            41,
        )
    });
    let fixed = fixed?;
    // Per-point NLL moves more per appended observation at smoke scale, so
    // the quick threshold is proportionally looser; the full-run threshold
    // keeps the final NLL within a fraction of a percent of always-refit.
    let drift_policy = RefitPolicy::NllDrift {
        threshold: if quick { 0.05 } else { 0.004 },
        min_gap: 1,
        max_gap: 12,
    };
    let (drift_ns, drift) = time_best(1, || {
        run_refit_lifecycle(&life_xs, life_ys, &config, drift_policy, life_start, 41)
    });
    let drift = drift?;
    entries.push(FitBenchEntry {
        name: "refit_policy_nll_drift",
        n: life_end,
        outputs: 1,
        baseline_ns: fixed_ns,
        optimized_ns: drift_ns,
        baseline_nll: fixed.final_nll,
        optimized_nll: drift.final_nll,
        refits: Some((fixed.full_refits, drift.full_refits)),
    });

    Ok(entries)
}

/// End state of one surrogate-lifecycle run ([`run_refit_lifecycle`]).
#[derive(Debug, Clone, Copy)]
pub struct LifecycleOutcome {
    /// NLL of the final model (standardised units; for a drift run the final
    /// model may be an incremental one under frozen hyper-parameters).
    pub final_nll: f64,
    /// Full (hyper-parameter) refits performed after the initial fit.
    pub full_refits: usize,
}

/// Drives a growing observation stream through exactly the refit decision
/// rule the Bayesian-optimization loop applies ([`RefitPolicy::due`]): fit on
/// the first `initial` points, then absorb `xs[initial..]` one at a time —
/// bordered-Cholesky append plus drift measurement, full warm refit (shared
/// fit context, warm-started hyper-parameters) when the policy says so.
/// Shared by `reproduce fit` and the surrogate-lifecycle test harness.
///
/// # Errors
///
/// Propagates the first failed fit.
///
/// # Panics
///
/// Panics if `initial` is zero or exceeds `xs.len()`.
pub fn run_refit_lifecycle(
    xs: &[Vec<f64>],
    ys: &[f64],
    config: &GpConfig,
    policy: RefitPolicy,
    initial: usize,
    seed: u64,
) -> Result<LifecycleOutcome, BenchError> {
    assert!(initial > 0 && initial <= xs.len(), "bad initial size");
    let mut rng = StdRng::seed_from_u64(seed);
    let full_fit = |n: usize, warm: Option<GpHyperParams>, rng: &mut StdRng| {
        Ok::<GpModel, BenchError>(
            GpModel::fit_multi_warm(&xs[..n], &[ys[..n].to_vec()], config, rng, &[warm])?.remove(0),
        )
    };
    let mut model = full_fit(initial, None, &mut rng)?;
    let mut full_refits = 0usize;
    let mut last_full_fit = initial;
    let mut fit_nll_per_point = model.nll() / initial as f64;
    for n in (initial + 1)..=xs.len() {
        let gap = n - last_full_fit;
        // Exactly like the BO loop's refresh: a fixed cadence that is due —
        // or a drift policy at its max_gap boundary — skips the incremental
        // attempt; otherwise the drift policy appends first so the refreshed
        // likelihood is there to measure.
        let due_without_append = match policy {
            RefitPolicy::Fixed(_) => policy.due(gap, None),
            RefitPolicy::NllDrift { max_gap, .. } => gap >= max_gap.max(1),
        };
        let mut needs_full = due_without_append;
        if !due_without_append {
            match model.append_observation(&xs[n - 1], ys[n - 1]) {
                Ok(updated) => {
                    let drift = (updated.nll() / n as f64 - fit_nll_per_point).abs();
                    needs_full = policy.due(gap, Some(drift));
                    model = updated;
                }
                Err(_) => needs_full = true,
            }
        }
        if needs_full {
            let warm = Some(model.hyper_params().clone());
            model = full_fit(n, warm, &mut rng)?;
            full_refits += 1;
            last_full_fit = n;
            fit_nll_per_point = model.nll() / n as f64;
        }
    }
    Ok(LifecycleOutcome {
        final_nll: model.nll(),
        full_refits,
    })
}

/// Serialises the entries as the `BENCH_fit.json` document; a lifecycle
/// entry adds its two full-refit counts as the last columns.
pub fn format_fit_json(entries: &[FitBenchEntry], quick: bool) -> String {
    let rows = entries
        .iter()
        .map(|e| {
            let speedup = e.speedup();
            let mut columns: Vec<(&str, &dyn Serialize)> = vec![
                ("name", &e.name),
                ("n", &e.n),
                ("outputs", &e.outputs),
                ("baseline_ns", &e.baseline_ns),
                ("optimized_ns", &e.optimized_ns),
                ("speedup", &speedup),
                ("baseline_nll", &e.baseline_nll),
                ("optimized_nll", &e.optimized_nll),
            ];
            if let Some((baseline, optimized)) = &e.refits {
                columns.push(("baseline_full_refits", baseline));
                columns.push(("optimized_full_refits", optimized));
            }
            json::row(&columns)
        })
        .collect();
    json::document("nnbo-bench-fit-v1", "fit", quick, &[("entries", rows)])
}

/// Renders a human-readable table of the same entries for stdout.
pub fn format_fit_table(entries: &[FitBenchEntry]) -> String {
    let mut out = format!(
        "{:<20} {:>6} {:>8} {:>15} {:>15} {:>9} {:>12} {:>12}\n",
        "workload",
        "N",
        "outputs",
        "baseline (ms)",
        "optimized (ms)",
        "speedup",
        "base NLL",
        "opt NLL"
    );
    for e in entries {
        out.push_str(&format!(
            "{:<20} {:>6} {:>8} {:>15.1} {:>15.1} {:>8.1}x {:>12.2} {:>12.2}",
            e.name,
            e.n,
            e.outputs,
            e.baseline_ns / 1e6,
            e.optimized_ns / 1e6,
            e.speedup(),
            e.baseline_nll,
            e.optimized_nll,
        ));
        if let Some((baseline, optimized)) = e.refits {
            out.push_str(&format!("  (full refits: {baseline} -> {optimized})"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_all_workloads_and_valid_json() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let entries = run_fit_bench(true).expect("quick fit bench runs");
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        for expected in [
            "gp_refit_warm",
            "gp_fit_multi_cold",
            "gp_fit_multi_warm",
            "ngp_refit_warm",
            "ngp_ensemble_refit_warm",
            "refit_policy_nll_drift",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
        for e in &entries {
            assert!(e.baseline_nll.is_finite() && e.optimized_nll.is_finite());
        }
        let lifecycle = entries
            .iter()
            .find(|e| e.name == "refit_policy_nll_drift")
            .unwrap();
        let (fixed_refits, drift_refits) = lifecycle.refits.unwrap();
        assert!(
            drift_refits < fixed_refits,
            "drift policy performed {drift_refits} full refits vs always-refit's {fixed_refits}"
        );
        let json = format_fit_json(&entries, true);
        assert!(json.contains("\"baseline_full_refits\""));
        assert!(json.contains("\"schema\": \"nnbo-bench-fit-v1\""));
        assert_eq!(json.matches("\"name\"").count(), entries.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!format_fit_table(&entries).is_empty());
    }
}
