//! Complexity-scaling experiment (E3): surrogate cost versus training-set size.

use std::time::Instant;

use nnbo_baselines::{lineasybo, weibo};
use nnbo_core::problems::WeightedSphere;
use nnbo_core::{BoConfig, LineSubspaceConfig, NeuralGp, NeuralGpConfig, SurrogateModel};
use nnbo_gp::{GpConfig, GpModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{json, BenchError};

/// Timing of both surrogates at one training-set size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Number of training points.
    pub n: usize,
    /// Classical GP training time in milliseconds.
    pub gp_fit_ms: f64,
    /// Classical GP per-point prediction time in microseconds.
    pub gp_predict_us: f64,
    /// Neural-GP training time in milliseconds.
    pub neural_fit_ms: f64,
    /// Neural-GP per-point prediction time in microseconds.
    pub neural_predict_us: f64,
}

/// Runs the scaling study of §III.D of the paper: fit and prediction cost of the
/// classical GP (`O(N³)` / `O(N²)`) versus the neural GP (`O(N)` / `O(1)`) over a
/// sweep of training-set sizes on a synthetic 10-dimensional problem.
pub fn run_scaling(sizes: &[usize], epochs: usize) -> Result<Vec<ScalingPoint>, BenchError> {
    let dim = 10;
    let mut rng = StdRng::seed_from_u64(99);
    let mut out = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x: &Vec<f64>| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| (i as f64 + 1.0) * v.sin())
                    .sum()
            })
            .collect();
        let queries: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();

        // Classical GP: keep the optimizer effort fixed so the scaling reflects the
        // per-iteration cost.
        let gp_config = GpConfig {
            restarts: 1,
            max_iters: 30,
            ..GpConfig::default()
        };
        let t0 = Instant::now();
        let gp = GpModel::fit(&xs, &ys, &gp_config, &mut rng)?;
        let gp_fit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        for q in &queries {
            let _ = gp.predict(q);
        }
        let gp_predict_us = t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;

        // Neural GP with a fixed number of epochs.
        let nn_config = NeuralGpConfig {
            epochs,
            ..NeuralGpConfig::default()
        };
        let t0 = Instant::now();
        let nngp = NeuralGp::fit(&xs, &ys, &nn_config, &mut rng)?;
        let neural_fit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        for q in &queries {
            let _ = nngp.predict(q);
        }
        let neural_predict_us = t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;

        out.push(ScalingPoint {
            n,
            gp_fit_ms,
            gp_predict_us,
            neural_fit_ms,
            neural_predict_us,
        });
    }
    Ok(out)
}

/// Measured per-iteration acquisition cost of one strategy at one design
/// dimensionality (the `subspace` section of `BENCH_scaling.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubspacePoint {
    /// Algorithm name ("WEIBO" or "LinEasyBO").
    pub algorithm: String,
    /// Design-space dimensionality.
    pub dim: usize,
    /// Acquisition candidates scored per model-guided iteration.
    pub scored_per_iteration: usize,
    /// Model-guided suggestions timed across all runs.
    pub suggest_calls: usize,
    /// Mean wall-clock cost of one suggestion, in microseconds.
    pub suggest_mean_us: f64,
    /// Best feasible objective over the runs (NaN when none was feasible;
    /// encoded as `null` in the JSON).
    pub best_fom: f64,
    /// Evaluations spent per run.
    pub evaluations: usize,
}

/// The protocol of one subspace-scaling sweep: repeated seeded runs of
/// full-pool WEIBO and LinEasyBO on the [`WeightedSphere`] family at each
/// dimensionality, under the *same* pool budget, with the per-suggestion
/// wall clock taken from [`nnbo_core::SuggestCost`].
#[derive(Debug, Clone, Copy)]
pub struct SubspaceProtocol {
    /// Design dimensionalities to sweep.
    pub dims: &'static [usize],
    /// Repeated runs per (dimension, algorithm) cell.
    pub runs: usize,
    /// Initial space-filling samples per run.
    pub initial: usize,
    /// Total evaluation budget per run.
    pub budget: usize,
    /// Candidate-pool size the full-pool search scores each iteration
    /// (plus `pool / 4` local candidates, as in the table protocols).
    pub pool: usize,
}

impl SubspaceProtocol {
    /// The committed full-scale sweep: D ∈ {20, 50} at the paper-scale pool.
    pub fn full() -> Self {
        SubspaceProtocol {
            dims: &[20, 50],
            runs: 2,
            initial: 10,
            budget: 30,
            pool: 1024,
        }
    }

    /// A seconds-scale sweep for CI smoke runs.
    pub fn quick() -> Self {
        SubspaceProtocol {
            dims: &[8, 20],
            runs: 1,
            initial: 6,
            budget: 12,
            pool: 128,
        }
    }
}

/// Runs the subspace-scaling study: at every dimensionality, full-pool WEIBO
/// and LinEasyBO optimize the same [`WeightedSphere`] instance under the same
/// seeds and budgets, and each row reports the measured mean per-suggestion
/// wall clock.  The line search scores a constant number of candidates
/// ([`LineSubspaceConfig::points_per_iteration`]) however large the pool the
/// full-pool search has to sweep, which is the scaling claim the committed
/// document pins.
pub fn run_subspace_scaling(protocol: &SubspaceProtocol) -> Result<Vec<SubspacePoint>, BenchError> {
    let mut out = Vec::with_capacity(protocol.dims.len() * 2);
    for &dim in protocol.dims {
        let problem = WeightedSphere::new(dim);
        for line in [false, true] {
            let mut calls = 0usize;
            let mut nanos = 0u64;
            let mut best = f64::NAN;
            for run in 0..protocol.runs {
                let mut config =
                    BoConfig::new(protocol.initial, protocol.budget).with_seed(2026 + run as u64);
                config.candidate_pool = protocol.pool;
                config.local_candidates = (protocol.pool / 4).max(16);
                let result = if line {
                    lineasybo(config).run(&problem)?
                } else {
                    weibo(config).run(&problem)?
                };
                let cost = result.suggest_cost();
                calls += cost.calls;
                nanos += cost.nanos;
                if let Some(b) = result.best_objective() {
                    best = if best.is_nan() { b } else { best.min(b) };
                }
            }
            out.push(SubspacePoint {
                algorithm: if line { "LinEasyBO" } else { "WEIBO" }.to_string(),
                dim,
                scored_per_iteration: if line {
                    LineSubspaceConfig::default().points_per_iteration()
                } else {
                    protocol.pool + (protocol.pool / 4).max(16)
                },
                suggest_calls: calls,
                suggest_mean_us: if calls == 0 {
                    f64::NAN
                } else {
                    nanos as f64 / calls as f64 / 1e3
                },
                best_fom: best,
                evaluations: protocol.budget,
            });
        }
    }
    Ok(out)
}

/// Serialises the scaling points plus the subspace study as the
/// `BENCH_scaling.json` document so the complexity trajectory can be tracked
/// across changes.
pub fn format_scaling_json(
    points: &[ScalingPoint],
    subspace: &[SubspacePoint],
    quick: bool,
) -> String {
    json::document(
        "nnbo-bench-scaling-v2",
        "scaling",
        quick,
        &[
            ("points", points.iter().map(Serialize::to_value).collect()),
            (
                "subspace",
                subspace.iter().map(Serialize::to_value).collect(),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_json_is_structurally_valid() {
        let points = vec![ScalingPoint {
            n: 50,
            gp_fit_ms: 1.5,
            gp_predict_us: 10.0,
            neural_fit_ms: 2.0,
            neural_predict_us: 3.0,
        }];
        let subspace = vec![SubspacePoint {
            algorithm: "LinEasyBO".into(),
            dim: 50,
            scored_per_iteration: 96,
            suggest_calls: 40,
            suggest_mean_us: 120.0,
            best_fom: f64::NAN,
            evaluations: 30,
        }];
        let json = format_scaling_json(&points, &subspace, true);
        assert!(json.contains("\"schema\": \"nnbo-bench-scaling-v2\""));
        assert!(json.contains("\"subspace\": ["));
        assert!(json.contains("\"best_fom\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The structural half of the scaling claim holds by construction at the
    /// committed full protocol: the full-pool search scores ≥ 5× the line
    /// search's constant per-iteration budget (the wall-clock half lands in
    /// the committed `BENCH_scaling.json`).
    #[test]
    fn full_subspace_protocol_pins_the_five_fold_pool_ratio() {
        let p = SubspaceProtocol::full();
        assert!(p.dims.contains(&50), "the D = 50 claim needs a D = 50 cell");
        let pool_scored = p.pool + (p.pool / 4).max(16);
        let line_scored = LineSubspaceConfig::default().points_per_iteration();
        assert!(
            pool_scored >= 5 * line_scored,
            "{pool_scored} vs {line_scored}"
        );
    }

    #[test]
    fn subspace_scaling_reports_both_strategies_at_every_dimension() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let protocol = SubspaceProtocol {
            dims: &[4],
            runs: 1,
            initial: 5,
            budget: 9,
            pool: 512,
        };
        let rows = run_subspace_scaling(&protocol).expect("subspace study runs");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].algorithm, "WEIBO");
        assert_eq!(rows[1].algorithm, "LinEasyBO");
        for r in &rows {
            assert_eq!(r.dim, 4);
            // One timed suggestion per model-guided iteration per run.
            assert_eq!(
                r.suggest_calls,
                (protocol.budget - protocol.initial) * protocol.runs
            );
            assert!(r.suggest_mean_us > 0.0);
            assert!(r.best_fom.is_finite(), "the sphere family is feasible");
        }
        assert!(rows[0].scored_per_iteration > rows[1].scored_per_iteration);
    }

    #[test]
    fn scaling_runs_and_reports_every_size() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let points = run_scaling(&[20, 40], 20).expect("scaling study runs");
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.gp_fit_ms > 0.0);
            assert!(p.neural_fit_ms > 0.0);
            assert!(p.gp_predict_us > 0.0);
            assert!(p.neural_predict_us > 0.0);
        }
    }
}
