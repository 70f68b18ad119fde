//! Old-vs-new timings of the surrogate hot path, emitted as
//! `BENCH_linalg.json` so later PRs can track the performance trajectory.
//!
//! Every entry compares a baseline against the path that replaced it on the
//! same inputs.  Rows named `*_kernel` compare the portable blocked-scalar
//! kernels (forced with [`nnbo_linalg::with_portable_kernels`]) against the
//! SIMD tier the machine dispatches; on machines without AVX2 both sides run
//! the portable path and the speedup reads ≈ 1 — the document's `isa`
//! header says which case applies.  The other rows compare a reference
//! implementation (scalar loops, per-point predictions, from-scratch
//! refactorizations) against its replacement on the same dispatch:
//!
//! * `matmul`, `matmul_transpose`, `cholesky` — blocked + threaded kernels vs
//!   the naive loops, at N ∈ {64, 256, 1024}.
//! * `matmul_kernel`, `syrk`, `symmetric_inverse_kernel` — SIMD vs portable
//!   on the same shapes, at N ∈ {256, 512, 1024}; `symmetric_inverse` — the
//!   dpotri-style inverse vs the dense-sweep inverse.
//! * `cholesky_append` — rank-1 bordered update vs full refactorization when
//!   one row/column is appended at N = 512.
//! * `gp_predict_batch` / `neural_predict_batch` — one batched prediction of
//!   512 candidates vs 512 per-point `predict` calls at 256 training points.
//! * `gp_predict_batch_into` — the allocating
//!   [`nnbo_gp::GpModel::predict_batch`] vs the buffer-reusing
//!   [`nnbo_gp::GpModel::predict_batch_into`] in steady state (what the
//!   acquisition scoring loop runs).
//! * `gp_cross_kernel`, `gp_predict_batch_kernel`,
//!   `neural_predict_batch_kernel` — SIMD vs portable for the same 512
//!   candidates: the cross-covariance block `K(Q, X)` alone (a GEMM over
//!   the scaled rows plus the fused [`nnbo_linalg::sq_exp_apply`] pass) and
//!   the two batched predictions.

use std::time::Instant;

use nnbo_core::{NeuralGp, NeuralGpConfig, SurrogateModel};
use nnbo_gp::{ArdSquaredExponential, CrossScratch, GpConfig, GpModel, GpPredictScratch};
use nnbo_linalg::{Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

use crate::{json, BenchError};

/// One measured comparison: the reference path vs the optimized path on the
/// same workload.
#[derive(Debug, Clone)]
pub struct LinalgBenchEntry {
    /// Workload name (e.g. `matmul`).
    pub name: &'static str,
    /// Problem size N.
    pub n: usize,
    /// Wall-clock nanoseconds of the reference path (best of the repetitions).
    pub baseline_ns: f64,
    /// Wall-clock nanoseconds of the optimized path (best of the repetitions).
    pub optimized_ns: f64,
}

impl LinalgBenchEntry {
    /// Speed-up factor of the optimized path.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns.max(1.0)
    }
}

/// The row of `BENCH_linalg.json`: the fields plus the derived `speedup`.
impl Serialize for LinalgBenchEntry {
    fn to_value(&self) -> Value {
        json::row(&[
            ("name", &self.name),
            ("n", &self.n),
            ("baseline_ns", &self.baseline_ns),
            ("optimized_ns", &self.optimized_ns),
            ("speedup", &self.speedup()),
        ])
    }
}

/// Times `f`, returning the best (minimum) wall-clock nanoseconds over `reps`
/// repetitions.  The minimum is the standard choice for micro-benchmarks: it
/// is the least noisy estimator of the true cost of the work itself.
/// Shared with the corner-sweep benchmark (`pvt_bench`).
pub(crate) fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// [`time_best`] for fallible workloads: the first error aborts the
/// measurement and propagates to the `reproduce` binary instead of
/// panicking mid-benchmark.
fn try_time_best<F: FnMut() -> Result<(), BenchError>>(
    reps: usize,
    mut f: F,
) -> Result<f64, BenchError> {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f()?;
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    Ok(best)
}

fn random_matrix(n: usize, m: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f64> = (0..n * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Matrix::from_vec(n, m, data)
}

fn random_spd(n: usize, rng: &mut StdRng) -> Matrix {
    let b = random_matrix(n, n, rng);
    let mut a = b.matmul_transpose(&b);
    a.add_diag(n as f64);
    a
}

fn dataset(n: usize, dim: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| ((i + 1) as f64 * v).sin())
                .sum()
        })
        .collect();
    (xs, ys)
}

/// Runs the full comparison suite.  `quick` shrinks the sizes and repetition
/// counts so CI can smoke-test the harness in seconds.
pub fn run_linalg_bench(quick: bool) -> Result<Vec<LinalgBenchEntry>, BenchError> {
    let mut rng = StdRng::seed_from_u64(97);
    let mut entries = Vec::new();
    let matmul_sizes: &[usize] = if quick { &[64, 128] } else { &[64, 256, 1024] };
    let reps = |n: usize| if quick || n >= 1024 { 3 } else { 7 };

    for &n in matmul_sizes {
        let a = random_matrix(n, n, &mut rng);
        let b = random_matrix(n, n, &mut rng);
        entries.push(LinalgBenchEntry {
            name: "matmul",
            n,
            baseline_ns: time_best(reps(n), || {
                std::hint::black_box(a.matmul_naive(&b));
            }),
            optimized_ns: time_best(reps(n), || {
                std::hint::black_box(a.matmul(&b));
            }),
        });
        entries.push(LinalgBenchEntry {
            name: "matmul_transpose",
            n,
            baseline_ns: time_best(reps(n), || {
                std::hint::black_box(a.matmul_transpose_naive(&b));
            }),
            optimized_ns: time_best(reps(n), || {
                std::hint::black_box(a.matmul_transpose(&b));
            }),
        });
        let spd = random_spd(n, &mut rng);
        entries.push(LinalgBenchEntry {
            name: "cholesky",
            n,
            baseline_ns: try_time_best(reps(n), || {
                std::hint::black_box(Cholesky::decompose_reference(&spd)?);
                Ok(())
            })?,
            optimized_ns: try_time_best(reps(n), || {
                std::hint::black_box(Cholesky::decompose(&spd)?);
                Ok(())
            })?,
        });
    }

    // Micro-kernel vs blocked-scalar: the same public entry points with the
    // portable kernels forced (baseline) and on the automatic dispatch
    // (optimized).
    let kernel_sizes: &[usize] = if quick { &[64, 128] } else { &[256, 512, 1024] };
    for &n in kernel_sizes {
        let a = random_matrix(n, n, &mut rng);
        let b = random_matrix(n, n, &mut rng);
        let spd = random_spd(n, &mut rng);
        let chol = Cholesky::decompose(&spd)?;
        let mut inv = nnbo_linalg::Matrix::zeros(n, n);
        let mut work = nnbo_linalg::Matrix::zeros(n, n);
        let (portable_matmul, portable_syrk, portable_syminv) =
            nnbo_linalg::with_portable_kernels(|| {
                (
                    time_best(reps(n), || {
                        std::hint::black_box(a.matmul(&b));
                    }),
                    time_best(reps(n), || {
                        std::hint::black_box(a.transpose_matmul_self());
                    }),
                    time_best(reps(n), || {
                        chol.symmetric_inverse_into(&mut inv, &mut work);
                        std::hint::black_box(&inv);
                    }),
                )
            });
        let auto_matmul = time_best(reps(n), || {
            std::hint::black_box(a.matmul(&b));
        });
        let auto_syrk = time_best(reps(n), || {
            std::hint::black_box(a.transpose_matmul_self());
        });
        let dense_inverse = time_best(reps(n), || {
            chol.inverse_into(&mut inv);
            std::hint::black_box(&inv);
        });
        let auto_syminv = time_best(reps(n), || {
            chol.symmetric_inverse_into(&mut inv, &mut work);
            std::hint::black_box(&inv);
        });
        entries.push(LinalgBenchEntry {
            name: "matmul_kernel",
            n,
            baseline_ns: portable_matmul,
            optimized_ns: auto_matmul,
        });
        entries.push(LinalgBenchEntry {
            name: "syrk",
            n,
            baseline_ns: portable_syrk,
            optimized_ns: auto_syrk,
        });
        // Two contrasts for the dpotri-style inverse: vs the dense-sweep
        // inverse on the same (auto) dispatch path, and vs its own portable
        // fallback.
        entries.push(LinalgBenchEntry {
            name: "symmetric_inverse",
            n,
            baseline_ns: dense_inverse,
            optimized_ns: auto_syminv,
        });
        entries.push(LinalgBenchEntry {
            name: "symmetric_inverse_kernel",
            n,
            baseline_ns: portable_syminv,
            optimized_ns: auto_syminv,
        });
    }

    // Appending one observation: full refactorization vs rank-1 bordered update.
    let append_n = if quick { 128 } else { 512 };
    let spd = random_spd(append_n + 1, &mut rng);
    let mut small = Matrix::zeros(append_n, append_n);
    for i in 0..append_n {
        for j in 0..append_n {
            small[(i, j)] = spd[(i, j)];
        }
    }
    let border: Vec<f64> = (0..=append_n).map(|j| spd[(append_n, j)]).collect();
    let base = Cholesky::decompose(&small)?;
    // The update mutates, so each repetition needs a fresh factor; clone
    // outside the timed window so only `append_row` itself is measured.
    let append_reps = if quick { 3 } else { 5 };
    let mut append_best = f64::INFINITY;
    for _ in 0..append_reps {
        let mut c = base.clone();
        let start = Instant::now();
        c.append_row(&border)?;
        append_best = append_best.min(start.elapsed().as_nanos() as f64);
        std::hint::black_box(c);
    }
    entries.push(LinalgBenchEntry {
        name: "cholesky_append",
        n: append_n,
        baseline_ns: try_time_best(append_reps, || {
            std::hint::black_box(Cholesky::decompose(&spd)?);
            Ok(())
        })?,
        optimized_ns: append_best,
    });

    // Batched candidate scoring vs per-point prediction, classic GP.
    let train_n = if quick { 64 } else { 256 };
    let batch = if quick { 128 } else { 512 };
    let dim = 10;
    let (xs, ys) = dataset(train_n, dim, &mut rng);
    let queries: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let gp_config = GpConfig {
        restarts: 1,
        max_iters: 10,
        ..GpConfig::default()
    };
    let predict_reps = if quick { 3 } else { 5 };
    let mut fit_rng = StdRng::seed_from_u64(3);
    let gp = GpModel::fit(&xs, &ys, &gp_config, &mut fit_rng)?;
    let gp_per_point = time_best(predict_reps, || {
        for q in &queries {
            std::hint::black_box(gp.predict(q));
        }
    });
    let gp_batch = time_best(predict_reps, || {
        std::hint::black_box(gp.predict_batch(&queries));
    });
    entries.push(LinalgBenchEntry {
        name: "gp_predict_batch",
        n: train_n,
        baseline_ns: gp_per_point,
        optimized_ns: gp_batch,
    });

    // Batched candidate scoring vs per-point prediction, neural GP.
    let nn_config = NeuralGpConfig {
        epochs: 40,
        ..NeuralGpConfig::default()
    };
    let mut fit_rng = StdRng::seed_from_u64(4);
    let neural = NeuralGp::fit(&xs, &ys, &nn_config, &mut fit_rng)?;
    let neural_per_point = time_best(predict_reps, || {
        for q in &queries {
            std::hint::black_box(neural.predict(q));
        }
    });
    let neural_batch = time_best(predict_reps, || {
        std::hint::black_box(neural.predict_batch(&queries));
    });
    entries.push(LinalgBenchEntry {
        name: "neural_predict_batch",
        n: train_n,
        baseline_ns: neural_per_point,
        optimized_ns: neural_batch,
    });

    // Allocating vs buffer-reusing batched GP prediction (same dispatch).
    let mut out = Vec::new();
    let mut scratch = GpPredictScratch::new();
    gp.predict_batch_into(&queries, &mut out, &mut scratch); // grow buffers
    entries.push(LinalgBenchEntry {
        name: "gp_predict_batch_into",
        n: train_n,
        baseline_ns: gp_batch,
        optimized_ns: time_best(predict_reps, || {
            gp.predict_batch_into(&queries, &mut out, &mut scratch);
            std::hint::black_box(&out);
        }),
    });

    // The same predictions on the portable kernels against the SIMD tier:
    // the fitted GP's cross-covariance block alone, then both batched
    // predictions, whose SIMD timings are the batch rows above.
    let hyper = gp.hyper_params();
    let kernel = ArdSquaredExponential::new(hyper.signal_variance(), hyper.lengthscales());
    let x_mat = Matrix::from_rows(&xs);
    let q_mat = Matrix::from_rows(&queries);
    let prepared = kernel.prepare(&x_mat);
    let mut cross_out = Matrix::zeros(0, 0);
    let mut cross_scratch = CrossScratch::new();
    let mut cross = || {
        kernel.cross_with_into(&q_mat, &prepared, &mut cross_out, &mut cross_scratch);
        std::hint::black_box(&cross_out);
    };
    let (portable_cross, portable_gp, portable_neural) = nnbo_linalg::with_portable_kernels(|| {
        (
            time_best(predict_reps, &mut cross),
            time_best(predict_reps, || {
                std::hint::black_box(gp.predict_batch(&queries));
            }),
            time_best(predict_reps, || {
                std::hint::black_box(neural.predict_batch(&queries));
            }),
        )
    });
    entries.push(LinalgBenchEntry {
        name: "gp_cross_kernel",
        n: train_n,
        baseline_ns: portable_cross,
        optimized_ns: time_best(predict_reps, cross),
    });
    entries.push(LinalgBenchEntry {
        name: "gp_predict_batch_kernel",
        n: train_n,
        baseline_ns: portable_gp,
        optimized_ns: gp_batch,
    });
    entries.push(LinalgBenchEntry {
        name: "neural_predict_batch_kernel",
        n: train_n,
        baseline_ns: portable_neural,
        optimized_ns: neural_batch,
    });

    Ok(entries)
}

/// Serialises the entries as the `BENCH_linalg.json` document.
pub fn format_linalg_json(entries: &[LinalgBenchEntry], quick: bool) -> String {
    let rows = entries.iter().map(Serialize::to_value).collect();
    json::document(
        "nnbo-bench-linalg-v1",
        "linalg",
        quick,
        &[("entries", rows)],
    )
}

/// Renders a human-readable table of the same entries for stdout.
pub fn format_linalg_table(entries: &[LinalgBenchEntry]) -> String {
    let mut out = format!(
        "{:<28} {:>6} {:>16} {:>16} {:>9}\n",
        "workload", "N", "baseline (ms)", "optimized (ms)", "speedup"
    );
    for e in entries {
        out.push_str(&format!(
            "{:<28} {:>6} {:>16.3} {:>16.3} {:>8.1}x\n",
            e.name,
            e.n,
            e.baseline_ns / 1e6,
            e.optimized_ns / 1e6,
            e.speedup()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_all_workloads_and_valid_json() {
        let entries = run_linalg_bench(true).expect("quick linalg bench runs");
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        for expected in [
            "matmul",
            "matmul_transpose",
            "cholesky",
            "matmul_kernel",
            "syrk",
            "symmetric_inverse",
            "symmetric_inverse_kernel",
            "cholesky_append",
            "gp_predict_batch",
            "neural_predict_batch",
            "gp_predict_batch_into",
            "gp_cross_kernel",
            "gp_predict_batch_kernel",
            "neural_predict_batch_kernel",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
        let json = format_linalg_json(&entries, true);
        assert!(json.contains("\"schema\": \"nnbo-bench-linalg-v1\""));
        assert_eq!(json.matches("\"name\"").count(), entries.len());
        // Crude structural validity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!format_linalg_table(&entries).is_empty());
    }
}
