//! Classical Gaussian-process regression for the `nnbo` workspace.
//!
//! This crate implements the *explicit-kernel* GP of the paper's background section
//! (section II.C): a constant mean, an ARD squared-exponential (Gaussian) kernel
//!
//! ```text
//! k(xi, xj) = σf² · exp(-½ (xi - xj)ᵀ Λ⁻¹ (xi - xj)),   Λ = diag(l1², …, ld²)
//! ```
//!
//! additive Gaussian observation noise, hyper-parameter fitting by maximising the
//! log marginal likelihood (eq. 4), and the predictive mean/variance of eq. 3.
//!
//! It is the surrogate used by the WEIBO and GASPAD baselines that the paper
//! compares against; the paper's own neural-network GP lives in `nnbo-core`.
//!
//! Training is O(N³) and prediction O(N²) per point, exactly the costs the paper's
//! complexity analysis (section III.D) attributes to the traditional model — the
//! scaling benchmark in `nnbo-bench` measures this contrast directly.
//!
//! # The fit pipeline: cold, warm, and multi-output
//!
//! Fitting maximises the log marginal likelihood with Adam; how the search is
//! seeded and what is shared between searches is layered:
//!
//! * **Cold fit** ([`GpModel::fit`]) — multi-restart descent: the standard
//!   initial point plus [`GpConfig::restarts`]` − 1` random initialisations,
//!   [`GpConfig::max_iters`] Adam steps each, best NLL wins.  This is the
//!   right tool for the *first* fit, when nothing is known about the surface.
//! * **Warm refit** ([`GpModel::fit_warm`]) — inside a Bayesian-optimization
//!   loop the training set grows by one point per refit, so the previous
//!   optimum is an excellent initialisation: a single descent of *at most*
//!   [`GpConfig::warm_iters`] steps replaces the whole restart schedule, and
//!   stops early once the gradient RMS drops to
//!   [`GpConfig::warm_grad_tol`] (a warm start already at the optimum has
//!   nothing to descend).  The result is accepted unless its NLL regresses
//!   past the evaluated likelihood of the standard initial point; then the
//!   cold path runs as a fallback and the better fit is kept.
//! * **Shared fit context** — every likelihood evaluation needs the pairwise
//!   per-dimension squared differences of the training rows.  Each Adam
//!   iteration builds the lower triangle of the Gram matrix by one weighted
//!   reduction per pair ([`nnbo_linalg::weighted_sq_dist_lower`]) and
//!   accumulates all lengthscale gradients in one fused pass over
//!   `(K⁻¹ − ααᵀ) ∘ K` ([`nnbo_linalg::add_scaled_sq_diffs`]), into buffers
//!   allocated once per output.  Both kernels recompute the squared
//!   differences in registers from the rows, which the [`FitContext`] holds
//!   together with their `D × N` transpose — `O(N·D)` memory, shared by all
//!   outputs, where an `N × N × D` difference tensor would be 7.4 MB at
//!   `N = 160, D = 36`.  On the AVX-512F tier the two kernels run eight pairs
//!   (Gram) or eight dimensions (trace) per register and give the same bits
//!   as the other tiers.  A BO history is append-only, so
//!   [`FitContext::update_to`] extends the context by `O(N·D)` per new
//!   observation (`GpModel::fit_multi_warm_cached` exposes the cache slot;
//!   results are bit-identical either way).
//! * **Symmetric inverse** — the dominant per-iteration cost is the dense
//!   `(K + σn²I)⁻¹` the gradient traces against.  It is computed
//!   dpotri-style ([`nnbo_linalg::Cholesky::symmetric_inverse_into`]:
//!   triangular inverse, then `WᵀW` on the lower triangle) and the fused
//!   trace pass mirrors that triangle (off-diagonal terms doubled) — about
//!   half the work of the dense two-sweep inverse it replaced, which
//!   survives as [`InverseStrategy::DenseSweeps`] for the
//!   `reproduce fit` comparison and the equivalence property tests.
//! * **Multi-output fit** ([`GpModel::fit_multi`] /
//!   [`GpModel::fit_multi_warm`]) — the constrained BO loop models the
//!   objective and every constraint over the *same* designs, so the context
//!   is shared across all outputs and the per-output optimizations (own Adam
//!   state, Cholesky factors, scratch) run on scoped threads.  Per-output
//!   seeds are drawn up front, making the result independent of thread
//!   scheduling and bit-identical to per-output [`GpModel::fit_warm`] calls
//!   with the derived seeds.
//!
//! The pre-context reference implementation survives as
//! [`GpModel::fit_reference`] so `reproduce fit` can keep measuring the
//! old-vs-new contrast on identical inputs.
//!
//! # The prediction path: packed GEMM + fused `exp`, allocation-free
//!
//! Batched prediction ([`GpModel::predict_batch`]) evaluates the
//! cross-kernel block `K(Q, X)` by the norm expansion
//! `‖q' − x'‖² = ‖q'‖² + ‖x'‖² − 2 q'·x'` over lengthscale-scaled rows: the
//! dot products come from one `Q'·X'ᵀ` product that routes through the
//! packed AVX2+FMA micro-kernel engine of `nnbo-linalg` when the runtime
//! dispatch selects it, and the norm expansion plus `exp` run as one fused
//! dispatched elementwise pass per row ([`nnbo_linalg::sq_exp_apply`]: a
//! ≲ 2 ulp polynomial `exp` on the SIMD path, the exact scalar `f64::exp`
//! loop on the portable path).  The same fused pass builds the Gram matrix
//! of the final fit factorization.  Means then come from one matvec against
//! `α` and variances from one in-place batched triangular solve.
//!
//! Hot scoring loops use the `_into` variants —
//! [`GpModel::predict_batch_into`] with a caller-owned [`GpPredictScratch`]
//! (and, one level down, [`ArdSquaredExponential::cross_with_into`] with a
//! [`CrossScratch`]) — so once the buffers have grown to the candidate-pool
//! size, an acquisition scoring round performs no allocation in the GP
//! prediction path.  `reproduce predict` measures the packed-vs-portable
//! and allocating-vs-`_into` contrasts (`BENCH_predict.json`).
//!
//! # When refits happen
//!
//! The Bayesian-optimization loop in `nnbo-core` decides *when* the full
//! fit pipeline above runs at all (`RefitPolicy`): between full fits it
//! grows the model by [`GpModel::append_observation`] — a bordered-Cholesky
//! update that keeps the hyper-parameters frozen and *refreshes the stored
//! NLL* for the extended data, which is exactly the drift signal the
//! adaptive `NllDrift` policy thresholds to decide that the frozen
//! hyper-parameters have gone stale and a warm refit is due.
//!
//! # Numerical recovery: the jitter ladder
//!
//! Near-duplicate designs late in a BO run can push the Gram matrix to the
//! edge of positive definiteness.  Every factorization on the fit and append
//! paths — the final fit Cholesky and the bordered-Cholesky row append —
//! recovers from a failed factorization by retrying under a geometric nugget
//! ladder before surfacing a [`GpError`]: the fit Cholesky escalates from the
//! configured [`GpConfig::jitter`] (`nnbo_linalg::Cholesky::decompose_with_jitter`),
//! and the append path retries on the canonical recovery ladder
//! (`append_row_with_jitter`, `1e-10 → 1e-4`).  A clean factorization applies
//! zero extra jitter, so healthy fits are bit-identical to the unguarded
//! path; when the ladder does engage, the applied nugget is folded into the
//! model's stored jitter so subsequent predictions stay consistent with the
//! factor actually used.
//!
//! # Example
//!
//! ```
//! use nnbo_gp::{GpConfig, GpModel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), nnbo_gp::GpError> {
//! // Noisy observations of y = sin(3x).
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin()).collect();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = GpModel::fit(&xs, &ys, &GpConfig::default(), &mut rng)?;
//! let p = model.predict(&[0.5]);
//! assert!((p.mean - (1.5_f64).sin()).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod fit;
mod hyper;
mod kernel;
mod model;

pub use error::GpError;
pub use fit::{nll_and_grad_with, FitContext, FitScratch, InverseStrategy};
pub use hyper::{GpConfig, GpHyperParams};
pub use kernel::{ArdSquaredExponential, CrossScratch, ScaledRows};
pub use model::{GpModel, GpPredictScratch, GpPrediction};
