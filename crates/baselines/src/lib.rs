//! Baseline optimizers that the paper compares against (Tables I and II),
//! plus the LinEasyBO subspace strategy for high-dimensional synthesis.
//!
//! * [`weibo`] / [`GpSurrogateTrainer`] — the WEIBO algorithm of Lyu et al.: the
//!   same constrained Bayesian-optimization loop as the paper's method, but with the
//!   classical ARD-SE Gaussian process (from [`nnbo_gp`]) as the surrogate.
//! * [`lineasybo`] — LinEasyBO (Zhang et al., arXiv 2109.00617): WEIBO's
//!   surrogate and acquisition, but the acquisition is maximized along a
//!   per-iteration one-dimensional subspace through the incumbent instead of
//!   over a full candidate pool.
//! * [`Gaspad`] — a GASPAD-style surrogate-assisted evolutionary optimizer: a
//!   differential-evolution population whose offspring are pre-screened by a GP
//!   surrogate, so only the most promising candidate per generation is simulated.
//! * [`DifferentialEvolution`] — plain DE/rand/1/bin with feasibility-rule
//!   constraint handling.
//! * [`RandomSearch`] — uniform random sampling, the sanity-check baseline.
//!
//! All baselines report a [`nnbo_core::OptimizationResult`] so that the reproduction
//! harness can aggregate every algorithm with the same statistics code.
//!
//! # Choosing a strategy: WEIBO vs GASPAD vs LinEasyBO
//!
//! The three surrogate-assisted baselines differ in *how the next simulation
//! is chosen*, and that choice sets their per-iteration cost model:
//!
//! | | proposal | scoring cost / iteration | fit cost / iteration |
//! |---|---|---|---|
//! | WEIBO | wEI argmax over a `candidate_pool + local_candidates` pool | `O(P · N)` GP predictions, `P` ≈ 10³ | warm multi-output GP refit |
//! | GASPAD | GP-prescreened DE offspring, Deb's-rules replacement | `O(pool · N)`, pool ≈ 40 | cold single-output GP fit |
//! | LinEasyBO | wEI argmax along a 1-D line through the incumbent | `O(L · N)`, `L` = `LineSubspaceConfig::points_per_iteration` (≈ 10², independent of `D`) | warm multi-output GP refit (same as WEIBO) |
//!
//! **Prefer WEIBO** at low dimension (`D ≲ 20`): the dense pool covers the
//! cube well, and the paper's Tables I/II show it is the strongest classical
//! baseline there.  **Prefer LinEasyBO** as the dimension grows: a uniform
//! pool's coverage collapses exponentially in `D` while the line search's
//! budget — and therefore its suggest cost ([`nnbo_core::SuggestCost`],
//! measured by `reproduce scaling`) — stays constant, and the
//! lengthscale-weighted directions ([`nnbo_core::DirectionRule`]) recover the
//! few active dimensions of a high-dimensional sizing task.  **Prefer
//! GASPAD** when evaluations are so cheap that surrogate fidelity matters
//! less than population diversity, or as the evolutionary reference point —
//! it trades the probabilistic constraint handling of the BO methods for
//! Deb's feasibility rules, which is why the paper finds it less
//! sample-efficient.
//!
//! All three are pinned by the same conformance harness
//! (`tests/strategy_conformance.rs`): seeded golden determinism under both
//! kernel dispatch paths, suggestions inside the unit cube, imputed points
//! never reported as the optimum, and bit-identical mid-run
//! snapshot/resume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod de;
mod gaspad;
mod lineasybo;
mod random_search;
mod weibo;

pub use de::{DeConfig, DifferentialEvolution};
pub use gaspad::{Gaspad, GaspadConfig, GaspadSnapshot, GaspadState};
pub use lineasybo::{lineasybo, lineasybo_random_directions, lineasybo_with};
pub use random_search::RandomSearch;
pub use weibo::{weibo, GpSurrogate, GpSurrogateTrainer};
