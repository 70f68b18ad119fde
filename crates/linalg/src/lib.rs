//! Dense linear algebra substrate for the `nnbo` workspace.
//!
//! The Gaussian-process models and the neural-network feature maps of the paper
//! only need dense, moderate-size linear algebra: matrix products, Cholesky
//! factorizations, triangular solves and log-determinants.  This crate implements
//! those primitives from scratch on top of a row-major [`Matrix`] type so that the
//! workspace has no external numeric dependencies.
//!
//! # Kernel architecture: portable blocks + packed-panel SIMD
//!
//! The naive references (`matmul_naive`, `decompose_reference`, …) are the
//! textbook loops, kept as the oracle for property tests and the baseline
//! for benchmarks; they never run on the hot path.  The hot path has three
//! tiers, chosen by one runtime dispatch point and named by [`kernel_isa`]:
//!
//! 1. **`"portable"`: blocked scalar kernels** (`kernels` module) —
//!    cache-blocked, 4-wide-unrolled scalar loops that run on any
//!    architecture.  The dispatch selects them when the CPU lacks AVX2/FMA,
//!    when `NNBO_PORTABLE_KERNELS=1` forces them for the process, or inside
//!    a [`with_portable_kernels`] scope.
//! 2. **`"avx2+fma"`: packed-panel micro-kernels** (`packed` module) —
//!    operands are packed once per block sweep into contiguous
//!    `4-row × 8-column` panel layouts and driven by explicit AVX2+FMA
//!    micro-kernels (`core::arch::x86_64`).  One packed GEMM engine serves
//!    all three product orientations (`A·B`, `A·Bᵀ`, `Aᵀ·B`), a SYRK driver
//!    serves the symmetric products (Gram/normal matrices, the Cholesky
//!    trailing update, the dpotri-style symmetric inverse), and elementwise
//!    helpers serve the batched triangular sweeps, the fused
//!    squared-exponential pass and the Adam update ([`adam_update`]).
//! 3. **`"avx512f"`: direct kernels** — everything of tier 2, except
//!    that a product whose shared dimension fits one 256-deep `k`-block runs
//!    a direct driver: A is never packed, an `8 × 8` tile of 512-bit
//!    accumulators broadcasts A straight from its row or column view, and
//!    each output element is stored once (masked stores on ragged columns).
//!    B is packed only for `A·Bᵀ`; in `A·B` and `Aᵀ·B` the tile's 8 columns
//!    of B are contiguous at each depth, so the tile reads them from the
//!    caller's buffer with masked loads.  Deeper products keep the tier-2
//!    packed driver.  The Cholesky panel,
//!    the triangular inverse inside [`Cholesky::symmetric_inverse_into`], and
//!    the GP likelihood's pairwise kernels ([`weighted_sq_dist_lower`],
//!    [`add_scaled_sq_diffs`]) also run direct AVX-512F kernels that keep
//!    their accumulators in registers; the other tiers run the same loop
//!    order with their per-element kernels.
//!
//! **Bit-identity contract of tier 3.**  Tiers 2 and 3 give the same bits
//! for every product.  In both, each output element is one FMA chain over
//! the shared dimension in ascending order, starting from `+0.0`, added to
//! `+0.0` at the end (tier 2 adds its tile into the zeroed output; tier 3
//! adds `0.0` before its store), which turns a `−0.0` chain result into
//! `+0.0` on both.  Zero-padded or masked-off lanes of a ragged panel are
//! never stored, the source of B (packed or in place) changes no live lane,
//! and the output-row band split across threads is the same, so results do
//! not depend on the thread count either.  Unit tests compare the two
//! drivers bit for bit on ragged shapes, all three orientations, B packed
//! and read in place (also from a view into a wider buffer) and inputs
//! holding `−0.0`, `±∞` and NaN.  The portable
//! tier sums in a different order and matches the SIMD tiers to rounding
//! only.
//!
//! The factorization and likelihood kernels of tier 3 give the same bits as
//! tier 2: the Cholesky panel keeps `dot_unrolled`'s four partial sums (a
//! multiply, then an add, as on every tier), the triangular inverse keeps
//! tier 2's fused update per element, and the pairwise Gram and trace
//! kernels match tier 2's [`fused_dot`] and [`add_scaled_product`].  Each
//! kernel vectorises across independent elements (rows, pairs or
//! dimensions) and keeps every element's operations and their order.  Unit
//! tests compare each against the loop it replaced, kept as a test-only
//! reference, bit for bit.
//!
//! The dispatch (`dispatch` module) probes the CPU once per process with
//! `is_x86_feature_detected!`.  The environment variable forces the
//! portable tier on every thread; [`with_portable_kernels`] forces it for
//! one closure, on the calling thread and on every `nnbo-pool` task and job
//! the closure submits, so the row bands a kernel fans out run the tier its
//! caller chose.  [`kernel_isa`] reports the calling thread's tier so
//! benchmark artifacts can record it.
//!
//! # `unsafe` in this crate
//!
//! All `unsafe` code is in the `packed` module.  Each site is a call into a
//! `#[target_feature]` function, and each such function uses raw-pointer
//! SIMD loads and stores.  The argument for every site:
//!
//! | `unsafe fn` | called from | CPU features | memory bounds |
//! |---|---|---|---|
//! | `micro_kernel_4x8` | `gemm_band`, `syrk_band` | `simd_active()` was checked by the dispatching caller (`kernels`, `Matrix`, `Cholesky`) | reads `kc·4` values of the stack A panel (`kc ≤ 256`, panel holds `256·4`) and `kc·8` of a B panel slice taken with checked indexing; writes the fixed `4 × 8` tile |
//! | `direct_tile` | `direct_driver` (behind `gemm` and `gemm_direct`) | `direct_driver` asserts AVX-512F on entry | `direct_driver` asserts that the A view covers `m × k`, that B covers `k × n` (a packed B is one `k`-block of `⌈n/8⌉` panels; an in-place B is a column view whose element `(n − 1, k − 1)` lies inside its slice) and that each band lies inside the `m × n` output; tiles never cross a band's rows or columns, so every live B lane (depth below `k`, column below `n`) is inside B's slice, and masked loads and stores touch only the `width` live columns |
//! | `panel_column` (and `panel_rows`) | `factor_panel`, from `Cholesky`'s panel step | `factor_panel` asserts AVX-512F; the caller selects it only when `avx512_active()` | `factor_panel` asserts that the factor holds `n × n` values and the panel lies inside it, and sizes its column-major copy `width × (rows + 8)`: a column's last 8-row group ends inside the column's padding |
//! | `inverse_block` | `triangular_inverse_block`, from `Cholesky::symmetric_inverse_into` | `triangular_inverse_block` asserts AVX-512F; the caller selects it only when `avx512_active()` | asserts that the factor and the output hold `n × n` values (a deserialized factor is also checked square) and that the column block lies inside a row; lanes past the block are masked |
//! | `weighted_sq_dist_lower_avx512` | `packed::weighted_sq_dist_lower`, behind the public function of the same name | the wrapper checks `avx512_active()` | the wrapper asserts `x` and its transpose hold `n × dim` values, the weights `dim` and the output `n × n`; loads and stores of a row's last pairs are masked at the diagonal |
//! | `add_scaled_sq_diffs_avx512` | `packed::add_scaled_sq_diffs`, behind the public function of the same name | the wrapper checks `avx512_active()` | the wrapper asserts `x` holds `n × dim` values, the row lies in it, there are at most `i` pair weights and the weights and accumulators hold `dim` values; lanes past a 64-dimension block are masked |
//! | `sweep_axpy_fma`, `fused_dot_fma`, `sq_exp_apply_simd`, `add_scaled_product_fma`, `adam_update_avx2` | their dispatching wrapper of the same name | the wrapper checks `simd_active()` | each bounds its loop by the shortest of its slices; the ragged tail uses checked indexing |
//! | `solve_lower_vec_fma`, `solve_upper_vec_fma` | `solve_lower_vec`, `solve_upper_vec` | the wrapper checks `simd_active()` | checked indexing only; `unsafe` only because the function enables FMA |
//!
//! Off x86_64 each of these functions has a portable body of the same
//! name, and the dispatch never selects a SIMD tier there.  Safe code can
//! reach the SIMD functions only through these wrappers.  Debug builds
//! also `debug_assert!` the bounds inside the kernels.  CI runs the linalg
//! tests in release mode as well, where those checks are compiled out.
//!
//! # Example
//!
//! ```
//! use nnbo_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), nnbo_linalg::LinalgError> {
//! // A small symmetric positive-definite system A x = b.
//! let a = Matrix::from_rows(&[
//!     vec![4.0, 1.0, 0.0],
//!     vec![1.0, 3.0, 1.0],
//!     vec![0.0, 1.0, 2.0],
//! ]);
//! let b = vec![1.0, 2.0, 3.0];
//! let chol = Cholesky::decompose(&a)?;
//! let x = chol.solve_vec(&b);
//! let r = a.matvec(&x);
//! assert!((r[0] - b[0]).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cholesky;
mod dispatch;
mod error;
mod kernels;
#[cfg(test)]
mod lu;
mod matrix;
mod packed;
mod parallel;
mod stats;
mod vector;

pub use cholesky::Cholesky;
pub use dispatch::{kernel_isa, with_portable_kernels};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use stats::{mean, sample_std, standardize, Standardizer};
pub use vector::{
    adam_update, add, add_scaled, add_scaled_product, add_scaled_sq_diffs, dot, fused_dot, norm2,
    scale, sq_exp_apply, squared_distance, sub, weighted_sq_dist_lower, weighted_squared_distance,
    AdamStep,
};
