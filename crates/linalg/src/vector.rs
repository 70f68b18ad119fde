//! Small free functions on `&[f64]` vectors.
//!
//! These are used pervasively by the kernels, the neural-network layers and the
//! acquisition optimizers; keeping them as plain slice functions avoids forcing a
//! vector newtype on every caller.

use crate::Matrix;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Dot product through the runtime kernel dispatch: a 4-lane FMA reduction on
/// AVX2 hardware, the plain ascending-order sum otherwise.
///
/// Unlike [`dot`], the summation order (and therefore the low bits of the
/// result) depends on which kernel path is active; use it where throughput
/// matters and exact scalar-order reproducibility does not — e.g. the Gram
/// weighted reductions of a Gaussian-process fit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn fused_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "fused_dot length mismatch");
    crate::packed::fused_dot(a, b)
}

/// `acc[d] += scale * x[d] * y[d]`, through the runtime kernel dispatch.
///
/// This is the fused update of the per-dimension lengthscale gradient
/// accumulators in a GP fit: one scaled elementwise product folded into an
/// accumulator without materialising the product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_scaled_product(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    assert_eq!(acc.len(), x.len(), "add_scaled_product length mismatch");
    assert_eq!(acc.len(), y.len(), "add_scaled_product length mismatch");
    crate::packed::add_scaled_product(acc, x, y, scale);
}

/// Weighted squared distances between every pair of the `n` rows of `x`,
/// into the strict lower triangle of `out` (`n × n`): for `j < i`,
///
/// ```text
/// out[i][j] = Σ_d w[d] · (x[i][d] − x[j][d])²
/// ```
///
/// `xt` must be the transpose of `x` (only its shape is checked); the
/// AVX-512F tier reads eight points per dimension from it.  Each entry equals
/// [`fused_dot`] of the pair's squared differences with `w`, bit for bit, on
/// every kernel tier.  The diagonal and upper triangle of `out` are not
/// written.  This is the Gram build of a Gaussian-process fit with ARD
/// lengthscale weights `w`.
///
/// # Panics
///
/// Panics if `xt` is not `dim × n`, `w` is not `dim` long or `out` is not
/// `n × n`, where `x` is `n × dim`.
pub fn weighted_sq_dist_lower(x: &Matrix, xt: &Matrix, w: &[f64], out: &mut Matrix) {
    let (n, dim) = x.shape();
    assert_eq!(xt.shape(), (dim, n), "transpose shape mismatch");
    assert_eq!(out.shape(), (n, n), "distance output shape mismatch");
    crate::packed::weighted_sq_dist_lower(
        x.as_slice(),
        xt.as_slice(),
        n,
        dim,
        w,
        out.as_mut_slice(),
    );
}

/// `acc[d] += scales[j] · w[d] · (x[i][d] − x[j][d])²` for `j = 0, 1, …` in
/// turn over the `scales`, which pair row `i` of `x` with the rows before it.
///
/// Each pair's update equals one [`add_scaled_product`] of `w` with the
/// pair's squared differences, bit for bit, on every kernel tier.  This is
/// the lengthscale trace of a Gaussian-process likelihood gradient, with
/// `scales[j]` the pair's weight `((K⁻¹ − ααᵀ) ∘ K)[i][j]`.
///
/// # Panics
///
/// Panics if `i` is not a row of `x`, `scales` is longer than `i`, or `w` or
/// `acc` does not hold one value per column of `x`.
pub fn add_scaled_sq_diffs(acc: &mut [f64], x: &Matrix, i: usize, scales: &[f64], w: &[f64]) {
    let (n, dim) = x.shape();
    crate::packed::add_scaled_sq_diffs(x.as_slice(), n, dim, i, scales, w, acc);
}

/// The per-step constants of one [`adam_update`], shared by every parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Factor applied to every gradient entry first (`1.0` unless the
    /// gradient norm is clipped).
    pub grad_scale: f64,
    /// Decay rate of the first moment.
    pub beta1: f64,
    /// Decay rate of the second moment.
    pub beta2: f64,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bias1: f64,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bias2: f64,
    /// Step size.
    pub learning_rate: f64,
    /// Stabiliser added to the denominator.
    pub epsilon: f64,
}

/// One Adam (Kingma & Ba) update of every parameter, through the runtime
/// kernel dispatch.  With `g = grad[i] · grad_scale`:
///
/// ```text
/// m[i] = β₁·m[i] + (1 − β₁)·g
/// v[i] = β₂·v[i] + (1 − β₂)·g·g
/// params[i] -= lr · (m[i] / bias1) / (√(v[i] / bias2) + ε)
/// ```
///
/// Entries whose `g` is not finite leave `params[i]`, `m[i]` and `v[i]`
/// untouched.  The AVX2 path runs four lanes of exactly this sequence of
/// IEEE operations (no fused multiply-add), so both dispatch paths give the
/// same bits.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn adam_update(
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &AdamStep,
) {
    crate::packed::adam_update(params, grad, m, v, step);
}

/// Fused squared-exponential apply, through the runtime kernel dispatch:
/// turns one row of a cross-kernel GEMM output into kernel values in place,
///
/// ```text
/// row[j] = sf2 · exp(−½ · max(q_norm + x_norms[j] − 2·row[j], 0))
/// ```
///
/// where `row[j]` holds the dot product `x'_q · x'_j` of lengthscale-scaled
/// points and `q_norm` / `x_norms` their squared norms (the norm expansion
/// `‖a − b‖² = ‖a‖² + ‖b‖² − 2a·b`).  The portable fallback is the exact
/// scalar `f64::exp` loop the prediction path used previously; the AVX2 path
/// runs a ≲ 2 ulp polynomial `exp` four lanes at a time.  A zero distance
/// yields exactly `sf2` on both paths, and distances past the `exp`
/// underflow threshold flush to exactly zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sq_exp_apply(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    assert_eq!(row.len(), x_norms.len(), "sq_exp_apply length mismatch");
    crate::packed::sq_exp_apply(row, x_norms, q_norm, sf2);
}

/// Elementwise sum `a + b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "vector addition length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Elementwise difference `a - b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "vector subtraction length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Scales a slice by a factor, returning a new vector.
pub fn scale(a: &[f64], factor: f64) -> Vec<f64> {
    a.iter().map(|x| x * factor).collect()
}

/// Returns `a + factor * b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_scaled(a: &[f64], b: &[f64], factor: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add_scaled length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| x + factor * y)
        .collect()
}

/// Squared Euclidean distance between two points.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Squared distance weighted per dimension: `Σ_d w_d (a_d - b_d)²`.
///
/// Used for the ARD squared-exponential kernel where `w_d = 1 / l_d²`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn weighted_squared_distance(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "weighted_squared_distance length mismatch"
    );
    assert_eq!(a.len(), weights.len(), "weights length mismatch");
    a.iter()
        .zip(b.iter())
        .zip(weights.iter())
        .map(|((x, y), w)| {
            let d = x - y;
            w * d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, 2.0], 2.0), vec![2.0, 4.0]);
        assert_eq!(add_scaled(&[1.0, 2.0], &[1.0, 1.0], 0.5), vec![1.5, 2.5]);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(
            weighted_squared_distance(&[0.0, 0.0], &[2.0, 2.0], &[1.0, 0.25]),
            5.0
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
