//! First-order optimizers on flat parameter vectors.
//!
//! The neural GP of the paper trains the network weights *and* the GP
//! hyper-parameters `σn`, `σp` jointly by minimising the negative log marginal
//! likelihood (eq. 11).  Representing the full parameter set as one flat `Vec<f64>`
//! lets a single optimizer state drive all of them.

use nnbo_linalg::{adam_update, AdamStep};
use serde::{Deserialize, Serialize};

/// A first-order optimizer that updates a flat parameter vector in place given the
/// gradient of a scalar loss.
pub trait Optimizer {
    /// Performs one update step.  `params` and `grad` must have the same length on
    /// every call, and that length must not change across calls.
    fn step(&mut self, params: &mut [f64], grad: &[f64]);

    /// Resets any internal state (moment estimates, step counters).
    fn reset(&mut self);
}

/// Configuration for the [`Adam`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (default `1e-2`).
    pub learning_rate: f64,
    /// Exponential decay rate for the first moment (default `0.9`).
    pub beta1: f64,
    /// Exponential decay rate for the second moment (default `0.999`).
    pub beta2: f64,
    /// Numerical stabiliser added to the denominator (default `1e-8`).
    pub epsilon: f64,
    /// Maximum allowed gradient L2 norm; gradients are rescaled above it
    /// (default `1e3`, which effectively disables clipping for well-scaled losses).
    pub grad_clip: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            learning_rate: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            grad_clip: 1e3,
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with optional gradient-norm clipping.
///
/// # Example
///
/// ```
/// use nnbo_nn::{Adam, AdamConfig, Optimizer};
///
/// // Minimise f(x) = (x - 3)².
/// let mut adam = Adam::new(AdamConfig { learning_rate: 0.1, ..AdamConfig::default() });
/// let mut params = vec![0.0];
/// for _ in 0..500 {
///     let grad = vec![2.0 * (params[0] - 3.0)];
///     adam.step(&mut params, &grad);
/// }
/// assert!((params[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Creates an Adam optimizer with default hyper-parameters and the given
    /// learning rate.
    pub fn with_learning_rate(learning_rate: f64) -> Self {
        Adam::new(AdamConfig {
            learning_rate,
            ..AdamConfig::default()
        })
    }

    /// The configuration of this optimizer.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// [`Optimizer::step`] with the gradient's sum of squares supplied by the
    /// caller, for a training loop that already computed it (an early-stop
    /// test on the gradient RMS), so the sum is not taken twice.
    ///
    /// `sum_sq` must be `Σ grad[i]²` summed in index order — exactly what
    /// [`Optimizer::step`] computes for the clipping norm — for the two calls
    /// to agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grad` have different lengths.
    pub fn step_with_sum_sq(&mut self, params: &mut [f64], grad: &[f64], sum_sq: f64) {
        assert_eq!(
            params.len(),
            grad.len(),
            "parameter/gradient length mismatch"
        );
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let AdamConfig {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            grad_clip,
        } = self.config;

        let norm = sum_sq.sqrt();
        let grad_scale = if norm > grad_clip && norm > 0.0 {
            grad_clip / norm
        } else {
            1.0
        };
        let step = AdamStep {
            grad_scale,
            beta1,
            beta2,
            bias1: 1.0 - beta1.powi(self.t as i32),
            bias2: 1.0 - beta2.powi(self.t as i32),
            learning_rate,
            epsilon,
        };
        // Non-finite gradient entries are skipped: they would poison the
        // moment estimates forever, and the next evaluation can recover.
        adam_update(params, grad, &mut self.m, &mut self.v, &step);
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new(AdamConfig::default())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        self.step_with_sum_sq(params, grad, grad.iter().map(|g| g * g).sum());
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rosenbrock function and gradient, a classic non-convex optimizer test.
    fn rosenbrock(p: &[f64]) -> (f64, Vec<f64>) {
        let (x, y) = (p[0], p[1]);
        let f = (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2);
        let gx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
        let gy = 200.0 * (y - x * x);
        (f, vec![gx, gy])
    }

    #[test]
    fn adam_minimises_quadratic() {
        let mut adam = Adam::with_learning_rate(0.05);
        let mut p = vec![5.0, -4.0, 2.0];
        for _ in 0..2000 {
            let grad: Vec<f64> = p.iter().map(|x| 2.0 * x).collect();
            adam.step(&mut p, &grad);
        }
        for x in &p {
            assert!(x.abs() < 1e-3, "param {x} did not converge");
        }
    }

    #[test]
    fn adam_makes_progress_on_rosenbrock() {
        let mut adam = Adam::with_learning_rate(0.02);
        let mut p = vec![-1.0, 1.0];
        let (f0, _) = rosenbrock(&p);
        for _ in 0..5000 {
            let (_, g) = rosenbrock(&p);
            adam.step(&mut p, &g);
        }
        let (f1, _) = rosenbrock(&p);
        assert!(f1 < f0 * 1e-3, "insufficient progress: {f0} -> {f1}");
    }

    #[test]
    fn gradient_clipping_limits_update_size() {
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.1,
            grad_clip: 1.0,
            ..AdamConfig::default()
        });
        let mut p = vec![0.0, 0.0];
        adam.step(&mut p, &[1e9, 1e9]);
        // Even with a huge gradient the first Adam step is bounded by the LR.
        for x in &p {
            assert!(x.abs() <= 0.1 + 1e-12);
        }
    }

    #[test]
    fn non_finite_gradients_are_ignored() {
        let mut adam = Adam::with_learning_rate(0.1);
        let mut p = vec![1.0, 1.0];
        adam.step(&mut p, &[f64::NAN, 0.5]);
        assert!(p[0].is_finite());
        assert!(
            (p[0] - 1.0).abs() < 1e-12,
            "NaN gradient must not move the parameter"
        );
        assert!(p[1] < 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut adam = Adam::with_learning_rate(0.1);
        let mut p = vec![1.0];
        adam.step(&mut p, &[1.0]);
        adam.reset();
        let mut q = vec![1.0];
        adam.step(&mut q, &[1.0]);
        // After a reset the first step from the same state must be identical.
        let mut adam2 = Adam::with_learning_rate(0.1);
        let mut r = vec![1.0];
        adam2.step(&mut r, &[1.0]);
        assert_eq!(q, r);
    }

    /// The plain per-parameter Adam loop with its clipping norm: the
    /// reference the dispatched step must equal bit for bit.
    struct ScalarAdam {
        config: AdamConfig,
        m: Vec<f64>,
        v: Vec<f64>,
        t: i32,
    }

    impl ScalarAdam {
        fn step(&mut self, params: &mut [f64], grad: &[f64]) {
            if self.m.len() != params.len() {
                self.m = vec![0.0; params.len()];
                self.v = vec![0.0; params.len()];
            }
            self.t += 1;
            let c = self.config;
            let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            let scale = if norm > c.grad_clip && norm > 0.0 {
                c.grad_clip / norm
            } else {
                1.0
            };
            let bc1 = 1.0 - c.beta1.powi(self.t);
            let bc2 = 1.0 - c.beta2.powi(self.t);
            for i in 0..params.len() {
                let g = grad[i] * scale;
                if !g.is_finite() {
                    continue;
                }
                self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g;
                self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g;
                let m_hat = self.m[i] / bc1;
                let v_hat = self.v[i] / bc2;
                params[i] -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
            }
        }
    }

    #[test]
    fn dispatched_step_matches_the_scalar_loop_bit_for_bit() {
        // 4,734 parameters (the paper network's size, not a multiple of the
        // vector width), 100 steps.  Every fifth step carries non-finite
        // entries, and the clip (norm 5) is active on most steps.
        let config = AdamConfig {
            learning_rate: 0.01,
            grad_clip: 5.0,
            ..AdamConfig::default()
        };
        let len = 4734;
        let mut adam = Adam::new(config);
        let mut reference = ScalarAdam {
            config,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        };
        let mut p: Vec<f64> = (0..len)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 60.0)
            .collect();
        let mut p_ref = p.clone();
        let mut clipped = 0;
        for t in 0..100 {
            let mut grad: Vec<f64> = p
                .iter()
                .enumerate()
                .map(|(i, x)| 2.0 * x + ((i * 13 + t * 7) % 29) as f64 / 29.0 - 0.5)
                .collect();
            if t % 5 == 4 {
                grad[t] = f64::NAN;
                grad[len - 1 - t] = f64::INFINITY;
                grad[2 * t + 1] = f64::NEG_INFINITY;
            }
            if grad.iter().map(|g| g * g).sum::<f64>().sqrt() > config.grad_clip {
                clipped += 1;
            }
            adam.step(&mut p, &grad);
            reference.step(&mut p_ref, &grad);
            for (i, (a, b)) in p.iter().zip(p_ref.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "step {t}, param {i}: {a} vs {b}");
            }
        }
        assert!(clipped >= 50, "the clip must be active: {clipped} of 100");
        assert_eq!(adam.m, reference.m);
        assert_eq!(adam.v, reference.v);
    }

    #[test]
    fn step_with_a_supplied_sum_of_squares_equals_step() {
        let grad = [0.3, -1.2, 4.0, f64::NAN, 0.0, 2.5];
        let sum_sq: f64 = grad.iter().map(|g| g * g).sum();
        let mut a = Adam::with_learning_rate(0.05);
        let mut b = a.clone();
        let mut pa = vec![1.0, -1.0, 0.5, 0.25, 2.0, -3.0];
        let mut pb = pa.clone();
        for _ in 0..5 {
            a.step(&mut pa, &grad);
            b.step_with_sum_sq(&mut pb, &grad, sum_sq);
        }
        assert_eq!(pa, pb);
        assert_eq!(a, b);
    }
}
