//! Elementwise activation functions.

use serde::{Deserialize, Serialize};

/// Elementwise activation function used by [`crate::DenseLayer`].
///
/// The paper's feature network uses ReLU in the hidden layers (Fig. 1); the output
/// layer is linear (identity) so that the features can take arbitrary sign, and Tanh
/// is provided for experimentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    #[default]
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear) activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// The derivative at pre-activation `x`, read off the activation's
    /// *output* `a = apply(x)`: `1` where `a > 0` else `0` for ReLU (`apply`
    /// maps zero, negative and NaN inputs all to `0`), `1 − a·a` for Tanh
    /// and `1` for Identity.  These are the operations the derivative at `x`
    /// performs, so back-propagation needs only the layer outputs, not the
    /// pre-activations, and gets the same bits.  For ReLU the sub-gradient
    /// at exactly zero is taken to be 0.
    pub fn output_derivative(self, a: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ActivationReference;

    #[test]
    fn relu_values_and_derivative() {
        assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
        assert_eq!(Activation::ReLU.apply(3.0), 3.0);
        assert_eq!(Activation::ReLU.derivative(-1.0), 0.0);
        assert_eq!(Activation::ReLU.derivative(1.0), 1.0);
    }

    #[test]
    fn tanh_matches_std() {
        let x = 0.7;
        assert!((Activation::Tanh.apply(x) - x.tanh()).abs() < 1e-15);
        let d = Activation::Tanh.derivative(x);
        assert!((d - (1.0 - x.tanh() * x.tanh())).abs() < 1e-15);
    }

    #[test]
    fn identity_is_transparent() {
        assert_eq!(Activation::Identity.apply(-5.5), -5.5);
        assert_eq!(Activation::Identity.derivative(123.0), 1.0);
    }

    #[test]
    fn output_derivative_reproduces_the_pre_activation_derivative_bit_for_bit() {
        let xs = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            1e-300,
            0.37,
            -2.5,
            19.0,
            -19.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for act in [Activation::ReLU, Activation::Tanh, Activation::Identity] {
            for &x in &xs {
                assert_eq!(
                    act.output_derivative(act.apply(x)).to_bits(),
                    act.derivative(x).to_bits(),
                    "{act:?} at {x}"
                );
            }
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::ReLU, Activation::Tanh, Activation::Identity] {
            for &x in &[-1.3, -0.2, 0.4, 2.1] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!(
                    (act.derivative(x) - fd).abs() < 1e-5,
                    "{act:?} derivative mismatch at {x}"
                );
            }
        }
    }
}
