//! A single fully-connected layer.

use nnbo_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Activation;

/// A dense (fully-connected) layer `y = act(W x + b)`.
///
/// Weights are stored as an `out x in` matrix so a batched forward pass over an
/// `N x in` input matrix is `X Wᵀ + b` (row-wise).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

/// Checks what the forward and backward passes rely on: one bias per weight
/// row.
impl<'de> Deserialize<'de> for DenseLayer {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map for struct DenseLayer"))?;
        let weights: Matrix = serde::from_field(entries, "weights", "DenseLayer")?;
        let bias: Vec<f64> = serde::from_field(entries, "bias", "DenseLayer")?;
        let activation = serde::from_field(entries, "activation", "DenseLayer")?;
        if bias.len() != weights.nrows() {
            return Err(serde::DeError::new(format!(
                "DenseLayer with {} outputs holds {} biases",
                weights.nrows(),
                bias.len()
            )));
        }
        Ok(DenseLayer {
            weights,
            bias,
            activation,
        })
    }
}

/// Gradient of a loss with respect to one [`DenseLayer`]'s parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradient {
    /// Gradient with respect to the weight matrix (same shape as the weights).
    pub weights: Matrix,
    /// Gradient with respect to the bias vector.
    pub bias: Vec<f64>,
}

impl DenseLayer {
    /// Creates a layer with He-style initialisation for ReLU layers and
    /// Xavier-style initialisation otherwise.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let scale = match activation {
            Activation::ReLU => (2.0 / input_dim as f64).sqrt(),
            _ => (1.0 / input_dim as f64).sqrt(),
        };
        let mut weights = Matrix::zeros(output_dim, input_dim);
        for v in weights.as_mut_slice() {
            // Uniform in [-sqrt(3), sqrt(3)] * scale has the desired variance scale².
            *v = rng.gen_range(-1.0..1.0) * 3.0_f64.sqrt() * scale;
        }
        let bias = vec![0.0; output_dim];
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.ncols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.nrows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Number of scalar parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.nrows() * self.weights.ncols() + self.bias.len()
    }

    /// Appends the layer parameters to a flat vector (weights row-major, then bias).
    pub fn append_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Reads the layer parameters back from a flat slice, returning how many values
    /// were consumed.
    ///
    /// # Panics
    ///
    /// Panics if the slice is shorter than [`Self::num_params`].
    pub fn load_params(&mut self, flat: &[f64]) -> usize {
        let nw = self.weights.nrows() * self.weights.ncols();
        assert!(
            flat.len() >= nw + self.bias.len(),
            "parameter slice too short"
        );
        let nb = self.bias.len();
        self.weights.as_mut_slice().copy_from_slice(&flat[..nw]);
        self.bias.copy_from_slice(&flat[nw..nw + nb]);
        nw + nb
    }

    /// Batched pre-activation: `Z = X Wᵀ + b` where `X` is `N x in`.
    pub fn pre_activation(&self, input: &Matrix) -> Matrix {
        let mut z = input.matmul_transpose(&self.weights);
        for i in 0..z.nrows() {
            let row = z.row_mut(i);
            for (zj, bj) in row.iter_mut().zip(self.bias.iter()) {
                *zj += bj;
            }
        }
        z
    }

    /// Batched forward pass: activation applied to the pre-activation.
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let act = self.activation;
        self.pre_activation(input).map(|x| act.apply(x))
    }

    /// Back-propagates `grad_output` (gradient of the loss with respect to this
    /// layer's *post-activation* output, shape `N x out`).
    ///
    /// Returns the parameter gradient and the gradient with respect to the layer
    /// input (shape `N x in`), given the cached `input` and `pre_activation` from the
    /// forward pass.
    pub fn backward(
        &self,
        input: &Matrix,
        pre_activation: &Matrix,
        grad_output: &Matrix,
    ) -> (LayerGradient, Matrix) {
        let (grad, delta) = self.param_gradient(input, pre_activation, grad_output);
        (grad, self.input_gradient(&delta))
    }

    /// The parameter half of [`Self::backward`]: the parameter gradient plus
    /// `delta = grad_output ⊙ act'(z)` (shape `N x out`), from which
    /// [`Self::input_gradient`] finishes the input gradient.
    pub(crate) fn param_gradient(
        &self,
        input: &Matrix,
        pre_activation: &Matrix,
        grad_output: &Matrix,
    ) -> (LayerGradient, Matrix) {
        let act = self.activation;
        let delta = grad_output.hadamard(&pre_activation.map(|x| act.derivative(x)));
        // dW = deltaᵀ X  (out x in);  db = column sums of delta.
        let grad_weights = delta.transpose_matmul(input);
        let mut grad_bias = vec![0.0; self.output_dim()];
        for i in 0..delta.nrows() {
            for (gb, d) in grad_bias.iter_mut().zip(delta.row(i).iter()) {
                *gb += d;
            }
        }
        (
            LayerGradient {
                weights: grad_weights,
                bias: grad_bias,
            },
            delta,
        )
    }

    /// The gradient with respect to the layer input, `delta · W` (shape
    /// `N x in`), from the `delta` of [`Self::param_gradient`].
    pub(crate) fn input_gradient(&self, delta: &Matrix) -> Matrix {
        delta.matmul(&self.weights)
    }
}

impl LayerGradient {
    /// A zero gradient with the same shape as `layer`.
    pub fn zeros_like(layer: &DenseLayer) -> Self {
        LayerGradient {
            weights: Matrix::zeros(layer.output_dim(), layer.input_dim()),
            bias: vec![0.0; layer.output_dim()],
        }
    }

    /// Appends the gradient values to a flat vector (same ordering as
    /// [`DenseLayer::append_params`]).
    pub fn append_flat(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = DenseLayer::new(3, 2, Activation::Identity, &mut rng);
        // Overwrite with known parameters.
        let flat = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.5, -0.5];
        layer.load_params(&flat);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (1, 2));
        assert!((y[(0, 0)] - 1.5).abs() < 1e-12);
        assert!((y[(0, 1)] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = DenseLayer::new(4, 3, Activation::ReLU, &mut rng);
        let mut flat = Vec::new();
        layer.append_params(&mut flat);
        assert_eq!(flat.len(), layer.num_params());
        let mut copy = layer.clone();
        let consumed = copy.load_params(&flat);
        assert_eq!(consumed, layer.num_params());
        assert_eq!(copy, layer);
    }

    #[test]
    fn relu_layer_zeroes_negative_preactivations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = DenseLayer::new(1, 1, Activation::ReLU, &mut rng);
        layer.load_params(&[-1.0, 0.0]);
        let y = layer.forward(&Matrix::from_rows(&[vec![2.0]]));
        assert_eq!(y[(0, 0)], 0.0);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = DenseLayer::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.4, 0.9], vec![1.1, 0.2, -0.6]]);
        // Loss = sum of outputs, so grad_output is all ones.
        let loss = |l: &DenseLayer| l.forward(&x).sum();
        let grad_out = Matrix::filled(2, 2, 1.0);
        let z = layer.pre_activation(&x);
        let (grad, _) = layer.backward(&x, &z, &grad_out);

        let mut flat = Vec::new();
        layer.append_params(&mut flat);
        let mut grad_flat = Vec::new();
        grad.append_flat(&mut grad_flat);

        let h = 1e-6;
        for k in 0..flat.len() {
            let mut plus = flat.clone();
            plus[k] += h;
            let mut minus = flat.clone();
            minus[k] -= h;
            let mut lp = layer.clone();
            lp.load_params(&plus);
            let mut lm = layer.clone();
            lm.load_params(&minus);
            let fd = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!(
                (fd - grad_flat[k]).abs() < 1e-5,
                "param {k}: fd {fd} vs analytic {}",
                grad_flat[k]
            );
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = DenseLayer::new(2, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.5, -0.2]]);
        let grad_out = Matrix::filled(1, 3, 1.0);
        let z = layer.pre_activation(&x);
        let (_, grad_in) = layer.backward(&x, &z, &grad_out);
        let h = 1e-6;
        for j in 0..2 {
            let mut xp = x.clone();
            xp[(0, j)] += h;
            let mut xm = x.clone();
            xm[(0, j)] -= h;
            let fd = (layer.forward(&xp).sum() - layer.forward(&xm).sum()) / (2.0 * h);
            assert!((fd - grad_in[(0, j)]).abs() < 1e-5);
        }
    }
}
