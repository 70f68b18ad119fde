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

    /// Batched forward pass `act(X Wᵀ + b)` of an `N x in` input, written
    /// into `out` (given the `N x out` shape if it has another).  The product
    /// goes in first; one sweep then adds the bias and applies the
    /// activation, so no separate pre-activation is kept.
    pub(crate) fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        fit_shape(out, input.nrows(), self.output_dim());
        input.matmul_transpose_into(&self.weights, out);
        match self.activation {
            Activation::ReLU => self.add_bias_then(out, |z| Activation::ReLU.apply(z)),
            Activation::Tanh => self.add_bias_then(out, |z| Activation::Tanh.apply(z)),
            Activation::Identity => self.add_bias_then(out, |z| z),
        }
    }

    /// `out[i][j] = act(out[i][j] + b[j])` over every row.
    fn add_bias_then(&self, out: &mut Matrix, act: impl Fn(f64) -> f64) {
        for row in out
            .as_mut_slice()
            .chunks_exact_mut(self.output_dim().max(1))
        {
            for (v, b) in row.iter_mut().zip(&self.bias) {
                *v = act(*v + b);
            }
        }
    }

    /// One layer of back-propagation over the `input` and `output` of its
    /// forward pass.
    ///
    /// `delta` holds ∂loss/∂output (`N x out`) on entry and is turned in
    /// place into `delta = ∂loss/∂output ⊙ act'`, the derivative read off
    /// `output` ([`Activation::output_derivative`]).  Then `dW = deltaᵀ X`
    /// goes through `weight_grad` into `grad[..out·in]` and the bias
    /// gradient, the column sums of `delta`, into the rest of `grad` (this
    /// layer's slice of the flat gradient, [`Self::append_params`] order).
    /// With `upstream`, the gradient with respect to the layer input,
    /// `delta · W` (`N x in`), is written there too.
    pub(crate) fn backward_into(
        &self,
        input: &Matrix,
        output: &Matrix,
        delta: &mut Matrix,
        weight_grad: &mut Matrix,
        grad: &mut [f64],
        upstream: Option<&mut Matrix>,
    ) {
        assert_eq!(
            delta.shape(),
            output.shape(),
            "delta does not match the output"
        );
        assert_eq!(
            grad.len(),
            self.num_params(),
            "gradient slice does not match the layer"
        );
        let act = self.activation;
        // Identity's derivative is 1, and a product with 1 keeps every bit.
        if act != Activation::Identity {
            for (d, &a) in delta.as_mut_slice().iter_mut().zip(output.as_slice()) {
                *d *= act.output_derivative(a);
            }
        }
        fit_shape(weight_grad, self.output_dim(), self.input_dim());
        delta.transpose_matmul_into(input, weight_grad);
        let (grad_weights, grad_bias) = grad.split_at_mut(weight_grad.as_slice().len());
        grad_weights.copy_from_slice(weight_grad.as_slice());
        grad_bias.fill(0.0);
        for row in delta.as_slice().chunks_exact(self.output_dim().max(1)) {
            for (gb, d) in grad_bias.iter_mut().zip(row) {
                *gb += d;
            }
        }
        if let Some(upstream) = upstream {
            fit_shape(upstream, delta.nrows(), self.input_dim());
            delta.matmul_into(&self.weights, upstream);
        }
    }
}

/// Gives `m` the shape `rows x cols`, reallocating only when it has another
/// one; the passes overwrite every entry, so the values are left as they are.
fn fit_shape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        *m = Matrix::zeros(rows, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forward(layer: &DenseLayer, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        layer.forward_into(x, &mut out);
        out
    }

    /// The flat parameter gradient and the input gradient of `grad_out`.
    fn backward(layer: &DenseLayer, x: &Matrix, grad_out: &Matrix) -> (Vec<f64>, Matrix) {
        let out = forward(layer, x);
        let mut delta = grad_out.clone();
        let mut weight_grad = Matrix::zeros(0, 0);
        let mut grad = vec![0.0; layer.num_params()];
        let mut upstream = Matrix::zeros(0, 0);
        layer.backward_into(
            x,
            &out,
            &mut delta,
            &mut weight_grad,
            &mut grad,
            Some(&mut upstream),
        );
        (grad, upstream)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = DenseLayer::new(3, 2, Activation::Identity, &mut rng);
        // Overwrite with known parameters.
        let flat = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.5, -0.5];
        layer.load_params(&flat);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let y = forward(&layer, &x);
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
        let y = forward(&layer, &Matrix::from_rows(&[vec![2.0]]));
        assert_eq!(y[(0, 0)], 0.0);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = DenseLayer::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.4, 0.9], vec![1.1, 0.2, -0.6]]);
        // Loss = sum of outputs, so grad_output is all ones.
        let loss = |l: &DenseLayer| forward(l, &x).sum();
        let grad_out = Matrix::filled(2, 2, 1.0);
        let (grad_flat, _) = backward(&layer, &x, &grad_out);

        let mut flat = Vec::new();
        layer.append_params(&mut flat);

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
        let (_, grad_in) = backward(&layer, &x, &grad_out);
        let h = 1e-6;
        for j in 0..2 {
            let mut xp = x.clone();
            xp[(0, j)] += h;
            let mut xm = x.clone();
            xm[(0, j)] -= h;
            let fd = (forward(&layer, &xp).sum() - forward(&layer, &xm).sum()) / (2.0 * h);
            assert!((fd - grad_in[(0, j)]).abs() < 1e-5);
        }
    }
}
