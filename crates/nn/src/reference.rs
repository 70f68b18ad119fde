//! The allocating forward and backward chain that the workspace passes of
//! [`Mlp`] replaced, kept as the test-only oracle that pins them bit for
//! bit.
//!
//! The chain clones every layer's input, keeps a separate pre-activation
//! `Z = X Wᵀ + b` per layer, maps it into a fresh output matrix, and
//! back-propagates through `grad_output ⊙ act'(Z)` with the derivative taken
//! at the pre-activation.  The methods come as extension traits, so tests
//! call them as `mlp.forward_cached(&x)` once the traits are in scope.

use nnbo_linalg::Matrix;

use crate::{Activation, DenseLayer, Mlp};

/// The activation derivative at pre-activation `x`.
pub(crate) trait ActivationReference {
    /// Derivative of the activation evaluated at pre-activation `x`.
    ///
    /// For ReLU the sub-gradient at exactly zero is taken to be 0.
    fn derivative(self, x: f64) -> f64;
}

impl ActivationReference for Activation {
    fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }
}

/// Gradient of a loss with respect to one [`DenseLayer`]'s parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerGradient {
    /// Gradient with respect to the weight matrix (same shape as the weights).
    weights: Matrix,
    /// Gradient with respect to the bias vector.
    bias: Vec<f64>,
}

impl LayerGradient {
    /// Appends the gradient values to a flat vector (same ordering as
    /// [`DenseLayer::append_params`]).
    fn append_flat(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }
}

/// The reference chain's steps through one layer.
pub(crate) trait LayerReference {
    /// Batched pre-activation `Z = X Wᵀ + b` of an `N x in` input.
    fn pre_activation(&self, input: &Matrix) -> Matrix;

    /// The parameter gradient plus `delta = grad_output ⊙ act'(z)`
    /// (`N x out`), from the cached `input` and `pre_activation`.
    fn param_gradient(
        &self,
        input: &Matrix,
        pre_activation: &Matrix,
        grad_output: &Matrix,
    ) -> (LayerGradient, Matrix);

    /// The gradient with respect to the layer input, `delta · W` (`N x in`).
    fn input_gradient(&self, delta: &Matrix) -> Matrix;
}

impl LayerReference for DenseLayer {
    fn pre_activation(&self, input: &Matrix) -> Matrix {
        let mut z = input.matmul_transpose(self.weights());
        for i in 0..z.nrows() {
            let row = z.row_mut(i);
            for (zj, bj) in row.iter_mut().zip(self.bias().iter()) {
                *zj += bj;
            }
        }
        z
    }

    fn param_gradient(
        &self,
        input: &Matrix,
        pre_activation: &Matrix,
        grad_output: &Matrix,
    ) -> (LayerGradient, Matrix) {
        let act = self.activation();
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

    fn input_gradient(&self, delta: &Matrix) -> Matrix {
        delta.matmul(self.weights())
    }
}

/// Cached intermediate values from a reference forward pass.
#[derive(Debug, Clone)]
pub(crate) struct ForwardCache {
    /// Layer inputs: `inputs[0]` is the network input, `inputs[l]` the input to layer `l`.
    inputs: Vec<Matrix>,
    /// Pre-activations of each layer.
    pre_activations: Vec<Matrix>,
    /// Final output of the network.
    output: Matrix,
}

impl ForwardCache {
    /// The network output for the batch (shape `N x output_dim`).
    pub(crate) fn output(&self) -> &Matrix {
        &self.output
    }
}

/// Gradient of a scalar loss with respect to all [`Mlp`] parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MlpGradient {
    layers: Vec<LayerGradient>,
}

impl MlpGradient {
    /// Flattens the gradient in the same ordering as [`Mlp::flat_params`].
    pub(crate) fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.append_flat(&mut out);
        out
    }

    /// Appends the flattened gradient (same ordering as [`Mlp::flat_params`])
    /// to `out`.
    pub(crate) fn append_flat(&self, out: &mut Vec<f64>) {
        for l in &self.layers {
            l.append_flat(out);
        }
    }
}

/// The reference chain through a whole network.
pub(crate) trait MlpReference {
    /// Forward pass that caches every layer's input and pre-activation.
    fn forward_cached(&self, x: &Matrix) -> ForwardCache;

    /// Back-propagates `grad_output` (∂loss/∂output, `N x output_dim`),
    /// returning the parameter gradient and ∂loss/∂input.
    fn backward(&self, cache: &ForwardCache, grad_output: &Matrix) -> (MlpGradient, Matrix);

    /// The parameter gradient of [`MlpReference::backward`] alone.
    fn param_gradient(&self, cache: &ForwardCache, grad_output: &Matrix) -> MlpGradient;
}

impl MlpReference for Mlp {
    fn forward_cached(&self, x: &Matrix) -> ForwardCache {
        assert_eq!(x.ncols(), self.input_dim(), "input dimension mismatch");
        let mut inputs = Vec::with_capacity(self.layers().len());
        let mut pre_activations = Vec::with_capacity(self.layers().len());
        let mut cur = x.clone();
        for l in self.layers() {
            inputs.push(cur.clone());
            let z = l.pre_activation(&cur);
            let act = l.activation();
            cur = z.map(|v| act.apply(v));
            pre_activations.push(z);
        }
        ForwardCache {
            inputs,
            pre_activations,
            output: cur,
        }
    }

    fn backward(&self, cache: &ForwardCache, grad_output: &Matrix) -> (MlpGradient, Matrix) {
        let (grad, first_delta) = backprop(self, cache, grad_output);
        let grad_input = self.layers()[0].input_gradient(&first_delta);
        (grad, grad_input)
    }

    fn param_gradient(&self, cache: &ForwardCache, grad_output: &Matrix) -> MlpGradient {
        backprop(self, cache, grad_output).0
    }
}

/// Back-propagation down to the first layer: the parameter gradient plus
/// the first layer's `delta`, from which its input gradient follows.
fn backprop(mlp: &Mlp, cache: &ForwardCache, grad_output: &Matrix) -> (MlpGradient, Matrix) {
    let layers = mlp.layers();
    assert_eq!(
        cache.inputs.len(),
        layers.len(),
        "forward cache does not match network depth"
    );
    assert_eq!(
        grad_output.shape(),
        cache.output.shape(),
        "gradient shape does not match cached output"
    );
    let backward_layer = |idx: usize, grad: &Matrix| {
        layers[idx].param_gradient(&cache.inputs[idx], &cache.pre_activations[idx], grad)
    };
    // An Mlp always has its output layer.
    let last = layers.len() - 1;
    let (g, mut delta) = backward_layer(last, grad_output);
    let mut per_layer: Vec<LayerGradient> = Vec::with_capacity(layers.len());
    per_layer.push(g);
    for idx in (0..last).rev() {
        let upstream = layers[idx + 1].input_gradient(&delta);
        let (g, d) = backward_layer(idx, &upstream);
        per_layer.push(g);
        delta = d;
    }
    per_layer.reverse();
    (MlpGradient { layers: per_layer }, delta)
}
