//! Multi-layer perceptron built from [`DenseLayer`]s.

use nnbo_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, DenseLayer, LayerGradient};

/// Configuration of an [`Mlp`]: input dimension, hidden widths and output width.
///
/// The paper's feature network (Fig. 1) is "4 fully-connected layers including an
/// input layer, 2 hidden layers and an output layer" with ReLU activations; that
/// corresponds to `MlpConfig::new(d, &[h, h], m)` with the default activations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    input_dim: usize,
    hidden_dims: Vec<usize>,
    output_dim: usize,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl MlpConfig {
    /// Creates a configuration with the given layer sizes, ReLU hidden activations
    /// and a linear output layer.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero, or any hidden width is zero.
    pub fn new(input_dim: usize, hidden_dims: &[usize], output_dim: usize) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(output_dim > 0, "output dimension must be positive");
        assert!(
            hidden_dims.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        MlpConfig {
            input_dim,
            hidden_dims: hidden_dims.to_vec(),
            output_dim,
            hidden_activation: Activation::ReLU,
            output_activation: Activation::Identity,
        }
    }

    /// Sets the hidden-layer activation.
    pub fn with_hidden_activation(mut self, activation: Activation) -> Self {
        self.hidden_activation = activation;
        self
    }

    /// Sets the output-layer activation.
    pub fn with_output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden layer widths.
    pub fn hidden_dims(&self) -> &[usize] {
        &self.hidden_dims
    }

    /// Output (feature) dimension.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }
}

/// Cached intermediate values from a forward pass, needed for back-propagation.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Layer inputs: `inputs[0]` is the network input, `inputs[l]` the input to layer `l`.
    inputs: Vec<Matrix>,
    /// Pre-activations of each layer.
    pre_activations: Vec<Matrix>,
    /// Final output of the network.
    output: Matrix,
}

impl ForwardCache {
    /// The network output for the batch (shape `N x output_dim`).
    pub fn output(&self) -> &Matrix {
        &self.output
    }
}

/// Gradient of a scalar loss with respect to all [`Mlp`] parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGradient {
    layers: Vec<LayerGradient>,
}

impl MlpGradient {
    /// Flattens the gradient in the same ordering as [`Mlp::flat_params`].
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.append_flat(&mut out);
        out
    }

    /// Appends the flattened gradient (same ordering as [`Mlp::flat_params`])
    /// to `out` without allocating a fresh vector — training loops that reuse
    /// one gradient buffer across epochs clear and refill it through this.
    pub fn append_flat(&self, out: &mut Vec<f64>) {
        for l in &self.layers {
            l.append_flat(out);
        }
    }

    /// Per-layer gradients.
    pub fn layers(&self) -> &[LayerGradient] {
        &self.layers
    }
}

/// A multi-layer perceptron.
///
/// In this workspace the MLP is used as a *feature map* `φ: R^d → R^M`: the output
/// of the network is not a prediction by itself but the feature vector that defines
/// the Gaussian-process kernel of the paper's surrogate model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<DenseLayer>,
}

/// Checks what the passes through the network rely on: one layer per width
/// step of the config, each mapping the previous width to the next.
impl<'de> Deserialize<'de> for Mlp {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map for struct Mlp"))?;
        let config: MlpConfig = serde::from_field(entries, "config", "Mlp")?;
        let layers: Vec<DenseLayer> = serde::from_field(entries, "layers", "Mlp")?;
        let widths: Vec<usize> = std::iter::once(config.input_dim)
            .chain(config.hidden_dims.iter().copied())
            .chain(std::iter::once(config.output_dim))
            .collect();
        if layers.len() + 1 != widths.len() {
            return Err(serde::DeError::new(format!(
                "Mlp config has {} layers, the payload {}",
                widths.len() - 1,
                layers.len()
            )));
        }
        for (i, (layer, pair)) in layers.iter().zip(widths.windows(2)).enumerate() {
            if (layer.input_dim(), layer.output_dim()) != (pair[0], pair[1]) {
                return Err(serde::DeError::new(format!(
                    "Mlp layer {i} maps {} to {} values, its config {} to {}",
                    layer.input_dim(),
                    layer.output_dim(),
                    pair[0],
                    pair[1]
                )));
            }
        }
        Ok(Mlp { config, layers })
    }
}

impl Mlp {
    /// Creates a network with freshly initialised weights.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Self {
        let mut layers = Vec::new();
        let mut prev = config.input_dim;
        for &h in &config.hidden_dims {
            layers.push(DenseLayer::new(prev, h, config.hidden_activation, rng));
            prev = h;
        }
        layers.push(DenseLayer::new(
            prev,
            config.output_dim,
            config.output_activation,
            rng,
        ));
        Mlp {
            config: config.clone(),
            layers,
        }
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// The layers of the network, input to output.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.config.input_dim
    }

    /// Output (feature) dimension.
    pub fn output_dim(&self) -> usize {
        self.config.output_dim
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(DenseLayer::num_params).sum()
    }

    /// All parameters flattened into one vector (layer by layer, weights then bias).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            l.append_params(&mut out);
        }
        out
    }

    /// Loads parameters from a flat vector produced by [`Self::flat_params`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != num_params()`.
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "parameter count mismatch");
        let mut offset = 0;
        for l in &mut self.layers {
            offset += l.load_params(&flat[offset..]);
        }
    }

    /// Forward pass for a single input point, returning the feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let out = self.forward_batch(&Matrix::from_rows(&[x.to_vec()]));
        out.row(0).to_vec()
    }

    /// Batched forward pass: `X` is `N x input_dim`, the result is `N x output_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `x.ncols() != input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.ncols(), self.input_dim(), "input dimension mismatch");
        let mut cur = x.clone();
        for l in &self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    /// Forward pass that caches everything back-propagation needs.
    ///
    /// # Panics
    ///
    /// Panics if `x.ncols() != input_dim()`.
    pub fn forward_cached(&self, x: &Matrix) -> ForwardCache {
        assert_eq!(x.ncols(), self.input_dim(), "input dimension mismatch");
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for l in &self.layers {
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

    /// Back-propagates `grad_output` (∂loss/∂output, shape `N x output_dim`) through
    /// the network, returning the parameter gradient and ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match this network's layer count or the gradient
    /// shape does not match the cached output.
    pub fn backward(&self, cache: &ForwardCache, grad_output: &Matrix) -> (MlpGradient, Matrix) {
        let (grad, first_delta) = self.backprop(cache, grad_output);
        let grad_input = self.layers[0].input_gradient(&first_delta);
        (grad, grad_input)
    }

    /// The parameter gradient of [`Self::backward`] alone.  It skips
    /// ∂loss/∂input, and with it the first layer's `N x h · h x d` product,
    /// for training loops that never read the input gradient.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::backward`].
    pub fn param_gradient(&self, cache: &ForwardCache, grad_output: &Matrix) -> MlpGradient {
        self.backprop(cache, grad_output).0
    }

    /// Back-propagation down to the first layer: the parameter gradient plus
    /// the first layer's `delta`, from which its input gradient follows.
    fn backprop(&self, cache: &ForwardCache, grad_output: &Matrix) -> (MlpGradient, Matrix) {
        assert_eq!(
            cache.inputs.len(),
            self.layers.len(),
            "forward cache does not match network depth"
        );
        assert_eq!(
            grad_output.shape(),
            cache.output.shape(),
            "gradient shape does not match cached output"
        );
        let backward_layer = |idx: usize, grad: &Matrix| {
            self.layers[idx].param_gradient(&cache.inputs[idx], &cache.pre_activations[idx], grad)
        };
        // An Mlp always has its output layer.
        let last = self.layers.len() - 1;
        let (g, mut delta) = backward_layer(last, grad_output);
        let mut per_layer: Vec<LayerGradient> = Vec::with_capacity(self.layers.len());
        per_layer.push(g);
        for idx in (0..last).rev() {
            let upstream = self.layers[idx + 1].input_gradient(&delta);
            // Free the spent delta before this layer allocates its own, so no
            // more N-row buffers are live at once than one layer needs.
            drop(delta);
            let (g, d) = backward_layer(idx, &upstream);
            per_layer.push(g);
            delta = d;
        }
        per_layer.reverse();
        (MlpGradient { layers: per_layer }, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_mlp(seed: u64) -> Mlp {
        let config = MlpConfig::new(3, &[5, 4], 2).with_hidden_activation(Activation::Tanh);
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&config, &mut rng)
    }

    #[test]
    fn shapes_are_consistent() {
        let mlp = small_mlp(1);
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        let y = mlp.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 2);
        let batch = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![1.0, -1.0, 0.5]]);
        assert_eq!(mlp.forward_batch(&batch).shape(), (2, 2));
    }

    #[test]
    fn single_and_batch_forward_agree() {
        let mlp = small_mlp(2);
        let x = vec![0.4, -0.9, 1.3];
        let single = mlp.forward(&x);
        let batch = mlp.forward_batch(&Matrix::from_rows(std::slice::from_ref(&x)));
        for j in 0..2 {
            assert!((single[j] - batch[(0, j)]).abs() < 1e-14);
        }
    }

    #[test]
    fn flat_params_roundtrip() {
        let mlp = small_mlp(3);
        let flat = mlp.flat_params();
        assert_eq!(flat.len(), mlp.num_params());
        let mut copy = small_mlp(99);
        assert_ne!(copy.flat_params(), flat);
        copy.set_flat_params(&flat);
        assert_eq!(copy.flat_params(), flat);
        let x = [0.3, 0.1, -0.2];
        assert_eq!(copy.forward(&x), mlp.forward(&x));
    }

    #[test]
    fn param_gradient_equals_the_gradient_of_backward() {
        let mlp = small_mlp(9);
        let x = Matrix::from_rows(&[vec![0.2, -0.5, 0.8], vec![-0.3, 0.6, 0.1]]);
        let cache = mlp.forward_cached(&x);
        let grad_out = cache.output().map(|v| 2.0 * v - 0.1);
        let (full, _) = mlp.backward(&cache, &grad_out);
        assert_eq!(mlp.param_gradient(&cache, &grad_out), full);
    }

    #[test]
    fn gradient_append_flat_reuses_the_buffer() {
        let mlp = small_mlp(8);
        let x = Matrix::from_rows(&[vec![0.2, -0.5, 0.8]]);
        let cache = mlp.forward_cached(&x);
        let grad_out = Matrix::filled(1, 2, 1.0);
        let (grad, _) = mlp.backward(&cache, &grad_out);
        let mut buf = vec![42.0; 3];
        buf.clear();
        grad.append_flat(&mut buf);
        assert_eq!(buf, grad.to_flat());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mlp = small_mlp(4);
        let x = Matrix::from_rows(&[vec![0.2, -0.5, 0.8], vec![-0.3, 0.6, 0.1]]);
        // Scalar loss: sum of squares of the outputs.
        let loss = |m: &Mlp| {
            let out = m.forward_batch(&x);
            out.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let cache = mlp.forward_cached(&x);
        let grad_out = cache.output().map(|v| 2.0 * v);
        let (grad, _) = mlp.backward(&cache, &grad_out);
        let analytic = grad.to_flat();

        let base = mlp.flat_params();
        let h = 1e-6;
        let mut max_err = 0.0_f64;
        for k in 0..base.len() {
            let mut plus = base.clone();
            plus[k] += h;
            let mut minus = base.clone();
            minus[k] -= h;
            let mut mp = mlp.clone();
            mp.set_flat_params(&plus);
            let mut mm = mlp.clone();
            mm.set_flat_params(&minus);
            let fd = (loss(&mp) - loss(&mm)) / (2.0 * h);
            max_err = max_err.max((fd - analytic[k]).abs());
        }
        assert!(max_err < 1e-4, "max gradient error {max_err}");
    }

    #[test]
    fn backward_input_gradient_matches_finite_differences() {
        let mlp = small_mlp(5);
        let x = Matrix::from_rows(&[vec![0.7, -0.1, 0.4]]);
        let cache = mlp.forward_cached(&x);
        let grad_out = Matrix::filled(1, 2, 1.0);
        let (_, grad_in) = mlp.backward(&cache, &grad_out);
        let h = 1e-6;
        for j in 0..3 {
            let mut xp = x.clone();
            xp[(0, j)] += h;
            let mut xm = x.clone();
            xm[(0, j)] -= h;
            let fd = (mlp.forward_batch(&xp).sum() - mlp.forward_batch(&xm).sum()) / (2.0 * h);
            assert!((fd - grad_in[(0, j)]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dimension_panics() {
        let mlp = small_mlp(6);
        let _ = mlp.forward(&[1.0, 2.0]);
    }

    #[test]
    fn relu_network_is_piecewise_linear_in_scale() {
        // Scaling a positive-activation input by a positive factor scales a bias-free
        // ReLU network's output by the same factor (positive homogeneity).
        let config = MlpConfig::new(2, &[8], 3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&config, &mut rng);
        // Zero the biases so homogeneity holds exactly.
        let mut flat = mlp.flat_params();
        // Layer 0: 2*8 weights then 8 biases; layer 1: 8*3 weights then 3 biases.
        for b in flat.iter_mut().skip(16).take(8) {
            *b = 0.0;
        }
        let len = flat.len();
        for b in flat.iter_mut().skip(len - 3) {
            *b = 0.0;
        }
        mlp.set_flat_params(&flat);
        let x = [0.3, 0.9];
        let y1 = mlp.forward(&x);
        let y2 = mlp.forward(&[x[0] * 2.0, x[1] * 2.0]);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-10);
        }
    }
}
