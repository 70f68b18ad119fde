//! Multi-layer perceptron built from [`DenseLayer`]s.
//!
//! Both passes run over an [`MlpWorkspace`]: one buffer per layer output,
//! per hidden layer's upstream gradient and per weight gradient, each
//! reallocated only when the batch size changes.  The forward pass adds
//! the bias and applies the activation in the sweep that follows each
//! layer's product, and the backward pass reads the activation derivatives
//! off those outputs, so no input copy and no pre-activation is kept.  The
//! allocating chain they replaced, with per-layer input clones and separate
//! pre-activation, bias and map matrices, is kept in the test-only
//! `reference` module, which pins both passes bit for bit.

use nnbo_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, DenseLayer};

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

/// Reusable buffers of the batched passes through an [`Mlp`].
///
/// [`Mlp::forward_into`] writes every layer's output here, and
/// [`Mlp::backward_into`] reads them back (the activation derivatives come
/// off the outputs, so no pre-activation is kept) and writes its upstream
/// gradients and weight gradients here too.  Every buffer takes its shape
/// from the first pass that needs it and is reallocated only when a later
/// pass needs another, so a training loop that keeps one workspace for its
/// whole descent allocates in its first epoch only.  Any number of rows
/// (batch size `N`) works with any workspace.
#[derive(Debug, Default)]
pub struct MlpWorkspace {
    /// `outputs[l]`: layer `l`'s output (`N x width`); the last one is the
    /// network output.
    outputs: Vec<Matrix>,
    /// `upstream[l]`: ∂loss/∂`outputs[l]` of each hidden layer, turned into
    /// that layer's delta in place.
    upstream: Vec<Matrix>,
    /// `weight_grads[l]`: ∂loss/∂W of layer `l`.
    weight_grads: Vec<Matrix>,
}

impl MlpWorkspace {
    /// An empty workspace; the first pass sizes it.
    pub fn new() -> Self {
        Self::default()
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
    /// It runs [`Self::forward_into`] on a fresh workspace.
    ///
    /// # Panics
    ///
    /// Panics if `x.ncols() != input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut ws = MlpWorkspace::new();
        self.forward_into(x, &mut ws);
        ws.outputs
            .pop()
            .expect("an Mlp always has its output layer")
    }

    /// Batched forward pass of `X` (`N x input_dim`) through `ws`, returning
    /// the network output (`N x output_dim`).  `X` is borrowed, not copied.
    /// Each layer writes `input · Wᵀ` into its output buffer, then adds the
    /// bias and applies the activation in the same sweep.  The outputs stay
    /// in `ws` for [`Self::backward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.ncols() != input_dim()`.
    pub fn forward_into<'w>(&self, x: &Matrix, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        assert_eq!(x.ncols(), self.input_dim(), "input dimension mismatch");
        ws.outputs
            .resize_with(self.layers.len(), || Matrix::zeros(0, 0));
        for (idx, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.outputs.split_at_mut(idx);
            layer.forward_into(done.last().unwrap_or(x), &mut rest[0]);
        }
        ws.outputs
            .last()
            .expect("an Mlp always has its output layer")
    }

    /// Back-propagates `grad_output` (∂loss/∂output, `N x output_dim`) through
    /// the last [`Self::forward_into`] pass of `x` in `ws` and writes the
    /// parameter gradient into `grad`, in [`Self::flat_params`] order.
    ///
    /// Each layer turns its ∂loss/∂output into its delta in place, with the
    /// activation derivative read off the layer output, and writes `dW`,
    /// `db` and (above the first layer) the upstream gradient `delta · W`
    /// into `ws`; `grad_output` itself becomes the output layer's delta.
    /// ∂loss/∂input is not formed, so the first layer's `N x h · h x d`
    /// product is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `ws` holds no forward pass of this network, `grad_output`
    /// does not match its output, or `grad.len() != num_params()`.
    pub fn backward_into(
        &self,
        x: &Matrix,
        ws: &mut MlpWorkspace,
        grad_output: &mut Matrix,
        grad: &mut [f64],
    ) {
        let depth = self.layers.len();
        let MlpWorkspace {
            outputs,
            upstream,
            weight_grads,
        } = ws;
        assert!(
            outputs.len() == depth
                && outputs
                    .iter()
                    .zip(&self.layers)
                    .all(|(out, layer)| out.shape() == (x.nrows(), layer.output_dim())),
            "workspace holds no forward pass of this network over this input"
        );
        assert_eq!(
            grad_output.shape(),
            outputs[depth - 1].shape(),
            "gradient shape does not match the network output"
        );
        assert_eq!(grad.len(), self.num_params(), "gradient length mismatch");
        upstream.resize_with(depth - 1, || Matrix::zeros(0, 0));
        weight_grads.resize_with(depth, || Matrix::zeros(0, 0));
        let mut end = grad.len();
        for idx in (0..depth).rev() {
            let layer = &self.layers[idx];
            let input = if idx == 0 { x } else { &outputs[idx - 1] };
            let (below, this) = upstream.split_at_mut(idx);
            let delta = if idx == depth - 1 {
                &mut *grad_output
            } else {
                &mut this[0]
            };
            let start = end - layer.num_params();
            layer.backward_into(
                input,
                &outputs[idx],
                delta,
                &mut weight_grads[idx],
                &mut grad[start..end],
                below.last_mut(),
            );
            end = start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{LayerReference, MlpReference};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The reference chain's output and flat parameter gradient, with the
    /// output gradient `grad_of(output)`.
    fn reference_pass(mlp: &Mlp, x: &Matrix, grad_of: fn(&Matrix) -> Matrix) -> (Matrix, Vec<f64>) {
        let cache = mlp.forward_cached(x);
        let grad = mlp.param_gradient(&cache, &grad_of(cache.output()));
        (cache.output().clone(), grad.to_flat())
    }

    /// The same through `ws`.
    fn workspace_pass(
        mlp: &Mlp,
        x: &Matrix,
        ws: &mut MlpWorkspace,
        grad_of: fn(&Matrix) -> Matrix,
    ) -> (Matrix, Vec<f64>) {
        let out = mlp.forward_into(x, ws).clone();
        let mut grad_out = grad_of(&out);
        let mut grad = vec![f64::NAN; mlp.num_params()];
        mlp.backward_into(x, ws, &mut grad_out, &mut grad);
        (out, grad)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `n` seeded rows of width `d`.  Row 0 is all zeros, so every unit
    /// whose bias is zero has an exactly zero pre-activation there; row 1
    /// (when `n > 2`) carries a NaN, so its pre-activations are NaN.
    fn probe_input(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, d);
        for i in 1..n {
            for v in x.row_mut(i) {
                *v = rng.gen_range(-1.5..1.5);
            }
        }
        if n > 2 {
            x[(1, d / 2)] = f64::NAN;
        }
        x
    }

    /// A network whose layers' even-numbered biases are zero and the rest
    /// seeded, so the zero input row hits ReLU's exact zero.
    fn probe_mlp(d: usize, hidden: &[usize], m: usize, act: Activation, seed: u64) -> Mlp {
        let config = MlpConfig::new(d, hidden, m).with_hidden_activation(act);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&config, &mut rng);
        let mut flat = mlp.flat_params();
        let mut offset = 0;
        for layer in mlp.layers() {
            let nw = layer.input_dim() * layer.output_dim();
            for (j, b) in flat[offset + nw..offset + layer.num_params()]
                .iter_mut()
                .enumerate()
            {
                *b = if j % 2 == 0 {
                    0.0
                } else {
                    rng.gen_range(-0.5..0.5)
                };
            }
            offset += layer.num_params();
        }
        mlp.set_flat_params(&flat);
        mlp
    }

    #[test]
    fn workspace_passes_match_the_reference_chain_bit_for_bit() {
        let grad_of: fn(&Matrix) -> Matrix = |out| out.map(|v| 2.0 * v - 0.1);
        let shapes: [(usize, &[usize], usize); 3] =
            [(3, &[6, 5], 4), (10, &[50, 50], 32), (4, &[], 3)];
        let check = || {
            for act in [Activation::ReLU, Activation::Tanh, Activation::Identity] {
                for (s, &(d, hidden, m)) in shapes.iter().enumerate() {
                    let mlp = probe_mlp(d, hidden, m, act, 40 + s as u64);
                    // One workspace while N shrinks and grows, across the
                    // direct GEMM's k-block for dW = deltaᵀ·X.
                    let mut ws = MlpWorkspace::new();
                    for (t, n) in [65, 7, 1, 100, 3, 300, 65].into_iter().enumerate() {
                        let x = probe_input(n, d, 100 * s as u64 + t as u64);
                        let (ref_out, ref_grad) = reference_pass(&mlp, &x, grad_of);
                        let (out, grad) = workspace_pass(&mlp, &x, &mut ws, grad_of);
                        let what = format!("{act:?}, {d}-{hidden:?}-{m}, N = {n}");
                        assert_eq!(
                            bits(out.as_slice()),
                            bits(ref_out.as_slice()),
                            "output, {what}"
                        );
                        assert_eq!(bits(&grad), bits(&ref_grad), "gradient, {what}");
                        assert_eq!(
                            bits(mlp.forward_batch(&x).as_slice()),
                            bits(ref_out.as_slice()),
                            "forward_batch, {what}"
                        );
                        if act == Activation::ReLU && d == 3 {
                            // The probe hits what it is meant to hit.
                            let z = mlp.layers()[0].pre_activation(&x);
                            assert_eq!(z[(0, 0)], 0.0, "{what}");
                            if n > 2 {
                                assert!(z[(1, 0)].is_nan(), "{what}");
                            }
                        }
                    }
                }
            }
        };
        check();
        nnbo_linalg::with_portable_kernels(check);
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
        let mut ws = MlpWorkspace::new();
        let mut grad_out = mlp.forward_into(&x, &mut ws).map(|v| 2.0 * v);
        let mut analytic = vec![0.0; mlp.num_params()];
        mlp.backward_into(&x, &mut ws, &mut grad_out, &mut analytic);

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
