//! Feed-forward neural-network substrate for the `nnbo` workspace.
//!
//! The paper's surrogate model replaces the explicit Gaussian-process kernel by a
//! learned feature map: a fully-connected network with two hidden layers and ReLU
//! activations (Fig. 1) whose output features `φ(x)` define the kernel
//! `k(x1,x2) = φ(x1)ᵀ Σp φ(x2)`.  This crate provides exactly the pieces that the
//! neural GP needs:
//!
//! * [`Mlp`] — a multi-layer perceptron whose batched forward pass and
//!   back-propagation run through an [`MlpWorkspace`] of reused buffers.
//!   The forward pass borrows its input, writes each layer's `X·Wᵀ` into
//!   that layer's output buffer, then adds the bias and applies the
//!   activation in the same sweep; only the layer outputs are kept, because
//!   every activation's derivative is read off its output
//!   ([`Activation::output_derivative`]).  The backward pass turns each
//!   upstream gradient into the layer's delta in place and writes the weight
//!   gradient, bias gradient and next upstream gradient into the workspace,
//!   so a training loop that keeps one workspace allocates in its first
//!   epoch only;
//! * [`Activation`] — ReLU / Tanh / Identity activations;
//! * [`Adam`] — the first-order optimizer, operating on flat parameter vectors
//!   so that network weights and GP hyper-parameters can be optimized jointly;
//! * gradient checking helpers used by the test-suite.
//!
//! # Example
//!
//! ```
//! use nnbo_nn::{Activation, Mlp, MlpConfig};
//! use rand::SeedableRng;
//!
//! let config = MlpConfig::new(2, &[16, 16], 8)
//!     .with_hidden_activation(Activation::ReLU);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mlp = Mlp::new(&config, &mut rng);
//! let features = mlp.forward(&[0.3, -0.7]);
//! assert_eq!(features.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod gradcheck;
mod layer;
mod mlp;
mod optimizer;
#[cfg(test)]
mod reference;

pub use activation::Activation;
pub use gradcheck::finite_difference_gradient;
pub use layer::DenseLayer;
pub use mlp::{Mlp, MlpConfig, MlpWorkspace};
pub use optimizer::{Adam, AdamConfig, Optimizer};
