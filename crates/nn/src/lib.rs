//! Feed-forward neural-network substrate for the `nnbo` workspace.
//!
//! The paper's surrogate model replaces the explicit Gaussian-process kernel by a
//! learned feature map: a fully-connected network with two hidden layers and ReLU
//! activations (Fig. 1) whose output features `φ(x)` define the kernel
//! `k(x1,x2) = φ(x1)ᵀ Σp φ(x2)`.  This crate provides exactly the pieces that the
//! neural GP needs:
//!
//! * [`Mlp`] — a multi-layer perceptron with batched forward pass and full
//!   back-propagation through cached activations;
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

pub use activation::Activation;
pub use gradcheck::finite_difference_gradient;
pub use layer::{DenseLayer, LayerGradient};
pub use mlp::{ForwardCache, Mlp, MlpConfig, MlpGradient};
pub use optimizer::{Adam, AdamConfig, Optimizer};
