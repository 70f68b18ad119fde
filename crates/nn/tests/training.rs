//! Integration tests: train small MLPs end-to-end on regression tasks.

use nnbo_linalg::Matrix;
use nnbo_nn::{Activation, Adam, Mlp, MlpConfig, MlpWorkspace, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trains `mlp` to minimise mean-squared error on `(x, y)` and returns the final MSE.
fn train_mse(mlp: &mut Mlp, x: &Matrix, y: &Matrix, epochs: usize, lr: f64) -> f64 {
    let mut adam = Adam::with_learning_rate(lr);
    let n = x.nrows() as f64;
    let mut last = f64::INFINITY;
    let mut ws = MlpWorkspace::new();
    let mut grad = vec![0.0; mlp.num_params()];
    for _ in 0..epochs {
        let diff = mlp.forward_into(x, &mut ws) - y;
        last = diff.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
        let mut grad_out = diff.map(|d| 2.0 * d / n);
        mlp.backward_into(x, &mut ws, &mut grad_out, &mut grad);
        let mut params = mlp.flat_params();
        adam.step(&mut params, &grad);
        mlp.set_flat_params(&params);
    }
    last
}

#[test]
fn mlp_learns_a_linear_function() {
    let mut rng = StdRng::seed_from_u64(11);
    let config = MlpConfig::new(2, &[16], 1).with_hidden_activation(Activation::Tanh);
    let mut mlp = Mlp::new(&config, &mut rng);

    let mut rows = Vec::new();
    let mut targets = Vec::new();
    for _ in 0..64 {
        let a: f64 = rng.gen_range(-1.0..1.0);
        let b: f64 = rng.gen_range(-1.0..1.0);
        rows.push(vec![a, b]);
        targets.push(vec![2.0 * a - 0.5 * b + 0.3]);
    }
    let x = Matrix::from_rows(&rows);
    let y = Matrix::from_rows(&targets);

    let mse = train_mse(&mut mlp, &x, &y, 1500, 0.01);
    assert!(mse < 1e-3, "final MSE too high: {mse}");
}

#[test]
fn mlp_learns_a_nonlinear_function() {
    let mut rng = StdRng::seed_from_u64(12);
    let config = MlpConfig::new(1, &[32, 32], 1);
    let mut mlp = Mlp::new(&config, &mut rng);

    let mut rows = Vec::new();
    let mut targets = Vec::new();
    for i in 0..80 {
        let t = -1.0 + 2.0 * (i as f64) / 79.0;
        rows.push(vec![t]);
        targets.push(vec![(3.0 * t).sin()]);
    }
    let x = Matrix::from_rows(&rows);
    let y = Matrix::from_rows(&targets);

    let mse = train_mse(&mut mlp, &x, &y, 3000, 0.01);
    assert!(mse < 5e-3, "final MSE too high: {mse}");
}

#[test]
fn training_is_deterministic_for_fixed_seed() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(21);
        let config = MlpConfig::new(2, &[8], 2);
        let mut mlp = Mlp::new(&config, &mut rng);
        let x = Matrix::from_rows(&[vec![0.1, 0.9], vec![-0.4, 0.2], vec![0.7, -0.8]]);
        let y = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]]);
        train_mse(&mut mlp, &x, &y, 200, 0.01);
        mlp.flat_params()
    };
    assert_eq!(build(), build());
}

#[test]
fn different_seeds_give_different_networks() {
    let config = MlpConfig::new(3, &[8, 8], 4);
    let mut rng1 = StdRng::seed_from_u64(1);
    let mut rng2 = StdRng::seed_from_u64(2);
    let a = Mlp::new(&config, &mut rng1);
    let b = Mlp::new(&config, &mut rng2);
    assert_ne!(a.flat_params(), b.flat_params());
}
