//! Property-based tests for the linear-algebra substrate.

use nnbo_linalg::{dot, squared_distance, Cholesky, Matrix, Standardizer};
use proptest::prelude::*;

/// Strategy: a random square matrix of dimension 1..=6 with entries in [-5, 5].
fn square_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        prop::collection::vec(-5.0..5.0_f64, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data))
    })
}

/// Strategy: a random vector of a given length with entries in [-5, 5].
fn vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0..5.0_f64, len)
}

/// Builds a symmetric positive-definite matrix as `B Bᵀ + n·I` from a random `B`.
fn make_spd(b: &Matrix) -> Matrix {
    let mut a = b.matmul_transpose(b);
    a.add_diag(b.nrows() as f64 + 1.0);
    a
}

/// Strategy: a random rectangular matrix with dimensions 1..=max_dim.
fn rect_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-5.0..5.0_f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in square_matrix(6)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn blocked_matmul_agrees_with_naive(a in rect_matrix(20, 12), b in rect_matrix(12, 16)) {
        // Shapes must chain: rebuild b with matching inner dimension.
        let k = a.ncols();
        let b = Matrix::from_vec(k, b.ncols(), (0..k * b.ncols()).map(|i| b.as_slice()[i % b.as_slice().len()]).collect());
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-10, "blocked {x} vs naive {y}");
        }
    }

    #[test]
    fn blocked_matmul_transpose_agrees_with_naive(a in rect_matrix(16, 10), b in rect_matrix(14, 10)) {
        let k = a.ncols();
        let b = Matrix::from_vec(b.nrows(), k, (0..b.nrows() * k).map(|i| b.as_slice()[i % b.as_slice().len()]).collect());
        let blocked = a.matmul_transpose(&b);
        let naive = a.matmul_transpose_naive(&b);
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn blocked_transpose_matmul_agrees_with_naive(a in rect_matrix(14, 9), b in rect_matrix(14, 11)) {
        let r = a.nrows();
        let b = Matrix::from_vec(r, b.ncols(), (0..r * b.ncols()).map(|i| b.as_slice()[i % b.as_slice().len()]).collect());
        let blocked = a.transpose_matmul(&b);
        let naive = a.transpose_matmul_naive(&b);
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn blocked_cholesky_agrees_with_reference(b in square_matrix(6)) {
        let a = make_spd(&b);
        let blocked = Cholesky::decompose(&a).unwrap();
        let reference = Cholesky::decompose_reference(&a).unwrap();
        for (x, y) in blocked.factor().as_slice().iter().zip(reference.factor().as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn append_row_agrees_with_fresh_factorization(b in square_matrix(6), border in vector(6), d in 0.5..4.0_f64) {
        let a = make_spd(&b);
        let n = a.nrows();
        // Bordered SPD matrix: scale the border down and lift the diagonal so
        // positive definiteness is preserved.
        let border: Vec<f64> = border[..n].iter().map(|v| v * 0.1).collect();
        let diag = d + n as f64 + 1.0;
        let mut big = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                big[(i, j)] = a[(i, j)];
            }
            big[(n, i)] = border[i];
            big[(i, n)] = border[i];
        }
        big[(n, n)] = diag;
        let mut row = border.clone();
        row.push(diag);
        let mut incremental = Cholesky::decompose(&a).unwrap();
        incremental.append_row(&row).unwrap();
        let fresh = Cholesky::decompose_reference(&big).unwrap();
        for (x, y) in incremental.factor().as_slice().iter().zip(fresh.factor().as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-10, "incremental {x} vs fresh {y}");
        }
    }

    #[test]
    fn rank_one_update_agrees_with_fresh_factorization(b in square_matrix(6), v in vector(6)) {
        let a = make_spd(&b);
        let n = a.nrows();
        let v = &v[..n];
        let mut bumped = a.clone();
        for i in 0..n {
            for j in 0..n {
                bumped[(i, j)] += v[i] * v[j];
            }
        }
        let mut updated = Cholesky::decompose(&a).unwrap();
        updated.rank_one_update(v);
        let fresh = Cholesky::decompose_reference(&bumped).unwrap();
        for (x, y) in updated.factor().as_slice().iter().zip(fresh.factor().as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-10, "updated {x} vs fresh {y}");
        }
    }

    #[test]
    fn batched_triangular_solve_matches_per_column(b in square_matrix(5), rhs in vector(20)) {
        let a = make_spd(&b);
        let n = a.nrows();
        let cols = rhs.len() / n;
        let rhs_mat = Matrix::from_vec(n, cols, rhs[..n * cols].to_vec());
        let chol = Cholesky::decompose(&a).unwrap();
        let y = chol.solve_lower_matrix(&rhs_mat);
        let x = chol.solve_matrix(&rhs_mat);
        for j in 0..rhs_mat.ncols() {
            let col = rhs_mat.col(j);
            let y_ref = chol.solve_lower(&col);
            let x_ref = chol.solve_vec(&col);
            for i in 0..n {
                prop_assert_eq!(y[(i, j)], y_ref[i]);
                prop_assert_eq!(x[(i, j)], x_ref[i]);
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop(m in square_matrix(6)) {
        let id = Matrix::identity(m.nrows());
        let prod = m.matmul(&id);
        for (a, b) in prod.as_slice().iter().zip(m.as_slice().iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_transpose_consistency(m in square_matrix(5)) {
        let explicit = m.matmul(&m.transpose());
        let fused = m.matmul_transpose(&m);
        for (a, b) in explicit.as_slice().iter().zip(fused.as_slice().iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_reconstructs_spd(b in square_matrix(6)) {
        let a = make_spd(&b);
        let chol = Cholesky::decompose(&a).unwrap();
        let l = chol.factor();
        let rec = l.matmul(&l.transpose());
        for (x, y) in rec.as_slice().iter().zip(a.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn cholesky_solve_residual_is_small(b in square_matrix(5)) {
        let a = make_spd(&b);
        let n = a.nrows();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.37).collect();
        let chol = Cholesky::decompose(&a).unwrap();
        let x = chol.solve_vec(&rhs);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(rhs.iter()) {
            prop_assert!((ri - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn symmetric_inverse_agrees_with_dense_sweep_inverse(b in square_matrix(6)) {
        let a = make_spd(&b);
        let chol = Cholesky::decompose(&a).unwrap();
        let dense = chol.inverse();
        let sym = chol.symmetric_inverse();
        for (x, y) in sym.as_slice().iter().zip(dense.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + y.abs()), "{x} vs {y}");
        }
        // Exactly symmetric by construction.
        let n = a.nrows();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(sym[(i, j)], sym[(j, i)]);
            }
        }
    }

    #[test]
    fn dot_is_symmetric(v in vector(8), w in vector(8)) {
        prop_assert!((dot(&v, &w) - dot(&w, &v)).abs() < 1e-10);
    }

    #[test]
    fn squared_distance_is_nonnegative_and_symmetric(v in vector(6), w in vector(6)) {
        let d = squared_distance(&v, &w);
        prop_assert!(d >= 0.0);
        prop_assert!((d - squared_distance(&w, &v)).abs() < 1e-10);
        prop_assert!(squared_distance(&v, &v) < 1e-20);
    }

    #[test]
    fn standardizer_roundtrip(v in prop::collection::vec(-100.0..100.0_f64, 2..32)) {
        let s = Standardizer::fit(&v);
        for &x in &v {
            prop_assert!((s.inverse(s.transform(x)) - x).abs() < 1e-9 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn sq_exp_apply_matches_the_scalar_kernel_formula(
        dots in prop::collection::vec(-40.0..40.0_f64, 1..40),
        norm_seeds in prop::collection::vec(0.0..30.0_f64, 40),
        q_norm in 0.0..30.0_f64,
        sf2 in 0.05..10.0_f64,
    ) {
        // Whatever dispatch path is active, the fused pass must agree with
        // the plain norm-expansion + f64::exp loop, stay within (0, sf2], and
        // clamp negative distances (cancellation) to the sf2 peak.
        let x_norms = &norm_seeds[..dots.len()];
        let mut row = dots.clone();
        nnbo_linalg::sq_exp_apply(&mut row, x_norms, q_norm, sf2);
        for ((&v, &raw), &xn) in row.iter().zip(dots.iter()).zip(x_norms.iter()) {
            let d2 = (q_norm + xn - 2.0 * raw).max(0.0);
            let reference = sf2 * (-0.5 * d2).exp();
            prop_assert!((v - reference).abs() <= 1e-12 * (1.0 + reference), "{v} vs {reference}");
            prop_assert!(v > 0.0 && v <= sf2 * (1.0 + 1e-15));
        }
    }
}
