//! Equivalence of the packed-panel SIMD kernels and the portable scalar
//! kernels, exercised by toggling the runtime dispatch inside one process.
//!
//! These tests live in their own integration-test binary because
//! [`nnbo_linalg::force_portable_kernels`] is a process-global switch: the
//! unit tests of the crate assert bit-identity properties (banded vs
//! sequential sweeps, batch vs single prediction) that assume the dispatch
//! does not flip mid-test.  Here every assertion is tolerance-based, so the
//! toggling is safe even with the test harness running cases concurrently.
//!
//! On machines without AVX2+FMA both paths are the same portable code and the
//! comparisons are trivially exact — the suite still runs, pinning the
//! fallback.

use std::sync::Mutex;

use nnbo_linalg::{force_portable_kernels, Cholesky, Matrix};

/// Serialises the tests of this binary: the dispatch override is process
/// global, so a test that toggles it must not overlap one that reads it.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    DISPATCH_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Deterministic pseudo-random matrix.
fn mat(rows: usize, cols: usize, seed: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| (((i * 2654435761 + seed * 97) % 1000) as f64 / 500.0 - 1.0) * 0.7)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn spd(n: usize, seed: usize) -> Matrix {
    let b = mat(n, n, seed);
    let mut a = b.matmul_transpose(&b);
    a.add_diag(n as f64 * 0.1 + 1.0);
    a
}

/// Runs `f` with the portable kernels forced, restoring the automatic
/// dispatch afterwards (also on panic).
fn with_portable<T>(f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_portable_kernels(false);
        }
    }
    let _restore = Restore;
    force_portable_kernels(true);
    f()
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        assert!(
            (x - y).abs() < tol * (1.0 + y.abs()),
            "{what}: element {i}: {x} vs {y}"
        );
    }
}

/// Ragged shapes around the 4-row/8-column panel sizes: tiny, single
/// row/column, one-off-a-panel, multi-panel with remainders, and one shape
/// crossing the 256-deep `k` blocking.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 1),
    (3, 2, 9),
    (4, 8, 8),
    (5, 9, 7),
    (8, 16, 24),
    (13, 31, 17),
    (33, 65, 29),
    (47, 300, 11),
];

#[test]
fn products_match_between_dispatch_paths_on_ragged_shapes() {
    let _guard = serial();
    for &(m, k, n) in SHAPES {
        let a = mat(m, k, m * 31 + n);
        let b = mat(k, n, k);
        let bt = mat(n, k, n * 7 + 1);
        let at = mat(k, m, k + 3);

        let simd = (
            a.matmul(&b),
            a.matmul_transpose(&bt),
            at.transpose_matmul(&b),
        );
        let portable = with_portable(|| {
            (
                a.matmul(&b),
                a.matmul_transpose(&bt),
                at.transpose_matmul(&b),
            )
        });
        assert_close(&simd.0, &portable.0, 1e-11, "matmul");
        assert_close(&simd.1, &portable.1, 1e-11, "matmul_transpose");
        assert_close(&simd.2, &portable.2, 1e-11, "transpose_matmul");
        // And against the naive oracle.
        assert_close(&simd.0, &a.matmul_naive(&b), 1e-11, "matmul vs naive");
        assert_close(
            &simd.1,
            &a.matmul_transpose_naive(&bt),
            1e-11,
            "matmul_transpose vs naive",
        );
        assert_close(
            &simd.2,
            &at.transpose_matmul_naive(&b),
            1e-11,
            "transpose_matmul vs naive",
        );
    }
}

#[test]
fn syrk_matches_general_product_on_ragged_shapes() {
    let _guard = serial();
    for &(r, c, _) in SHAPES {
        let a = mat(r, c, r * 13 + c);
        let syrk = a.transpose_matmul_self();
        let general = a.transpose_matmul_naive(&a);
        assert_close(&syrk, &general, 1e-11, "transpose_matmul_self");
        for i in 0..c {
            for j in 0..c {
                assert_eq!(syrk[(i, j)], syrk[(j, i)], "exact symmetry ({i},{j})");
            }
        }
        let portable = with_portable(|| a.transpose_matmul_self());
        assert_close(&syrk, &portable, 1e-11, "syrk dispatch paths");
    }
}

#[test]
fn cholesky_pipeline_matches_between_dispatch_paths() {
    let _guard = serial();
    // Factorization (packed SYRK trailing update), batched solves (FMA
    // sweeps) and both inverses, vs their portable counterparts.
    for &n in &[1, 2, 5, 13, 48, 61, 130] {
        let a = spd(n, n);
        let rhs = mat(n, 9, n + 2);
        let simd_chol = Cholesky::decompose(&a).expect("SPD");
        let simd_solve = simd_chol.solve_matrix(&rhs);
        let simd_inv = simd_chol.inverse();
        let simd_sym = simd_chol.symmetric_inverse();
        let (portable_solve, portable_inv, portable_sym) = with_portable(|| {
            let c = Cholesky::decompose(&a).expect("SPD");
            (c.solve_matrix(&rhs), c.inverse(), c.symmetric_inverse())
        });
        assert_close(&simd_solve, &portable_solve, 1e-9, "solve_matrix");
        assert_close(&simd_inv, &portable_inv, 1e-8, "inverse");
        assert_close(&simd_sym, &portable_sym, 1e-8, "symmetric_inverse");
        // dpotri vs dense sweeps, elementwise, on the SIMD path.
        assert_close(&simd_sym, &simd_inv, 1e-8, "symmetric vs full inverse");
    }
}

#[test]
fn sq_exp_apply_matches_between_dispatch_paths() {
    let _guard = serial();
    // The fused squared-exponential pass: AVX2 polynomial exp vs the portable
    // scalar `f64::exp` loop, over rows spanning zero distance, moderate
    // distances and underflow, at widths exercising the vector tail.
    for n in [1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 130] {
        let sf2 = 2.3;
        let q_norm = 1.1;
        let x_norms: Vec<f64> = (0..n).map(|j| ((j * 37) % 19) as f64 * 0.21).collect();
        let dots: Vec<f64> = (0..n)
            .map(|j| {
                if j % 11 == 5 {
                    -400.0 // d2 far past the exp underflow threshold
                } else if j % 7 == 3 {
                    0.5 * (q_norm + x_norms[j]) // exact zero distance
                } else {
                    0.4 * (q_norm + x_norms[j]) - 0.13 * j as f64
                }
            })
            .collect();
        let mut simd = dots.clone();
        nnbo_linalg::sq_exp_apply(&mut simd, &x_norms, q_norm, sf2);
        let portable = with_portable(|| {
            let mut row = dots.clone();
            nnbo_linalg::sq_exp_apply(&mut row, &x_norms, q_norm, sf2);
            row
        });
        for (j, (a, b)) in simd.iter().zip(portable.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-13 * (1.0 + b.abs()),
                "width {n}, lane {j}: {a} vs {b}"
            );
            assert!(*a >= 0.0 && *a <= sf2, "width {n}, lane {j}: range {a}");
        }
    }
}

#[test]
fn batched_gp_prediction_buffers_match_between_dispatch_paths() {
    let _guard = serial();
    // End-to-end through the prediction-path linalg: transpose_into +
    // solve_lower_matrix_in_place must equal the allocating composition on
    // both paths.
    for &n in &[3, 17, 40] {
        let a = spd(n, n + 5);
        let chol = Cholesky::decompose(&a).expect("SPD");
        let k_star = mat(9, n, n + 1); // Q×N
        let run = || {
            let mut v = Matrix::zeros(0, 0);
            k_star.transpose_into(&mut v);
            chol.solve_lower_matrix_in_place(&mut v);
            v
        };
        let composed = run();
        let reference = chol.solve_lower_matrix(&k_star.transpose());
        assert_eq!(
            composed.as_slice(),
            reference.as_slice(),
            "in-place pipeline differs from allocating pipeline"
        );
        let portable = with_portable(run);
        assert_close(&composed, &portable, 1e-9, "solve pipeline dispatch paths");
    }
}

#[test]
fn reported_isa_is_consistent_with_forcing() {
    let _guard = serial();
    let auto = nnbo_linalg::kernel_isa();
    assert!(auto == "avx512f" || auto == "avx2+fma" || auto == "portable");
    let forced = with_portable(nnbo_linalg::kernel_isa);
    assert_eq!(forced, "portable");
    assert_eq!(nnbo_linalg::kernel_isa(), auto);
}
