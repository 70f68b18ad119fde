//! LU factorization with partial pivoting, kept only as a test oracle: the
//! Cholesky log-determinant checks compare against it.

use crate::Matrix;

/// LU factorization with partial pivoting: `P A = L U`.
pub(crate) struct Lu {
    /// Combined storage: strictly-lower part holds L (unit diagonal implied), upper
    /// triangle holds U.
    lu: Matrix,
    /// Sign of the row permutation (+1.0 or -1.0), used for the determinant.
    perm_sign: f64,
}

impl Lu {
    /// Computes the factorization of `a`, or `None` when `a` is rectangular or no
    /// usable pivot exists in some column.
    pub(crate) fn decompose(a: &Matrix) -> Option<Self> {
        if !a.is_square() {
            return None;
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest |entry| in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < f64::EPSILON * 1e-2 || !pivot_val.is_finite() {
                return None;
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Some(Lu { lu, perm_sign })
    }

    /// Determinant of the factored matrix.
    pub(crate) fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.lu.nrows() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Natural log of the determinant, or `None` when the determinant is not
    /// strictly positive (the log is then undefined over the reals).
    pub(crate) fn log_det(&self) -> Option<f64> {
        let d = self.det();
        if d > 0.0 {
            Some(d.ln())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinant_of_triangular_matrix() {
        let a = Matrix::from_rows(&[
            vec![2.0, 5.0, 1.0],
            vec![0.0, 3.0, 7.0],
            vec![0.0, 0.0, 4.0],
        ]);
        let lu = Lu::decompose(&a).unwrap();
        assert!((lu.det() - 24.0).abs() < 1e-10);
        assert!((lu.log_det().unwrap() - 24.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(Lu::decompose(&a).is_none());
    }

    #[test]
    fn rectangular_matrix_is_rejected() {
        let a = Matrix::zeros(3, 2);
        assert!(Lu::decompose(&a).is_none());
    }

    #[test]
    fn negative_determinant_has_no_log() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = Lu::decompose(&a).unwrap();
        assert!(lu.log_det().is_none());
    }
}
