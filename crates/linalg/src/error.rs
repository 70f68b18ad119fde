//! Error type shared by the factorization routines.

use std::error::Error;
use std::fmt;

/// Error produced by the linear-algebra routines of this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A matrix had incompatible or unexpected dimensions.
    DimensionMismatch {
        /// Description of the operation that failed.
        context: &'static str,
        /// Dimensions that were supplied, formatted as `rows x cols` pairs.
        details: String,
    },
    /// A Cholesky factorization was requested on a matrix that is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot where the factorization broke down.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// A routine that requires a square matrix received a rectangular one.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A computation produced non-finite values (overflow through a collapsed
    /// pivot, NaN propagation from degenerate input).
    NonFinite {
        /// Description of the operation that produced the values.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context, details } => {
                write!(f, "dimension mismatch in {context}: {details}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} has value {value:e})"
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "expected a square matrix, got {rows}x{cols}")
            }
            LinalgError::NonFinite { context } => {
                write!(f, "{context} produced non-finite values")
            }
        }
    }
}

impl Error for LinalgError {}
