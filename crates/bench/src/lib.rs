//! Reproduction harness: regenerates the paper's tables and the complexity figure.
//!
//! The functions here drive every optimizer (the paper's neural-GP BO, WEIBO,
//! GASPAD and DE) over the two circuit testbenches with the protocol of the paper's
//! experimental section, and aggregate repeated runs into the rows of Table I and
//! Table II.  The `reproduce` binary is a thin CLI over this module, and the
//! integration tests exercise the same entry points at reduced scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Boxed error used by every fallible harness entry point: surrogate fits,
/// BO runs and service orchestration all propagate up to the `reproduce`
/// binary, which reports the failure and exits nonzero instead of panicking
/// mid-experiment.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

mod fit_bench;
mod json;
mod linalg_bench;
mod protocol;
mod pvt_bench;
mod robustness_bench;
mod scaling;
mod serve_bench;
mod tables;

pub use fit_bench::{
    fit_dataset, format_fit_json, format_fit_table, run_fit_bench, run_refit_lifecycle,
    FitBenchEntry, LifecycleOutcome,
};
pub use linalg_bench::{
    format_linalg_json, format_linalg_table, run_linalg_bench, LinalgBenchEntry,
};
pub use protocol::{Algorithm, Protocol};
pub use pvt_bench::{format_pvt_json, format_pvt_table, run_pvt_bench, PvtBenchEntry};
pub use robustness_bench::{
    format_robustness_json, format_robustness_table, run_robustness_bench, RobustnessReport,
};
pub use scaling::{
    format_scaling_json, run_scaling, run_subspace_scaling, ScalingPoint, SubspacePoint,
    SubspaceProtocol,
};
pub use serve_bench::{format_serve_json, format_serve_table, run_serve_bench, ServeBenchReport};
pub use tables::{
    format_table1, format_table1_json, format_table2, format_table2_highdim, format_table2_json,
    run_ablation_acquisition, run_ablation_ensemble, run_algorithm, run_table1, run_table2,
    run_table2_highdim, AblationRow, HighDimRow, Table1Row, Table2Row, HIGHDIM_DIM,
};
