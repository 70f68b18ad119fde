//! Analog circuit testbenches for the `nnbo` workspace.
//!
//! # What stands in for HSPICE
//!
//! The paper sizes both of its circuits with HSPICE on SMIC PDKs: the Table-I
//! two-stage op-amp on 180 nm and the Table-II charge pump on 40 nm.  Neither
//! the simulator nor the PDKs are available here, and the optimizer only ever
//! sees a simulator as a black box that maps a design point to performances.
//! So each testbench computes its performances from models built in this crate:
//!
//! * the op-amp ([`TwoStageOpAmp`]) sets its bias point in closed form from the
//!   current-mirror topology (square-law MOSFETs), then sweeps the small-signal
//!   circuit (device capacitances, the Miller branch and the zero-nulling
//!   resistor) with a complex modified-nodal-analysis (MNA) AC analysis to
//!   read GAIN, UGF and phase margin;
//! * the charge pump ([`ChargePump`]) is a behavioural model of the same
//!   structure as the paper's circuit: cascoded UP/DOWN mirrors with switches, a
//!   replica amplifier, channel-length modulation, compliance, charge injection
//!   and corner-dependent mismatch.
//!
//! No transistor-level DC or transient engine is needed for either, so there
//! is none.
//!
//! # Modules
//!
//! * [`Complex`] — complex arithmetic for the AC analysis;
//! * [`SmallSignalCircuit`] / [`AcAnalysis`] / [`BodeMetrics`] — linear
//!   small-signal circuits (conductances, capacitors, VCCSs), their complex-MNA
//!   frequency sweeps and the gain / unity-gain-frequency / phase-margin metrics
//!   used by the op-amp spec;
//! * [`MosfetModel`] / [`MosTransistor`] — square-law (level-1) MOSFET model with
//!   channel-length modulation and small-signal extraction;
//! * [`TwoStageOpAmp`] — the Table-I testbench (10 design variables → GAIN/UGF/PM);
//! * [`ChargePump`] + [`PvtCorner`] — the Table-II testbench (36 design variables,
//!   18 PVT corners → current-matching metrics and FOM);
//! * [`Testbench`] / [`CornerSweep`] — the declarative testbench layer and the PVT
//!   corner-sweep combinator (see below).
//!
//! # Example
//!
//! ```
//! use nnbo_circuits::TwoStageOpAmp;
//!
//! let bench = TwoStageOpAmp::new();
//! // A mid-range design point (normalised coordinates in [0,1]^10).
//! let perf = bench.evaluate_normalized(&[0.5; 10]);
//! assert!(perf.gain_db.is_finite());
//! assert!(perf.ugf_hz > 0.0);
//! ```
//!
//! # Testbenches and corner sweeps
//!
//! Circuit problems compose declaratively instead of being hand-wired: a
//! [`Testbench`] owns its design-space mapping (bounds + denormalisation), its
//! circuit model, the analyses it runs and the metrics it measures, all behind
//! one corner-aware entry point, [`Testbench::measure`].  A [`CornerSweep`] expands
//! one testbench into K [`PvtCorner`] variants, and [`CornerSweep::run_corner`]
//! measures one of them.  A failed corner surfaces as an error naming the corner,
//! never as a `NaN`.
//!
//! A worked op-amp example — the worst gain, UGF and phase margin of one design
//! over the standard 18 corners:
//!
//! ```
//! use nnbo_circuits::{CornerSweep, Testbench, TwoStageOpAmp};
//!
//! let sweep = CornerSweep::standard_18(TwoStageOpAmp::new());
//! let x = sweep.bench().denormalize(&[0.5; 10]);
//! let corners: Vec<_> = (0..sweep.corners().len())
//!     .map(|k| sweep.run_corner(&x, k).expect("every corner converges here"))
//!     .collect();
//! let worst_gain_db = corners.iter().map(|p| p.gain_db).fold(f64::INFINITY, f64::min);
//! let nominal = sweep.bench().try_evaluate(&x).unwrap();
//! assert!(worst_gain_db <= nominal.gain_db);
//! ```
//!
//! How the corners combine is the consumer's choice: the `SweepProblem` adapter in
//! `nnbo-core` fans the per-corner measurements out over the process-wide worker
//! pool and aggregates them (worst case, nominal corner or per-corner
//! constraints).  Its one-band path, `with_parallel(false)`, is the reference the
//! parallel fan-out is pinned against bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod chargepump;
mod complex;
mod mosfet;
mod opamp;
mod pvt;
mod testbench;

pub use ac::{
    AcAnalysis, AcSweep, BodeMetrics, NodeId, SmallSignalCircuit, SmallSignalElement, GROUND,
};
pub use chargepump::{
    ChargePump, ChargePumpCornerMeasurement, ChargePumpPerformance, CHARGE_PUMP_DIM,
};
pub use complex::Complex;
pub use mosfet::{MosPolarity, MosTransistor, MosfetModel, OperatingRegion, SmallSignalParams};
pub use opamp::{OpAmpPerformance, TwoStageOpAmp, OPAMP_DIM};
pub use pvt::{Process, PvtCorner};
pub use testbench::{CornerContext, CornerSweep, Testbench};
