//! Analog circuit simulation substrate for the `nnbo` workspace.
//!
//! The paper evaluates its optimizer on two real circuits simulated with HSPICE on
//! SMIC 180nm/40nm PDKs.  Neither the simulator nor the PDKs are available here, so
//! this crate implements the substrate from scratch:
//!
//! * [`Complex`] — complex arithmetic for AC (frequency-domain) analysis;
//! * [`Circuit`] / [`Element`] — netlists of resistors, capacitors, sources,
//!   voltage-controlled current sources and level-1 MOSFETs;
//! * [`MnaSystem`] — modified nodal analysis stamping, real (DC) and complex (AC);
//! * [`DcAnalysis`] — Newton–Raphson operating-point solver with gmin stepping;
//! * [`AcAnalysis`] / [`BodeMetrics`] — small-signal frequency sweeps and the
//!   gain / unity-gain-frequency / phase-margin metrics used by the op-amp spec;
//! * [`MosfetModel`] / [`MosTransistor`] — square-law (level-1) MOSFET model with
//!   channel-length modulation and small-signal extraction;
//! * [`TransientAnalysis`] / [`Waveform`] — fixed-step backward-Euler time-domain
//!   simulation with pulse/sine stimuli;
//! * [`TwoStageOpAmp`] — the Table-I testbench (10 design variables → GAIN/UGF/PM);
//! * [`ChargePump`] + [`PvtCorner`] — the Table-II testbench (36 design variables,
//!   18 PVT corners → current-matching metrics and FOM);
//! * [`Testbench`] / [`CornerSweep`] — the declarative testbench layer and the PVT
//!   corner-sweep combinator (see below).
//!
//! See `DESIGN.md` at the repository root for the substitution rationale.
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
//! netlist/MNA build, the analyses it runs and the metrics it measures, all behind
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

#![warn(missing_docs)]

mod ac;
mod chargepump;
mod complex;
mod dc;
mod mna;
mod mosfet;
mod netlist;
mod opamp;
mod pvt;
mod testbench;
mod tran;

pub use ac::{AcAnalysis, AcSweep, BodeMetrics, SmallSignalCircuit, SmallSignalElement};
pub use chargepump::{
    ChargePump, ChargePumpCornerMeasurement, ChargePumpPerformance, CHARGE_PUMP_DIM,
};
pub use complex::Complex;
pub use dc::{DcAnalysis, DcError, DcSolution};
pub use mna::MnaSystem;
pub use mosfet::{MosPolarity, MosTransistor, MosfetModel, OperatingRegion, SmallSignalParams};
pub use netlist::{Circuit, Element, NodeId, GROUND};
pub use opamp::{OpAmpPerformance, TwoStageOpAmp, OPAMP_DIM};
pub use pvt::{Process, PvtCorner};
pub use testbench::{CornerContext, CornerSweep, Testbench};
pub use tran::{TransientAnalysis, TransientResult, Waveform};
