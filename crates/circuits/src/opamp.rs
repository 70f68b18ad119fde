//! Two-stage Miller-compensated operational amplifier testbench (Table I circuit).

use serde::{Deserialize, Serialize};

use crate::ac::{AcAnalysis, AcSweep, SmallSignalCircuit, SmallSignalElement};
use crate::mosfet::{MosTransistor, MosfetModel};
use crate::netlist::GROUND;
use crate::pvt::PvtCorner;
use crate::testbench::{CornerContext, Testbench};

/// Number of design variables of the op-amp sizing problem.
pub const OPAMP_DIM: usize = 10;

/// Measured performances of one op-amp design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpAmpPerformance {
    /// Open-loop DC gain in dB.
    pub gain_db: f64,
    /// Unity-gain frequency in Hz.
    pub ugf_hz: f64,
    /// Phase margin in degrees.
    pub pm_deg: f64,
    /// Static power consumption in watts.
    pub power_w: f64,
    /// Total active gate area in m².
    pub area_m2: f64,
    /// `true` when every transistor has positive saturation headroom at the bias
    /// point (designs without headroom get strongly degraded gain, mimicking devices
    /// falling out of saturation).
    pub bias_ok: bool,
}

/// The two-stage operational amplifier sizing testbench used for Table I.
///
/// The amplifier is the classic Miller-compensated two-stage OTA of the paper's
/// Fig. 3: an NMOS differential pair (M1/M2) with PMOS current-mirror load (M3/M4),
/// an NMOS tail source (M5) mirrored from the external `Ibias` reference, a PMOS
/// common-source second stage (M6) loaded by an NMOS sink (M7), and an
/// `R1`–`Cc` compensation branch driving the load capacitance `CL`.
///
/// The 10 design variables are
/// `[W1, L1, W3, L3, W5, L5, W6, L6, Cc, Ibias]` (widths/lengths in metres, `Cc` in
/// farads, `Ibias` in amperes).  [`TwoStageOpAmp::bounds`] gives the search ranges;
/// [`TwoStageOpAmp::evaluate_normalized`] accepts points in the unit hypercube.
///
/// The bias point is computed analytically from the current-mirror topology
/// (square-law model), then the full small-signal circuit — including device
/// capacitances, the Miller branch and the zero-nulling resistor — is swept with the
/// complex-MNA [`AcAnalysis`] to obtain GAIN, UGF and phase margin.
///
/// # Example
///
/// ```
/// use nnbo_circuits::TwoStageOpAmp;
///
/// let bench = TwoStageOpAmp::new();
/// let perf = bench.evaluate_normalized(&[0.5; 10]);
/// assert!(perf.gain_db > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoStageOpAmp {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Load capacitance in farads.
    pub load_cap: f64,
    /// Zero-nulling resistor in series with the compensation capacitor, in ohms.
    pub comp_resistor: f64,
    /// Aspect ratio of the fixed bias-mirror diode device (W8/L8).
    pub bias_mirror_ratio: f64,
    /// Current multiplication factor from the tail device (M5) to the output-stage
    /// sink (M7).
    pub output_stage_multiplier: f64,
    nmos: MosfetModel,
    pmos: MosfetModel,
}

impl Default for TwoStageOpAmp {
    fn default() -> Self {
        TwoStageOpAmp {
            vdd: 1.8,
            load_cap: 10e-12,
            comp_resistor: 1.0e3,
            bias_mirror_ratio: 10.0,
            output_stage_multiplier: 3.0,
            nmos: MosfetModel::nmos_180nm(),
            pmos: MosfetModel::pmos_180nm(),
        }
    }
}

impl TwoStageOpAmp {
    /// Creates the testbench with the default 180 nm-like setup.
    pub fn new() -> Self {
        Self::default()
    }

    /// A corner-stress fixture: a deliberately broken compensation network
    /// (zero-ohm nulling resistor, i.e. an infinite conductance entry) that
    /// makes the small-signal MNA system singular at *every* design point.
    ///
    /// [`TwoStageOpAmp::try_evaluate`] therefore fails deterministically on
    /// this bench — use it to exercise failure-handling paths (retry,
    /// imputation, degradation) without randomness.
    pub fn stressed() -> Self {
        TwoStageOpAmp {
            comp_resistor: 0.0,
            ..Self::default()
        }
    }

    /// The same amplifier re-biased under a PVT corner: the supply scales
    /// with the corner's deviation from the nominal 1.1 V rail, and both
    /// device models take the corner's transconductance factor and
    /// threshold shift.
    ///
    /// At [`PvtCorner::nominal`] this returns `self` exactly (all the
    /// corner factors are the multiplicative/additive identities there),
    /// so a nominal-corner measurement is bit-identical to the plain
    /// bench.
    pub fn at_corner(&self, corner: &PvtCorner) -> TwoStageOpAmp {
        let nominal_vdd = PvtCorner::nominal().vdd;
        let mut bench = self.clone();
        bench.vdd = self.vdd * (corner.vdd / nominal_vdd);
        bench.nmos.kp = self.nmos.kp * corner.kp_factor();
        bench.pmos.kp = self.pmos.kp * corner.kp_factor();
        bench.nmos.vth = self.nmos.vth + corner.vth_shift();
        bench.pmos.vth = self.pmos.vth + corner.vth_shift();
        bench
    }

    /// Lower/upper bounds of the 10 physical design variables
    /// `[W1, L1, W3, L3, W5, L5, W6, L6, Cc, Ibias]`.
    pub fn bounds(&self) -> [(f64, f64); OPAMP_DIM] {
        [
            (1e-6, 100e-6),    // W1: differential pair width
            (0.18e-6, 2e-6),   // L1
            (1e-6, 100e-6),    // W3: mirror-load width
            (0.18e-6, 2e-6),   // L3
            (2e-6, 200e-6),    // W5: tail width
            (0.18e-6, 2e-6),   // L5
            (2e-6, 500e-6),    // W6: second-stage width
            (0.18e-6, 2e-6),   // L6
            (0.5e-12, 10e-12), // Cc
            (2e-6, 50e-6),     // Ibias
        ]
    }

    /// Maps a point of the unit hypercube to the physical design space.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 10`.
    pub fn denormalize(&self, x: &[f64]) -> [f64; OPAMP_DIM] {
        assert_eq!(x.len(), OPAMP_DIM, "expected {OPAMP_DIM} design variables");
        let bounds = self.bounds();
        let mut out = [0.0; OPAMP_DIM];
        for (i, (lo, hi)) in bounds.iter().enumerate() {
            let t = x[i].clamp(0.0, 1.0);
            out[i] = lo + t * (hi - lo);
        }
        out
    }

    /// Evaluates a design given in normalised `[0, 1]` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 10`.
    pub fn evaluate_normalized(&self, x: &[f64]) -> OpAmpPerformance {
        self.evaluate(&self.denormalize(x))
    }

    /// Evaluates a design given in physical units.
    ///
    /// This is the infallible best-effort projection: when the small-signal
    /// AC analysis fails (singular MNA system) the frequency-domain metrics
    /// are replaced by a deep penalty (−100 dB gain, no unity-gain crossing).
    /// Use [`TwoStageOpAmp::try_evaluate`] to observe such failures honestly.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 10` or any variable is not strictly positive.
    pub fn evaluate(&self, x: &[f64]) -> OpAmpPerformance {
        let (metrics, power_w, area_m2, bias_ok) = self.analyze(x);
        let metrics = metrics.unwrap_or(crate::ac::BodeMetrics {
            dc_gain_db: -100.0,
            unity_gain_freq_hz: 0.0,
            phase_margin_deg: 0.0,
            crossed_unity: false,
        });
        Self::performance(metrics, power_w, area_m2, bias_ok)
    }

    /// Evaluates a design given in physical units, reporting solver failure
    /// honestly instead of projecting it onto a penalty performance.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the small-signal MNA system is
    /// singular (the AC sweep has no valid point) or the analysis produces a
    /// non-finite performance.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 10` or any variable is not strictly positive.
    pub fn try_evaluate(&self, x: &[f64]) -> Result<OpAmpPerformance, String> {
        let (metrics, power_w, area_m2, bias_ok) = self.analyze(x);
        let metrics = metrics.ok_or_else(|| {
            "AC analysis failed: singular small-signal MNA system (no valid sweep point)"
                .to_string()
        })?;
        let p = Self::performance(metrics, power_w, area_m2, bias_ok);
        if !(p.gain_db.is_finite()
            && p.ugf_hz.is_finite()
            && p.pm_deg.is_finite()
            && p.power_w.is_finite()
            && p.area_m2.is_finite())
        {
            return Err(format!(
                "AC analysis produced a non-finite performance: {p:?}"
            ));
        }
        Ok(p)
    }

    /// Fallible evaluation of a design in normalised `[0, 1]` coordinates —
    /// see [`TwoStageOpAmp::try_evaluate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TwoStageOpAmp::try_evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 10`.
    pub fn try_evaluate_normalized(&self, x: &[f64]) -> Result<OpAmpPerformance, String> {
        self.try_evaluate(&self.denormalize(x))
    }

    /// Assembles the performance report from the AC metrics and the
    /// bias-point quantities.
    fn performance(
        metrics: crate::ac::BodeMetrics,
        power_w: f64,
        area_m2: f64,
        bias_ok: bool,
    ) -> OpAmpPerformance {
        OpAmpPerformance {
            gain_db: metrics.dc_gain_db,
            ugf_hz: metrics.unity_gain_freq_hz,
            pm_deg: if metrics.crossed_unity {
                metrics.phase_margin_deg
            } else {
                0.0
            },
            power_w,
            area_m2,
            bias_ok,
        }
    }

    /// Bias-point computation plus the small-signal AC sweep; `None` metrics
    /// mean the MNA system was singular at every frequency.
    fn analyze(&self, x: &[f64]) -> (Option<crate::ac::BodeMetrics>, f64, f64, bool) {
        assert_eq!(x.len(), OPAMP_DIM, "expected {OPAMP_DIM} design variables");
        assert!(
            x.iter().all(|v| *v > 0.0),
            "design variables must be positive"
        );
        let (w1, l1, w3, l3, w5, l5, w6, l6, cc, ibias) =
            (x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7], x[8], x[9]);

        // --- Bias point from the mirror topology (square-law). -----------------
        let m1 = MosTransistor::new(self.nmos, w1, l1);
        let m3 = MosTransistor::new(self.pmos, w3, l3);
        let m5 = MosTransistor::new(self.nmos, w5, l5);
        let m6 = MosTransistor::new(self.pmos, w6, l6);
        let m7 = MosTransistor::new(self.nmos, w5 * self.output_stage_multiplier, l5);

        // Tail current mirrored from the fixed diode reference (W8/L8 = bias_mirror_ratio).
        let i_tail = ibias * m5.aspect_ratio() / self.bias_mirror_ratio;
        let i_branch = 0.5 * i_tail;
        let i_stage2 = i_tail * self.output_stage_multiplier;

        // First stage small-signal parameters.
        let gm1 = m1.gm_for_current(i_branch);
        let gds2 = m1.gds_for_current(i_branch);
        let gds4 = m3.gds_for_current(i_branch);
        // Second stage.
        let gm6 = m6.gm_for_current(i_stage2);
        let gds6 = m6.gds_for_current(i_stage2);
        let gds7 = m7.gds_for_current(i_stage2);

        // Saturation headroom check: overdrives must fit inside the supply.
        let vov1 = m1.overdrive_for_current(i_branch);
        let vov3 = m3.overdrive_for_current(i_branch);
        let vov5 = m5.overdrive_for_current(i_tail);
        let vov6 = m6.overdrive_for_current(i_stage2);
        let vov7 = m7.overdrive_for_current(i_stage2);
        // Input common mode sits at vdd/2; the first stage needs Vov5 + Vgs1 below it
        // and Vov3 + |Vgs6| headroom at the top; the output stage needs Vov6 + Vov7.
        let vgs1 = self.nmos.vth + vov1;
        let headroom_first = (self.vdd / 2.0 - vgs1 - vov5)
            .min(self.vdd / 2.0 - vov3 - 0.05)
            .min(self.vdd - vov6 - vov7 - 0.1);
        let bias_ok = headroom_first > 0.0;
        // Devices pushed out of saturation lose output resistance rapidly; model that
        // as a smooth degradation of the stage output conductances.
        let degrade = if bias_ok {
            1.0
        } else {
            1.0 + (-headroom_first * 40.0).min(200.0)
        };

        let g1 = (gds2 + gds4) * degrade;
        let g2 = (gds6 + gds7) * degrade;

        // Device capacitances at the bias point (saturation expressions).
        let p1 = m1.evaluate(self.nmos.vth + vov1, self.vdd / 2.0, 0.0);
        let p3 = m3.evaluate(self.vdd - self.pmos.vth - vov3, self.vdd / 2.0, self.vdd);
        let p6 = m6.evaluate(self.vdd - self.pmos.vth - vov6, self.vdd / 2.0, self.vdd);
        let p7 = m7.evaluate(self.nmos.vth + vov7, self.vdd / 2.0, 0.0);
        let c_node1 = p1.cgd + p1.cdb + p3.cgd + p3.cdb + p6.cgs;
        let c_node2 = self.load_cap + p6.cdb + p7.cdb + p7.cgd;
        let c_miller_parasitic = p6.cgd;

        // --- Small-signal AC analysis through the MNA engine. ------------------
        // Nodes: 1 = AC input, 2 = first-stage output, 3 = op-amp output,
        // 4 = internal node between the zero-nulling resistor and Cc.
        let mut ss = SmallSignalCircuit::new(5, 1, 3);
        ss.add(SmallSignalElement::Vccs {
            out_plus: 2,
            out_minus: GROUND,
            ctrl_plus: 1,
            ctrl_minus: GROUND,
            gm: gm1,
        });
        ss.add(SmallSignalElement::Conductance {
            a: 2,
            b: GROUND,
            siemens: g1,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 2,
            b: GROUND,
            farads: c_node1,
        });
        ss.add(SmallSignalElement::Vccs {
            out_plus: 3,
            out_minus: GROUND,
            ctrl_plus: 2,
            ctrl_minus: GROUND,
            gm: gm6,
        });
        ss.add(SmallSignalElement::Conductance {
            a: 3,
            b: GROUND,
            siemens: g2,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 3,
            b: GROUND,
            farads: c_node2,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 2,
            b: 3,
            farads: c_miller_parasitic,
        });
        ss.add(SmallSignalElement::Conductance {
            a: 2,
            b: 4,
            siemens: 1.0 / self.comp_resistor,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 4,
            b: 3,
            farads: cc,
        });

        let analysis = AcAnalysis::new(AcSweep {
            start_hz: 10.0,
            stop_hz: 10e9,
            points_per_decade: 24,
        });
        let metrics = analysis.bode_metrics(&ss);

        let power_w = self.vdd * (ibias + i_tail + i_stage2);
        let area_m2 = w1 * l1 * 2.0
            + w3 * l3 * 2.0
            + w5 * l5 * (1.0 + self.output_stage_multiplier)
            + w6 * l6;

        (metrics, power_w, area_m2, bias_ok)
    }
}

impl Testbench for TwoStageOpAmp {
    type Output = OpAmpPerformance;

    fn name(&self) -> &str {
        "two-stage-opamp"
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        TwoStageOpAmp::bounds(self).to_vec()
    }

    fn denormalize(&self, x: &[f64]) -> Vec<f64> {
        TwoStageOpAmp::denormalize(self, x).to_vec()
    }

    fn measure(&self, x: &[f64], ctx: &CornerContext) -> Result<OpAmpPerformance, String> {
        self.at_corner(&ctx.corner).try_evaluate(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-crafted, reasonable design point (physical units).
    fn decent_design() -> [f64; OPAMP_DIM] {
        [
            40e-6,  // W1
            1.0e-6, // L1
            20e-6,  // W3
            1.0e-6, // L3
            40e-6,  // W5
            1.0e-6, // L5
            200e-6, // W6
            0.5e-6, // L6
            3e-12,  // Cc
            20e-6,  // Ibias
        ]
    }

    #[test]
    fn decent_design_has_textbook_performance() {
        let bench = TwoStageOpAmp::new();
        let p = bench.evaluate(&decent_design());
        assert!(p.bias_ok, "expected a valid bias point");
        assert!(p.gain_db > 60.0 && p.gain_db < 110.0, "gain {}", p.gain_db);
        assert!(
            p.ugf_hz > 1e6 && p.ugf_hz < 1e9,
            "unity-gain frequency {}",
            p.ugf_hz
        );
        assert!(
            p.pm_deg > 0.0 && p.pm_deg < 120.0,
            "phase margin {}",
            p.pm_deg
        );
        assert!(p.power_w > 0.0 && p.power_w < 10e-3);
    }

    #[test]
    fn ugf_tracks_gm_over_cc() {
        // Doubling Cc should roughly halve the unity-gain frequency.
        let bench = TwoStageOpAmp::new();
        let mut x = decent_design();
        let p1 = bench.evaluate(&x);
        x[8] *= 2.0;
        let p2 = bench.evaluate(&x);
        let ratio = p1.ugf_hz / p2.ugf_hz;
        assert!(ratio > 1.5 && ratio < 2.5, "UGF ratio {ratio}");
    }

    #[test]
    fn longer_channels_increase_gain() {
        let bench = TwoStageOpAmp::new();
        let mut short = decent_design();
        short[1] = 0.2e-6;
        short[3] = 0.2e-6;
        short[7] = 0.2e-6;
        let mut long = decent_design();
        long[1] = 2.0e-6;
        long[3] = 2.0e-6;
        long[7] = 2.0e-6;
        let p_short = bench.evaluate(&short);
        let p_long = bench.evaluate(&long);
        assert!(p_long.gain_db > p_short.gain_db + 6.0);
    }

    #[test]
    fn more_bias_current_costs_power_and_raises_ugf() {
        let bench = TwoStageOpAmp::new();
        let mut low = decent_design();
        low[9] = 5e-6;
        let mut high = decent_design();
        high[9] = 40e-6;
        let p_low = bench.evaluate(&low);
        let p_high = bench.evaluate(&high);
        assert!(p_high.power_w > p_low.power_w * 3.0);
        assert!(p_high.ugf_hz > p_low.ugf_hz);
    }

    #[test]
    fn normalized_evaluation_matches_denormalized() {
        let bench = TwoStageOpAmp::new();
        let x_norm = [0.3, 0.5, 0.7, 0.2, 0.6, 0.4, 0.8, 0.5, 0.35, 0.45];
        let phys = bench.denormalize(&x_norm);
        let a = bench.evaluate_normalized(&x_norm);
        let b = bench.evaluate(&phys);
        assert_eq!(a, b);
    }

    #[test]
    fn bounds_are_ordered_and_positive() {
        let bench = TwoStageOpAmp::new();
        for (lo, hi) in bench.bounds() {
            assert!(lo > 0.0 && hi > lo);
        }
    }

    #[test]
    fn feasible_region_is_reachable() {
        // There must exist designs meeting the Table-I spec (UGF > 40 MHz, PM > 60°)
        // with high gain, otherwise the optimization experiment is vacuous.
        let bench = TwoStageOpAmp::new();
        let x = [
            60e-6, 0.8e-6, 30e-6, 0.9e-6, 30e-6, 1.0e-6, 400e-6, 0.4e-6, 4e-12, 25e-6,
        ];
        let p = bench.evaluate(&x);
        assert!(p.ugf_hz > 40e6, "UGF {} too low", p.ugf_hz);
        assert!(p.pm_deg > 60.0, "PM {} too low", p.pm_deg);
        assert!(p.gain_db > 70.0, "gain {} too low", p.gain_db);
    }

    #[test]
    fn at_nominal_corner_the_bench_is_bit_identical() {
        let bench = TwoStageOpAmp::new();
        assert_eq!(bench.at_corner(&PvtCorner::nominal()), bench);
    }

    #[test]
    fn corners_actually_move_the_performance() {
        use crate::pvt::Process;
        let bench = TwoStageOpAmp::new();
        let x = decent_design();
        let nominal = bench.try_evaluate(&x).unwrap();
        let slow_cold = bench
            .at_corner(&PvtCorner {
                process: Process::SlowSlow,
                vdd: 0.99,
                temperature: -40.0,
            })
            .try_evaluate(&x)
            .unwrap();
        assert_ne!(nominal, slow_cold);
        assert!(slow_cold.gain_db.is_finite());
    }

    #[test]
    fn extreme_corner_degrades_gracefully() {
        // The most extreme corner of the design space must still produce finite
        // numbers (the optimizer will visit such points).
        let bench = TwoStageOpAmp::new();
        for x in [[0.0; OPAMP_DIM], [1.0; OPAMP_DIM]] {
            let p = bench.evaluate_normalized(&x);
            assert!(p.gain_db.is_finite());
            assert!(p.ugf_hz.is_finite());
            assert!(p.pm_deg.is_finite());
        }
    }
}
