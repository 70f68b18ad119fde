//! Charge-pump testbench over PVT corners (Table II circuit).

use serde::{Deserialize, Serialize};

use crate::pvt::{Process, PvtCorner};
use crate::testbench::{CornerContext, Testbench};

/// Number of design variables of the charge-pump sizing problem
/// (18 transistors × width and length).
pub const CHARGE_PUMP_DIM: usize = 36;

/// Aggregated performances of one charge-pump design, in the units of the paper
/// (all currents in µA).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargePumpPerformance {
    /// `max over PVT (IM1_max - IM1_avg)` — spread of the UP current above its mean.
    pub diff1: f64,
    /// `max over PVT (IM1_avg - IM1_min)` — spread of the UP current below its mean.
    pub diff2: f64,
    /// `max over PVT (IM2_max - IM2_avg)` — spread of the DOWN current above its mean.
    pub diff3: f64,
    /// `max over PVT (IM2_avg - IM2_min)` — spread of the DOWN current below its mean.
    pub diff4: f64,
    /// `max|IM1_avg − 40 µA| + max|IM2_avg − 40 µA|` over PVT.
    pub deviation: f64,
    /// `FOM = 0.3·(diff1+diff2+diff3+diff4) + 0.5·deviation` (eq. 16 of the paper).
    pub fom: f64,
}

impl ChargePumpPerformance {
    /// Sum of the four spread metrics (the `diff` term of eq. 16).
    pub fn diff_total(&self) -> f64 {
        self.diff1 + self.diff2 + self.diff3 + self.diff4
    }

    /// Builds the paper's aggregated performance report (eq. 16, all
    /// currents in µA) from the worst-case fold of the per-corner
    /// measurements (amperes).
    pub fn from_worst_corners(worst: &ChargePumpCornerMeasurement) -> Self {
        let to_ua = 1e6;
        let diff1 = worst.diff1 * to_ua;
        let diff2 = worst.diff2 * to_ua;
        let diff3 = worst.diff3 * to_ua;
        let diff4 = worst.diff4 * to_ua;
        let deviation = (worst.dev_up + worst.dev_down) * to_ua;
        let fom = 0.3 * (diff1 + diff2 + diff3 + diff4) + 0.5 * deviation;
        ChargePumpPerformance {
            diff1,
            diff2,
            diff3,
            diff4,
            deviation,
            fom,
        }
    }

    /// `true` when the Table-II constraints are satisfied:
    /// `diff1,2 < 20 µA`, `diff3,4 < 5 µA`, `deviation < 5 µA`.
    pub fn feasible(&self) -> bool {
        self.diff1 < 20.0
            && self.diff2 < 20.0
            && self.diff3 < 5.0
            && self.diff4 < 5.0
            && self.deviation < 5.0
    }
}

/// The raw measurement of one PVT corner: UP/DOWN current spreads around
/// their sweep averages and the averages' deviation from the target, all
/// in amperes (the paper's µA conversion happens only when the worst-case
/// fold is turned into a [`ChargePumpPerformance`]).
///
/// Every metric is non-negative, so the all-zero measurement is the
/// identity of the worst-case fold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargePumpCornerMeasurement {
    /// `IM1_max − IM1_avg` — UP-current spread above its sweep average.
    pub diff1: f64,
    /// `IM1_avg − IM1_min` — UP-current spread below its sweep average.
    pub diff2: f64,
    /// `IM2_max − IM2_avg` — DOWN-current spread above its sweep average.
    pub diff3: f64,
    /// `IM2_avg − IM2_min` — DOWN-current spread below its sweep average.
    pub diff4: f64,
    /// `|IM1_avg − I_target|` — deviation of the average UP current.
    pub dev_up: f64,
    /// `|IM2_avg − I_target|` — deviation of the average DOWN current.
    pub dev_down: f64,
}

impl ChargePumpCornerMeasurement {
    /// The identity of the worst-case fold (every metric is non-negative).
    pub fn zero() -> Self {
        ChargePumpCornerMeasurement {
            diff1: 0.0,
            diff2: 0.0,
            diff3: 0.0,
            diff4: 0.0,
            dev_up: 0.0,
            dev_down: 0.0,
        }
    }

    /// Componentwise maximum — exactly the per-metric `max` the paper's
    /// eq. 15 takes over the PVT corners.
    pub fn fold_worst(&self, other: &Self) -> Self {
        ChargePumpCornerMeasurement {
            diff1: self.diff1.max(other.diff1),
            diff2: self.diff2.max(other.diff2),
            diff3: self.diff3.max(other.diff3),
            diff4: self.diff4.max(other.diff4),
            dev_up: self.dev_up.max(other.dev_up),
            dev_down: self.dev_down.max(other.dev_down),
        }
    }

    /// `true` when every measured metric is finite.
    pub fn all_finite(&self) -> bool {
        self.diff1.is_finite()
            && self.diff2.is_finite()
            && self.diff3.is_finite()
            && self.diff4.is_finite()
            && self.dev_up.is_finite()
            && self.dev_down.is_finite()
    }
}

/// Indices of the 18 devices in the design vector (each device owns two consecutive
/// entries: width then length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Device {
    UpMirrorDiode = 0,
    UpMirrorOut = 1,
    UpCascode = 2,
    UpCascodeBias = 3,
    UpSwitch = 4,
    UpDummy = 5,
    DownMirrorDiode = 6,
    DownMirrorOut = 7,
    DownCascode = 8,
    DownCascodeBias = 9,
    DownSwitch = 10,
    DownDummy = 11,
    BiasP = 12,
    BiasN = 13,
    AmpInput = 14,
    AmpLoad = 15,
    AmpTail = 16,
    RefBuffer = 17,
}

/// Behavioural charge-pump model with 36 design variables evaluated over a set of
/// PVT corners.
///
/// The paper's Table-II circuit is a proprietary SMIC 40 nm charge pump provided by
/// the authors of the WEIBO paper; this testbench substitutes a physics-motivated
/// behavioural model of the same structure (the crate docs say why):
///
/// * PMOS (UP) and NMOS (DOWN) output current sources built as cascoded mirrors with
///   series switches, referenced to a 40 µA bias branch;
/// * channel-length modulation, switch compliance, charge injection and mirror
///   mismatch make the output currents vary with the output voltage and with PVT;
/// * a replica feedback amplifier trims the UP source towards the reference;
/// * the 18 PVT corners of [`PvtCorner::standard_18`] shift `kp`, `Vth`, supply and
///   temperature.
///
/// The observable metrics are exactly those of eq. 16: the per-corner worst-case
/// spreads of the UP/DOWN currents (`diff1..diff4`), the worst-case deviation of the
/// average currents from 40 µA, and the scalar FOM.
///
/// # Example
///
/// ```
/// use nnbo_circuits::ChargePump;
///
/// let bench = ChargePump::new();
/// let perf = bench.evaluate_normalized(&[0.5; 36]);
/// assert!(perf.fom.is_finite() && perf.fom > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChargePump {
    /// Target output current in amperes (40 µA in the paper).
    pub target_current: f64,
    /// Switching frequency used for the charge-injection terms, in hertz.
    pub clock_frequency: f64,
    /// PVT corners evaluated (18 by default, as in the paper).
    corners: Vec<PvtCorner>,
    /// Number of output-voltage sweep points per corner.
    sweep_points: usize,
}

impl Default for ChargePump {
    fn default() -> Self {
        ChargePump {
            target_current: 40e-6,
            clock_frequency: 10e6,
            corners: PvtCorner::standard_18(),
            sweep_points: 13,
        }
    }
}

impl ChargePump {
    /// Creates the testbench with the standard 18 PVT corners.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a testbench restricted to the given corners (useful for tests and for
    /// nominal-corner-only experiments).
    pub fn with_corners(corners: Vec<PvtCorner>) -> Self {
        assert!(!corners.is_empty(), "at least one corner is required");
        ChargePump {
            corners,
            ..Self::default()
        }
    }

    /// The PVT corners this bench evaluates.
    pub fn corners(&self) -> &[PvtCorner] {
        &self.corners
    }

    /// Bounds of the 36 physical design variables.  Even entries are device widths
    /// (metres), odd entries device lengths (metres).
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        let mut b = Vec::with_capacity(CHARGE_PUMP_DIM);
        for _device in 0..18 {
            b.push((0.12e-6, 20e-6)); // width
            b.push((40e-9, 0.5e-6)); // length
        }
        b
    }

    /// Maps a point of the unit hypercube to physical units.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 36`.
    pub fn denormalize(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            CHARGE_PUMP_DIM,
            "expected {CHARGE_PUMP_DIM} variables"
        );
        self.bounds()
            .iter()
            .zip(x.iter())
            .map(|((lo, hi), t)| lo + t.clamp(0.0, 1.0) * (hi - lo))
            .collect()
    }

    /// Evaluates a design in normalised `[0, 1]` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 36`.
    pub fn evaluate_normalized(&self, x: &[f64]) -> ChargePumpPerformance {
        self.evaluate(&self.denormalize(x))
    }

    /// Evaluates a design in physical units, reporting a degenerate corner
    /// honestly instead of returning non-finite metrics.
    ///
    /// This is the worst-case corner sweep of the paper expressed through
    /// the [`Testbench`] measurement: every corner is measured via
    /// [`Testbench::measure`] and folded with
    /// [`ChargePumpCornerMeasurement::fold_worst`], so a non-finite corner
    /// fails the sweep *naming the corner* — it never reaches the aggregate.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when any corner produces a non-finite
    /// current difference or deviation, identifying the corner.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 36` or any variable is not strictly positive.
    pub fn try_evaluate(&self, x: &[f64]) -> Result<ChargePumpPerformance, String> {
        let mut worst = ChargePumpCornerMeasurement::zero();
        for (ci, corner) in self.corners.iter().enumerate() {
            let m = self.measure(x, &CornerContext::new(*corner, ci))?;
            worst = worst.fold_worst(&m);
        }
        Ok(ChargePumpPerformance::from_worst_corners(&worst))
    }

    /// Fallible evaluation in normalised `[0, 1]` coordinates — see
    /// [`ChargePump::try_evaluate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChargePump::try_evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 36`.
    pub fn try_evaluate_normalized(&self, x: &[f64]) -> Result<ChargePumpPerformance, String> {
        self.try_evaluate(&self.denormalize(x))
    }

    /// Evaluates a design in physical units.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 36` or any variable is not strictly positive.
    pub fn evaluate(&self, x: &[f64]) -> ChargePumpPerformance {
        assert_eq!(
            x.len(),
            CHARGE_PUMP_DIM,
            "expected {CHARGE_PUMP_DIM} variables"
        );
        assert!(
            x.iter().all(|v| *v > 0.0),
            "design variables must be positive"
        );

        let mut worst = ChargePumpCornerMeasurement::zero();
        for (ci, corner) in self.corners.iter().enumerate() {
            worst = worst.fold_worst(&self.corner_measurement(x, corner, ci));
        }
        ChargePumpPerformance::from_worst_corners(&worst)
    }

    /// The raw measurement of one corner: current spreads and target
    /// deviations of both sources over the output-voltage sweep, in
    /// amperes.
    ///
    /// `corner_index` is the corner's position in the evaluated corner
    /// list; it seeds the deterministic per-corner mismatch sign, so the
    /// same corner at the same index always measures identically.
    fn corner_measurement(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        corner_index: usize,
    ) -> ChargePumpCornerMeasurement {
        let (up_stats, down_stats) = self.corner_currents(x, corner, corner_index);
        ChargePumpCornerMeasurement {
            diff1: up_stats.max - up_stats.avg,
            diff2: up_stats.avg - up_stats.min,
            diff3: down_stats.max - down_stats.avg,
            diff4: down_stats.avg - down_stats.min,
            dev_up: (up_stats.avg - self.target_current).abs(),
            dev_down: (down_stats.avg - self.target_current).abs(),
        }
    }

    /// Width/length of one device from the design vector.
    fn geometry(x: &[f64], device: Device) -> (f64, f64) {
        let i = device as usize;
        (x[2 * i], x[2 * i + 1])
    }

    /// Aspect ratio W/L of one device.
    fn ratio(x: &[f64], device: Device) -> f64 {
        let (w, l) = Self::geometry(x, device);
        w / l
    }

    /// Per-corner current statistics of the UP (PMOS) and DOWN (NMOS) sources over
    /// the output-voltage sweep.
    fn corner_currents(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        corner_index: usize,
    ) -> (CurrentStats, CurrentStats) {
        // 40 nm-like technology constants.
        let kp_n0 = 450e-6;
        let kp_p0 = 180e-6;
        let vth_n0 = 0.38;
        let vth_p0 = 0.40;
        let lambda_per_length = 0.045e-6;

        let kp_n = kp_n0 * corner.kp_factor();
        let kp_p = kp_p0 * corner.kp_factor();
        let vth_n = vth_n0 + corner.vth_shift();
        let vth_p = vth_p0 + corner.vth_shift();
        let vdd = corner.vdd;

        // --- Reference current generation (bias branch + buffer). ---------------
        let (wbp, lbp) = Self::geometry(x, Device::BiasP);
        let (wbn, lbn) = Self::geometry(x, Device::BiasN);
        let (wbuf, lbuf) = Self::geometry(x, Device::RefBuffer);
        let bias_area = (wbp * lbp + wbn * lbn) / (4e-6 * 0.3e-6);
        let supply_sens = 0.08 / (1.0 + 4.0 * (lbp + lbn) / 0.6e-6);
        let proc_sens = 0.05 / (1.0 + bias_area);
        let temp_sens = 4e-4 / (1.0 + lbn / 0.2e-6);
        let proc_sign = match corner.process {
            Process::SlowSlow => -1.0,
            Process::TypicalTypical => 0.0,
            Process::FastFast => 1.0,
        };
        let buffer_strength = (wbuf / lbuf) / ((wbuf / lbuf) + 20.0);
        let i_ref = self.target_current
            * (1.0
                + supply_sens * (vdd - 1.1) / 1.1
                + proc_sens * proc_sign
                + temp_sens * (corner.temperature - 27.0) * (1.0 - 0.5 * buffer_strength));

        // --- Replica feedback amplifier. ----------------------------------------
        let (wai, lai) = Self::geometry(x, Device::AmpInput);
        let (_wal, lal) = Self::geometry(x, Device::AmpLoad);
        let (wat, lat) = Self::geometry(x, Device::AmpTail);
        let i_amp = 5e-6 * (wat / lat) / 20.0;
        let gm_amp = (2.0 * kp_n * (wai / lai) * (i_amp / 2.0).max(1e-9)).sqrt();
        let go_amp = (lambda_per_length / lai + lambda_per_length / lal) * (i_amp / 2.0).max(1e-9);
        let amp_gain = (gm_amp / go_amp.max(1e-12)).min(500.0);
        // Feedback correction factor in [0, 1): how strongly the UP source is servoed
        // towards the reference.
        let fb = amp_gain / (1.0 + amp_gain);

        // --- UP (PMOS) source. ---------------------------------------------------
        let up = self.source_currents(
            x,
            SourceSide::Up,
            i_ref,
            kp_p,
            vth_p,
            lambda_per_length,
            vdd,
            fb,
            corner_index,
        );
        // --- DOWN (NMOS) source. -------------------------------------------------
        let down = self.source_currents(
            x,
            SourceSide::Down,
            i_ref,
            kp_n,
            vth_n,
            lambda_per_length,
            vdd,
            0.0,
            corner_index,
        );
        (up, down)
    }

    /// Sweeps the output voltage and returns the statistics of one current source.
    #[allow(clippy::too_many_arguments)]
    fn source_currents(
        &self,
        x: &[f64],
        side: SourceSide,
        i_ref: f64,
        kp: f64,
        vth: f64,
        lambda_per_length: f64,
        vdd: f64,
        feedback: f64,
        corner_index: usize,
    ) -> CurrentStats {
        let (diode, mirror, cascode, _casc_bias, switch, dummy) = match side {
            SourceSide::Up => (
                Device::UpMirrorDiode,
                Device::UpMirrorOut,
                Device::UpCascode,
                Device::UpCascodeBias,
                Device::UpSwitch,
                Device::UpDummy,
            ),
            SourceSide::Down => (
                Device::DownMirrorDiode,
                Device::DownMirrorOut,
                Device::DownCascode,
                Device::DownCascodeBias,
                Device::DownSwitch,
                Device::DownDummy,
            ),
        };

        let ratio_mirror = Self::ratio(x, mirror) / Self::ratio(x, diode);
        let (wm, lm) = Self::geometry(x, mirror);
        let (wc, lc) = Self::geometry(x, cascode);
        let (wsw, lsw) = Self::geometry(x, switch);
        let (wdu, ldu) = Self::geometry(x, dummy);

        // Nominal mirrored current, optionally servoed towards the reference by the
        // replica amplifier (UP side only).
        let i_nominal = i_ref * ratio_mirror;
        let i_servoed = i_nominal + (i_ref - i_nominal) * feedback;

        // Systematic mirror mismatch shrinking with device area (Pelgrom-like), with
        // a deterministic per-corner sign so that different corners disagree.
        let area_um2 = (wm * lm) / 1e-12;
        let mismatch_sigma = 0.015 / area_um2.max(1e-3).sqrt();
        let corner_sign = ((corner_index as f64 + 1.0) * 2.399).sin();
        let i_base = i_servoed * (1.0 + mismatch_sigma * corner_sign);

        // Output conductance of the cascoded mirror.
        let lambda_mirror = lambda_per_length / lm;
        let gm_cascode = (2.0 * kp * (wc / lc) * i_base.max(1e-9)).sqrt();
        let gds_cascode = lambda_per_length / lc * i_base.max(1e-9);
        let cascode_boost = (gm_cascode / gds_cascode.max(1e-12)).min(400.0);
        let lambda_eff = lambda_mirror / (1.0 + cascode_boost);

        // Overdrives and switch resistance for the compliance limit.
        let vov_mirror = (2.0 * i_base / (kp * (wm / lm).max(1e-3))).max(0.0).sqrt();
        let vov_cascode = (2.0 * i_base / (kp * (wc / lc).max(1e-3))).max(0.0).sqrt();
        let r_switch = 1.0 / (kp * (wsw / lsw) * (vdd - vth - 0.1).max(0.05));
        // Wide-swing cascode biasing: the cascode only costs a saturation margin of
        // about half its overdrive on top of the mirror overdrive.
        let headroom_needed = vov_mirror + 0.5 * vov_cascode + i_base * r_switch;

        // Charge-injection spread: imbalance between the switch and its half-sized
        // dummy, converted to an average-current ripple at the clock rate.
        let cox = 12e-3; // F/m² for a 40 nm-like gate stack
        let q_inj = cox * (wsw * lsw - 0.5 * wdu * ldu).abs() * vdd;
        let i_ripple = q_inj * self.clock_frequency;

        let vref = vdd / 2.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let points = self.sweep_points.max(3);
        for k in 0..points {
            // The PLL loop filter keeps the charge-pump output inside its compliance
            // window; sweep the usable 25 %–75 % portion of the supply as the
            // specification window.
            let v = vdd * (0.25 + 0.50 * k as f64 / (points - 1) as f64);
            // Voltage across the source: UP delivers from VDD down to v, DOWN sinks
            // from v down to ground.
            let v_across = match side {
                SourceSide::Up => vdd - v,
                SourceSide::Down => v,
            };
            let headroom = v_across - headroom_needed;
            // Smooth compliance collapse when the headroom disappears.
            let compliance = 1.0 / (1.0 + (-headroom / 0.05).exp());
            let modulation = 1.0 + lambda_eff * (v_across - (vdd - vref)).max(-vdd);
            let ripple = i_ripple * (v / vdd - 0.5);
            let i = i_base * modulation * compliance + ripple;
            min = min.min(i);
            max = max.max(i);
            sum += i;
        }
        CurrentStats {
            min,
            max,
            avg: sum / points as f64,
        }
    }
}

impl Testbench for ChargePump {
    type Output = ChargePumpCornerMeasurement;

    fn name(&self) -> &str {
        "charge-pump"
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        ChargePump::bounds(self)
    }

    fn denormalize(&self, x: &[f64]) -> Vec<f64> {
        ChargePump::denormalize(self, x)
    }

    /// Measures exactly one PVT corner — the corner (and its index, which
    /// seeds the deterministic mismatch sign) comes from the context; the
    /// bench's own corner list is *not* consulted, so a [`crate::CornerSweep`]
    /// over [`PvtCorner::standard_18`] reproduces [`ChargePump::evaluate`]
    /// corner for corner.
    fn measure(
        &self,
        x: &[f64],
        ctx: &CornerContext,
    ) -> Result<ChargePumpCornerMeasurement, String> {
        assert_eq!(
            x.len(),
            CHARGE_PUMP_DIM,
            "expected {CHARGE_PUMP_DIM} variables"
        );
        assert!(
            x.iter().all(|v| *v > 0.0),
            "design variables must be positive"
        );
        let m = self.corner_measurement(x, &ctx.corner, ctx.index);
        if m.all_finite() {
            Ok(m)
        } else {
            Err(format!(
                "corner {} produced a non-finite charge-pump measurement: {m:?}",
                ctx.corner
            ))
        }
    }
}

/// Which output current source is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceSide {
    Up,
    Down,
}

/// Min / average / max of a swept current.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CurrentStats {
    min: f64,
    max: f64,
    avg: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sensibly sized design (normalised coordinates).
    fn decent_design() -> Vec<f64> {
        let mut x = vec![0.5; CHARGE_PUMP_DIM];
        // Wide, long mirrors with matched ratios; wide switches; long bias devices.
        for device in [
            Device::UpMirrorDiode,
            Device::UpMirrorOut,
            Device::DownMirrorDiode,
            Device::DownMirrorOut,
        ] {
            x[2 * device as usize] = 1.0; // width
            x[2 * device as usize + 1] = 0.5; // length
        }
        for device in [Device::UpCascode, Device::DownCascode] {
            x[2 * device as usize] = 1.0;
            x[2 * device as usize + 1] = 0.3;
        }
        for device in [Device::UpSwitch, Device::DownSwitch] {
            x[2 * device as usize] = 0.9;
            x[2 * device as usize + 1] = 0.05;
        }
        for device in [Device::UpDummy, Device::DownDummy] {
            x[2 * device as usize] = 0.62;
            x[2 * device as usize + 1] = 0.03;
        }
        for device in [Device::BiasP, Device::BiasN, Device::RefBuffer] {
            x[2 * device as usize] = 0.7;
            x[2 * device as usize + 1] = 0.9;
        }
        for device in [Device::AmpInput, Device::AmpTail] {
            x[2 * device as usize] = 0.8;
            x[2 * device as usize + 1] = 0.5;
        }
        x
    }

    #[test]
    fn evaluation_is_finite_everywhere() {
        let bench = ChargePump::new();
        for x in [
            vec![0.01; CHARGE_PUMP_DIM],
            vec![0.5; CHARGE_PUMP_DIM],
            vec![0.99; CHARGE_PUMP_DIM],
        ] {
            let p = bench.evaluate_normalized(&x);
            assert!(p.fom.is_finite() && p.fom >= 0.0);
            assert!(p.diff1.is_finite() && p.diff1 >= 0.0);
            assert!(p.deviation.is_finite() && p.deviation >= 0.0);
        }
    }

    #[test]
    fn a_good_design_is_feasible_with_small_fom() {
        let bench = ChargePump::new();
        let p = bench.evaluate_normalized(&decent_design());
        assert!(p.feasible(), "expected a feasible design, got {p:?}");
        assert!(p.fom < 10.0, "FOM {} unexpectedly large", p.fom);
    }

    #[test]
    fn fom_matches_equation_16() {
        let bench = ChargePump::new();
        let p = bench.evaluate_normalized(&decent_design());
        let expected = 0.3 * p.diff_total() + 0.5 * p.deviation;
        assert!((p.fom - expected).abs() < 1e-9);
    }

    #[test]
    fn poor_mirror_matching_increases_deviation() {
        let bench = ChargePump::new();
        let good = decent_design();
        let mut bad = good.clone();
        // Shrink the UP output mirror so its ratio is far from the diode's.
        bad[2 * Device::UpMirrorOut as usize] = 0.1;
        let p_good = bench.evaluate_normalized(&good);
        let p_bad = bench.evaluate_normalized(&bad);
        assert!(p_bad.deviation > p_good.deviation);
    }

    #[test]
    fn weak_cascode_increases_spread() {
        // A minimum-size cascode both loses output resistance (more channel-length
        // modulation reaches the output) and costs compliance headroom, so the
        // UP-current spread over the sweep must grow.
        let bench = ChargePump::new();
        let good = decent_design();
        let mut weak = good.clone();
        weak[2 * Device::UpCascode as usize] = 0.0;
        weak[2 * Device::UpCascode as usize + 1] = 0.0;
        let p_good = bench.evaluate_normalized(&good);
        let p_weak = bench.evaluate_normalized(&weak);
        assert!(
            p_weak.diff1 + p_weak.diff2 > p_good.diff1 + p_good.diff2,
            "weak-cascode spread {} vs good {}",
            p_weak.diff1 + p_weak.diff2,
            p_good.diff1 + p_good.diff2
        );
    }

    #[test]
    fn corner_restriction_reduces_worst_case() {
        // Evaluating only the nominal corner can never be worse than the full 18.
        let full = ChargePump::new();
        let nominal = ChargePump::with_corners(vec![PvtCorner::nominal()]);
        let x = decent_design();
        let p_full = full.evaluate_normalized(&x);
        let p_nom = nominal.evaluate_normalized(&x);
        assert!(p_nom.deviation <= p_full.deviation + 1e-12);
        assert!(p_nom.diff1 <= p_full.diff1 + 1e-12);
    }

    #[test]
    fn bounds_have_the_right_shape() {
        let bench = ChargePump::new();
        let b = bench.bounds();
        assert_eq!(b.len(), CHARGE_PUMP_DIM);
        assert!(b.iter().all(|(lo, hi)| *lo > 0.0 && hi > lo));
    }

    #[test]
    fn there_are_18_corners_by_default() {
        assert_eq!(ChargePump::new().corners().len(), 18);
    }

    #[test]
    fn try_evaluate_agrees_bit_for_bit_with_evaluate() {
        let bench = ChargePump::new();
        for x in [
            vec![0.01; CHARGE_PUMP_DIM],
            decent_design(),
            vec![0.99; CHARGE_PUMP_DIM],
        ] {
            let phys = bench.denormalize(&x);
            assert_eq!(bench.try_evaluate(&phys).unwrap(), bench.evaluate(&phys));
        }
    }

    #[test]
    fn a_corner_sweep_reproduces_the_monolithic_evaluation() {
        // Folding per-corner Testbench measurements over the bench's own
        // corner list must be bit-identical to the hand-rolled loop.
        let bench = ChargePump::new();
        let phys = bench.denormalize(&decent_design());
        let mut worst = ChargePumpCornerMeasurement::zero();
        for (ci, corner) in bench.corners().iter().enumerate() {
            let m = bench
                .measure(&phys, &CornerContext::new(*corner, ci))
                .unwrap();
            worst = worst.fold_worst(&m);
        }
        assert_eq!(
            ChargePumpPerformance::from_worst_corners(&worst),
            bench.evaluate(&phys)
        );
    }

    #[test]
    fn corner_measurement_depends_on_the_corner_index() {
        // The deterministic mismatch sign is seeded by the corner's index,
        // so the context must carry it for sweeps to stay bit-identical.
        let bench = ChargePump::new();
        let phys = bench.denormalize(&decent_design());
        let corner = bench.corners()[0];
        let at0 = bench
            .measure(&phys, &CornerContext::new(corner, 0))
            .unwrap();
        let at5 = bench
            .measure(&phys, &CornerContext::new(corner, 5))
            .unwrap();
        assert_ne!(at0, at5);
    }
}
