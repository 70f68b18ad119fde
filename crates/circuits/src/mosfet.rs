//! Level-1 (square-law) MOSFET model with channel-length modulation.

use serde::{Deserialize, Serialize};

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Operating region of a MOSFET at a given bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OperatingRegion {
    /// `|Vgs| < |Vth|` — device is off.
    #[default]
    Cutoff,
    /// `|Vds| < |Vgs - Vth|` — linear / triode region.
    Triode,
    /// `|Vds| >= |Vgs - Vth|` — saturation.
    Saturation,
}

/// Technology-level model parameters shared by devices of one polarity.
///
/// The defaults approximate a generic 180 nm CMOS process; the charge-pump
/// testbench scales them for a 40 nm-like process and shifts them per PVT corner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosfetModel {
    /// Polarity of the device.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage magnitude in volts.
    pub vth: f64,
    /// Process transconductance `µ Cox` in A/V².
    pub kp: f64,
    /// Channel-length-modulation coefficient per metre of channel length:
    /// `λ = lambda_per_length / L` (1/V).
    pub lambda_per_length: f64,
    /// Gate-oxide capacitance per unit area in F/m².
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per unit width in F/m.
    pub overlap_cap_per_width: f64,
    /// Drain/source junction capacitance per unit width in F/m.
    pub junction_cap_per_width: f64,
}

impl MosfetModel {
    /// Generic 180 nm-like NMOS model.
    pub fn nmos_180nm() -> Self {
        MosfetModel {
            polarity: MosPolarity::Nmos,
            vth: 0.45,
            kp: 300e-6,
            lambda_per_length: 0.05e-6,
            cox: 8.5e-3,
            overlap_cap_per_width: 0.4e-9,
            junction_cap_per_width: 0.8e-9,
        }
    }

    /// Generic 180 nm-like PMOS model.
    pub fn pmos_180nm() -> Self {
        MosfetModel {
            polarity: MosPolarity::Pmos,
            vth: 0.45,
            kp: 80e-6,
            lambda_per_length: 0.06e-6,
            cox: 8.5e-3,
            overlap_cap_per_width: 0.4e-9,
            junction_cap_per_width: 0.9e-9,
        }
    }

    /// Channel-length-modulation coefficient λ (1/V) for a given channel length.
    pub fn lambda(&self, length: f64) -> f64 {
        self.lambda_per_length / length.max(1e-9)
    }
}

/// A sized MOSFET instance: a model plus width and length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosTransistor {
    /// The technology model.
    pub model: MosfetModel,
    /// Channel width in metres.
    pub width: f64,
    /// Channel length in metres.
    pub length: f64,
}

/// Small-signal parameters extracted at a DC bias point.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SmallSignalParams {
    /// Transconductance ∂Id/∂Vgs in siemens.
    pub gm: f64,
    /// Output conductance ∂Id/∂Vds in siemens.
    pub gds: f64,
    /// Drain current at the bias point (signed: positive flows drain→source for NMOS).
    pub ids: f64,
    /// Gate-source capacitance in farads.
    pub cgs: f64,
    /// Gate-drain capacitance in farads.
    pub cgd: f64,
    /// Drain-bulk capacitance in farads.
    pub cdb: f64,
    /// Operating region at the bias point.
    pub region: OperatingRegion,
}

impl MosTransistor {
    /// Creates a sized device.
    ///
    /// # Panics
    ///
    /// Panics if width or length is not strictly positive.
    pub fn new(model: MosfetModel, width: f64, length: f64) -> Self {
        assert!(
            width > 0.0 && length > 0.0,
            "device geometry must be positive"
        );
        MosTransistor {
            model,
            width,
            length,
        }
    }

    /// Aspect ratio W/L.
    pub fn aspect_ratio(&self) -> f64 {
        self.width / self.length
    }

    /// `β = kp · W / L` in A/V².
    pub fn beta(&self) -> f64 {
        self.model.kp * self.aspect_ratio()
    }

    /// Evaluates the drain current and small-signal parameters at the given terminal
    /// voltages (all referred to ground).
    ///
    /// For a PMOS device the usual sign conventions apply: the device conducts when
    /// `Vgs` is sufficiently negative, and `ids` is the current flowing from source
    /// to drain (so the returned `ids` is the current *into the drain node*, which is
    /// negative when the device sources current into the drain).
    pub fn evaluate(&self, vg: f64, vd: f64, vs: f64) -> SmallSignalParams {
        match self.model.polarity {
            MosPolarity::Nmos => self.evaluate_signed(vg - vs, vd - vs, 1.0),
            MosPolarity::Pmos => self.evaluate_signed(vs - vg, vs - vd, -1.0),
        }
    }

    /// Square-law evaluation in the "NMOS frame": `vgs`, `vds` are the effective
    /// gate-source and drain-source voltages after polarity folding, and `sign` maps
    /// the current back to the drain-node convention.
    fn evaluate_signed(&self, vgs: f64, vds: f64, sign: f64) -> SmallSignalParams {
        let vth = self.model.vth;
        let beta = self.beta();
        let lambda = self.model.lambda(self.length);
        let vov = vgs - vth;
        // Handle a negative vds by source/drain swap symmetry: the square-law model is
        // antisymmetric in vds for the triode region; for simplicity we clamp to the
        // forward region, which is the regime every testbench in this workspace uses.
        let vds = vds.max(0.0);

        let (ids_mag, gm, gds, region) = if vov <= 0.0 {
            // Subthreshold leakage is ignored by the level-1 model.
            (0.0, 0.0, 1e-12, OperatingRegion::Cutoff)
        } else if vds < vov {
            // Triode region.
            let ids = beta * (vov * vds - 0.5 * vds * vds);
            let gm = beta * vds;
            let gds = beta * (vov - vds) + 1e-12;
            (ids, gm, gds, OperatingRegion::Triode)
        } else {
            // Saturation with channel-length modulation (SPICE level-1 form,
            // Id = ½·β·Vov²·(1 + λ·Vds)).
            let ids0 = 0.5 * beta * vov * vov;
            let ids = ids0 * (1.0 + lambda * vds);
            let gm = beta * vov * (1.0 + lambda * vds);
            let gds = ids0 * lambda + 1e-12;
            (ids, gm, gds, OperatingRegion::Saturation)
        };

        let cox_area = self.model.cox * self.width * self.length;
        let cgs = match region {
            OperatingRegion::Cutoff => cox_area / 3.0,
            OperatingRegion::Triode => cox_area / 2.0,
            OperatingRegion::Saturation => 2.0 * cox_area / 3.0,
        } + self.model.overlap_cap_per_width * self.width;
        let cgd = match region {
            OperatingRegion::Triode => cox_area / 2.0,
            _ => 0.0,
        } + self.model.overlap_cap_per_width * self.width;
        let cdb = self.model.junction_cap_per_width * self.width;

        SmallSignalParams {
            gm,
            gds,
            ids: sign * ids_mag,
            cgs,
            cgd,
            cdb,
            region,
        }
    }

    /// Overdrive voltage `Vov = sqrt(2·Id/β)` for the device carrying `|id|` in
    /// saturation.
    pub fn overdrive_for_current(&self, id: f64) -> f64 {
        (2.0 * id.max(0.0) / self.beta()).sqrt()
    }

    /// Saturation transconductance for a device carrying `|id|`:
    /// `gm = sqrt(2·β·Id)`.
    pub fn gm_for_current(&self, id: f64) -> f64 {
        (2.0 * self.beta() * id.max(0.0)).sqrt()
    }

    /// Saturation output conductance for a device carrying `|id|`:
    /// `gds = λ·Id`.
    pub fn gds_for_current(&self, id: f64) -> f64 {
        self.model.lambda(self.length) * id.max(0.0) + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos(w_um: f64, l_um: f64) -> MosTransistor {
        MosTransistor::new(MosfetModel::nmos_180nm(), w_um * 1e-6, l_um * 1e-6)
    }

    fn pmos(w_um: f64, l_um: f64) -> MosTransistor {
        MosTransistor::new(MosfetModel::pmos_180nm(), w_um * 1e-6, l_um * 1e-6)
    }

    #[test]
    fn cutoff_below_threshold() {
        let m = nmos(10.0, 0.18);
        let p = m.evaluate(0.2, 1.0, 0.0);
        assert_eq!(p.region, OperatingRegion::Cutoff);
        assert_eq!(p.ids, 0.0);
        assert_eq!(p.gm, 0.0);
    }

    #[test]
    fn saturation_current_follows_square_law() {
        let m = nmos(10.0, 1.0);
        let vgs = 0.8;
        let p = m.evaluate(vgs, 1.5, 0.0);
        assert_eq!(p.region, OperatingRegion::Saturation);
        let vov = vgs - 0.45;
        let expected = 0.5 * 300e-6 * 10.0 * vov * vov;
        // Allow for the channel-length-modulation factor.
        assert!((p.ids - expected).abs() / expected < 0.1);
        assert!(p.gm > 0.0 && p.gds > 0.0);
    }

    #[test]
    fn triode_region_when_vds_is_small() {
        let m = nmos(10.0, 0.5);
        let p = m.evaluate(1.2, 0.05, 0.0);
        assert_eq!(p.region, OperatingRegion::Triode);
        // Triode conductance should roughly equal beta*vov.
        let g_expected = m.beta() * (1.2 - 0.45);
        assert!((p.gds - g_expected).abs() / g_expected < 0.2);
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let mp = pmos(20.0, 1.0);
        // Source at 1.8 V, gate 1.0 V below source, drain low: saturated PMOS.
        let p = mp.evaluate(0.8, 0.2, 1.8);
        assert_eq!(p.region, OperatingRegion::Saturation);
        // Current flows into the drain node (source → drain inside the device).
        assert!(p.ids < 0.0);
        assert!(p.gm > 0.0);
    }

    #[test]
    fn gm_increases_with_width_and_current() {
        let narrow = nmos(5.0, 1.0);
        let wide = nmos(50.0, 1.0);
        let id = 20e-6;
        assert!(wide.gm_for_current(id) > narrow.gm_for_current(id));
        assert!(narrow.gm_for_current(2.0 * id) > narrow.gm_for_current(id));
    }

    #[test]
    fn longer_channel_has_lower_output_conductance() {
        let short = nmos(10.0, 0.18);
        let long = nmos(10.0, 2.0);
        let id = 20e-6;
        assert!(long.gds_for_current(id) < short.gds_for_current(id));
    }

    #[test]
    fn analytic_small_signal_matches_numerical_derivatives() {
        let m = nmos(20.0, 0.5);
        let (vg, vd, vs) = (0.9, 1.2, 0.0);
        let p = m.evaluate(vg, vd, vs);
        let h = 1e-6;
        let gm_num = (m.evaluate(vg + h, vd, vs).ids - m.evaluate(vg - h, vd, vs).ids) / (2.0 * h);
        let gds_num = (m.evaluate(vg, vd + h, vs).ids - m.evaluate(vg, vd - h, vs).ids) / (2.0 * h);
        assert!((p.gm - gm_num).abs() / gm_num < 1e-4);
        assert!((p.gds - gds_num).abs() / gds_num.max(1e-12) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "geometry must be positive")]
    fn zero_width_is_rejected() {
        let _ = MosTransistor::new(MosfetModel::nmos_180nm(), 0.0, 1e-6);
    }
}
