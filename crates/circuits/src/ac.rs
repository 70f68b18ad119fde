//! Small-signal AC analysis: complex MNA sweeps and Bode metrics.

use serde::{Deserialize, Serialize};

use crate::complex::Complex;

/// Index of a circuit node.  Node [`GROUND`] (index 0) is the reference node.
pub type NodeId = usize;

/// The ground (reference) node.
pub const GROUND: NodeId = 0;

/// An element of a linear small-signal circuit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SmallSignalElement {
    /// Conductance (1/Ω) between two nodes.
    Conductance {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Conductance in siemens.
        siemens: f64,
    },
    /// Capacitor between two nodes.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Voltage-controlled current source (small-signal transconductance).
    Vccs {
        /// Output positive terminal.
        out_plus: NodeId,
        /// Output negative terminal.
        out_minus: NodeId,
        /// Positive controlling node.
        ctrl_plus: NodeId,
        /// Negative controlling node.
        ctrl_minus: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
}

/// A linear(ised) small-signal circuit with a single AC input port.
///
/// The circuit is excited by a unit AC voltage source at `input` and the transfer
/// function is read at `output`; [`AcAnalysis`] sweeps it over frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmallSignalCircuit {
    node_count: usize,
    elements: Vec<SmallSignalElement>,
    input: NodeId,
    output: NodeId,
}

impl SmallSignalCircuit {
    /// Creates an empty small-signal circuit with `node_count` nodes (including
    /// ground), an AC source at `input` and the response read at `output`.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` is out of range or is the ground node.
    pub fn new(node_count: usize, input: NodeId, output: NodeId) -> Self {
        assert!(input > 0 && input < node_count, "invalid input node");
        assert!(output > 0 && output < node_count, "invalid output node");
        SmallSignalCircuit {
            node_count,
            elements: Vec::new(),
            input,
            output,
        }
    }

    /// Adds an element.
    ///
    /// # Panics
    ///
    /// Panics if the element references an out-of-range node.
    pub fn add(&mut self, element: SmallSignalElement) {
        let check = |n: NodeId| assert!(n < self.node_count, "node {n} out of range");
        match &element {
            SmallSignalElement::Conductance { a, b, .. }
            | SmallSignalElement::Capacitor { a, b, .. } => {
                check(*a);
                check(*b);
            }
            SmallSignalElement::Vccs {
                out_plus,
                out_minus,
                ctrl_plus,
                ctrl_minus,
                ..
            } => {
                check(*out_plus);
                check(*out_minus);
                check(*ctrl_plus);
                check(*ctrl_minus);
            }
        }
        self.elements.push(element);
    }

    /// Solves the circuit at angular frequency `omega` (rad/s) and returns the
    /// complex transfer function `V(output) / V(input)`.
    ///
    /// Returns `None` if the complex MNA matrix is singular at this frequency.
    pub fn transfer_function(&self, omega: f64) -> Option<Complex> {
        // Unknowns: node voltages 1..n-1, plus the branch current of the input source.
        let n = self.node_count - 1;
        let dim = n + 1;
        let mut a = vec![vec![Complex::zero(); dim]; dim];
        let mut b = vec![Complex::zero(); dim];
        let idx = |node: NodeId| -> Option<usize> {
            if node == GROUND {
                None
            } else {
                Some(node - 1)
            }
        };

        let stamp_admittance = |a: &mut Vec<Vec<Complex>>, n1: NodeId, n2: NodeId, y: Complex| {
            let i1 = idx(n1);
            let i2 = idx(n2);
            if let Some(i) = i1 {
                a[i][i] += y;
            }
            if let Some(j) = i2 {
                a[j][j] += y;
            }
            if let (Some(i), Some(j)) = (i1, i2) {
                a[i][j] += -y;
                a[j][i] += -y;
            }
        };

        for e in &self.elements {
            match e {
                SmallSignalElement::Conductance {
                    a: n1,
                    b: n2,
                    siemens,
                } => {
                    stamp_admittance(&mut a, *n1, *n2, Complex::real(*siemens));
                }
                SmallSignalElement::Capacitor {
                    a: n1,
                    b: n2,
                    farads,
                } => {
                    stamp_admittance(&mut a, *n1, *n2, Complex::new(0.0, omega * farads));
                }
                SmallSignalElement::Vccs {
                    out_plus,
                    out_minus,
                    ctrl_plus,
                    ctrl_minus,
                    gm,
                } => {
                    let op = idx(*out_plus);
                    let om = idx(*out_minus);
                    let cp = idx(*ctrl_plus);
                    let cm = idx(*ctrl_minus);
                    for (out, s_out) in [(op, 1.0), (om, -1.0)] {
                        let Some(o) = out else { continue };
                        for (ctrl, s_ctrl) in [(cp, 1.0), (cm, -1.0)] {
                            let Some(c) = ctrl else { continue };
                            a[o][c] += Complex::real(s_out * s_ctrl * gm);
                        }
                    }
                }
            }
        }

        // Unit AC voltage source at the input node (branch current is unknown `n`).
        let input_idx = idx(self.input).expect("input is not ground");
        a[input_idx][n] += Complex::one();
        a[n][input_idx] += Complex::one();
        b[n] = Complex::one();

        let x = solve_complex(a, b)?;
        let vout = match idx(self.output) {
            Some(i) => x[i],
            None => Complex::zero(),
        };
        let vin = x[input_idx];
        if vin.abs() < 1e-30 {
            return None;
        }
        Some(vout / vin)
    }
}

/// Gaussian elimination with partial pivoting for a dense complex system.
fn solve_complex(mut a: Vec<Vec<Complex>>, mut b: Vec<Complex>) -> Option<Vec<Complex>> {
    let n = b.len();
    for k in 0..n {
        // Pivot on the largest magnitude in column k.
        let mut pivot = k;
        let mut best = a[k][k].abs();
        for i in (k + 1)..n {
            let m = a[i][k].abs();
            if m > best {
                best = m;
                pivot = i;
            }
        }
        if best < 1e-30 || !best.is_finite() {
            return None;
        }
        a.swap(k, pivot);
        b.swap(k, pivot);
        let akk = a[k][k];
        for i in (k + 1)..n {
            let factor = a[i][k] / akk;
            if factor.abs() == 0.0 {
                continue;
            }
            for j in k..n {
                let delta = factor * a[k][j];
                a[i][j] = a[i][j] - delta;
            }
            b[i] = b[i] - factor * b[k];
        }
    }
    let mut x = vec![Complex::zero(); n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum = sum - a[i][j] * x[j];
        }
        x[i] = sum / a[i][i];
        if !x[i].is_finite() {
            return None;
        }
    }
    Some(x)
}

/// A logarithmic frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcSweep {
    /// Start frequency in hertz.
    pub start_hz: f64,
    /// Stop frequency in hertz.
    pub stop_hz: f64,
    /// Number of points per decade.
    pub points_per_decade: usize,
}

impl Default for AcSweep {
    fn default() -> Self {
        AcSweep {
            start_hz: 1.0,
            stop_hz: 10e9,
            points_per_decade: 20,
        }
    }
}

impl AcSweep {
    /// The list of frequencies (hertz) covered by the sweep.
    pub fn frequencies(&self) -> Vec<f64> {
        let decades = (self.stop_hz / self.start_hz).log10();
        let total = (decades * self.points_per_decade as f64).ceil() as usize + 1;
        (0..total)
            .map(|i| self.start_hz * 10f64.powf(i as f64 / self.points_per_decade as f64))
            .filter(|f| *f <= self.stop_hz * 1.0000001)
            .collect()
    }
}

/// Open-loop frequency-response metrics extracted from an AC sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BodeMetrics {
    /// Low-frequency gain in dB.
    pub dc_gain_db: f64,
    /// Unity-gain frequency in Hz (0 when the gain never reaches unity).
    pub unity_gain_freq_hz: f64,
    /// Phase margin in degrees (meaningless when `unity_gain_freq_hz == 0`).
    pub phase_margin_deg: f64,
    /// `true` when the gain actually crossed unity inside the sweep.
    pub crossed_unity: bool,
}

/// AC analysis: sweeps a [`SmallSignalCircuit`] and extracts [`BodeMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AcAnalysis {
    /// The frequency sweep to run.
    pub sweep: AcSweep,
}

impl AcAnalysis {
    /// Creates an analysis with the given sweep.
    pub fn new(sweep: AcSweep) -> Self {
        AcAnalysis { sweep }
    }

    /// Sweeps up to the first unity-gain crossing and extracts gain / UGF /
    /// phase margin.  Frequencies where the system is singular are skipped,
    /// and no frequency past the crossing is solved.
    ///
    /// Returns `None` when the sweep produced no valid points.
    pub fn bode_metrics(&self, circuit: &SmallSignalCircuit) -> Option<BodeMetrics> {
        let mut response = self.sweep.frequencies().into_iter().filter_map(|f| {
            let omega = 2.0 * std::f64::consts::PI * f;
            circuit.transfer_function(omega).map(|h| (f, h))
        });
        let (mut f1, mut h1) = response.next()?;
        let dc_gain_db = 20.0 * h1.abs().max(1e-30).log10();

        // Find the unity-gain crossing by scanning for |H| dropping below 1, carrying
        // an unwrapped phase along the sweep so that phase excursions past ±180° do
        // not corrupt the phase-margin estimate.
        let mut prev_phase = h1.arg();
        for (f2, h2) in response {
            let (m1, m2) = (h1.abs(), h2.abs());
            let p1 = unwrap_phase(h1.arg(), prev_phase);
            let p2 = unwrap_phase(h2.arg(), p1);
            prev_phase = p1;
            if m1 >= 1.0 && m2 < 1.0 {
                // Log-log interpolation of the crossing frequency.
                let t = m1.ln() / (m1.ln() - m2.ln());
                let phase_at_ugf = p1 + (p2 - p1) * t;
                return Some(BodeMetrics {
                    dc_gain_db,
                    unity_gain_freq_hz: f1 * (f2 / f1).powf(t),
                    phase_margin_deg: 180.0 + phase_at_ugf.to_degrees(),
                    crossed_unity: true,
                });
            }
            (f1, h1) = (f2, h2);
        }
        Some(BodeMetrics {
            dc_gain_db,
            unity_gain_freq_hz: 0.0,
            phase_margin_deg: 180.0,
            crossed_unity: false,
        })
    }
}

/// Shifts `phase` by multiples of 2π so that it is within π of `reference`.
fn unwrap_phase(mut phase: f64, reference: f64) -> f64 {
    use std::f64::consts::PI;
    while phase - reference > PI {
        phase -= 2.0 * PI;
    }
    while reference - phase > PI {
        phase += 2.0 * PI;
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-pole RC low-pass filter: R from input to output, C from output to ground.
    fn rc_lowpass(r: f64, c: f64) -> SmallSignalCircuit {
        let mut ss = SmallSignalCircuit::new(3, 1, 2);
        ss.add(SmallSignalElement::Conductance {
            a: 1,
            b: 2,
            siemens: 1.0 / r,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 2,
            b: GROUND,
            farads: c,
        });
        ss
    }

    #[test]
    fn rc_lowpass_matches_analytic_response() {
        let (r, c) = (1e3, 1e-9);
        let ss = rc_lowpass(r, c);
        let f_c = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        // At the corner frequency the magnitude is 1/sqrt(2) and phase -45°.
        let h = ss
            .transfer_function(2.0 * std::f64::consts::PI * f_c)
            .unwrap();
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((h.arg().to_degrees() + 45.0).abs() < 0.5);
        // Well below the corner the gain is ~1, far above it falls 20 dB/decade.
        let low = ss
            .transfer_function(2.0 * std::f64::consts::PI * f_c / 1000.0)
            .unwrap();
        assert!((low.abs() - 1.0).abs() < 1e-3);
        let hi = ss
            .transfer_function(2.0 * std::f64::consts::PI * f_c * 100.0)
            .unwrap();
        assert!((20.0 * hi.abs().log10() + 40.0).abs() < 0.5);
    }

    #[test]
    fn single_pole_amplifier_bode_metrics() {
        // gm into an RC load: A0 = gm*R, pole at 1/(2πRC), GBW = gm/(2πC).
        let gm = 1e-3;
        let r = 100e3;
        let c = 10e-12;
        let mut ss = SmallSignalCircuit::new(3, 1, 2);
        ss.add(SmallSignalElement::Vccs {
            out_plus: GROUND,
            out_minus: 2,
            ctrl_plus: 1,
            ctrl_minus: GROUND,
            gm,
        });
        ss.add(SmallSignalElement::Conductance {
            a: 2,
            b: GROUND,
            siemens: 1.0 / r,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 2,
            b: GROUND,
            farads: c,
        });
        let metrics = AcAnalysis::new(AcSweep {
            start_hz: 10.0,
            stop_hz: 1e9,
            points_per_decade: 40,
        })
        .bode_metrics(&ss)
        .unwrap();
        let a0_db = 20.0 * (gm * r).log10();
        assert!((metrics.dc_gain_db - a0_db).abs() < 0.2);
        let gbw = gm / (2.0 * std::f64::consts::PI * c);
        assert!(
            (metrics.unity_gain_freq_hz - gbw).abs() / gbw < 0.05,
            "ugf {} vs gbw {}",
            metrics.unity_gain_freq_hz,
            gbw
        );
        // Single-pole system: phase margin ≈ 90°.
        assert!((metrics.phase_margin_deg - 90.0).abs() < 3.0);
        assert!(metrics.crossed_unity);
    }

    #[test]
    fn two_stage_miller_amplifier_matches_the_closed_form() {
        // The topology `TwoStageOpAmp` sweeps, without the nulling resistor: two
        // inverting VCCS stages with output conductances and node capacitances,
        // and the Miller capacitor Cc across the second stage.
        use std::f64::consts::PI;
        let (gm1, g1, c1) = (100e-6, 1e-6, 0.1e-12);
        let (gm2, g2, cl) = (1e-3, 10e-6, 1e-12);
        let cc = 1e-12;
        let mut ss = SmallSignalCircuit::new(4, 1, 3);
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
            farads: c1,
        });
        ss.add(SmallSignalElement::Vccs {
            out_plus: 3,
            out_minus: GROUND,
            ctrl_plus: 2,
            ctrl_minus: GROUND,
            gm: gm2,
        });
        ss.add(SmallSignalElement::Conductance {
            a: 3,
            b: GROUND,
            siemens: g2,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 3,
            b: GROUND,
            farads: cl,
        });
        ss.add(SmallSignalElement::Capacitor {
            a: 2,
            b: 3,
            farads: cc,
        });
        let metrics = AcAnalysis::new(AcSweep {
            start_hz: 10.0,
            stop_hz: 10e9,
            points_per_decade: 40,
        })
        .bode_metrics(&ss)
        .unwrap();
        assert!(metrics.crossed_unity);

        let a0_db = 20.0 * (gm1 * gm2 / (g1 * g2)).log10();
        assert!(
            (metrics.dc_gain_db - a0_db).abs() < 0.2,
            "gain {} dB vs {a0_db} dB",
            metrics.dc_gain_db
        );
        let gbw = gm1 / (2.0 * PI * cc);
        let f_u = metrics.unity_gain_freq_hz;
        assert!((f_u - gbw).abs() / gbw < 0.05, "ugf {f_u} vs gbw {gbw}");
        // Non-dominant pole and right-half-plane zero of the Miller-compensated pair.
        let f_p2 = gm2 * cc / (2.0 * PI * (c1 * cl + cc * (c1 + cl)));
        let f_z = gm2 / (2.0 * PI * cc);
        let pm = 90.0 - (f_u / f_p2).atan().to_degrees() - (f_u / f_z).atan().to_degrees();
        assert!(
            (metrics.phase_margin_deg - pm).abs() < 2.0,
            "phase margin {} vs {pm}",
            metrics.phase_margin_deg
        );
    }

    #[test]
    fn sweep_frequencies_are_log_spaced_and_bounded() {
        let sweep = AcSweep {
            start_hz: 1.0,
            stop_hz: 1e3,
            points_per_decade: 10,
        };
        let f = sweep.frequencies();
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f.last().unwrap() - 1000.0).abs() / 1000.0 < 1e-9);
    }

    #[test]
    fn attenuator_never_crosses_unity() {
        // A resistive divider has gain < 1 at all frequencies.
        let mut ss = SmallSignalCircuit::new(3, 1, 2);
        ss.add(SmallSignalElement::Conductance {
            a: 1,
            b: 2,
            siemens: 1e-3,
        });
        ss.add(SmallSignalElement::Conductance {
            a: 2,
            b: GROUND,
            siemens: 1e-3,
        });
        let metrics = AcAnalysis::default().bode_metrics(&ss).unwrap();
        assert!(!metrics.crossed_unity);
        assert_eq!(metrics.unity_gain_freq_hz, 0.0);
        assert!((metrics.dc_gain_db + 6.02).abs() < 0.1);
    }
}
