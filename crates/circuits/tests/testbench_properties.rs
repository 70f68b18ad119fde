//! Property tests of the sizing testbenches: the op-amp and charge-pump
//! outputs are finite, consistent and deterministic over the whole design
//! space.

use nnbo_circuits::{ChargePump, TwoStageOpAmp, CHARGE_PUMP_DIM, OPAMP_DIM};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn opamp_outputs_are_finite_over_the_whole_design_space(
        x in prop::collection::vec(0.0..1.0f64, OPAMP_DIM)
    ) {
        let bench = TwoStageOpAmp::new();
        let p = bench.evaluate_normalized(&x);
        prop_assert!(p.gain_db.is_finite());
        prop_assert!(p.ugf_hz.is_finite() && p.ugf_hz >= 0.0);
        prop_assert!(p.pm_deg.is_finite());
        prop_assert!(p.power_w > 0.0);
        prop_assert!(p.area_m2 > 0.0);
    }

    #[test]
    fn opamp_evaluation_is_deterministic(
        x in prop::collection::vec(0.0..1.0f64, OPAMP_DIM)
    ) {
        let bench = TwoStageOpAmp::new();
        prop_assert_eq!(bench.evaluate_normalized(&x), bench.evaluate_normalized(&x));
    }

    #[test]
    fn chargepump_outputs_are_finite_and_consistent(
        x in prop::collection::vec(0.0..1.0f64, CHARGE_PUMP_DIM)
    ) {
        let bench = ChargePump::new();
        let p = bench.evaluate_normalized(&x);
        prop_assert!(p.fom.is_finite() && p.fom >= 0.0);
        prop_assert!(p.diff1 >= 0.0 && p.diff2 >= 0.0 && p.diff3 >= 0.0 && p.diff4 >= 0.0);
        prop_assert!(p.deviation >= 0.0);
        // FOM is exactly the weighted combination of its parts (eq. 16).
        let recomputed = 0.3 * p.diff_total() + 0.5 * p.deviation;
        prop_assert!((p.fom - recomputed).abs() < 1e-9);
    }

    #[test]
    fn chargepump_evaluation_is_deterministic(
        x in prop::collection::vec(0.0..1.0f64, CHARGE_PUMP_DIM)
    ) {
        let bench = ChargePump::new();
        prop_assert_eq!(bench.evaluate_normalized(&x), bench.evaluate_normalized(&x));
    }
}
