//! Acquisition functions for constrained Bayesian optimization.
//!
//! The paper uses the *weighted expected improvement* (wEI, eq. 7): the expected
//! improvement of the objective multiplied by the probability that every constraint
//! is satisfied, both evaluated under the surrogate models.  Expected improvement
//! (eq. 6), probability of improvement and the upper confidence bound are also
//! provided for the ablation experiments.

use serde::{Deserialize, Serialize};

use crate::surrogate::Prediction;

/// Standard normal probability density function.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function.
///
/// Uses the Abramowitz & Stegun 7.1.26 rational approximation of `erf`, accurate to
/// about `1.5e-7` — far more than the acquisition maximisation needs.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Which acquisition function the optimizer maximises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AcquisitionKind {
    /// Constraint-weighted expected improvement (eq. 7) — the paper's choice.
    #[default]
    WeightedExpectedImprovement,
    /// Plain expected improvement of the objective (constraints handled by a large
    /// penalty on the predicted mean).
    ExpectedImprovement,
    /// Lower confidence bound `µ − κ·σ` (for minimisation), weighted by the
    /// feasibility probability.
    LowerConfidenceBound {
        /// Exploration weight κ.
        kappa: f64,
    },
    /// Probability of improvement weighted by the feasibility probability.
    ProbabilityOfImprovement,
}

/// Expected improvement (eq. 6) for a *minimisation* problem with incumbent `tau`.
///
/// # Example
///
/// ```
/// use nnbo_core::acquisition::expected_improvement;
/// use nnbo_core::Prediction;
///
/// // A prediction well below the incumbent has large EI.
/// let good = expected_improvement(&Prediction::new(-1.0, 0.01), 0.0);
/// let bad = expected_improvement(&Prediction::new(2.0, 0.01), 0.0);
/// assert!(good > bad);
/// ```
pub fn expected_improvement(prediction: &Prediction, tau: f64) -> f64 {
    let sigma = prediction.std();
    if sigma < 1e-12 {
        return (tau - prediction.mean).max(0.0);
    }
    let lambda = (tau - prediction.mean) / sigma;
    // EI is mathematically non-negative; the erf approximation inside the cdf
    // can push the closed form a few ulps below zero for very unpromising
    // points, so clamp (the property tests pin EI ≥ 0 exactly).
    (sigma * (lambda * normal_cdf(lambda) + normal_pdf(lambda))).max(0.0)
}

/// Probability of improvement over the incumbent `tau` (minimisation).
pub fn probability_of_improvement(prediction: &Prediction, tau: f64) -> f64 {
    let sigma = prediction.std();
    if sigma < 1e-12 {
        return if prediction.mean < tau { 1.0 } else { 0.0 };
    }
    normal_cdf((tau - prediction.mean) / sigma)
}

/// Probability that a constraint `g(x) < 0` is satisfied, given the surrogate's
/// prediction of `g(x)`.
pub fn feasibility_probability(prediction: &Prediction) -> f64 {
    let sigma = prediction.std();
    if sigma < 1e-12 {
        return if prediction.mean < 0.0 { 1.0 } else { 0.0 };
    }
    normal_cdf(-prediction.mean / sigma)
}

/// Joint feasibility probability over all constraints (the `∏ PF_i(x)` factor of
/// eq. 7).
pub fn joint_feasibility(constraints: &[Prediction]) -> f64 {
    constraints.iter().map(feasibility_probability).product()
}

/// Weighted expected improvement (eq. 7): `EI(x) · ∏ PF_i(x)`.
///
/// When no feasible incumbent exists yet, pass `tau = None`: the acquisition then
/// reduces to the joint feasibility probability, which drives the search towards
/// the feasible region first.
pub fn weighted_expected_improvement(
    objective: &Prediction,
    constraints: &[Prediction],
    tau: Option<f64>,
) -> f64 {
    let pf = joint_feasibility(constraints);
    match tau {
        Some(t) => expected_improvement(objective, t) * pf,
        None => pf,
    }
}

/// Evaluates the selected acquisition (larger is better) for a minimisation problem.
pub fn evaluate(
    kind: AcquisitionKind,
    objective: &Prediction,
    constraints: &[Prediction],
    tau: Option<f64>,
) -> f64 {
    match kind {
        AcquisitionKind::WeightedExpectedImprovement => {
            weighted_expected_improvement(objective, constraints, tau)
        }
        AcquisitionKind::ExpectedImprovement => {
            // Constraint violations are pushed into the objective mean as a penalty.
            let violation: f64 = constraints.iter().map(|c| c.mean.max(0.0)).sum();
            let penalised = Prediction::new(objective.mean + 10.0 * violation, objective.variance);
            expected_improvement(&penalised, tau.unwrap_or(0.0))
        }
        AcquisitionKind::LowerConfidenceBound { kappa } => {
            let pf = joint_feasibility(constraints);
            (-(objective.mean - kappa * objective.std())) * pf.max(1e-6)
        }
        AcquisitionKind::ProbabilityOfImprovement => {
            let pf = joint_feasibility(constraints);
            match tau {
                Some(t) => probability_of_improvement(objective, t) * pf,
                None => pf,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841344746).abs() < 1e-6);
        assert!((normal_cdf(-1.96) - 0.024998).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_pdf_is_symmetric_and_peaks_at_zero() {
        assert!((normal_pdf(0.0) - 0.398942280).abs() < 1e-8);
        assert!((normal_pdf(1.3) - normal_pdf(-1.3)).abs() < 1e-15);
        assert!(normal_pdf(0.0) > normal_pdf(0.5));
    }

    #[test]
    fn ei_is_nonnegative_and_increases_with_uncertainty() {
        let tau = 1.0;
        let certain = expected_improvement(&Prediction::new(1.5, 1e-8), tau);
        assert!((0.0..1e-6).contains(&certain));
        let uncertain = expected_improvement(&Prediction::new(1.5, 4.0), tau);
        assert!(uncertain > certain);
        // With zero uncertainty EI reduces to max(tau - mean, 0).
        assert!((expected_improvement(&Prediction::new(0.25, 0.0), 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ei_encourages_exploitation_of_low_means() {
        let tau = 0.0;
        let low = expected_improvement(&Prediction::new(-2.0, 0.1), tau);
        let high = expected_improvement(&Prediction::new(2.0, 0.1), tau);
        assert!(low > high);
        assert!(low > 1.8 && low < 2.2);
    }

    #[test]
    fn ei_and_wei_match_monte_carlo_means() {
        // Eq. 6-7 are expectations under independent Gaussians: EI = E[max(τ−Y, 0)]
        // and wEI = E[max(τ−Y, 0)·∏ 1{G_i < 0}].  Estimate both from seeded draws
        // and accept a gap of 5 standard errors plus the 1.5e-7 error of the
        // `normal_cdf` approximation.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const DRAWS: usize = 200_000;
        let constraints = [
            Prediction::new(-0.5, 0.36),
            Prediction::new(0.3, 1.0),
            Prediction::new(-1.2, 0.25),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        // Box–Muller: two independent standard normals per pair of uniforms.
        let mut normal_pair = || {
            let r = (-2.0 * (1.0 - rng.gen::<f64>()).ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
            (r * theta.cos(), r * theta.sin())
        };
        for mean in [-0.8, 0.0, 0.6] {
            for std in [0.4, 1.5] {
                for tau in [-0.3, 0.5] {
                    let objective = Prediction::new(mean, std * std);
                    // Running sums of the k-constraint integrand and its square.
                    let mut sum = [0.0; 4];
                    let mut sum_sq = [0.0; 4];
                    for _ in 0..DRAWS {
                        let (z0, z1) = normal_pair();
                        let (z2, z3) = normal_pair();
                        let mut value = (tau - (mean + std * z0)).max(0.0);
                        sum[0] += value;
                        sum_sq[0] += value * value;
                        for (k, (c, z)) in constraints.iter().zip([z1, z2, z3]).enumerate() {
                            if c.mean + c.std() * z >= 0.0 {
                                value = 0.0;
                            }
                            sum[k + 1] += value;
                            sum_sq[k + 1] += value * value;
                        }
                    }
                    let n = DRAWS as f64;
                    for k in 0..4 {
                        let mc = sum[k] / n;
                        let variance = (sum_sq[k] - n * mc * mc) / (n - 1.0);
                        let tolerance = 5.0 * (variance / n).sqrt() + 1.5e-7;
                        let closed =
                            weighted_expected_improvement(&objective, &constraints[..k], Some(tau));
                        assert!(
                            (closed - mc).abs() < tolerance,
                            "wEI with {k} constraints at (μ={mean}, σ={std}, τ={tau}): \
                             closed form {closed} vs Monte-Carlo {mc} ± {tolerance}"
                        );
                        if k == 0 {
                            let ei = expected_improvement(&objective, tau);
                            assert!((ei - mc).abs() < tolerance, "EI {ei} vs {mc}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn feasibility_probability_tracks_constraint_margin() {
        // g < 0 is "satisfied": strongly negative mean → probability near 1.
        assert!(feasibility_probability(&Prediction::new(-3.0, 1.0)) > 0.99);
        assert!(feasibility_probability(&Prediction::new(3.0, 1.0)) < 0.01);
        assert!((feasibility_probability(&Prediction::new(0.0, 1.0)) - 0.5).abs() < 1e-7);
        // Deterministic predictions collapse to an indicator.
        assert_eq!(feasibility_probability(&Prediction::new(-1.0, 0.0)), 1.0);
        assert_eq!(feasibility_probability(&Prediction::new(1.0, 0.0)), 0.0);
    }

    #[test]
    fn wei_multiplies_ei_by_joint_feasibility() {
        let obj = Prediction::new(-1.0, 0.5);
        let feasible = vec![Prediction::new(-2.0, 0.1), Prediction::new(-3.0, 0.1)];
        let infeasible = vec![Prediction::new(2.0, 0.1)];
        let tau = Some(0.0);
        let a = weighted_expected_improvement(&obj, &feasible, tau);
        let b = weighted_expected_improvement(&obj, &infeasible, tau);
        assert!(a > 100.0 * b);
        let ei = expected_improvement(&obj, 0.0);
        assert!(a <= ei + 1e-12);
    }

    #[test]
    fn without_incumbent_wei_reduces_to_feasibility_search() {
        let obj = Prediction::new(5.0, 1.0);
        let constraints = vec![Prediction::new(-0.5, 0.25)];
        let acq = weighted_expected_improvement(&obj, &constraints, None);
        assert!((acq - feasibility_probability(&constraints[0])).abs() < 1e-12);
    }

    #[test]
    fn all_acquisition_kinds_prefer_the_obviously_better_point() {
        let better = Prediction::new(-1.0, 0.2);
        let worse = Prediction::new(1.0, 0.2);
        let feasible = vec![Prediction::new(-1.0, 0.05)];
        for kind in [
            AcquisitionKind::WeightedExpectedImprovement,
            AcquisitionKind::ExpectedImprovement,
            AcquisitionKind::LowerConfidenceBound { kappa: 2.0 },
            AcquisitionKind::ProbabilityOfImprovement,
        ] {
            let a = evaluate(kind, &better, &feasible, Some(0.0));
            let b = evaluate(kind, &worse, &feasible, Some(0.0));
            assert!(a > b, "{kind:?} did not prefer the better point");
        }
    }
}
