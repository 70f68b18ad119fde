//! The declarative testbench layer: design-space mapping, circuit build,
//! analyses and measured metrics behind one trait, plus the PVT
//! corner-sweep combinator that expands a testbench into a family of
//! corner variants.
//!
//! A [`Testbench`] owns everything one evaluation needs — the bounds of
//! its physical design space, the circuit model, the analyses to run
//! and the metrics it measures — and exposes them through a single
//! corner-aware entry point, [`Testbench::measure`].  [`CornerSweep`]
//! composes a testbench with a list of [`PvtCorner`]s, turning "one design
//! point" into "K corner measurements" ([`CornerSweep::run_corner`]); the
//! consumer (`nnbo-core`'s `SweepProblem`) decides how they combine.
//!
//! Failure is explicit everywhere: a corner whose analyses do not converge
//! (or measure something non-finite) surfaces as an `Err` naming the
//! corner — never as a `NaN` smuggled through an aggregation.

use crate::pvt::PvtCorner;

/// The context of one corner evaluation inside a sweep: the corner itself
/// plus its stable position in the sweep's corner list.
///
/// The index is part of the context because some benches derive
/// deterministic per-corner disagreement from it (the charge pump's
/// Pelgrom-style mirror-mismatch sign): evaluating corner `k` through a
/// sweep must reproduce exactly what a monolithic loop over the same
/// corner list would compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerContext {
    /// The PVT corner to build the circuit under.
    pub corner: PvtCorner,
    /// The corner's position in the sweep's corner list.
    pub index: usize,
}

impl CornerContext {
    /// Context for corner `index` of a sweep.
    pub fn new(corner: PvtCorner, index: usize) -> Self {
        CornerContext { corner, index }
    }

    /// The nominal corner as a single-corner context — what "no sweep"
    /// means: measuring a bench under this context is the bench's plain
    /// evaluation.
    pub fn nominal() -> Self {
        CornerContext::new(PvtCorner::nominal(), 0)
    }
}

/// A declarative circuit testbench: one type owning its design-space
/// mapping, its circuit model, the analyses it runs and the metrics it
/// measures.
///
/// Implementations must be deterministic and corner-pure: measuring the
/// same physical point under the same [`CornerContext`] always produces
/// the same output, and the context is the *only* PVT input (a bench
/// holding its own corner list must ignore it here).  That purity is what
/// lets the batched sweep evaluation in `nnbo-core` fan a [`CornerSweep`]'s
/// corners out over worker threads with bit-identical results.
pub trait Testbench: Sync {
    /// The measured output of one corner evaluation.
    type Output: Clone + Send + 'static;

    /// A short human-readable name used in reports.
    fn name(&self) -> &str;

    /// Lower/upper bounds of every physical design variable.
    fn bounds(&self) -> Vec<(f64, f64)>;

    /// Dimension of the design space.
    fn dim(&self) -> usize {
        self.bounds().len()
    }

    /// Maps a point of the unit hypercube onto the physical design space
    /// (affine per coordinate, clamped to `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn denormalize(&self, x: &[f64]) -> Vec<f64> {
        let bounds = self.bounds();
        assert_eq!(
            x.len(),
            bounds.len(),
            "expected {} design variables",
            bounds.len()
        );
        bounds
            .iter()
            .zip(x.iter())
            .map(|((lo, hi), t)| lo + t.clamp(0.0, 1.0) * (hi - lo))
            .collect()
    }

    /// Builds the circuit at a *physical* design point under the given
    /// corner context, runs the analyses and measures the output —
    /// reporting failure (non-convergence, non-finite measurements)
    /// honestly.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the analyses fail or measure something
    /// non-finite at this corner.
    fn measure(&self, x: &[f64], ctx: &CornerContext) -> Result<Self::Output, String>;

    /// [`Testbench::measure`] at a point in normalised `[0, 1]`
    /// coordinates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Testbench::measure`].
    fn measure_normalized(&self, x: &[f64], ctx: &CornerContext) -> Result<Self::Output, String> {
        self.measure(&self.denormalize(x), ctx)
    }
}

/// A testbench expanded over a list of PVT corners: the declarative form of
/// "evaluate this circuit at K corners".
///
/// [`CornerSweep::run_corner`] measures one corner and labels its failure
/// with the corner.  `nnbo-core`'s `SweepProblem` fans those per-corner
/// calls out over the process-wide worker pool and aggregates them.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSweep<T> {
    bench: T,
    corners: Vec<PvtCorner>,
}

impl<T: Testbench> CornerSweep<T> {
    /// Expands `bench` over `corners`.
    ///
    /// # Panics
    ///
    /// Panics if `corners` is empty.
    pub fn new(bench: T, corners: Vec<PvtCorner>) -> Self {
        assert!(
            !corners.is_empty(),
            "a corner sweep needs at least one corner"
        );
        CornerSweep { bench, corners }
    }

    /// The sweep over the standard 18 corners of the paper's charge-pump
    /// experiment ([`PvtCorner::standard_18`]).
    pub fn standard_18(bench: T) -> Self {
        Self::new(bench, PvtCorner::standard_18())
    }

    /// The underlying testbench.
    pub fn bench(&self) -> &T {
        &self.bench
    }

    /// The corners this sweep evaluates, in sweep order.
    pub fn corners(&self) -> &[PvtCorner] {
        &self.corners
    }

    /// Index of the sweep's nominal corner: the first corner equal to
    /// [`PvtCorner::nominal`], or corner 0 when the nominal corner is not
    /// part of the sweep.
    pub fn nominal_index(&self) -> usize {
        self.corners
            .iter()
            .position(|c| *c == PvtCorner::nominal())
            .unwrap_or(0)
    }

    /// Measures corner `k` at a physical design point.
    ///
    /// # Errors
    ///
    /// The bench's failure reason, prefixed with the corner it happened at.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn run_corner(&self, x: &[f64], k: usize) -> Result<T::Output, String> {
        let corner = self.corners[k];
        self.bench
            .measure(x, &CornerContext::new(corner, k))
            .map_err(|reason| self.label_failure(k, &reason))
    }

    /// Prefixes a corner failure with the corner it happened at, so an
    /// aggregated failure still names the culprit.
    fn label_failure(&self, k: usize, reason: &str) -> String {
        format!(
            "corner {} ({}/{}) failed: {reason}",
            self.corners[k],
            k + 1,
            self.corners.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opamp::TwoStageOpAmp;

    #[test]
    fn denormalize_default_is_the_affine_clamped_map() {
        let bench = TwoStageOpAmp::new();
        let x = [0.3, 0.5, 0.7, 0.2, 0.6, 0.4, 0.8, 0.5, 0.35, 0.45];
        let via_trait = Testbench::denormalize(&bench, &x);
        let inherent = bench.denormalize(&x);
        assert_eq!(via_trait.as_slice(), inherent.as_slice());
        // Clamping matches too.
        let clamped = Testbench::denormalize(&bench, &[-1.0; 10]);
        assert_eq!(clamped, bench.denormalize(&[0.0; 10]).to_vec());
    }

    #[test]
    fn nominal_context_measurement_equals_the_plain_bench() {
        let bench = TwoStageOpAmp::new();
        let x = bench.denormalize(&[0.5; 10]);
        let plain = bench.try_evaluate(&x).unwrap();
        let via_ctx = bench.measure(&x, &CornerContext::nominal()).unwrap();
        assert_eq!(plain, via_ctx);
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn empty_corner_list_is_rejected() {
        let _ = CornerSweep::new(TwoStageOpAmp::new(), Vec::new());
    }
}
