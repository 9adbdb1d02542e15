//! Graceful degradation: a prioritized chain of detectors with
//! per-batch health probes.
//!
//! A [`FallbackChain`] holds [`ServiceLevel`]s in preference order —
//! typically the simulated-hardware NApprox paradigm first, then the
//! software NApprox arithmetic, then Traditional HoG as the always-works
//! floor. When a level is registered the chain runs its extractor over
//! two fixed canary patches and stores the healthy histograms; before
//! each batch the server re-runs the canaries and compares. A level
//! whose output drifts past the tolerance (dead cores, stuck axons,
//! spike loss — anything an attached
//! [`FaultPlan`](pcnn_truenorth::FaultPlan) injects) is skipped and the
//! next level serves the batch, so faults degrade accuracy and power,
//! never availability.

use pcnn_core::pipeline::TrainedDetector;
use pcnn_hog::cell::PATCH_SIZE;
use pcnn_vision::GrayImage;

/// Relative-L1 drift at which a probe declares a level unhealthy.
/// Deterministic extractors reproduce their canaries exactly, so anything
/// clearly nonzero means injected faults or broken hardware; 0.15 leaves
/// headroom for benign stochastic jitter.
pub const DEFAULT_PROBE_TOLERANCE: f32 = 0.15;

/// The two canary patches: orthogonal gradients so that between them
/// most orientation bins — and therefore most of the module's cores —
/// participate in the reference histograms.
fn canary_patches() -> [GrayImage; 2] {
    let n = PATCH_SIZE as f32;
    [
        GrayImage::from_fn(PATCH_SIZE, PATCH_SIZE, |x, y| (x as f32 + y as f32) / (2.0 * n)),
        GrayImage::from_fn(PATCH_SIZE, PATCH_SIZE, |x, y| {
            ((x as f32 * 0.9).sin() * 0.5 + 0.5) * (y as f32 + 1.0) / (n + 1.0)
        }),
    ]
}

/// Captures `detector`'s canary histograms now, for a level registered
/// later through [`ServiceLevel::with_reference`].
///
/// The split exists for serving tiers that rebuild their probe chain
/// per batch around a swappable model (the cluster shards): the healthy
/// baseline must be captured once at model-install time — capturing it
/// at chain-build time would re-baseline on possibly-faulted output and
/// blind the probe.
pub fn canary_reference(detector: &TrainedDetector) -> Vec<Vec<f32>> {
    canary_patches().iter().map(|p| detector.extractor.cell_histogram(p)).collect()
}

/// Relative L1 distance between a probe histogram and its healthy
/// reference; `1.0` if the probe produced any non-finite value.
fn drift(probe: &[f32], reference: &[f32]) -> f32 {
    if probe.len() != reference.len() || probe.iter().any(|v| !v.is_finite()) {
        return 1.0;
    }
    let diff: f32 = probe.iter().zip(reference).map(|(a, b)| (a - b).abs()).sum();
    let scale: f32 = reference.iter().map(|v| v.abs()).sum::<f32>().max(1e-6);
    diff / scale
}

/// One rung of a [`FallbackChain`]: a labelled detector plus the healthy
/// canary histograms captured when it was registered.
pub struct ServiceLevel<'d> {
    label: String,
    detector: &'d TrainedDetector,
    canaries: Vec<Vec<f32>>,
}

impl std::fmt::Debug for ServiceLevel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceLevel").field("label", &self.label).finish()
    }
}

impl<'d> ServiceLevel<'d> {
    /// Registers a level, capturing its healthy canary histograms.
    pub fn new(label: impl Into<String>, detector: &'d TrainedDetector) -> Self {
        Self::with_reference(label, detector, canary_reference(detector))
    }

    /// Registers a level against a previously captured healthy
    /// `reference` (from [`canary_reference`]) instead of baselining on
    /// the detector's current output.
    pub fn with_reference(
        label: impl Into<String>,
        detector: &'d TrainedDetector,
        reference: Vec<Vec<f32>>,
    ) -> Self {
        ServiceLevel { label: label.into(), detector, canaries: reference }
    }

    /// The level's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The detector this level serves with.
    pub fn detector(&self) -> &'d TrainedDetector {
        self.detector
    }

    /// Re-runs the canary patches and compares against the healthy
    /// references. `true` when every probe stays within
    /// [`DEFAULT_PROBE_TOLERANCE`].
    pub fn healthy(&self) -> bool {
        canary_patches().iter().zip(&self.canaries).all(|(patch, reference)| {
            drift(&self.detector.extractor.cell_histogram(patch), reference)
                <= DEFAULT_PROBE_TOLERANCE
        })
    }
}

/// A preference-ordered set of [`ServiceLevel`]s, each probed against
/// [`DEFAULT_PROBE_TOLERANCE`].
#[derive(Debug, Default)]
pub struct FallbackChain<'d> {
    levels: Vec<ServiceLevel<'d>>,
}

impl<'d> FallbackChain<'d> {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a level (lower position = higher preference), capturing
    /// its healthy canaries now.
    pub fn push(self, label: impl Into<String>, detector: &'d TrainedDetector) -> Self {
        self.push_level(ServiceLevel::new(label, detector))
    }

    /// Appends an already-built level, e.g. one carrying an
    /// install-time canary reference from
    /// [`ServiceLevel::with_reference`].
    pub fn push_level(mut self, level: ServiceLevel<'d>) -> Self {
        self.levels.push(level);
        self
    }

    /// The registered levels, most-preferred first.
    pub fn levels(&self) -> &[ServiceLevel<'d>] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the chain has no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The labels in preference order.
    pub fn labels(&self) -> Vec<String> {
        self.levels.iter().map(|l| l.label.clone()).collect()
    }

    /// Probes levels in preference order and returns the index of the
    /// first healthy one, along with how many probes failed on the way.
    /// If every probe fails the last level is drafted regardless — the
    /// chain degrades, it never refuses service.
    pub fn select(&self) -> (usize, u64) {
        for (i, level) in self.levels.iter().enumerate() {
            if i + 1 == self.levels.len() || level.healthy() {
                // Every level before `i` was probed and failed.
                return (i, i as u64);
            }
        }
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_zero_for_identical_and_one_for_nan() {
        assert_eq!(drift(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(drift(&[f32::NAN, 2.0], &[1.0, 2.0]), 1.0);
        assert_eq!(drift(&[1.0], &[1.0, 2.0]), 1.0);
        assert!(drift(&[0.0, 0.0], &[1.0, 1.0]) > 0.9);
    }

    #[test]
    fn canary_patches_are_patch_sized_and_distinct() {
        let [a, b] = canary_patches();
        assert_eq!((a.width(), a.height()), (PATCH_SIZE, PATCH_SIZE));
        assert_eq!((b.width(), b.height()), (PATCH_SIZE, PATCH_SIZE));
        assert_ne!(a.get(3, 7), b.get(3, 7));
    }
}
