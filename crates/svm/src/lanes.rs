//! Lane-parallel scoring: one model over many windows per pass.
//!
//! A detector scores every window of a level with one model, and the
//! descriptors of horizontally adjacent windows share their blocks. When
//! those blocks are stored so that one descriptor dimension of adjacent
//! windows is a contiguous run of floats (`pcnn_hog::block::BlockRows`),
//! a pass can standardize and accumulate that dimension for many windows
//! at once. Each window keeps its own accumulator and the exact operation
//! sequence of [`LinearSvm::score`] over [`FeatureScaler::apply`], so the
//! scores are bit-identical to one-window scoring.

use crate::{FeatureScaler, LinearSvm};

/// Windows per lane group: a pass computes a whole number of groups.
pub const LANE_GROUP: usize = 8;

/// Most windows one pass scores: four lane groups.
pub const MAX_LANES: usize = 4 * LANE_GROUP;

impl LinearSvm {
    /// Scores `out.len()` windows laid out in lanes: dimension `d` of
    /// window `k` is `src[offsets[d] + k]`. `out[k]` is bit for bit
    /// `self.score(&scaler.apply(&x_k))`.
    ///
    /// Passes of up to [`MAX_LANES`] windows run one after another; a
    /// pass computes its windows rounded up to a whole [`LANE_GROUP`],
    /// so for the last pass `src` must extend up to `LANE_GROUP - 1`
    /// floats past the last window's values. The extra lanes are
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` or `scaler` do not match the model's
    /// dimensionality, or if `src` is too short for a pass.
    pub fn score_lanes(
        &self,
        scaler: &FeatureScaler,
        src: &[f32],
        offsets: &[usize],
        out: &mut [f32],
    ) {
        assert_eq!(offsets.len(), self.dim(), "feature dimensionality mismatch");
        assert_eq!(scaler.dim(), self.dim(), "scaler dimensionality mismatch");
        for (pass, out) in out.chunks_mut(MAX_LANES).enumerate() {
            let src = &src[pass * MAX_LANES..];
            match out.len().div_ceil(LANE_GROUP) {
                1 => lanes::<LANE_GROUP>(self, scaler, src, offsets, out),
                2 => lanes::<{ 2 * LANE_GROUP }>(self, scaler, src, offsets, out),
                3 => lanes::<{ 3 * LANE_GROUP }>(self, scaler, src, offsets, out),
                _ => lanes::<MAX_LANES>(self, scaler, src, offsets, out),
            }
        }
    }
}

/// Scores `out.len()` ≤ `L` windows in one pass over `L` lanes: for
/// every dimension in ascending order, each lane adds
/// `w · ((x − mean) · inv_std)` to its own accumulator, which starts at
/// the bias — the arithmetic of [`LinearSvm::score`] over
/// [`FeatureScaler::apply`], multiply and add kept separate. The
/// compile-time lane count keeps the lanes in fixed-width arrays the
/// compiler vectorizes.
fn lanes<const L: usize>(
    model: &LinearSvm,
    scaler: &FeatureScaler,
    src: &[f32],
    offsets: &[usize],
    out: &mut [f32],
) {
    let mut acc = [model.bias(); L];
    let params = model.weights().iter().zip(&scaler.mean).zip(&scaler.inv_std);
    for (&o, ((&w, &m), &s)) in offsets.iter().zip(params) {
        let x = src[o..].first_chunk::<L>().expect("lane slack after the last window");
        for (a, &v) in acc.iter_mut().zip(x) {
            *a += w * ((v - m) * s);
        }
    }
    out.copy_from_slice(&acc[..out.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 20_000) as f32 / 7919.0 - 1.2
            })
            .collect()
    }

    /// A model and scaler over `dim` dimensions, every third dimension
    /// constant in the fitting data so its `inv_std` is 0.
    fn model(dim: usize) -> (LinearSvm, FeatureScaler) {
        let examples: Vec<Vec<f32>> = (0..5)
            .map(|i| {
                let mut x = pseudo(dim, 100 + i);
                for d in (0..dim).step_by(3) {
                    x[d] = 0.25;
                }
                x
            })
            .collect();
        let scaler = FeatureScaler::fit(&examples);
        assert!(scaler.inv_std.iter().step_by(3).all(|&s| s == 0.0));
        (LinearSvm::new(pseudo(dim, 7), 0.375), scaler)
    }

    #[test]
    fn lanes_equal_one_window_scoring_bit_for_bit() {
        let dim = 45;
        let (svm, scaler) = model(dim);
        for windows in [1, 7, 8, 9, 31, 32, 33, 64, 65] {
            // A strided layout like a block plane's: each dimension's
            // run of windows sits `stride` apart, scattered by a
            // permutation, with the slack a pass may read.
            let stride = windows + 3;
            let offsets: Vec<usize> = (0..dim).map(|d| (d * 17 % dim) * stride).collect();
            let src = pseudo(dim * stride + LANE_GROUP - 1, windows as u64);
            let mut out = vec![f32::NAN; windows];
            svm.score_lanes(&scaler, &src, &offsets, &mut out);
            for (k, got) in out.iter().enumerate() {
                let x: Vec<f32> = offsets.iter().map(|&o| src[o + k]).collect();
                let want = svm.score(&scaler.apply(&x));
                assert_eq!(got.to_bits(), want.to_bits(), "{windows} windows, window {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane slack")]
    fn a_pass_needs_its_lane_slack() {
        let (svm, scaler) = model(4);
        let offsets = [0, 3, 6, 9];
        // Three windows per dimension, but no slack for the lane group.
        let src = pseudo(12, 1);
        svm.score_lanes(&scaler, &src, &offsets, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn offsets_must_cover_every_dimension() {
        let (svm, scaler) = model(4);
        svm.score_lanes(&scaler, &[0.0; 64], &[0, 1, 2], &mut [0.0; 1]);
    }
}
