//! Trinary weight projection.
//!
//! Eedn "maintains a high precision hidden value during training which is
//! then mapped to one of the trinary weights (−1, 0, 1) during network
//! operation". The projection is a deterministic round with a dead zone:
//! shadows in `(-0.5, 0.5)` deploy as 0, otherwise as ±1. Shadows are
//! clipped to `[-1, 1]` after every update so the projection stays
//! responsive to gradient pressure in both directions.
//!
//! A trinary layer keeps its deployed weights resident, bitplane-packed
//! once per group, the way the paper's classifier is programmed into
//! crossbars once and then streams every window through them.

use pcnn_kernels::TrinaryMatrix;
pub use pcnn_kernels::TrinaryStats;
use std::sync::OnceLock;

/// Shadow-weight clipping bound.
pub const SHADOW_CLIP: f32 = 1.0;
/// Dead-zone half-width: shadows below this magnitude deploy as zero.
pub const ZERO_BAND: f32 = 0.5;

/// Projects one shadow weight onto `{-1, 0, 1}`.
#[inline]
pub fn trinarize(shadow: f32) -> f32 {
    if shadow >= ZERO_BAND {
        1.0
    } else if shadow <= -ZERO_BAND {
        -1.0
    } else {
        0.0
    }
}

/// Clips one shadow weight into `[-SHADOW_CLIP, SHADOW_CLIP]`.
#[inline]
pub fn clip_shadow(shadow: f32) -> f32 {
    shadow.clamp(-SHADOW_CLIP, SHADOW_CLIP)
}

/// Projects a whole slice, writing the trinary values into `out`, and
/// returns the population counts — the same [`TrinaryStats`] the
/// bitplane packer in `pcnn-kernels` reports, so deployment code can
/// size/attribute the multiply-free path without a second pass.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn trinarize_into(shadows: &[f32], out: &mut [f32]) -> TrinaryStats {
    assert_eq!(shadows.len(), out.len(), "length mismatch");
    let mut stats = TrinaryStats { plus: 0, minus: 0, total: shadows.len() };
    for (o, &s) in out.iter_mut().zip(shadows) {
        let t = trinarize(s);
        *o = t;
        if t == 1.0 {
            stats.plus += 1;
        } else if t == -1.0 {
            stats.minus += 1;
        }
    }
    stats
}

/// Population counts of the deployed projection of `shadows`, without
/// materialising the projected values.
pub fn stats(shadows: &[f32]) -> TrinaryStats {
    let mut s = TrinaryStats { plus: 0, minus: 0, total: shadows.len() };
    for &v in shadows {
        let t = trinarize(v);
        if t == 1.0 {
            s.plus += 1;
        } else if t == -1.0 {
            s.minus += 1;
        }
    }
    s
}

/// Fraction of non-zero deployed weights — the connectivity density a
/// crossbar would actually program.
///
/// The empty slice has density `0.0` by definition (no weight is
/// nonzero, so a crossbar would program no connections); this matches
/// [`TrinaryStats::density`] on an empty buffer.
pub fn density(shadows: &[f32]) -> f32 {
    stats(shadows).density()
}

/// The deployed weights of a trinary grouped layer, one packed
/// [`TrinaryMatrix`] per group, kept in the layer for its inference
/// path.
///
/// Built from the shadow weights on the first inference after
/// construction, deserialization or [`invalidate`](Self::invalidate),
/// then shared by every later call (and by every thread, since layers
/// infer through `&self`). Layers invalidate it whenever their shadow
/// weights change. Not persisted: a restored layer repacks on first
/// use, so snapshots carry the shadows only.
#[derive(Debug, Default, Clone)]
pub(crate) struct ResidentWeights(OnceLock<Vec<TrinaryMatrix>>);

impl ResidentWeights {
    /// The packed deployment of `shadows`, whose `groups` contiguous
    /// row-major blocks are each a `rows × cols` weight matrix.
    pub(crate) fn get(
        &self,
        shadows: &[f32],
        groups: usize,
        rows: usize,
        cols: usize,
    ) -> &[TrinaryMatrix] {
        self.0.get_or_init(|| {
            assert_eq!(shadows.len(), groups * rows * cols, "weight count mismatch");
            let mut deployed = vec![0.0f32; shadows.len()];
            trinarize_into(shadows, &mut deployed);
            deployed
                .chunks_exact(rows * cols)
                .map(|w| {
                    let mut packed = TrinaryMatrix::default();
                    packed.pack(w, cols, rows, cols);
                    packed
                })
                .collect()
        })
    }

    /// Drops the packed weights after a shadow-weight change; the next
    /// [`get`](Self::get) rebuilds them.
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_values() {
        assert_eq!(trinarize(0.9), 1.0);
        assert_eq!(trinarize(0.5), 1.0);
        assert_eq!(trinarize(0.49), 0.0);
        assert_eq!(trinarize(0.0), 0.0);
        assert_eq!(trinarize(-0.49), 0.0);
        assert_eq!(trinarize(-0.5), -1.0);
        assert_eq!(trinarize(-3.0), -1.0);
    }

    #[test]
    fn clip_bounds() {
        assert_eq!(clip_shadow(5.0), 1.0);
        assert_eq!(clip_shadow(-5.0), -1.0);
        assert_eq!(clip_shadow(0.3), 0.3);
    }

    #[test]
    fn bulk_projection_reports_stats() {
        let s = [0.7, -0.7, 0.1];
        let mut out = [0.0; 3];
        let stats = trinarize_into(&s, &mut out);
        assert_eq!(out, [1.0, -1.0, 0.0]);
        assert_eq!(stats, TrinaryStats { plus: 1, minus: 1, total: 3 });
        assert_eq!(stats.nonzero(), 2);
    }

    #[test]
    fn stats_match_projection_without_materialising() {
        let s = [0.7, -0.7, 0.1, -0.9];
        let mut out = [0.0; 4];
        assert_eq!(stats(&s), trinarize_into(&s, &mut out));
    }

    #[test]
    fn density_counts_nonzero() {
        assert_eq!(density(&[0.7, -0.7, 0.1, 0.2]), 0.5);
        assert_eq!(density(&[0.1, 0.2]), 0.0);
        assert_eq!(density(&[0.9, -0.9]), 1.0);
    }

    #[test]
    fn density_of_empty_slice_is_zero_by_definition() {
        // Documented behavior, not an accident: an empty buffer programs
        // no crossbar connections.
        assert_eq!(density(&[]), 0.0);
        assert_eq!(stats(&[]), TrinaryStats::default());
        assert_eq!(TrinaryStats::default().density(), 0.0);
    }
}
