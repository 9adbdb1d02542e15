//! NApprox: HoG re-expressed in TrueNorth-efficient primitives.
//!
//! Table 1 of the paper maps each HoG component onto an operation that is
//! cheap on a neurosynaptic core:
//!
//! | component | original | TrueNorth computation |
//! |---|---|---|
//! | gradient vector | filters (-1 0 1), (-1 0 1)ᵀ → Ix, Iy | filters ±(-1 0 1), ±(-1 0 1)ᵀ → Ix, −Ix, Iy, −Iy (pattern matching) |
//! | gradient angle | `atan(Iy/Ix)` | `argmax_θ (Ix·cosθ + Iy·sinθ)` (comparison) |
//! | gradient magnitude | `√(Ix²+Iy²)` | `Ix·cosθ + Iy·sinθ` at the winning θ (inner product) |
//! | histogram | magnitude-weighted, 9 or 18 bins | **count**-voted, 18 bins over 0°–360° (inner product) |
//!
//! The identity behind the angle/magnitude approximation: `Ix·cosθ +
//! Iy·sinθ = ‖∇I‖·cos(θ − φ)` where `φ` is the true gradient angle, so the
//! candidate direction with the largest inner product is the closest to
//! `φ`, and its inner product underestimates the magnitude by at most
//! `cos(10°) ≈ 1.5 %` for 18 candidates.
//!
//! Two precision modes:
//!
//! * **full precision** (`NApprox(fp)` in Figure 4) — `f32` arithmetic;
//! * **quantized** — pixels quantized to an n-spike level, direction
//!   weights rounded to small integers (the synaptic weight LUT), all
//!   arithmetic integral. This is bit-equivalent to the corelet
//!   implementation in `pcnn-corelets`, which is how the workspace
//!   reproduces the ≥ 99.5 % hardware/software correlation check.
//!
//! # The cell kernel
//!
//! [`NApproxHog`] computes cells with a table-driven kernel, its
//! override of [`CellExtractor::cell_histograms`]. One call builds the
//! direction table once — `f32` `(cos θ, sin θ)` per bin, or the integer
//! weight LUT and vote threshold of the quantized mode — then walks each
//! cell's rows straight from the image and computes a row's 8 pixels as
//! fixed-width lanes: the same products and sums per pixel as the
//! per-pixel loop (multiply and add kept separate), the same strict-`>`
//! first-maximum tie-break, and the corelet's neighbour comparisons
//! voted without branches. The per-pixel loops it replaced are kept
//! verbatim in [`reference`](mod@reference), the oracle every kernel
//! histogram matches bit for bit.

use crate::cell::{cell_patch, check_histograms, check_patch, CellExtractor, CELL_SIZE};
use crate::quantize::Quantization;
use pcnn_vision::GrayImage;
use serde::{Deserialize, Serialize};
use std::f32::consts::PI;
use std::ops::Sub;

pub mod reference;

/// Quantization parameters for the TrueNorth-compatible mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NApproxQuant {
    /// Input pixel quantization (64-spike = 6-bit in the paper).
    pub input: Quantization,
    /// Scale for the integer direction weights: `w = round(cosθ · scale)`.
    /// TrueNorth synaptic LUT entries are 9-bit signed integers, so 64
    /// keeps the weights comfortably in hardware range while giving
    /// ~0.9° direction fidelity.
    pub weight_scale: i32,
}

impl Default for NApproxQuant {
    fn default() -> Self {
        NApproxQuant { input: Quantization::spikes(64), weight_scale: 64 }
    }
}

/// The NApprox cell extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NApproxHog {
    /// Number of direction bins (the paper uses 18 over 0°–360°).
    pub bins: usize,
    /// `None` = full precision; `Some` = TrueNorth-compatible quantized.
    pub quant: Option<NApproxQuant>,
    /// Minimum normalized gradient magnitude for a pixel to cast a vote.
    /// Count voting needs a floor, otherwise flat regions vote noise.
    pub vote_threshold: f32,
}

impl Default for NApproxHog {
    fn default() -> Self {
        Self::full_precision()
    }
}

impl NApproxHog {
    /// The full-precision software model, `NApprox(fp)`.
    ///
    /// The vote threshold is the count-voting noise floor: a pixel only
    /// votes when its gradient magnitude clears it. 0.06 sits above the
    /// synthetic dataset's sensor noise (±0.03/pixel) while keeping weak
    /// true edges; the `ablation_study` bench sweeps this choice.
    pub fn full_precision() -> Self {
        NApproxHog { bins: 18, quant: None, vote_threshold: 0.06 }
    }

    /// The TrueNorth-compatible model at `spikes`-spike input precision.
    pub fn quantized(spikes: u32) -> Self {
        NApproxHog {
            bins: 18,
            quant: Some(NApproxQuant {
                input: Quantization::spikes(spikes),
                ..NApproxQuant::default()
            }),
            vote_threshold: 0.06,
        }
    }

    /// The integer direction-weight table `(cos, sin)` per bin for the
    /// quantized mode.
    pub fn weight_table(&self, scale: i32) -> Vec<(i32, i32)> {
        (0..self.bins)
            .map(|b| {
                let theta = self.center(b);
                (
                    (theta.cos() * scale as f32).round() as i32,
                    (theta.sin() * scale as f32).round() as i32,
                )
            })
            .collect()
    }

    /// The center angle of bin `b` in radians.
    fn center(&self, b: usize) -> f32 {
        2.0 * PI * (b as f32 + 0.5) / self.bins as f32
    }

    /// The full-precision kernel: Table 1's argmax over the `f32`
    /// direction table `(cos θ, sin θ)`, built once for all `origins`.
    fn cells_fp(&self, img: &GrayImage, origins: &[(usize, usize)], out: &mut [f32]) {
        let table: Vec<(f32, f32)> = (0..self.bins)
            .map(|b| {
                let theta = self.center(b);
                (theta.cos(), theta.sin())
            })
            .collect();
        let mut votes = vec![[0.0; LANES]; self.bins];
        for (&origin, hist) in origins.iter().zip(out.chunks_exact_mut(self.bins)) {
            for_each_row(
                img,
                origin,
                |v| v,
                |ix, iy| {
                    let mut best = [f32::NEG_INFINITY; LANES];
                    let mut best_bin = [0u32; LANES];
                    for (b, &(c, s)) in table.iter().enumerate() {
                        for k in 0..LANES {
                            // Multiply and add kept separate, as in the
                            // reference; the strict `>` keeps the first
                            // maximal direction on ties.
                            let ip = ix[k] * c + iy[k] * s;
                            let better = ip > best[k];
                            best[k] = if better { ip } else { best[k] };
                            best_bin[k] = if better { b as u32 } else { best_bin[k] };
                        }
                    }
                    for k in 0..LANES {
                        let vote = best[k] > self.vote_threshold;
                        votes[best_bin[k] as usize][k] += if vote { 1.0 } else { 0.0 };
                    }
                },
            );
            drain_votes(&mut votes, hist);
        }
    }

    /// The quantized kernel: integer inner products against the weight
    /// table, voted by the corelet's neighbour comparison circuit, with
    /// the table and threshold built once for all `origins`. Its lanes
    /// compute in `f32`, which holds every integer of magnitude up to
    /// 2^24 exactly; a configuration whose levels, inner products or
    /// threshold could pass that (none of the paper's: 256 spikes at
    /// weight scale 64 stay below 2^15) computes each cell with the
    /// per-pixel [`reference`](mod@reference) instead.
    fn cells_quantized(
        &self,
        q: NApproxQuant,
        img: &GrayImage,
        origins: &[(usize, usize)],
        out: &mut [f32],
    ) {
        let weights = self.weight_table(q.weight_scale);
        // Integer threshold in the same fixed-point scale as the inner
        // products: level × weight_scale.
        let thresh =
            (self.vote_threshold * q.input.levels() as f32 * q.weight_scale as f32).round() as i64;
        // A level difference is at most `levels`, an inner product at
        // most `levels` times the widest `|cos| + |sin|` weight pair.
        let levels = i64::from(q.input.levels());
        let widest = weights.iter().map(|&(c, s)| i64::from(c).abs() + i64::from(s).abs());
        let largest = levels.max(levels.saturating_mul(widest.max().unwrap_or(0)));
        let exact = 1 << f32::MANTISSA_DIGITS;
        if largest > exact || thresh.unsigned_abs() > exact as u64 {
            for (&(x, y), hist) in origins.iter().zip(out.chunks_exact_mut(self.bins)) {
                hist.copy_from_slice(&reference::cell_histogram(
                    self,
                    &cell_patch(img, x, y, 0, 0),
                ));
            }
            return;
        }
        let table: Vec<(f32, f32)> = weights.iter().map(|&(c, s)| (c as f32, s as f32)).collect();
        let thresh = thresh as f32;
        let bins = self.bins;
        let mut votes = vec![[0.0; LANES]; bins];
        let level = |v: f32| q.input.level_of(v) as f32;
        for (&origin, hist) in origins.iter().zip(out.chunks_exact_mut(bins)) {
            for_each_row(img, origin, level, |ix, iy| {
                let ip = |(c, s): (f32, f32)| -> [f32; LANES] {
                    std::array::from_fn(|k| ix[k] * c + iy[k] * s)
                };
                let beats = |a: &[f32; LANES], b: &[f32; LANES]| -> [bool; LANES] {
                    std::array::from_fn(|k| a[k] > b[k])
                };
                // The hardware comparison circuit (pcnn-corelets): bin b
                // votes when it weakly beats its previous neighbour,
                // strictly beats its next neighbour, and clears the
                // magnitude threshold. One walk round the direction
                // circle compares each adjacent pair once: exact
                // integers never compare unordered, so "b weakly beats
                // b − 1" is "b − 1 does not strictly beat b".
                let first = ip(table[0]);
                let mut current = first;
                let mut beaten = beats(&ip(table[bins - 1]), &first);
                for (b, votes) in votes.iter_mut().enumerate() {
                    let next = table.get(b + 1).map_or(first, |&w| ip(w));
                    let wins = beats(&current, &next);
                    for k in 0..LANES {
                        let vote = !beaten[k] & wins[k] & (current[k] > thresh);
                        votes[k] += if vote { 1.0 } else { 0.0 };
                    }
                    (beaten, current) = (wins, next);
                }
            });
            drain_votes(&mut votes, hist);
        }
    }
}

/// Pixels one lane pass covers: one row of a cell.
const LANES: usize = CELL_SIZE;
/// One cell row with its left and right derivative neighbours.
const SPAN: usize = LANES + 2;

/// Walks the 8 rows of the cell whose top-left pixel is `(x0, y0)`,
/// handing `row` each row's lanes of Table 1's pattern matches
/// `Ix = p(x+1, y) − p(x−1, y)` and `Iy = p(x, y−1) − p(x, y+1)` over
/// pixels mapped by `level`. Each image row is read once per cell,
/// straight from the image.
#[inline]
fn for_each_row<T: Copy + Sub<Output = T>>(
    img: &GrayImage,
    (x0, y0): (usize, usize),
    level: impl Fn(f32) -> T + Copy,
    mut row: impl FnMut([T; LANES], [T; LANES]),
) {
    let y0 = y0 as isize;
    let mut up = row_span(img, x0, y0 - 1, level);
    let mut mid = row_span(img, x0, y0, level);
    for y in y0..y0 + CELL_SIZE as isize {
        let down = row_span(img, x0, y + 1, level);
        let ix = std::array::from_fn(|k| mid[k + 2] - mid[k]);
        let iy = std::array::from_fn(|k| up[k + 1] - down[k + 1]);
        row(ix, iy);
        (up, mid) = (mid, down);
    }
}

/// Pixels `x0 − 1 ..= x0 + 8` of image row `y`, mapped by `level`;
/// rows and columns beyond the image replicate its border.
#[inline]
fn row_span<T>(img: &GrayImage, x0: usize, y: isize, level: impl Fn(f32) -> T) -> [T; SPAN] {
    let w = img.width();
    let y = y.clamp(0, img.height() as isize - 1) as usize;
    let row = &img.pixels()[y * w..][..w];
    match x0.checked_sub(1).and_then(|x| row.get(x..)?.first_chunk::<SPAN>()) {
        Some(span) => span.map(level),
        None => std::array::from_fn(|i| level(row[(x0 + i).saturating_sub(1).min(w - 1)])),
    }
}

/// Writes one cell's per-lane vote counts into its histogram and clears
/// them. Counts are small integers, exact in `f32` in any order, so each
/// bin equals the reference's sum of `1.0` per vote.
fn drain_votes(votes: &mut [[f32; LANES]], hist: &mut [f32]) {
    for (h, lanes) in hist.iter_mut().zip(votes) {
        *h = lanes.iter().sum();
        *lanes = [0.0; LANES];
    }
}

impl CellExtractor for NApproxHog {
    fn bins(&self) -> usize {
        self.bins
    }

    /// The [`cell_histograms`](CellExtractor::cell_histograms) kernel on
    /// the one cell at origin (1, 1) of the padded patch.
    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        check_patch(patch);
        let mut hist = vec![0.0; self.bins];
        self.cell_histograms(patch, &[(1, 1)], &mut hist);
        hist
    }

    fn cell_histograms(&self, img: &GrayImage, origins: &[(usize, usize)], out: &mut [f32]) {
        check_histograms(self.bins, origins, out);
        // Nothing to vote into; the reference's loops never index then.
        if self.bins == 0 {
            return;
        }
        match self.quant {
            None => self.cells_fp(img, origins, out),
            Some(q) => self.cells_quantized(q, img, origins, out),
        }
    }

    fn name(&self) -> &str {
        if self.quant.is_some() {
            "napprox-hog"
        } else {
            "napprox-hog-fp"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::pearson_correlation;

    fn ramp_x() -> GrayImage {
        GrayImage::from_fn(10, 10, |x, _| x as f32 / 10.0)
    }

    #[test]
    fn x_ramp_votes_bin_near_zero_degrees() {
        let hog = NApproxHog::full_precision();
        let h = hog.cell_histogram(&ramp_x());
        assert_eq!(h.len(), 18);
        // Angle 0 is on the boundary of bins 17 and 0 (centers at ±10 deg);
        // the argmax tie-breaks to the first maximal bin.
        let total: f32 = h.iter().sum();
        assert_eq!(total, 64.0, "all 64 cell pixels vote, hist = {h:?}");
        assert!(h[0] + h[17] == 64.0, "hist = {h:?}");
    }

    #[test]
    fn opposite_ramps_land_opposite_bins() {
        let hog = NApproxHog::full_precision();
        let up = hog.cell_histogram(&ramp_x());
        let down = hog.cell_histogram(&GrayImage::from_fn(10, 10, |x, _| 1.0 - x as f32 / 10.0));
        let peak_up = up.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let peak_down = down.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let d = (peak_up as i32 - peak_down as i32).rem_euclid(18);
        assert!(d == 9 || d == 8 || d == 10, "peaks {peak_up} vs {peak_down}");
    }

    #[test]
    fn flat_patch_casts_no_votes() {
        let hog = NApproxHog::full_precision();
        let h = hog.cell_histogram(&GrayImage::from_fn(10, 10, |_, _| 0.5));
        assert!(h.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn votes_are_counts() {
        let hog = NApproxHog::full_precision();
        let h = hog.cell_histogram(&ramp_x());
        for &v in &h {
            assert_eq!(v.fract(), 0.0, "count voting yields integers");
        }
        assert!(h.iter().sum::<f32>() <= 64.0);
    }

    #[test]
    fn inner_product_tracks_true_angle() {
        // Sweep ramp orientations; the winning bin center must stay within
        // one bin width of the true gradient angle.
        let hog = NApproxHog::full_precision();
        for k in 0..12 {
            let phi = 2.0 * PI * k as f32 / 12.0 + 0.03;
            let (c, s) = (phi.cos(), phi.sin());
            // Luminance ramp with gradient along phi (image y points down);
            // amplitude chosen so the magnitude clears the vote threshold.
            let img = GrayImage::from_fn(10, 10, |x, y| 0.5 + 0.05 * (c * x as f32 - s * y as f32));
            let h = hog.cell_histogram(&img);
            let peak = h.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            let center = 2.0 * PI * (peak as f32 + 0.5) / 18.0;
            let mut diff = (center - phi).abs();
            if diff > PI {
                diff = 2.0 * PI - diff;
            }
            assert!(diff <= 2.0 * PI / 18.0, "phi={phi:.2} peak bin {peak} center {center:.2}");
        }
    }

    #[test]
    fn quantized_matches_fp_shape() {
        // At 64-spike precision the quantized histograms correlate > 0.9
        // with full precision at the descriptor level (concatenated over
        // many cells). Per-cell correlation is looser: with integer pixel
        // levels a few borderline pixels legitimately flip to an adjacent
        // direction bin.
        let fp = NApproxHog::full_precision();
        let qz = NApproxHog::quantized(64);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for k in 0..32 {
            let img = GrayImage::from_fn(10, 10, |x, y| {
                0.5 + 0.3
                    * ((x as f32 * (0.5 + 0.05 * k as f32)).sin()
                        * (y as f32 * 0.7 + k as f32).cos())
            });
            a.extend(fp.cell_histogram(&img));
            b.extend(qz.cell_histogram(&img));
        }
        let r = pearson_correlation(&a, &b).unwrap();
        assert!(r > 0.85, "correlation {r}");
    }

    #[test]
    fn coarser_quantization_degrades_monotonically_on_average() {
        let fp = NApproxHog::full_precision();
        let imgs: Vec<GrayImage> = (0..24)
            .map(|k| {
                GrayImage::from_fn(10, 10, |x, y| {
                    0.5 + 0.25
                        * ((x as f32 * (0.3 + k as f32 * 0.11)).sin() + (y as f32 * 0.5).cos())
                        / 2.0
                })
            })
            .collect();
        let mean_corr = |spikes: u32| {
            let qz = NApproxHog::quantized(spikes);
            let mut acc = 0.0;
            let mut n = 0;
            for img in &imgs {
                let a = fp.cell_histogram(img);
                let b = qz.cell_histogram(img);
                if let Some(r) = pearson_correlation(&a, &b) {
                    acc += r;
                    n += 1;
                }
            }
            acc / n as f64
        };
        let c64 = mean_corr(64);
        let c4 = mean_corr(4);
        assert!(c64 > c4, "64-spike corr {c64} should beat 4-spike {c4}");
        assert!(c64 > 0.9);
    }

    #[test]
    fn weight_table_is_small_integers() {
        let hog = NApproxHog::quantized(64);
        for (c, s) in hog.weight_table(16) {
            assert!(c.abs() <= 16 && s.abs() <= 16);
        }
        // Adjacent directions differ.
        let t = hog.weight_table(16);
        assert_ne!(t[0], t[1]);
    }
}
