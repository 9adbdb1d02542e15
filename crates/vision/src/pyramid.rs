//! Bilinear image rescaling and the multi-scale detection pyramid.
//!
//! The paper scans each test image with "15 HoG windows, where each window
//! size increases by 1.1×" — equivalently, the image is downscaled by
//! successive 1/1.1 factors and scanned with a fixed 64×128 window. For
//! the full-HD power analysis it uses six scale layers (§5.2).

use crate::image::GrayImage;
use serde::{Deserialize, Serialize};

pub mod reference;

/// One output column's (or row's) bilinear taps: the two clamped source
/// indices and their weights `1 − f` and `f`.
#[derive(Debug, Clone, Copy)]
struct Tap {
    lo: usize,
    hi: usize,
    w_lo: f32,
    w_hi: f32,
}

/// The taps of `out_len` center-aligned samples over `src_len` source
/// pixels, each computed exactly as [`reference::resize_bilinear`] and
/// [`GrayImage::sample_bilinear`] compute it: `src = (i + 0.5)·s − 0.5`,
/// then `floor`, then `f = src − floor`, with border-replicated indices.
fn taps(src_len: usize, out_len: usize) -> Vec<Tap> {
    let s = src_len as f32 / out_len as f32;
    let last = src_len as isize - 1;
    (0..out_len)
        .map(|i| {
            let src = (i as f32 + 0.5) * s - 0.5;
            let floor = src.floor();
            let f = src - floor;
            let lo = floor as isize;
            Tap {
                lo: lo.clamp(0, last) as usize,
                hi: (lo + 1).clamp(0, last) as usize,
                w_lo: 1.0 - f,
                w_hi: f,
            }
        })
        .collect()
}

/// Rescales an image to `new_w × new_h` with bilinear interpolation.
///
/// Builds the column and row taps once, then fills the image row by row
/// from two source rows. Every pixel evaluates the same products and
/// sums, in the same order, as [`GrayImage::sample_bilinear`] does, so
/// the result equals [`reference::resize_bilinear`] bit for bit.
///
/// # Panics
///
/// Panics if either target dimension is zero.
pub fn resize_bilinear(img: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be non-zero");
    let width = img.width();
    let cols = taps(width, new_w);
    let mut out = Vec::with_capacity(new_w * new_h);
    for row in taps(img.height(), new_h) {
        let top = &img.pixels()[row.lo * width..][..width];
        let bottom = &img.pixels()[row.hi * width..][..width];
        out.extend(cols.iter().map(|c| {
            top[c.lo] * c.w_lo * row.w_lo
                + top[c.hi] * c.w_hi * row.w_lo
                + bottom[c.lo] * c.w_lo * row.w_hi
                + bottom[c.hi] * c.w_hi * row.w_hi
        }));
    }
    GrayImage::from_vec(new_w, new_h, out)
}

/// One level of a scale pyramid.
#[derive(Debug, Clone)]
pub struct PyramidLevel {
    /// The rescaled image.
    pub image: GrayImage,
    /// The scale relative to the original (`1.0` = original size; `< 1`
    /// means the level is smaller, so detections map back by dividing
    /// coordinates by `scale`).
    pub scale: f32,
}

/// A scale pyramid of an image.
#[derive(Debug, Clone)]
pub struct Pyramid {
    /// Levels, largest (scale 1.0) first.
    pub levels: Vec<PyramidLevel>,
    /// The scale step between adjacent levels.
    pub step: f32,
}

/// Parameters for pyramid construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PyramidConfig {
    /// Multiplicative scale step between levels (the paper uses 1.1).
    pub step: f32,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Minimum level width in pixels; levels smaller than the detection
    /// window are pointless, so pass at least the window width.
    pub min_width: usize,
    /// Minimum level height in pixels.
    pub min_height: usize,
}

impl Default for PyramidConfig {
    fn default() -> Self {
        PyramidConfig {
            step: 1.1,
            max_levels: 15,
            min_width: crate::window::WINDOW_WIDTH,
            min_height: crate::window::WINDOW_HEIGHT,
        }
    }
}

/// Builds the scale pyramid of `img`.
///
/// # Panics
///
/// Panics if `config.step <= 1.0`.
pub fn scale_pyramid(img: &GrayImage, config: PyramidConfig) -> Pyramid {
    assert!(config.step > 1.0, "pyramid step must exceed 1.0");
    let mut levels = Vec::new();
    let mut scale = 1.0f32;
    for _ in 0..config.max_levels {
        let w = (img.width() as f32 * scale).round() as usize;
        let h = (img.height() as f32 * scale).round() as usize;
        if w < config.min_width || h < config.min_height {
            break;
        }
        let image =
            if (scale - 1.0).abs() < 1e-6 { img.clone() } else { resize_bilinear(img, w, h) };
        levels.push(PyramidLevel { image, scale });
        scale /= config.step;
    }
    Pyramid { levels, step: config.step }
}

/// The per-level cell grids of the paper's §5.2 full-HD analysis:
/// `{240×135, 160×90, 106×60, 71×40, 47×26, 31×17}` cells of 8×8 pixels
/// across six 1.1×-stepped scaling layers (with the paper's rounding),
/// totalling 57,749 cells.
pub fn full_hd_cell_grid() -> Vec<(usize, usize)> {
    vec![(240, 135), (160, 90), (106, 60), (71, 40), (47, 26), (31, 17)]
}

/// Total number of 8×8 cells across the full-HD scale layers (57,749).
pub fn full_hd_total_cells() -> usize {
    full_hd_cell_grid().iter().map(|(w, h)| w * h).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_identity() {
        let img = GrayImage::from_fn(8, 6, |x, y| (x * y) as f32 / 48.0);
        let out = resize_bilinear(&img, 8, 6);
        for (a, b) in img.pixels().iter().zip(out.pixels()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn downscale_averages() {
        let img = GrayImage::from_vec(2, 1, vec![0.0, 1.0]);
        let out = resize_bilinear(&img, 1, 1);
        assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn resize_preserves_constant() {
        let img = GrayImage::from_fn(13, 7, |_, _| 0.42);
        let out = resize_bilinear(&img, 29, 17);
        assert!(out.pixels().iter().all(|&p| (p - 0.42).abs() < 1e-5));
    }

    #[test]
    fn pyramid_levels_shrink_by_step() {
        let img = GrayImage::new(640, 480);
        let p = scale_pyramid(&img, PyramidConfig::default());
        assert!(p.levels.len() > 5);
        assert_eq!(p.levels[0].image.width(), 640);
        for pair in p.levels.windows(2) {
            let ratio = pair[0].image.width() as f32 / pair[1].image.width() as f32;
            assert!((ratio - 1.1).abs() < 0.02, "ratio {ratio}");
        }
    }

    #[test]
    fn pyramid_stops_at_window_size() {
        let img = GrayImage::new(100, 150);
        let p = scale_pyramid(&img, PyramidConfig::default());
        for l in &p.levels {
            assert!(l.image.width() >= crate::window::WINDOW_WIDTH);
            assert!(l.image.height() >= crate::window::WINDOW_HEIGHT);
        }
        // 100/1.1^2 < 84 but window width is 64: limited by width 100 -> levels
        // while >= 64: 100, 91, 83, 75, 69, 63(stop) -> also height limits.
        assert!(!p.levels.is_empty());
    }

    #[test]
    fn max_levels_respected() {
        let img = GrayImage::new(4000, 4000);
        let p = scale_pyramid(&img, PyramidConfig { max_levels: 4, ..PyramidConfig::default() });
        assert_eq!(p.levels.len(), 4);
    }

    #[test]
    fn full_hd_cells_match_paper() {
        assert_eq!(full_hd_total_cells(), 57_749);
    }
}
