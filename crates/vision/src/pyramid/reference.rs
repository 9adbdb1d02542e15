//! Golden-oracle reference for the table-driven resize.
//!
//! [`resize_bilinear`] is the per-pixel loop the pyramid ran before
//! its column and row taps: every output pixel calls
//! [`GrayImage::sample_bilinear`], which redoes its `floor`, its four
//! clamped reads and its column's weights. It is kept as the semantic
//! contract [`super::resize_bilinear`] is tested against: every level
//! must match it **bit for bit**. `tests/pyramid_table.rs` and the
//! `kernel_gemm` bench check and time the table against it.

use crate::image::GrayImage;

/// Rescales an image to `new_w × new_h`, one
/// [`GrayImage::sample_bilinear`] call per output pixel.
///
/// # Panics
///
/// Panics if either target dimension is zero.
pub fn resize_bilinear(img: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be non-zero");
    let sx = img.width() as f32 / new_w as f32;
    let sy = img.height() as f32 / new_h as f32;
    GrayImage::from_fn(new_w, new_h, |x, y| {
        // Center-aligned sampling.
        let src_x = (x as f32 + 0.5) * sx - 0.5;
        let src_y = (y as f32 + 0.5) * sy - 0.5;
        img.sample_bilinear(src_x, src_y)
    })
}
