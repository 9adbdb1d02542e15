//! Golden-oracle reference for the NApprox cell kernel.
//!
//! These are the per-pixel loops [`NApproxHog`] ran before its
//! table-driven kernel, kept verbatim as the semantic contract the
//! kernel is tested against: every histogram the kernel computes must
//! match these **bit for bit**, in full precision and quantized, at
//! every bin count and vote threshold. The full-precision loop
//! evaluates `cos` and `sin` of every direction at every pixel; the
//! quantized loop builds its inner products in a `Vec` per pixel and
//! wraps its neighbour indices with `%`. `tests/napprox_kernel.rs` and
//! the `kernel_gemm` bench check and time the kernel against them.

use super::{NApproxHog, NApproxQuant};
use crate::cell::{check_patch, CELL_SIZE, PATCH_SIZE};
use pcnn_vision::GrayImage;
use std::f32::consts::PI;

/// `model`'s histogram of one padded 10×10 cell patch, computed pixel
/// by pixel.
///
/// # Panics
///
/// Panics if `patch` is not 10×10.
pub fn cell_histogram(model: &NApproxHog, patch: &GrayImage) -> Vec<f32> {
    check_patch(patch);
    match model.quant {
        None => histogram_fp(model, patch),
        Some(q) => histogram_quantized(model, patch, q),
    }
}

/// Bin center angles in radians.
fn centers(model: &NApproxHog) -> Vec<f32> {
    (0..model.bins).map(|b| 2.0 * PI * (b as f32 + 0.5) / model.bins as f32).collect()
}

fn histogram_fp(model: &NApproxHog, patch: &GrayImage) -> Vec<f32> {
    let centers = centers(model);
    let mut hist = vec![0.0f32; model.bins];
    for y in 1..=CELL_SIZE {
        for x in 1..=CELL_SIZE {
            let (xi, yi) = (x as isize, y as isize);
            let ix = patch.get_clamped(xi + 1, yi) - patch.get_clamped(xi - 1, yi);
            let iy = patch.get_clamped(xi, yi - 1) - patch.get_clamped(xi, yi + 1);
            let mut best = f32::NEG_INFINITY;
            let mut best_bin = 0;
            for (b, &theta) in centers.iter().enumerate() {
                let ip = ix * theta.cos() + iy * theta.sin();
                if ip > best {
                    best = ip;
                    best_bin = b;
                }
            }
            if best > model.vote_threshold {
                hist[best_bin] += 1.0;
            }
        }
    }
    hist
}

fn histogram_quantized(model: &NApproxHog, patch: &GrayImage, q: NApproxQuant) -> Vec<f32> {
    let weights = model.weight_table(q.weight_scale);
    // Integer threshold in the same fixed-point scale as the inner
    // products: level × weight_scale.
    let thresh =
        (model.vote_threshold * q.input.levels() as f32 * q.weight_scale as f32).round() as i64;
    // Quantize the patch to integer levels once.
    let mut lv = [[0i64; PATCH_SIZE]; PATCH_SIZE];
    for (y, row) in lv.iter_mut().enumerate() {
        for (x, v) in row.iter_mut().enumerate() {
            *v = i64::from(q.input.level_of(patch.get(x, y)));
        }
    }
    let mut hist = vec![0.0f32; model.bins];
    for y in 1..=CELL_SIZE {
        for x in 1..=CELL_SIZE {
            let ix = lv[y][x + 1] - lv[y][x - 1];
            let iy = lv[y - 1][x] - lv[y + 1][x];
            let ips: Vec<i64> =
                weights.iter().map(|&(c, s)| ix * i64::from(c) + iy * i64::from(s)).collect();
            // The hardware comparison circuit (pcnn-corelets): bin b
            // votes when it weakly beats its previous neighbour,
            // strictly beats its next neighbour, and clears the
            // magnitude threshold. For the quantized-cosine profile
            // this selects the argmax, with hardware tie-breaking.
            for b in 0..model.bins {
                let prev = ips[(b + model.bins - 1) % model.bins];
                let next = ips[(b + 1) % model.bins];
                if ips[b] >= prev && ips[b] > next && ips[b] > thresh {
                    hist[b] += 1.0;
                }
            }
        }
    }
    hist
}
