//! The table-driven resize against its oracle: every image
//! `pyramid::resize_bilinear` computes — and every level `scale_pyramid`
//! builds from it — must equal the per-pixel loop of
//! `pyramid::reference::resize_bilinear` bit for bit, on odd sources,
//! one-pixel, one-row and one-column targets, identity, upscales,
//! downscales and the pyramids of the test image sizes.

use pcnn_vision::pyramid::{reference, resize_bilinear, scale_pyramid, PyramidConfig};
use pcnn_vision::GrayImage;

/// Seeded pixels in `[-0.05, 1.05]`: mostly in range, a few outside,
/// as images are mid-computation.
fn noise(width: usize, height: usize, seed: u64) -> GrayImage {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    GrayImage::from_fn(width, height, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 1101) as f32 / 1000.0 - 0.05
    })
}

fn assert_bits_eq(case: &str, got: &GrayImage, want: &GrayImage) {
    assert_eq!((got.width(), got.height()), (want.width(), want.height()), "{case}: shape");
    for (i, (a, b)) in got.pixels().iter().zip(want.pixels()).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{case} pixel {i}: table {a} != reference {b}");
    }
}

fn check(img: &GrayImage, w: usize, h: usize) {
    let case = format!("{}x{} -> {w}x{h}", img.width(), img.height());
    assert_bits_eq(&case, &resize_bilinear(img, w, h), &reference::resize_bilinear(img, w, h));
}

#[test]
fn odd_sources_match_the_reference_at_every_target_shape() {
    for (i, (w, h)) in [(1, 1), (2, 1), (7, 3), (13, 7), (101, 57)].into_iter().enumerate() {
        let img = noise(w, h, 0x70 + i as u64);
        let targets = [
            (1, 1),
            (w, 1),
            (1, h),
            (2 * w + 1, 1),
            (1, 3 * h + 2),
            (w, h),
            (2 * w + 1, 3 * h + 2),
            (w + 1, h),
            (w, h + 1),
            (w.div_ceil(2), h.div_ceil(2)),
            (w.div_ceil(3), h.div_ceil(2)),
            (w.saturating_sub(1).max(1), h.saturating_sub(1).max(1)),
            (3, 5),
        ];
        for (tw, th) in targets {
            check(&img, tw, th);
        }
    }
}

#[test]
fn every_pyramid_level_matches_the_reference() {
    let one_pixel = PyramidConfig { min_width: 1, min_height: 1, ..PyramidConfig::default() };
    for (i, (w, h)) in [(64, 128), (320, 240), (640, 480)].into_iter().enumerate() {
        let img = noise(w, h, 0x90 + i as u64);
        for config in [PyramidConfig::default(), one_pixel] {
            let pyramid = scale_pyramid(&img, config);
            assert!(!pyramid.levels.is_empty());
            assert_bits_eq("level 0", &pyramid.levels[0].image, &img);
            for (l, level) in pyramid.levels.iter().enumerate().skip(1) {
                let (lw, lh) = (level.image.width(), level.image.height());
                let want = reference::resize_bilinear(&img, lw, lh);
                assert_bits_eq(&format!("{w}x{h} level {l} ({lw}x{lh})"), &level.image, &want);
            }
        }
    }
}
