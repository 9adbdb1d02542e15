//! Randomized tests for geometry, NMS and evaluation invariants, driven
//! by seeded `rand` sampling over many cases per property.

use pcnn_vision::pyramid::resize_bilinear;
use pcnn_vision::{non_maximum_suppression, BoundingBox, Detection, GrayImage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_box(rng: &mut SmallRng) -> BoundingBox {
    BoundingBox::new(
        rng.random_range(0.0..200.0),
        rng.random_range(0.0..200.0),
        rng.random_range(0.5..100.0),
        rng.random_range(0.5..100.0),
    )
}

#[test]
fn iou_is_symmetric_and_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x71_01);
    for _ in 0..256 {
        let a = random_box(&mut rng);
        let b = random_box(&mut rng);
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        assert!((ab - ba).abs() < 1e-5);
        assert!((0.0..=1.0 + 1e-6).contains(&ab));
    }
}

#[test]
fn intersection_bounded_by_each_area() {
    let mut rng = SmallRng::seed_from_u64(0x71_02);
    for _ in 0..256 {
        let a = random_box(&mut rng);
        let b = random_box(&mut rng);
        let inter = a.intersection_area(&b);
        assert!(inter >= 0.0);
        assert!(inter <= a.area() + 1e-3);
        assert!(inter <= b.area() + 1e-3);
    }
}

#[test]
fn self_iou_is_one() {
    let mut rng = SmallRng::seed_from_u64(0x71_03);
    for _ in 0..256 {
        let a = random_box(&mut rng);
        // f32 rounding at large coordinates costs a few ulps.
        assert!((a.iou(&a) - 1.0).abs() < 1e-3);
    }
}

#[test]
fn unscale_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(0x71_04);
    for _ in 0..256 {
        let a = random_box(&mut rng);
        let s = rng.random_range(0.1..3.0f32);
        let back = a.unscale(s).scaled_about_center(1.0);
        let again = BoundingBox::new(back.x * s, back.y * s, back.width * s, back.height * s);
        assert!((again.x - a.x).abs() < 1e-2);
        assert!((again.width - a.width).abs() < 1e-2);
    }
}

#[test]
fn nms_output_is_subset_and_sorted() {
    let mut rng = SmallRng::seed_from_u64(0x71_05);
    for _ in 0..64 {
        let n = rng.random_range(0..40usize);
        let dets: Vec<Detection> = (0..n)
            .map(|_| Detection { bbox: random_box(&mut rng), score: rng.random_range(-2.0..2.0) })
            .collect();
        let eps = rng.random_range(0.0..0.9f32);
        let kept = non_maximum_suppression(dets.clone(), eps);
        assert!(kept.len() <= dets.len());
        // Sorted by descending score.
        for pair in kept.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // Every kept detection exists in the input.
        for k in &kept {
            assert!(dets.iter().any(|d| d.score == k.score && d.bbox == k.bbox));
        }
        // No two kept detections overlap beyond epsilon.
        for i in 0..kept.len() {
            for j in i + 1..kept.len() {
                let inter = kept[i].bbox.intersection_area(&kept[j].bbox);
                let min_area = kept[i].bbox.area().min(kept[j].bbox.area());
                assert!(inter / min_area <= eps + 1e-4);
            }
        }
    }
}

#[test]
fn resize_preserves_range() {
    let mut rng = SmallRng::seed_from_u64(0x71_06);
    for _ in 0..64 {
        let w = rng.random_range(2..40usize);
        let h = rng.random_range(2..40usize);
        let w2 = rng.random_range(1..40usize);
        let h2 = rng.random_range(1..40usize);
        let img = GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 10) as f32 / 10.0);
        let out = resize_bilinear(&img, w2, h2);
        assert_eq!(out.width(), w2);
        assert_eq!(out.height(), h2);
        // Bilinear interpolation cannot exceed the input range.
        for &p in out.pixels() {
            assert!((-1e-5..=0.9 + 1e-5).contains(&p));
        }
    }
}
