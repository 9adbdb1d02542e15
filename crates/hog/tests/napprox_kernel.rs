//! The NApprox cell kernel against its oracle: every histogram
//! `NApproxHog::cell_histograms` computes — and every descriptor built
//! from them — must equal the per-pixel loops of
//! `pcnn_hog::napprox::reference` bit for bit, in full precision and at
//! every quantization, bin count and vote threshold, on cells anywhere
//! in the image, including cells whose neighbours fall off an edge.

use pcnn_hog::block::assemble_descriptor;
use pcnn_hog::cell::{cell_patch, CellExtractor, CELL_SIZE};
use pcnn_hog::napprox::{reference, NApproxQuant};
use pcnn_hog::{
    BlockNorm, FpgaHog, HogDescriptor, NApproxHog, Quantization, RawCells, TraditionalHog,
};
use pcnn_vision::GrayImage;

/// Seeded pixels in `[-0.05, 1.05]`: mostly in range, a few outside so
/// quantization clamps.
fn noise(width: usize, height: usize, seed: u64) -> GrayImage {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    GrayImage::from_fn(width, height, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 1101) as f32 / 1000.0 - 0.05
    })
}

/// Smooth structure with exact ties: a horizontal ramp puts every
/// gradient on the boundary between two bins, plus a blob.
fn structured(width: usize, height: usize) -> GrayImage {
    GrayImage::from_fn(width, height, |x, y| {
        if y < height / 2 {
            x as f32 / width as f32
        } else {
            0.5 + 0.4 * ((x as f32 * 0.37).sin() * (y as f32 * 0.21).cos())
        }
    })
}

/// Every model the oracle is checked on: full precision and quantized
/// at 1 to 256 spikes, each at every bin count and vote threshold, plus
/// quantized models whose levels, inner products or threshold outgrow
/// the 2^24 range `f32` lanes hold exactly.
fn models() -> Vec<NApproxHog> {
    let quant = |spikes: u32, weight_scale: i32| NApproxQuant {
        input: Quantization::spikes(spikes),
        weight_scale,
    };
    let precisions = [None, Some(1), Some(4), Some(16), Some(64), Some(256)];
    let mut models = Vec::new();
    for spikes in precisions {
        for bins in [1, 9, 18, 36] {
            for vote_threshold in [0.0, 0.06, 0.5, -0.25] {
                let quant = spikes.map(|n| quant(n, NApproxQuant::default().weight_scale));
                models.push(NApproxHog { bins, quant, vote_threshold });
            }
        }
    }
    for (spikes, weight_scale, vote_threshold) in
        [(1 << 20, 64, 0.06), (1 << 24, 1, -0.25), (256, 64, 2000.0), (64, 1 << 20, 0.5)]
    {
        let quant = Some(quant(spikes, weight_scale));
        models.push(NApproxHog { bins: 18, quant, vote_threshold });
    }
    models
}

/// Cell origins covering the whole image: the cell-aligned grid, every
/// edge and corner (cells flush with the border and cells hanging past
/// it), and unaligned origins.
fn origins(width: usize, height: usize) -> Vec<(usize, usize)> {
    let mut o = Vec::new();
    for y in (0..height).step_by(CELL_SIZE) {
        for x in (0..width).step_by(CELL_SIZE) {
            o.push((x, y));
        }
    }
    let (right, bottom) = (width.saturating_sub(CELL_SIZE), height.saturating_sub(CELL_SIZE));
    let (mid_x, mid_y) = (width / 2, height / 2);
    o.extend([
        (0, 0),
        (right, 0),
        (0, bottom),
        (right, bottom),
        (mid_x, 0),
        (mid_x, bottom),
        (0, mid_y),
        (right, mid_y),
        (width - 1, height - 1),
        (width - 1, 0),
        (0, height - 1),
        (1, 1),
        (3, 5),
        (mid_x + 1, mid_y + 3),
    ]);
    o
}

fn assert_bits(case: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{case}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{case}: value {i}: kernel {g} != reference {w}");
    }
}

/// `model`'s kernel over `origins` of `img` against the reference on
/// each origin's padded patch.
fn check_cells(model: &NApproxHog, img: &GrayImage, origins: &[(usize, usize)], what: &str) {
    let mut got = vec![f32::NAN; origins.len() * model.bins];
    model.cell_histograms(img, origins, &mut got);
    for (i, &(x, y)) in origins.iter().enumerate() {
        let want = reference::cell_histogram(model, &cell_patch(img, x, y, 0, 0));
        let case = format!("{model:?} {what} cell at ({x}, {y})");
        assert_bits(&case, &got[i * model.bins..][..model.bins], &want);
    }
}

#[test]
fn kernel_matches_reference_on_every_cell_and_edge() {
    let images = [
        ("noise 37x29", noise(37, 29, 1)),
        ("noise 8x8", noise(8, 8, 2)),
        ("noise 3x5", noise(3, 5, 3)),
        ("structured 45x27", structured(45, 27)),
    ];
    for model in models() {
        for (what, img) in &images {
            check_cells(&model, img, &origins(img.width(), img.height()), what);
        }
    }
}

#[test]
fn cell_histogram_on_a_patch_matches_reference() {
    for model in models() {
        for seed in 0..4 {
            let patch = noise(10, 10, 100 + seed);
            let case = format!("{model:?} patch {seed}");
            assert_bits(
                &case,
                &model.cell_histogram(&patch),
                &reference::cell_histogram(&model, &patch),
            );
        }
    }
}

#[test]
fn constant_images_tie_every_direction() {
    // Zero gradients make every inner product ±0: the first direction
    // wins in full precision and votes only under a negative
    // threshold; the quantized circuit never finds a strict maximum.
    for model in models() {
        for value in [0.0, 0.5, 1.0] {
            let img = GrayImage::from_fn(19, 11, |_, _| value);
            check_cells(&model, &img, &origins(19, 11), &format!("constant {value}"));
        }
    }
}

#[test]
fn window_descriptors_match_reference_at_nonzero_origins() {
    let img = noise(83, 141, 9);
    for model in models().into_iter().filter(|m| [9, 18].contains(&m.bins)) {
        for norm in [BlockNorm::None, BlockNorm::L2] {
            let hog = HogDescriptor::new(model, norm);
            for (x0, y0) in [(0, 0), (5, 3), (19, 13), (8, 8)] {
                let grid: Vec<Vec<Vec<f32>>> = (0..16)
                    .map(|cy| {
                        (0..8)
                            .map(|cx| {
                                reference::cell_histogram(&model, &cell_patch(&img, x0, y0, cx, cy))
                            })
                            .collect()
                    })
                    .collect();
                let case = format!("{model:?} {norm:?} window at ({x0}, {y0})");
                assert_bits(
                    &case,
                    &hog.window_descriptor(&img, x0, y0),
                    &assemble_descriptor(&grid, norm),
                );
            }
        }
    }
}

/// A 10×10 patch, zero but for the two pixels that set pixel (5, 4)'s
/// derivatives to `Ix = ix` and `Iy = iy`.
fn one_gradient(ix: f32, iy: f32) -> GrayImage {
    let mut patch = GrayImage::new(10, 10);
    patch.set(6, 4, ix);
    patch.set(5, 3, iy);
    patch
}

#[test]
fn rounding_matches_reference_where_it_decides_a_vote() {
    // Full precision: this gradient's winning inner product clears the
    // 0.06 vote threshold when multiply and add round separately, as
    // in the reference, and falls short when fused or summed in f64.
    let fp = NApproxHog::full_precision();
    let patch = one_gradient(f32::from_bits(0x3d2a_8a0d), f32::from_bits(0x3d31_b7ab));
    let want = reference::cell_histogram(&fp, &patch);
    assert_eq!((want[2], want.iter().sum::<f32>()), (1.0, 1.0), "one vote, in bin 2");
    assert_bits("fp threshold edge", &fp.cell_histogram(&patch), &want);

    // Quantized at 2^20 levels: these level differences make inner
    // products beyond 2^24 whose f32 roundings would move the vote from
    // bin 3 to bin 4.
    let quant = Some(NApproxQuant { input: Quantization::spikes(1 << 20), weight_scale: 64 });
    let wide = NApproxHog { bins: 18, quant, vote_threshold: 0.06 };
    let level = |l: u32| l as f32 / (1 << 20) as f32;
    let patch = one_gradient(level(114_979), level(632_384));
    let want = reference::cell_histogram(&wide, &patch);
    assert_eq!(want[3], 1.0, "pixel (5, 4) votes bin 3");
    assert_bits("wide quantized edge", &wide.cell_histogram(&patch), &want);
}

/// The provided multi-cell method is per-patch `cell_histogram` over
/// `cell_patch` crops, for every extractor that keeps it.
fn check_default<E: CellExtractor>(extractor: &E) {
    let img = noise(29, 22, 5);
    let origins = origins(29, 22);
    let bins = extractor.bins();
    let mut got = vec![f32::NAN; origins.len() * bins];
    extractor.cell_histograms(&img, &origins, &mut got);
    for (i, &(x, y)) in origins.iter().enumerate() {
        let want = extractor.cell_histogram(&cell_patch(&img, x, y, 0, 0));
        let case = format!("{} cell at ({x}, {y})", extractor.name());
        assert_bits(&case, &got[i * bins..][..bins], &want);
    }
}

#[test]
fn default_method_equals_per_patch_histograms() {
    check_default(&FpgaHog::new());
    check_default(&TraditionalHog::new());
    check_default(&RawCells::new());
}

#[test]
#[should_panic(expected = "per cell origin")]
fn output_buffer_must_fit_the_origins() {
    let hog = NApproxHog::full_precision();
    hog.cell_histograms(&noise(16, 16, 1), &[(0, 0), (8, 8)], &mut [0.0; 18]);
}
