//! `Detector::score_windows` — the serving classify stage's scorer —
//! against the per-window reference, bit for bit.
//!
//! The SVM scores from shared, once-normalized block rows in passes of
//! up to 32 adjacent windows; the reference assembles each window's
//! descriptor with `assemble_descriptor` and scores it with
//! `LinearSvm::score(&FeatureScaler::apply(..))`. Every block norm, both
//! paper bin counts, window rows on either side of the 8-lane group and
//! the 32-window pass, scaler dimensions of zero variance and sparse
//! stale sets must agree in every bit.

use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{EednClassifier, EednClassifierConfig, Extractor, WindowClassifier};
use pcnn_hog::block::{assemble_descriptor, descriptor_len};
use pcnn_hog::{BlockNorm, NApproxHog};
use pcnn_svm::{FeatureScaler, LinearSvm};

/// Cells across and down one 64×128 window.
const WINDOW_CELLS: (usize, usize) = (8, 16);

/// Seeded values in `[lo, lo + 10)`.
fn pseudo(n: usize, seed: u64, lo: f32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            lo + (s % 10_000) as f32 / 1000.0
        })
        .collect()
}

/// A level's cells: `cells_y` rows of `cells_x` seeded histograms.
fn cells(cells_x: usize, cells_y: usize, bins: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let flat = pseudo(cells_x * cells_y * bins, seed, 0.0);
    let hist: Vec<Vec<f32>> = flat.chunks(bins).map(<[f32]>::to_vec).collect();
    hist.chunks(cells_x).map(<[Vec<f32>]>::to_vec).collect()
}

/// The reference descriptor of the window whose top-left cell is
/// `(cx0, cy0)`.
fn descriptor(grid: &[Vec<Vec<f32>>], cx0: usize, cy0: usize, norm: BlockNorm) -> Vec<f32> {
    let (wx, wy) = WINDOW_CELLS;
    let sub: Vec<Vec<Vec<f32>>> =
        grid[cy0..cy0 + wy].iter().map(|row| row[cx0..cx0 + wx].to_vec()).collect();
    assemble_descriptor(&sub, norm)
}

/// A seeded SVM detector over `bins`-bin cells under `norm`, whose
/// scaler maps every fifth dimension to 0 (`inv_std = 0`).
fn svm_detector(bins: usize, norm: BlockNorm, seed: u64) -> TrainedDetector {
    let dim = descriptor_len(WINDOW_CELLS.0, WINDOW_CELLS.1, bins, norm);
    let examples: Vec<Vec<f32>> = (0..6)
        .map(|i| {
            let mut x = pseudo(dim, seed + i, -0.5);
            x.iter_mut().step_by(5).for_each(|v| *v = 0.125);
            x
        })
        .collect();
    let scaler = FeatureScaler::fit(&examples);
    let probe = scaler.apply(&pseudo(dim, seed, 3.0));
    assert!(probe.iter().step_by(5).all(|&v| v == 0.0), "every fifth dimension has zero variance");
    let weights = pseudo(dim, seed + 99, -5.0).into_iter().map(|w| w / 10.0).collect();
    let model = LinearSvm::new(weights, -0.25);
    let extractor =
        Extractor::napprox_custom(NApproxHog { bins, ..NApproxHog::full_precision() }, norm);
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

/// The reference score of window `w` of a grid `cols` windows wide.
fn reference(detector: &TrainedDetector, grid: &[Vec<Vec<f32>>], cols: usize, w: usize) -> f32 {
    let x = descriptor(grid, w % cols, w / cols, detector.extractor.norm());
    match &detector.classifier {
        WindowClassifier::Svm { model, scaler } => model.score(&scaler.apply(&x)),
        WindowClassifier::Eedn(c) => c.score(&x),
    }
}

/// Scores `windows` through `Detector::score_windows` and requires each
/// score's bits to equal the reference's.
fn assert_matches_reference(
    detector: &TrainedDetector,
    grid: &[Vec<Vec<f32>>],
    windows: &[usize],
    case: &str,
) {
    let cols = grid[0].len() - WINDOW_CELLS.0 + 1;
    let mut scores = vec![f32::NAN; windows.len()];
    let cell = |cx: usize, cy: usize| grid[cy][cx].as_slice();
    Detector::score_windows(detector, cols, cell, windows, &mut scores);
    for (&w, got) in windows.iter().zip(&scores) {
        let want = reference(detector, grid, cols, w);
        assert_eq!(got.to_bits(), want.to_bits(), "{case}: window {w} ({got} vs {want})");
    }
}

#[test]
fn every_window_of_every_row_width_matches_the_reference() {
    let norms = [BlockNorm::L2, BlockNorm::L2Hys, BlockNorm::L1, BlockNorm::None];
    for (n, norm) in norms.into_iter().enumerate() {
        for bins in [9, 18] {
            let detector = svm_detector(bins, norm, 10 * n as u64 + bins as u64);
            for cols in [1, 7, 8, 9, 31, 32, 33] {
                // Two window rows, so the block rectangle spans rows too.
                let grid = cells(cols + WINDOW_CELLS.0 - 1, WINDOW_CELLS.1 + 1, bins, cols as u64);
                let all: Vec<usize> = (0..2 * cols).collect();
                assert_matches_reference(
                    &detector,
                    &grid,
                    &all,
                    &format!("{norm:?}/{bins}/{cols}"),
                );
            }
        }
    }
}

#[test]
fn sparse_stale_sets_match_the_reference() {
    let cols = 40;
    for norm in [BlockNorm::L2, BlockNorm::None] {
        let detector = svm_detector(18, norm, 7);
        let grid = cells(cols + WINDOW_CELLS.0 - 1, WINDOW_CELLS.1 + 3, 18, 3);
        let row = |r: usize, c: std::ops::Range<usize>| c.map(move |c| r * cols + c);
        let cases: Vec<(&str, Vec<usize>)> = vec![
            ("one isolated window", vec![2 * cols + 17]),
            ("isolated windows", vec![3, 19, cols + 39, 3 * cols]),
            ("runs with gaps", row(0, 2..5).chain(row(0, 9..10)).chain(row(0, 12..20)).collect()),
            ("a run straddling a pass", row(1, 5..38).collect()),
            ("a row end then the next row's start", row(0, 36..40).chain(row(1, 0..3)).collect()),
            (
                "runs of 31, 32 and 33 windows",
                row(0, 0..31).chain(row(1, 0..32)).chain(row(2, 0..33)).collect(),
            ),
            ("every window", (0..4 * cols).collect()),
            ("none", vec![]),
        ];
        for (case, windows) in cases {
            assert_matches_reference(&detector, &grid, &windows, &format!("{norm:?}: {case}"));
        }
    }
}

#[test]
fn eedn_windows_keep_their_descriptor_batches() {
    // Two bins keep the 256-dimensional network quick to train.
    let (bins, norm) = (2, BlockNorm::None);
    let dim = descriptor_len(WINDOW_CELLS.0, WINDOW_CELLS.1, bins, norm);
    let xs: Vec<Vec<f32>> = (0..24).map(|i| pseudo(dim, 50 + i, 0.0)).collect();
    let ys: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
    let config = EednClassifierConfig { hidden1: 16, hidden2: 8, epochs: 1, ..Default::default() };
    let extractor =
        Extractor::napprox_custom(NApproxHog { bins, ..NApproxHog::full_precision() }, norm);
    let classifier = WindowClassifier::Eedn(Box::new(EednClassifier::train(&xs, &ys, config)));
    let detector = TrainedDetector { extractor, classifier };
    let cols = 40;
    let grid = cells(cols + WINDOW_CELLS.0 - 1, WINDOW_CELLS.1 + 1, bins, 4);
    // More than one 64-window inference pass, with a gap.
    let windows: Vec<usize> = (0..30).chain(33..2 * cols).collect();
    assert_matches_reference(&detector, &grid, &windows, "Eedn");
}
