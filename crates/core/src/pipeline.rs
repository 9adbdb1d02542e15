//! The end-to-end detection pipeline.
//!
//! Methodology follows §4 of the paper: each test image is scanned with
//! 64×128 windows across a 1.1×-stepped scale pyramid; window scores come
//! from the classifier; detections are narrowed by NMS with ε = 0.2 and
//! evaluated as miss rate versus false positives per image.
//!
//! Cell histograms are computed **once per pyramid level** on an 8-px
//! grid and windows gather 8×16 blocks of them — the same factorization
//! the hardware uses (cell modules stream cells; windows are assembled
//! downstream), and the only way a trained-network extractor stays
//! tractable on full scenes.

use crate::classifier::WindowClassifier;
use crate::extractor::Extractor;
use pcnn_hog::block::assemble_descriptor;
use pcnn_hog::cell::{cell_patch, CELL_SIZE};
use pcnn_vision::pyramid::{scale_pyramid, PyramidConfig};
use pcnn_vision::{
    non_maximum_suppression, BoundingBox, Detection, DetectionCurve, Evaluator, GrayImage,
    SynthScene, WINDOW_HEIGHT, WINDOW_WIDTH,
};
use serde::{Deserialize, Serialize};

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Pyramid configuration (the paper: step 1.1, up to 15 levels).
    pub pyramid: PyramidConfig,
    /// NMS overlap threshold (the paper: ε = 0.2).
    pub nms_epsilon: f32,
    /// Score floor below which windows are discarded before NMS. Keeps
    /// curve sweeps tractable without clipping the interesting region.
    pub score_floor: f32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { pyramid: PyramidConfig::default(), nms_epsilon: 0.2, score_floor: -1.0 }
    }
}

/// An extractor/classifier pair ready to detect pedestrians.
#[derive(Debug)]
pub struct TrainedDetector {
    /// The feature extractor.
    pub extractor: Extractor,
    /// The trained classifier.
    pub classifier: WindowClassifier,
}

/// The detection engine.
#[derive(Debug)]
pub struct Detector {
    config: DetectorConfig,
}

impl Default for Detector {
    fn default() -> Self {
        Self::new(DetectorConfig::default())
    }
}

impl Detector {
    /// A detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Computes the cell-histogram grid of one image: `grid[cy][cx]` for
    /// every complete 8×8 cell.
    pub fn cell_grid(extractor: &Extractor, img: &GrayImage) -> Vec<Vec<Vec<f32>>> {
        let cells_x = img.width() / CELL_SIZE;
        let cells_y = img.height() / CELL_SIZE;
        (0..cells_y)
            .map(|cy| {
                (0..cells_x)
                    .map(|cx| {
                        let patch = cell_patch(img, 0, 0, cx, cy);
                        extractor.cell_histogram(&patch)
                    })
                    .collect()
            })
            .collect()
    }

    /// Valid window origins `(rows, cols)` over a `cells_x × cells_y`
    /// cell grid — `(0, 0)` when the grid is too small to hold one
    /// 64×128 window.
    pub fn window_grid(cells_x: usize, cells_y: usize) -> (usize, usize) {
        let window_cells_x = WINDOW_WIDTH / CELL_SIZE;
        let window_cells_y = WINDOW_HEIGHT / CELL_SIZE;
        if cells_x < window_cells_x || cells_y < window_cells_y {
            (0, 0)
        } else {
            (cells_y - window_cells_y + 1, cells_x - window_cells_x + 1)
        }
    }

    /// The descriptor of the window whose top-left cell is `(cx0, cy0)`,
    /// assembled from its 8×16 cells as `cell(cx, cy)` returns them —
    /// whatever layout the caller keeps its cell histograms in.
    pub fn assemble_window<'a>(
        extractor: &Extractor,
        cx0: usize,
        cy0: usize,
        cell: impl Fn(usize, usize) -> &'a [f32],
    ) -> Vec<f32> {
        let window_cells_x = WINDOW_WIDTH / CELL_SIZE;
        let window_cells_y = WINDOW_HEIGHT / CELL_SIZE;
        let sub: Vec<Vec<Vec<f32>>> = (cy0..cy0 + window_cells_y)
            .map(|cy| (cx0..cx0 + window_cells_x).map(|cx| cell(cx, cy).to_vec()).collect())
            .collect();
        assemble_descriptor(&sub, extractor.norm())
    }

    /// The raw (pre-NMS) detections of one pyramid level at `scale`,
    /// given every window's score row-major over a grid `cols` windows
    /// wide: the windows at or above the score floor, in original-image
    /// coordinates and serial scan order (row, then column).
    pub fn window_detections<'s>(
        &self,
        scale: f32,
        cols: usize,
        scores: &'s [f32],
    ) -> impl Iterator<Item = Detection> + 's {
        let floor = self.config.score_floor;
        scores.iter().enumerate().filter(move |&(_, &score)| score >= floor).map(
            move |(w, &score)| {
                let bbox = BoundingBox::new(
                    ((w % cols) * CELL_SIZE) as f32,
                    ((w / cols) * CELL_SIZE) as f32,
                    WINDOW_WIDTH as f32,
                    WINDOW_HEIGHT as f32,
                )
                .unscale(scale);
                Detection { bbox, score }
            },
        )
    }

    /// Runs detection over one image, returning NMS-filtered detections
    /// in original-image coordinates. This is the serial reference the
    /// serving runtime's staged, cached pipeline is pinned against.
    pub fn detect(&self, detector: &TrainedDetector, img: &GrayImage) -> Vec<Detection> {
        let pyramid = scale_pyramid(img, self.config.pyramid);
        let mut raw: Vec<Detection> = Vec::new();
        for level in &pyramid.levels {
            let grid = Self::cell_grid(&detector.extractor, &level.image);
            let (rows, cols) = Self::window_grid(grid.first().map_or(0, Vec::len), grid.len());
            let scores: Vec<f32> = (0..rows * cols)
                .map(|w| {
                    let descriptor =
                        Self::assemble_window(&detector.extractor, w % cols, w / cols, |cx, cy| {
                            &grid[cy][cx]
                        });
                    detector.classifier.score(&descriptor)
                })
                .collect();
            raw.extend(self.window_detections(level.scale, cols, &scores));
        }
        non_maximum_suppression(raw, self.config.nms_epsilon)
    }

    /// Evaluates a detector over a set of scenes, producing the
    /// miss-rate/FPPI curve.
    ///
    /// # Panics
    ///
    /// Panics if `scenes` is empty.
    pub fn evaluate(&self, detector: &TrainedDetector, scenes: &[SynthScene]) -> DetectionCurve {
        assert!(!scenes.is_empty(), "no scenes to evaluate");
        let mut evaluator = Evaluator::new();
        for scene in scenes {
            let detections = self.detect(detector, &scene.image);
            evaluator.add_image(&detections, &scene.pedestrians);
        }
        evaluator.curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_hog::BlockNorm;
    use pcnn_svm::{train, FeatureScaler, TrainConfig};
    use pcnn_vision::{SynthConfig, SynthDataset};

    /// Trains a small SVM detector on NApprox(fp) features.
    fn small_detector() -> TrainedDetector {
        let ds = SynthDataset::new(SynthConfig::default());
        let extractor = Extractor::napprox_fp(BlockNorm::L2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
            ys.push(true);
            xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
            ys.push(false);
        }
        let scaler = FeatureScaler::fit(&xs);
        let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
        TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
    }

    #[test]
    fn cell_grid_shape() {
        let img = GrayImage::new(80, 96);
        let grid = Detector::cell_grid(&Extractor::napprox_fp(BlockNorm::None), &img);
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0].len(), 10);
        assert_eq!(grid[0][0].len(), 18);
    }

    #[test]
    fn window_grid_counts_valid_window_origins() {
        // A 64×128 window spans 8×16 cells.
        assert_eq!(Detector::window_grid(8, 16), (1, 1));
        assert_eq!(Detector::window_grid(10, 20), (5, 3));
        assert_eq!(Detector::window_grid(7, 40), (0, 0), "too narrow");
        assert_eq!(Detector::window_grid(40, 15), (0, 0), "too short");
        assert_eq!(Detector::window_grid(0, 0), (0, 0));
    }

    #[test]
    fn grid_descriptor_matches_direct_descriptor() {
        // Window assembly from the cached grid must equal the direct
        // window computation at cell-aligned offsets.
        let img = GrayImage::from_fn(96, 160, |x, y| {
            0.5 + 0.3 * ((x as f32 * 0.37).sin() * (y as f32 * 0.21).cos())
        });
        let ex = Extractor::napprox_fp(BlockNorm::L2);
        let grid = Detector::cell_grid(&ex, &img);
        let sub: Vec<Vec<Vec<f32>>> = grid[1..17].iter().map(|r| r[2..10].to_vec()).collect();
        let from_grid = assemble_descriptor(&sub, BlockNorm::L2);
        let direct = ex.window_descriptor(&img, 16, 8);
        assert_eq!(from_grid.len(), direct.len());
        for (a, b) in from_grid.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn detector_finds_planted_pedestrian() {
        let det = small_detector();
        let engine = Detector::default();
        let ds = SynthDataset::new(SynthConfig::default());
        // Find a scene with at least one pedestrian.
        let scene = (0..20)
            .map(|i| ds.test_scene(i))
            .find(|s| !s.pedestrians.is_empty())
            .expect("some scene has a pedestrian");
        let detections = engine.detect(&det, &scene.image);
        assert!(!detections.is_empty(), "no detections at all");
        // The best-scoring detection overlaps a true pedestrian.
        let best = &detections[0];
        let hit = scene
            .pedestrians
            .iter()
            .any(|gt| best.bbox.overlap_over(gt) >= 0.3 || best.bbox.iou(gt) >= 0.3);
        assert!(hit, "best detection {best:?} misses all of {:?}", scene.pedestrians);
    }

    #[test]
    fn evaluation_produces_curve() {
        let det = small_detector();
        let engine = Detector::default();
        let ds = SynthDataset::new(SynthConfig::default());
        let scenes: Vec<_> = (0..6).map(|i| ds.test_scene(i)).collect();
        let curve = engine.evaluate(&det, &scenes);
        assert_eq!(curve.images, 6);
        let lamr = curve.log_average_miss_rate();
        assert!((0.0..=1.0).contains(&lamr), "lamr {lamr}");
        // A trained detector must beat the blind detector (lamr 1.0).
        assert!(lamr < 0.9, "lamr {lamr}");
    }
}
