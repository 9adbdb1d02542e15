//! The traced replay: the detection pipeline re-run serially, outside
//! in, as a sequence of calls into each layer's public functions, each
//! call wrapped in a benchmark-owned span.
//!
//! The call sequence is the one `Detector::detect` makes (frames) and
//! the one the serving runtime's stream path makes (cameras), so the
//! replay's detections must equal the served ones bit for bit — the
//! agreement gate checks that before any replay timing is reported.

use crate::spans::{stage, Recorder};
use pcnn_core::{DetectorConfig, TrainedDetector};
use pcnn_hog::block::assemble_descriptor;
use pcnn_hog::cell::{cell_patch, CELL_SIZE};
use pcnn_runtime::cache::{cell_patch_hash, frame_hash, LevelCache};
use pcnn_runtime::{StreamFrameResult, StreamState};
use pcnn_vision::{
    non_maximum_suppression, scale_pyramid, BoundingBox, Detection, GrayImage, WINDOW_HEIGHT,
    WINDOW_WIDTH,
};

const WINDOW_CELLS_X: usize = WINDOW_WIDTH / CELL_SIZE;
const WINDOW_CELLS_Y: usize = WINDOW_HEIGHT / CELL_SIZE;

/// The descriptor of the window whose top-left cell is `(cx0, cy0)`,
/// gathered from `cell(cx, cy)` histograms.
fn window_descriptor<'a>(
    detector: &TrainedDetector,
    cx0: usize,
    cy0: usize,
    cell: impl Fn(usize, usize) -> &'a [f32],
) -> Vec<f32> {
    let sub: Vec<Vec<Vec<f32>>> = (cy0..cy0 + WINDOW_CELLS_Y)
        .map(|cy| (cx0..cx0 + WINDOW_CELLS_X).map(|cx| cell(cx, cy).to_vec()).collect())
        .collect();
    assemble_descriptor(&sub, detector.extractor.norm())
}

fn window_box(cx0: usize, cy0: usize, scale: f32) -> BoundingBox {
    BoundingBox::new(
        (cx0 * CELL_SIZE) as f32,
        (cy0 * CELL_SIZE) as f32,
        WINDOW_WIDTH as f32,
        WINDOW_HEIGHT as f32,
    )
    .unscale(scale)
}

/// Valid window origins `(rows, cols)` over a `cells_x × cells_y` grid.
fn window_dims(cells_x: usize, cells_y: usize) -> (usize, usize) {
    if cells_y < WINDOW_CELLS_Y || cells_x < WINDOW_CELLS_X {
        (0, 0)
    } else {
        (cells_y - WINDOW_CELLS_Y + 1, cells_x - WINDOW_CELLS_X + 1)
    }
}

/// Replays one cold frame: pyramid, every cell, every window, NMS.
pub fn frame(
    rec: &mut Recorder,
    engine: &DetectorConfig,
    detector: &TrainedDetector,
    image: &GrayImage,
) -> Vec<Detection> {
    rec.span(stage::FRAME, |rec| {
        let pyramid = rec.span(stage::PYRAMID, |_| scale_pyramid(image, engine.pyramid));
        let mut raw = Vec::new();
        for level in &pyramid.levels {
            let cells_x = level.image.width() / CELL_SIZE;
            let cells_y = level.image.height() / CELL_SIZE;
            let grid: Vec<Vec<f32>> = (0..cells_y * cells_x)
                .map(|i| {
                    rec.span(stage::EXTRACT, |_| {
                        let patch = cell_patch(&level.image, 0, 0, i % cells_x, i / cells_x);
                        detector.extractor.cell_histogram(&patch)
                    })
                })
                .collect();
            let (rows, cols) = window_dims(cells_x, cells_y);
            for cy0 in 0..rows {
                for cx0 in 0..cols {
                    let descriptor = rec.span(stage::ASSEMBLE, |_| {
                        window_descriptor(detector, cx0, cy0, |cx, cy| &grid[cy * cells_x + cx])
                    });
                    let score =
                        rec.span(stage::CLASSIFY, |_| detector.classifier.score(&descriptor));
                    if score >= engine.score_floor {
                        raw.push(Detection { bbox: window_box(cx0, cy0, level.scale), score });
                    }
                }
            }
        }
        rec.span(stage::NMS, |_| non_maximum_suppression(raw, engine.nms_epsilon))
    })
}

/// Replays one camera frame against the stream's cache and tracker:
/// frame hash, pyramid, cell hashes, changed cells only, windows over
/// changed cells only, NMS over every cached score, tracker update.
pub fn stream_frame(
    rec: &mut Recorder,
    engine: &DetectorConfig,
    detector: &TrainedDetector,
    state: &mut StreamState,
    image: &GrayImage,
) -> StreamFrameResult {
    rec.span(stage::FRAME, |rec| {
        let cache = &mut state.cache;
        // A cluster shard serves a healthy stream at service level 0.
        cache.ensure_token(0);
        let hash = rec.span(stage::HASH, |_| frame_hash(image));
        let (detections, cells_reused, cells_recomputed) = match cache.unchanged(hash) {
            Some(cached) => (cached.clone(), cache.total_cells(), 0),
            None => {
                let pyramid = rec.span(stage::PYRAMID, |_| scale_pyramid(image, engine.pyramid));
                let levels = cache.levels_mut(pyramid.levels.len());
                let mut reused = 0;
                let mut recompute = Vec::new();
                for (l, level) in pyramid.levels.iter().enumerate() {
                    let cells_x = level.image.width() / CELL_SIZE;
                    let cells_y = level.image.height() / CELL_SIZE;
                    let lc = &mut levels[l];
                    if !lc.matches(cells_x, cells_y, level.scale) {
                        *lc = LevelCache {
                            cells_x,
                            cells_y,
                            scale: level.scale,
                            cell_hashes: vec![0; cells_x * cells_y],
                            histograms: vec![Vec::new(); cells_x * cells_y],
                            window_hashes: Vec::new(),
                            window_scores: Vec::new(),
                        };
                    }
                    rec.span(stage::HASH, |_| {
                        for idx in 0..cells_x * cells_y {
                            let h = cell_patch_hash(&level.image, idx % cells_x, idx / cells_x);
                            if lc.cell_hashes[idx] == h && !lc.histograms[idx].is_empty() {
                                reused += 1;
                            } else {
                                lc.cell_hashes[idx] = h;
                                recompute.push((l, idx));
                            }
                        }
                    });
                }
                for &(l, idx) in &recompute {
                    let cells_x = levels[l].cells_x;
                    levels[l].histograms[idx] = rec.span(stage::EXTRACT, |_| {
                        let image = &pyramid.levels[l].image;
                        let patch = cell_patch(image, 0, 0, idx % cells_x, idx / cells_x);
                        detector.extractor.cell_histogram(&patch)
                    });
                }
                for lc in levels.iter_mut() {
                    let rescore = rec.span(stage::HASH, |_| changed_windows(lc));
                    for w in rescore {
                        let (_, cols) = window_dims(lc.cells_x, lc.cells_y);
                        let descriptor = rec.span(stage::ASSEMBLE, |_| {
                            window_descriptor(detector, w % cols, w / cols, |cx, cy| {
                                &lc.histograms[cy * lc.cells_x + cx]
                            })
                        });
                        lc.window_scores[w] =
                            rec.span(stage::CLASSIFY, |_| detector.classifier.score(&descriptor));
                    }
                }
                let detections = rec.span(stage::NMS, |_| {
                    let mut raw = Vec::new();
                    for lc in cache.levels() {
                        let (rows, cols) = window_dims(lc.cells_x, lc.cells_y);
                        for w in 0..rows * cols {
                            let score = lc.window_scores[w];
                            if score >= engine.score_floor {
                                let bbox = window_box(w % cols, w / cols, lc.scale);
                                raw.push(Detection { bbox, score });
                            }
                        }
                    }
                    non_maximum_suppression(raw, engine.nms_epsilon)
                });
                cache.finish_frame(hash, detections.clone());
                (detections, reused, recompute.len() as u64)
            }
        };
        let tracks = rec.span(stage::TRACK, |_| state.tracker.update(&detections));
        StreamFrameResult { detections, tracks, cells_reused, cells_recomputed }
    })
}

/// Re-hashes a level's windows over its current cell hashes and returns
/// the (row-major) windows whose hash changed — every window when the
/// level's window cache is cold.
fn changed_windows(lc: &mut LevelCache) -> Vec<usize> {
    let (rows, cols) = window_dims(lc.cells_x, lc.cells_y);
    let n = rows * cols;
    let warm = lc.window_hashes.len() == n && lc.window_scores.len() == n;
    if !warm {
        lc.window_hashes = vec![0; n];
        lc.window_scores = vec![0.0; n];
    }
    (0..n)
        .filter(|&w| {
            let h = lc.window_hash(w / cols, w % cols, WINDOW_CELLS_X, WINDOW_CELLS_Y);
            let changed = !warm || lc.window_hashes[w] != h;
            lc.window_hashes[w] = h;
            changed
        })
        .collect()
}

/// Whether two detection lists are identical bit for bit.
pub fn same_detections(a: &[Detection], b: &[Detection]) -> bool {
    let bits = |d: &Detection| {
        [d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height, d.score].map(f32::to_bits)
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}
