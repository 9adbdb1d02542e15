//! Temporal-cache streaming throughput over seeded video streams.
//!
//! Serves the same synthetic video sequence through one
//! [`DetectionServer`] two ways — per-frame with a cold pipeline
//! (`detect_frame`, no temporal state) and through the streaming path
//! (`detect_stream`, change-driven cell cache + tracker) — for three
//! scene regimes: a static camera (best case), a panning camera (worst
//! case) and a crowded street (typical case). Each cached pass opens a
//! fresh stream, so every pass starts cold and reuses exactly the same
//! cells. Records `results/BENCH_streaming.json` through
//! [`pcnn_bench::harness`]; `--check` holds the reuse counts exact
//! and the speedup to 80% of its committed value.

use pcnn_bench::harness::{time_pair, Gate, Mode, Report};
use pcnn_core::pipeline::Detector;
use pcnn_core::{StreamId, TrainedDetector};
use pcnn_runtime::{DetectionServer, RuntimeConfig};
use pcnn_vision::{GrayImage, TemporalConfig, VideoStream};
use serde::Serialize;
use std::hint::black_box;

/// One scene regime's cached-vs-uncached outcome, as recorded in
/// `results/BENCH_streaming.json`.
#[derive(Serialize)]
struct SceneResult {
    name: String,
    frames: u64,
    uncached_wall_s: f64,
    uncached_fps: f64,
    cached_wall_s: f64,
    cached_fps: f64,
    speedup: f64,
    cells_reused: u64,
    cells_recomputed: u64,
    hit_rate: f64,
    /// Every cached pass matched the cold per-frame run on every frame.
    bit_identical: bool,
}

fn bench_scene(
    name: &str,
    config: TemporalConfig,
    detector: &TrainedDetector,
    workers: usize,
    mode: Mode,
) -> SceneResult {
    let source = VideoStream::new(config);
    let frames = mode.pick(30, 6);
    let images: Vec<GrayImage> = (0..frames).map(|t| source.render(t).image).collect();
    let runtime = RuntimeConfig::builder().workers(workers).build().expect("valid config");
    let server =
        DetectionServer::new(Detector::default(), detector, runtime).expect("valid server");

    let cold: Vec<_> = images.iter().map(|img| server.detect_frame(img)).collect();
    let mut passes = Vec::new();
    let (uncached_wall_s, cached_wall_s) = time_pair(
        mode.pick(3, 1),
        || {
            for img in &images {
                black_box(server.detect_frame(img));
            }
        },
        || {
            let handle = server.open_stream(StreamId::new(passes.len() as u64));
            let (mut reused, mut recomputed, mut identical) = (0, 0, true);
            for (img, reference) in images.iter().zip(&cold) {
                let r = server.detect_stream(&handle, img).expect("healthy stream frame");
                reused += r.cells_reused;
                recomputed += r.cells_recomputed;
                identical &= &r.detections == reference;
            }
            passes.push((reused, recomputed, identical));
        },
    );
    let (cells_reused, cells_recomputed, bit_identical) = passes[0];
    assert!(
        passes.iter().all(|&p| p == passes[0]),
        "{name}: every cold-started stream pass must reuse the same cells: {passes:?}"
    );

    let total = (cells_reused + cells_recomputed).max(1);
    SceneResult {
        name: name.to_string(),
        frames,
        uncached_wall_s,
        uncached_fps: frames as f64 / uncached_wall_s,
        cached_wall_s,
        cached_fps: frames as f64 / cached_wall_s,
        speedup: uncached_wall_s / cached_wall_s,
        cells_reused,
        cells_recomputed,
        hit_rate: cells_reused as f64 / total as f64,
        bit_identical,
    }
}

fn main() {
    let mode = Mode::from_args();
    let detector = pcnn_bench::small_svm_detector();
    let workers = 2;
    let results = [
        ("static", TemporalConfig::static_scene(3)),
        ("panning", TemporalConfig::panning_scene(3)),
        ("crowded", TemporalConfig::crowded_scene(3)),
    ]
    .map(|(name, config)| bench_scene(name, config, &detector, workers, mode));
    assert!(
        results.iter().all(|r| r.bit_identical),
        "streaming output must be bit-identical to the cold per-frame run"
    );

    Report::new("video_streaming", workers, &results).finish(
        mode,
        "BENCH_streaming.json",
        &[Gate::Exact("cells_reused"), Gate::Exact("cells_recomputed"), Gate::Floor("speedup")],
    );
}
