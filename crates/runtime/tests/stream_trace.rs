//! A stream frame's trace: the stage spans a batch frame records under
//! `runtime.batch`, plus the cache probe and the tracker update, with
//! cell-reuse counters that add up to what the frame reports — on a
//! cold, a warm and an unchanged frame.

use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{DetectionServer, RuntimeConfig};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::{stages, Clock, Counter, Trace, Tracer};
use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};
use std::collections::BTreeSet;

/// Trains a small SVM detector on NApprox full-precision features.
fn small_detector() -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig::default());
    let extractor = Extractor::napprox_fp(BlockNorm::L2);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..40 {
        xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
        ys.push(false);
    }
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

/// Runs `f` under a fresh mock-clock tracer and returns its trace.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let tracer = Tracer::install(Clock::mock());
    let out = f();
    let trace = tracer.drain();
    Tracer::uninstall();
    assert_eq!(trace.dropped, 0, "no spans may be dropped");
    (out, trace)
}

/// The distinct span paths of a trace (ancestor names joined by `/`).
fn paths(trace: &Trace) -> BTreeSet<String> {
    trace
        .render_summary()
        .lines()
        .map(|line| line.split("  ").next().expect("a path leads each line").to_owned())
        .collect()
}

/// One counter summed over every span of a trace.
fn total(trace: &Trace, counter: Counter) -> u64 {
    trace.spans().filter_map(|s| s.counter(counter)).sum()
}

#[test]
fn stream_frames_trace_the_batch_stages_plus_probe_and_track() {
    let detector = small_detector();
    let config = RuntimeConfig::builder().workers(1).build().expect("valid config");
    let server = DetectionServer::new(Detector::default(), &detector, config).expect("server");
    let video = VideoStream::new(TemporalConfig::crowded_scene(5));
    let first = video.render(0).image;
    let second = (1..).map(|t| video.render(t).image).find(|f| *f != first).expect("motion");

    let (_, batch) = traced(|| server.detect_batch(&[&first]));
    let under_batch = |stage: &str| format!("{}/{stage}", stages::RUNTIME_BATCH);
    let mut expected = paths(&batch);
    for stage in [
        stages::RUNTIME_PYRAMID,
        stages::RUNTIME_CELLS,
        stages::RUNTIME_CLASSIFY,
        stages::RUNTIME_NMS,
    ] {
        assert!(expected.contains(&under_batch(stage)), "{stage} missing from {expected:?}");
    }
    expected.insert(under_batch(stages::RUNTIME_CACHE_PROBE));
    expected.insert(under_batch(stages::RUNTIME_TRACK));

    let handle = server.open_stream(StreamId::new(1));
    for (name, frame) in [("cold", &first), ("warm", &second), ("unchanged", &second)] {
        let (result, trace) = traced(|| server.detect_stream(&handle, frame).expect("frame"));
        match name {
            "cold" => assert_eq!(result.cells_reused, 0),
            "warm" => assert!(result.cells_reused > 0 && result.cells_recomputed > 0),
            _ => assert_eq!(result.cells_recomputed, 0),
        }
        assert_eq!(paths(&trace), expected, "{name} frame's span tree");
        assert_eq!(total(&trace, Counter::CellsReused), result.cells_reused, "{name} frame");
        assert_eq!(
            total(&trace, Counter::CellsRecomputed),
            result.cells_recomputed,
            "{name} frame"
        );
    }
}
