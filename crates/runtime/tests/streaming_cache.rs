//! The temporal-cache determinism contract: streaming detection with
//! the change-driven cell cache is bit-identical to a cold serial
//! detect on every frame, for extractors with and without their own
//! multi-cell kernel, the cache genuinely reuses work on static
//! content, and the reuse/recompute counters depend only on pixel
//! content — never on the worker count.

use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{DetectionServer, RuntimeConfig};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset, TemporalConfig, VideoStream};

/// Trains a small SVM detector on NApprox full-precision features.
fn small_detector() -> TrainedDetector {
    small_detector_on(Extractor::napprox_fp(BlockNorm::L2))
}

/// Trains a small SVM detector on `extractor`'s features.
fn small_detector_on(extractor: Extractor) -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig::default());
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

fn server_with_workers(detector: &TrainedDetector, workers: usize) -> DetectionServer<'_> {
    let config = RuntimeConfig::builder().workers(workers).build().expect("valid config");
    DetectionServer::new(Detector::default(), detector, config).expect("valid server")
}

fn stream_frames(config: TemporalConfig, n: u64) -> Vec<GrayImage> {
    let stream = VideoStream::new(config);
    (0..n).map(|i| stream.render(i).image).collect()
}

#[test]
fn cached_streaming_is_bit_identical_to_cold_detection() {
    let detector = small_detector();
    let engine = Detector::default();
    let server = server_with_workers(&detector, 4);

    for (name, config) in [
        ("sparse", TemporalConfig::sparse_scene(7)),
        ("panning", TemporalConfig::panning_scene(7)),
        ("crowded", TemporalConfig::crowded_scene(7)),
    ] {
        let frames = stream_frames(config, 6);
        let handle = server.open_stream(StreamId::new(1));
        for (i, frame) in frames.iter().enumerate() {
            let cold = engine.detect(&detector, frame);
            let warm = server.detect_stream(&handle, frame).expect("healthy stream frame");
            assert_eq!(warm.detections, cold, "{name}: frame {i} diverges from cold detect");
            for (a, b) in warm.detections.iter().zip(&cold) {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{name}: frame {i} score bits differ"
                );
            }
        }
    }
}

#[test]
fn cached_streaming_matches_cold_detection_on_every_cell_path() {
    // The quantized Fig. 5 cells run NApprox's own multi-cell kernel,
    // the FPGA cells the trait's per-patch default: on a sparse scene
    // each warm frame hands both only its changed cells, in one call.
    let engine = Detector::default();
    // Walkers have entered the scene by frame 40.
    let stream = VideoStream::new(TemporalConfig::sparse_scene(7));
    let frames: Vec<GrayImage> = (40..44).map(|i| stream.render(i).image).collect();
    for extractor in [Extractor::napprox_quantized(64, BlockNorm::None), Extractor::fpga()] {
        let kind = extractor.kind();
        let detector = small_detector_on(extractor);
        let cold: Vec<_> = frames.iter().map(|f| engine.detect(&detector, f)).collect();
        assert!(cold.iter().all(|d| !d.is_empty()), "{kind}: every frame has detections");
        for workers in [1, 2] {
            let server = server_with_workers(&detector, workers);
            let handle = server.open_stream(StreamId::new(3));
            for (i, (frame, cold)) in frames.iter().zip(&cold).enumerate() {
                let warm = server.detect_stream(&handle, frame).expect("healthy stream frame");
                let case = format!("{kind}, {workers} workers, frame {i}");
                assert_eq!(&warm.detections, cold, "{case}: diverges from cold detect");
                for (a, b) in warm.detections.iter().zip(cold) {
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{case}: score bits");
                }
                if i > 0 {
                    assert!(warm.cells_reused > 0, "{case}: nothing reused");
                    assert!(warm.cells_recomputed > 0, "{case}: nothing recomputed");
                }
            }
        }
    }
}

#[test]
fn static_scene_reuses_every_cell_after_the_first_frame() {
    let detector = small_detector();
    let server = server_with_workers(&detector, 2);
    let frames = stream_frames(TemporalConfig::static_scene(3), 4);
    let handle = server.open_stream(StreamId::new(9));

    let first = server.detect_stream(&handle, &frames[0]).unwrap();
    assert!(first.cells_recomputed > 0, "a cold first frame computes every cell");
    assert_eq!(first.cells_reused, 0, "nothing to reuse on a cold cache");

    for (i, frame) in frames.iter().enumerate().skip(1) {
        let warm = server.detect_stream(&handle, frame).unwrap();
        assert_eq!(warm.cells_recomputed, 0, "frame {i}: static content recomputed cells");
        assert_eq!(
            warm.cells_reused, first.cells_recomputed,
            "frame {i}: reuse must cover the whole grid"
        );
        assert_eq!(warm.detections, first.detections, "frame {i}: detections drifted");
    }
}

#[test]
fn moving_scene_reuses_most_cells_between_frames() {
    let detector = small_detector();
    let server = server_with_workers(&detector, 2);
    let frames = stream_frames(TemporalConfig::sparse_scene(11), 4);
    let handle = server.open_stream(StreamId::new(2));

    let first = server.detect_stream(&handle, &frames[0]).unwrap();
    let total = first.cells_recomputed;
    for (i, frame) in frames.iter().enumerate().skip(1) {
        let warm = server.detect_stream(&handle, frame).unwrap();
        assert_eq!(
            warm.cells_reused + warm.cells_recomputed,
            total,
            "frame {i}: reuse + recompute must cover the whole grid"
        );
        assert!(
            warm.cells_reused > warm.cells_recomputed,
            "frame {i}: a sparse walker should leave most of the scene untouched \
             ({} reused, {} recomputed)",
            warm.cells_reused,
            warm.cells_recomputed
        );
    }
}

#[test]
fn reuse_counters_are_identical_across_worker_counts() {
    let detector = small_detector();
    let frames = stream_frames(TemporalConfig::crowded_scene(5), 5);

    let mut per_worker: Vec<Vec<(u64, u64)>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let server = server_with_workers(&detector, workers);
        let handle = server.open_stream(StreamId::new(4));
        per_worker.push(
            frames
                .iter()
                .map(|f| {
                    let r = server.detect_stream(&handle, f).unwrap();
                    (r.cells_reused, r.cells_recomputed)
                })
                .collect(),
        );
    }
    assert_eq!(per_worker[0], per_worker[1], "workers=2 changed reuse decisions");
    assert_eq!(per_worker[0], per_worker[2], "workers=4 changed reuse decisions");
}

#[test]
fn tracker_follows_the_stream_and_counters_reach_the_report() {
    let detector = small_detector();
    let server = server_with_workers(&detector, 2);
    let frames = stream_frames(TemporalConfig::sparse_scene(13), 6);
    let handle = server.open_stream(StreamId::new(6));

    let mut track_observations = 0u64;
    let mut reused = 0u64;
    let mut recomputed = 0u64;
    for frame in &frames {
        let r = server.detect_stream(&handle, frame).unwrap();
        track_observations += r.tracks.len() as u64;
        reused += r.cells_reused;
        recomputed += r.cells_recomputed;
    }

    let report = server.report();
    assert_eq!(report.counters[Counter::Frames], frames.len() as u64);
    assert_eq!(report.counters[Counter::CellsReused], reused, "report lost reuse counts");
    assert_eq!(
        report.counters[Counter::CellsRecomputed],
        recomputed,
        "report lost recompute counts"
    );
    assert_eq!(
        report.counters[Counter::TracksActive],
        track_observations,
        "report lost track observations"
    );
    assert!(reused > 0, "a 6-frame stream must reuse something");
}

#[test]
fn separate_streams_keep_separate_caches() {
    let detector = small_detector();
    let server = server_with_workers(&detector, 2);
    let a_frames = stream_frames(TemporalConfig::static_scene(1), 2);
    let b_frames = stream_frames(TemporalConfig::static_scene(2), 2);

    let a = server.open_stream(StreamId::new(1));
    let b = server.open_stream(StreamId::new(2));
    // Interleave the two streams; each must behave exactly as if served
    // alone: cold first frame, full reuse on its identical second frame.
    let a0 = server.detect_stream(&a, &a_frames[0]).unwrap();
    let b0 = server.detect_stream(&b, &b_frames[0]).unwrap();
    assert_eq!(a0.cells_reused, 0);
    assert_eq!(b0.cells_reused, 0);
    let a1 = server.detect_stream(&a, &a_frames[1]).unwrap();
    let b1 = server.detect_stream(&b, &b_frames[1]).unwrap();
    assert_eq!(a1.cells_recomputed, 0, "stream A's cache was disturbed by stream B");
    assert_eq!(b1.cells_recomputed, 0, "stream B's cache was disturbed by stream A");
    assert_eq!(a1.detections, a0.detections);
    assert_eq!(b1.detections, b0.detections);
}
