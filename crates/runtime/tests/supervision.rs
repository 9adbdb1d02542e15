//! Integration tests for the supervision contract: a panicking work
//! item fails only its own frame's request, the server keeps serving,
//! caught panics are counted in the report, and no lock is left
//! poisoned. Deadlines and bounded retry are pinned on top.

use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Error, Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{Backpressure, DetectionServer, PanicInjector, RetryPolicy, RuntimeConfig};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

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

fn config_with_workers(workers: usize) -> RuntimeConfig {
    RuntimeConfig::builder().workers(workers).build().expect("valid config")
}

#[test]
fn a_panicking_frame_fails_alone_and_the_server_keeps_serving() {
    let detector = small_detector();
    let ds = SynthDataset::new(SynthConfig::default());
    let frames: Vec<_> = (0..3).map(|i| ds.test_scene(i).image.clone()).collect();
    let refs: Vec<_> = frames.iter().collect();

    // Ground truth from an uninjected server.
    let clean =
        DetectionServer::new(Detector::default(), &detector, config_with_workers(4)).unwrap();
    let expected = clean.detect_batch(&refs);

    // Poison frame 1: its first classify chunk panics.
    let server = DetectionServer::new(Detector::default(), &detector, config_with_workers(4))
        .unwrap()
        .with_panic_injection(PanicInjector::new(1, 1));
    let results = server.detect_batch(&refs);
    assert_eq!(results.len(), 3);

    // Frames 0 and 2 are bit-identical to the clean run.
    for f in [0usize, 2] {
        let dets = results[f].as_ref().unwrap_or_else(|e| panic!("frame {f} failed: {e}"));
        let clean = expected[f].as_ref().expect("clean run has no failures");
        assert_eq!(dets, clean, "frame {f} diverged from the clean run");
    }
    // Frame 1 failed with a typed classify-stage error.
    match &results[1] {
        Err(Error::WorkerPanic { stage, message }) => {
            assert_eq!(stage, "classify");
            assert!(message.contains("injected chaos panic"), "{message}");
        }
        other => panic!("expected WorkerPanic for frame 1, got {other:?}"),
    }
    let report = server.report(None);
    assert!(report.panics_caught >= 1, "caught panic must surface in the report");
    assert_eq!(report.frames_served, 2, "only intact frames count as served");

    // The server survives: the injector is out of charges, so the same
    // batch now fully succeeds — no poisoned lock, no wedged worker.
    let after = server.detect_batch(&refs);
    assert_eq!(after, expected, "post-chaos serving diverged from the clean run");
}

#[test]
fn submit_retries_past_a_transient_panic() {
    let detector = small_detector();
    let ds = SynthDataset::new(SynthConfig::default());
    let frame = ds.test_scene(0).image.clone();

    let clean =
        DetectionServer::new(Detector::default(), &detector, config_with_workers(2)).unwrap();
    let expected = clean.detect_frame(&frame);

    // One charge: the first attempt fails, the retry succeeds.
    let server = DetectionServer::new(Detector::default(), &detector, config_with_workers(2))
        .unwrap()
        .with_panic_injection(PanicInjector::new(0, 1));
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        deadline: None,
        jitter_pm: 0,
    };
    let detections = server.submit(&frame, &policy).expect("retry recovers the request");
    assert_eq!(detections, expected, "retried result diverged from the clean run");
    let report = server.report(None);
    assert!(report.retries >= 1);
    assert!(report.panics_caught >= 1);
}

#[test]
fn submit_gives_up_at_the_deadline() {
    let detector = small_detector();
    let ds = SynthDataset::new(SynthConfig::default());
    let frame = ds.test_scene(0).image.clone();

    // Effectively infinite charges: every attempt panics.
    let server = DetectionServer::new(Detector::default(), &detector, config_with_workers(2))
        .unwrap()
        .with_panic_injection(PanicInjector::new(0, u64::MAX));
    let policy = RetryPolicy {
        max_attempts: 100,
        base_backoff: Duration::from_millis(50),
        deadline: Some(Duration::from_millis(40)),
        jitter_pm: 0,
    };
    match server.submit(&frame, &policy) {
        Err(Error::DeadlineExceeded { waited_ms, deadline_ms }) => {
            assert_eq!(deadline_ms, 40);
            assert!(waited_ms >= deadline_ms, "waited {waited_ms}ms < deadline");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let report = server.report(None);
    assert!(report.deadline_misses >= 1);
    assert!(report.retries >= 1);
}

#[test]
fn exhausted_attempts_return_the_last_worker_panic() {
    let detector = small_detector();
    let ds = SynthDataset::new(SynthConfig::default());
    let frame = ds.test_scene(0).image.clone();

    let server = DetectionServer::new(Detector::default(), &detector, config_with_workers(2))
        .unwrap()
        .with_panic_injection(PanicInjector::new(0, u64::MAX));
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        deadline: None,
        jitter_pm: 0,
    };
    match server.submit(&frame, &policy) {
        Err(Error::WorkerPanic { stage, .. }) => assert_eq!(stage, "classify"),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_eq!(server.report(None).retries, 1, "one retry between two attempts");
}

#[test]
fn serve_reraises_a_failed_frame_instead_of_hanging() {
    // One-slot queue, one-frame batches and more frames than the queue
    // holds: the feeder is parked in a blocking push when frame 0 fails.
    // The run gets its own thread so a hang fails after the timeout
    // instead of wedging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let detector = small_detector();
        let ds = SynthDataset::new(SynthConfig::default());
        let frames: Vec<_> = (0..4).map(|i| ds.train_positive(i)).collect();
        let config = RuntimeConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .batch_size(1)
            .backpressure(Backpressure::Block)
            .build()
            .unwrap();
        let server = DetectionServer::new(Detector::default(), &detector, config)
            .unwrap()
            .with_panic_injection(PanicInjector::new(0, 1));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| server.serve(&frames)));
        let message = outcome.map(|_| ()).map_err(|payload| {
            payload.downcast::<String>().map(|m| *m).unwrap_or_else(|_| "non-string panic".into())
        });
        tx.send(message).ok();
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(message)) => assert!(message.contains("injected chaos panic"), "{message}"),
        Ok(Ok(())) => panic!("serve returned normally although frame 0 failed"),
        Err(_) => panic!("serve still running 60 s after frame 0 failed"),
    }
    run.join().expect("the serving thread caught the panic itself");
}

#[test]
fn a_failed_stream_frame_keeps_the_tracks_and_the_next_frame_runs_cold() {
    let detector = small_detector();
    let clean =
        DetectionServer::new(Detector::default(), &detector, config_with_workers(2)).unwrap();
    let injected = DetectionServer::new(Detector::default(), &detector, config_with_workers(2))
        .unwrap()
        .with_panic_injection(PanicInjector::new(0, 1));
    let video = VideoStream::new(TemporalConfig::panning_scene(5));
    let frames: Vec<_> = (0..5).map(|t| video.render(t).image).collect();

    let handle = clean.open_stream(StreamId::new(1));
    for frame in &frames[..3] {
        clean.detect_stream(&handle, frame).expect("clean stream frame");
    }
    let tracks = handle.lock().tracker.tracks().to_vec();

    // A stream frame is frame 0 of its own one-frame batch, so the
    // injector fails its first classify chunk.
    match injected.detect_stream(&handle, &frames[3]) {
        Err(Error::WorkerPanic { stage, message }) => {
            assert_eq!(stage, "classify");
            assert!(message.contains("injected chaos panic"), "{message}");
        }
        other => panic!("expected WorkerPanic for the injected frame, got {other:?}"),
    }
    assert_eq!(handle.lock().tracker.tracks(), tracks.as_slice(), "a failed frame moved tracks");

    // The failed frame invalidated the cache: the next frame runs cold
    // and still matches the serial reference bit for bit.
    let next = clean.detect_stream(&handle, &frames[4]).expect("the stream recovers");
    assert_eq!(next.cells_reused, 0, "the failed frame's partial cache survived");
    let cold = Detector::default().detect(&detector, &frames[4]);
    assert_eq!(next.detections, cold);
    for (a, b) in next.detections.iter().zip(&cold) {
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}
