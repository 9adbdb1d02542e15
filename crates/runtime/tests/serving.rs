//! Integration tests for the serving runtime: parallel output must be
//! bit-identical to the serial detection path, a batch must match its
//! frames served one at a time, and queue backpressure must reject
//! cleanly without deadlocking.

use pcnn_core::cotrain::{PartitionedSystem, TrainSetConfig};
use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{EednClassifierConfig, Extractor, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{
    Backpressure, DetectionServer, PushError, QueueConfig, RequestQueue, RuntimeConfig,
};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{SynthConfig, SynthDataset};

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

/// A tiny Eedn-classified detector on the Fig. 5 features, so the
/// classify stage scores its windows in batches.
fn small_eedn_detector() -> TrainedDetector {
    PartitionedSystem::train_eedn_detector(
        Extractor::napprox_fp(BlockNorm::None),
        &SynthDataset::new(SynthConfig::default()),
        TrainSetConfig { n_pos: 8, n_neg: 8, mining_scenes: 0, mining_rounds: 0 },
        EednClassifierConfig { hidden1: 24, hidden2: 12, epochs: 2, ..Default::default() },
    )
}

/// A runtime configuration via the validating builder.
fn config_with_workers(workers: usize) -> RuntimeConfig {
    RuntimeConfig::builder().workers(workers).build().expect("valid config")
}

#[test]
fn parallel_detection_is_bit_identical_to_serial() {
    let engine = Detector::default();
    for detector in [small_detector(), small_eedn_detector()] {
        let label = detector.classifier.label();
        let serial_server =
            DetectionServer::new(Detector::default(), &detector, config_with_workers(1)).unwrap();
        let parallel_server =
            DetectionServer::new(Detector::default(), &detector, config_with_workers(4)).unwrap();
        // Three differently-seeded scenes; each must produce the same
        // detections — same order, scores bit-equal — under the serial
        // engine, a one-worker pool and a four-worker pool.
        for seed in [11u64, 42, 1234] {
            let scene =
                SynthDataset::new(SynthConfig { seed, ..SynthConfig::default() }).test_scene(0);
            let serial = engine.detect(&detector, &scene.image);
            assert!(!serial.is_empty(), "{label} seed {seed}: nothing to compare");
            let one = serial_server.detect_frame(&scene.image);
            let four = parallel_server.detect_frame(&scene.image);
            assert_eq!(serial, one, "{label} seed {seed}: workers=1 diverges from serial detect");
            assert_eq!(serial, four, "{label} seed {seed}: workers=4 diverges from serial detect");
            for ((s, a), b) in serial.iter().zip(&one).zip(&four) {
                assert_eq!(s.score.to_bits(), a.score.to_bits(), "{label} seed {seed}: workers=1");
                assert_eq!(s.score.to_bits(), b.score.to_bits(), "{label} seed {seed}: workers=4");
            }
        }
    }
}

#[test]
fn detect_batch_matches_per_frame_results() {
    let detector = small_detector();
    let config = RuntimeConfig::builder().workers(3).chunk_rows(2).build().unwrap();
    let server = DetectionServer::new(Detector::default(), &detector, config).unwrap();
    let ds = SynthDataset::new(SynthConfig::default());
    let frames: Vec<_> = (0..4).map(|i| ds.test_scene(i).image.clone()).collect();
    let refs: Vec<_> = frames.iter().collect();
    let batched = server.detect_batch(&refs);
    assert_eq!(batched.len(), frames.len());
    for (i, (batch, frame)) in batched.iter().zip(&frames).enumerate() {
        let batch = batch.as_ref().expect("healthy batch frames all succeed");
        let single = server.detect_frame(frame);
        assert_eq!(batch, &single, "frame {i} differs between detect_batch and detect_frame");
    }
    let report = server.report();
    assert_eq!(report.counters[Counter::Frames], 8, "4 batched + 4 one at a time");
    assert!(report.counters[Counter::Windows] > 0);
}

#[test]
fn reject_backpressure_errors_without_deadlock() {
    let queue: RequestQueue<u32> = RequestQueue::new(QueueConfig {
        capacity: 2,
        batch_size: 2,
        backpressure: Backpressure::Reject,
    });
    queue.push(0).unwrap();
    queue.push(1).unwrap();
    // A full queue under Reject fails immediately — the producer is
    // never parked, so no consumer is needed to make progress.
    assert_eq!(queue.push(2), Err(PushError::Full));
    assert_eq!(queue.pop_batch().unwrap(), vec![0, 1]);
    queue.push(3).unwrap();
    queue.close();
    assert_eq!(queue.push(4), Err(PushError::Closed));
    assert_eq!(queue.pop_batch().unwrap(), vec![3]);
    assert_eq!(queue.pop_batch(), None);
}
