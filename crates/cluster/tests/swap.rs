//! The blue/green swap contract: a model swap in the middle of a served
//! stream drops nothing and double-serves nothing. Every submitted
//! frame gets exactly one result, and that result is explainable — it
//! matches either the blue model's serial output or the green model's,
//! never a torn mixture.

use pcnn_cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::Backpressure;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{SynthConfig, SynthDataset};
use std::time::Duration;

/// A small SVM detector trained on NApprox full-precision features from
/// a seeded synthetic dataset — different seeds give models with
/// visibly different detection outputs.
fn detector_with(seed: u64) -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig { seed, ..SynthConfig::default() });
    let extractor = Extractor::napprox_fp(BlockNorm::L2);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..24 {
        xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
        ys.push(false);
    }
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

fn cluster_config(shards: u32, workers: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .shards(shards)
        .router_seed(3)
        .workers(workers)
        .batch_size(2)
        .backpressure(Backpressure::Block)
        .build()
        .unwrap()
}

#[test]
fn mid_stream_swap_serves_every_frame_exactly_once() {
    let blue = detector_with(1);
    let green = detector_with(2);
    let blue_snap = blue.to_snapshot();
    let green_snap = green.to_snapshot();

    let ds = SynthDataset::new(SynthConfig::default());
    let scenes: Vec<_> = (0..4).map(|i| ds.test_scene(i).image.clone()).collect();
    let frames: Vec<StreamFrame> = (0..24)
        .map(|i| StreamFrame {
            stream: StreamId::new((i % 6) as u64),
            image: scenes[i % scenes.len()].clone(),
        })
        .collect();

    // Per-frame serial references for both models: any served result
    // must be bit-for-bit one of these two.
    let engine = Detector::default();
    let blue_ref: Vec<_> = frames.iter().map(|f| engine.detect(&blue, &f.image)).collect();
    let green_ref: Vec<_> = frames.iter().map(|f| engine.detect(&green, &f.image)).collect();
    assert_ne!(blue_ref, green_ref, "blue and green must be distinguishable for this test");

    let cluster = Cluster::new(&blue_snap, cluster_config(2, 2)).unwrap();
    let results = std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            // Land the swap somewhere inside the serve; correctness below
            // does not depend on where.
            std::thread::sleep(Duration::from_millis(20));
            cluster.swap_model(&green_snap).unwrap()
        });
        let results = cluster.serve(&frames);
        assert_eq!(swapper.join().unwrap(), 1, "first swap installs generation 1");
        results
    });

    // Exactly one result per submitted frame, none dropped.
    assert_eq!(results.len(), frames.len());
    for (i, result) in results.iter().enumerate() {
        let dets = result.as_ref().expect("a swap must not drop queued frames");
        assert!(
            dets == &blue_ref[i] || dets == &green_ref[i],
            "frame {i}: served output matches neither the blue nor the green model"
        );
    }

    // Every shard finished the roll; the swap is visible in the report.
    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::Swaps], 1);
    for shard in &report.shards {
        assert_eq!(shard.generation, 1, "shard {} never installed generation 1", shard.shard);
        assert_eq!(shard.swaps, 1);
    }
    assert_eq!(
        report.aggregate.counters[Counter::FramesShed],
        0,
        "Block backpressure sheds nothing"
    );
    assert_eq!(report.aggregate.counters[Counter::Frames], frames.len() as u64);

    // After the roll, the tier serves pure green.
    for (i, frame) in frames.iter().take(4).enumerate() {
        assert_eq!(
            cluster.detect(frame.stream, &frame.image).unwrap(),
            green_ref[i],
            "post-swap frame {i} not served by the green model"
        );
    }
}

#[test]
fn repeated_swaps_advance_the_generation_monotonically() {
    let detector = detector_with(5);
    let snap = detector.to_snapshot();
    let cluster = Cluster::new(&snap, cluster_config(3, 1)).unwrap();
    assert_eq!(cluster.swap_model(&snap).unwrap(), 1);
    assert_eq!(cluster.swap_model(&snap).unwrap(), 2);
    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::Swaps], 2);
    for shard in &report.shards {
        assert_eq!(shard.generation, 2);
        assert_eq!(shard.swaps, 2);
    }
}
