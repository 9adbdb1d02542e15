//! Cluster serving contracts: sharded output is bit-identical to a
//! single serial detector at any worker count, warm start resumes from
//! the newest checkpoint, Reject backpressure sheds at the cluster edge
//! with honest accounting, and the cluster report aggregates every
//! shard.

use pcnn_cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Error, Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::Backpressure;
use pcnn_store::CheckpointDir;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{SynthConfig, SynthDataset};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per test, under the OS temp dir.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pcnn-cluster-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn frames_for_test() -> Vec<StreamFrame> {
    let ds = SynthDataset::new(SynthConfig::default());
    let scenes: Vec<_> = (0..4).map(|i| ds.test_scene(i).image.clone()).collect();
    (0..12)
        .map(|i| StreamFrame {
            stream: StreamId::new((i % 5) as u64),
            image: scenes[i % scenes.len()].clone(),
        })
        .collect()
}

/// The cluster determinism contract: fixed router seed + fixed shard
/// count ⇒ per-stream results bit-identical to one serial detector, no
/// matter how many workers each shard runs.
#[test]
fn cluster_output_is_bit_identical_to_serial_at_any_worker_count() {
    let detector = detector_with(1);
    let snapshot = detector.to_snapshot();
    let frames = frames_for_test();
    let engine = Detector::default();
    let serial: Vec<_> = frames.iter().map(|f| engine.detect(&detector, &f.image)).collect();

    for workers in [1usize, 2, 4] {
        let config = ClusterConfig::builder()
            .shards(3)
            .router_seed(7)
            .workers(workers)
            .backpressure(Backpressure::Block)
            .build()
            .unwrap();
        let cluster = Cluster::new(&snapshot, config).unwrap();
        let results = cluster.serve(&frames);
        assert_eq!(results.len(), frames.len());
        for (i, result) in results.iter().enumerate() {
            let dets = result.as_ref().expect("Block backpressure never drops frames");
            assert_eq!(dets, &serial[i], "workers={workers}: frame {i} diverges from serial");
            for (a, b) in dets.iter().zip(&serial[i]) {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "workers={workers}: frame {i} score bits differ"
                );
            }
        }
    }
}

#[test]
fn warm_start_resumes_from_the_newest_checkpoint() {
    let dir = CheckpointDir::create(scratch("warm")).unwrap();
    let stale = detector_with(1);
    let fresh = detector_with(2);
    dir.save(1, &stale.to_snapshot()).unwrap();
    dir.save(5, &fresh.to_snapshot()).unwrap();

    let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
    let cluster = Cluster::warm_start(&dir, config).unwrap();
    let scene = SynthDataset::new(SynthConfig::default()).test_scene(0);
    let expected = Detector::default().detect(&fresh, &scene.image);
    assert_eq!(
        cluster.detect(StreamId::new(0), &scene.image).unwrap(),
        expected,
        "warm start must serve the newest (epoch 5) snapshot"
    );
}

#[test]
fn warm_start_from_an_empty_directory_is_a_typed_error() {
    let dir = CheckpointDir::create(scratch("empty")).unwrap();
    let err = Cluster::warm_start(&dir, ClusterConfig::default()).unwrap_err();
    assert!(matches!(err, Error::MissingEntry { .. }), "got {err:?}");
}

#[test]
fn reject_backpressure_sheds_at_the_cluster_edge_with_honest_accounting() {
    let detector = detector_with(1);
    let snapshot = detector.to_snapshot();
    // One shard, one worker, a one-slot queue and Reject: the unpaced
    // feeder floods the queue far faster than detection drains it, so
    // some frames must shed.
    let config = ClusterConfig::builder()
        .shards(1)
        .router_seed(0)
        .workers(1)
        .queue_capacity(1)
        .batch_size(1)
        .backpressure(Backpressure::Reject)
        .build()
        .unwrap();
    let cluster = Cluster::new(&snapshot, config).unwrap();
    let frames: Vec<StreamFrame> =
        frames_for_test().into_iter().cycle().take(16).collect::<Vec<_>>();
    let results = cluster.serve(&frames);

    let engine = Detector::default();
    let served = results.iter().filter(|r| r.is_some()).count() as u64;
    let shed = results.iter().filter(|r| r.is_none()).count() as u64;
    assert!(shed > 0, "a one-slot Reject queue under flood must shed");
    assert!(served > 0, "shedding must not starve the queue entirely");
    for (i, result) in results.iter().enumerate() {
        if let Some(dets) = result {
            let expected = engine.detect(&detector, &frames[i].image);
            assert_eq!(dets, &expected, "served frame {i} diverges from serial");
        }
    }

    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::FramesRouted], frames.len() as u64);
    assert_eq!(
        report.aggregate.counters[Counter::FramesShed],
        shed,
        "frames_shed disagrees with the None slots"
    );
    assert_eq!(report.aggregate.counters[Counter::Frames], served);
}

#[test]
fn report_aggregates_every_shard() {
    let detector = detector_with(1);
    let snapshot = detector.to_snapshot();
    let config = ClusterConfig::builder()
        .shards(3)
        .router_seed(11)
        .workers(2)
        .backpressure(Backpressure::Block)
        .build()
        .unwrap();
    let cluster = Cluster::new(&snapshot, config).unwrap();
    let frames = frames_for_test();
    let results = cluster.serve(&frames);
    assert!(results.iter().all(Option::is_some));

    let report = cluster.report();
    assert_eq!(report.shards.len(), 3);
    let per_shard: u64 = report.shards.iter().map(|s| s.report.counters[Counter::Frames]).sum();
    assert_eq!(per_shard, frames.len() as u64, "shard reports must cover every frame once");
    assert_eq!(report.aggregate.counters[Counter::Frames], per_shard, "aggregate != sum of shards");
    assert_eq!(report.aggregate.counters[Counter::FramesRouted], frames.len() as u64);
    assert_eq!(report.aggregate.counters[Counter::FramesShed], 0);
    // Streams spread: with 5 streams over 3 shards at this seed, more
    // than one shard did work.
    let busy = report.shards.iter().filter(|s| s.report.counters[Counter::Frames] > 0).count();
    assert!(busy > 1, "expected multiple shards to serve, got {busy}");
    // The merged batch-latency histogram carries one sample per batch.
    assert_eq!(
        report.aggregate.batch_latency.total(),
        report.aggregate.counters[Counter::Batches],
        "merged latency histogram lost samples"
    );
}
