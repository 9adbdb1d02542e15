//! Cluster streaming contracts: serving interleaved video streams
//! through the sharded tier is bit-identical to serving each stream on
//! a single server, cache reuse counters are conserved across the
//! shard boundary, and a model swap invalidates every shard's stream
//! caches so no frame is ever served from cells the old model
//! extracted.

use pcnn_cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{Backpressure, DetectionServer, RuntimeConfig};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset, TemporalConfig, VideoStream};

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

/// `per_stream` frames for each of `streams` video streams, interleaved
/// round-robin the way a camera mux would deliver them.
fn interleaved_streams(streams: u64, per_stream: u64) -> Vec<StreamFrame> {
    let sources: Vec<VideoStream> =
        (0..streams).map(|s| VideoStream::new(TemporalConfig::sparse_scene(s + 1))).collect();
    let mut frames = Vec::new();
    for t in 0..per_stream {
        for (s, source) in sources.iter().enumerate() {
            frames.push(StreamFrame {
                stream: StreamId::new(s as u64),
                image: source.render(t).image,
            });
        }
    }
    frames
}

fn cluster_config(shards: u32, workers: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .shards(shards)
        .router_seed(7)
        .workers(workers)
        .backpressure(Backpressure::Block)
        .build()
        .expect("valid cluster config")
}

#[test]
fn sharded_streaming_matches_a_single_server_per_stream() {
    let detector = detector_with(1);
    let snapshot = detector.to_snapshot();
    let frames = interleaved_streams(4, 4);

    // Reference: every stream served alone, in order, on one server.
    let config = RuntimeConfig::builder().workers(2).build().unwrap();
    let server = DetectionServer::new(Detector::default(), &detector, config).unwrap();
    let mut reference = Vec::new();
    for s in 0..4u64 {
        let handle = server.open_stream(StreamId::new(s));
        for frame in frames.iter().filter(|f| f.stream == StreamId::new(s)) {
            reference.push((frame.stream, server.detect_stream(&handle, &frame.image).unwrap()));
        }
    }

    let cluster = Cluster::new(&snapshot, cluster_config(3, 2)).unwrap();
    let results = cluster.serve_streams(&frames);
    assert_eq!(results.len(), frames.len());

    // Group the cluster's results back per stream (input order within a
    // stream is submission order) and compare whole outcomes —
    // detections, tracks and reuse counters all bit-equal.
    let mut clustered = Vec::new();
    for s in 0..4u64 {
        for (i, frame) in frames.iter().enumerate() {
            if frame.stream == StreamId::new(s) {
                let outcome = results[i]
                    .as_ref()
                    .expect("Block backpressure never sheds")
                    .as_ref()
                    .expect("healthy frames succeed");
                clustered.push((frame.stream, outcome.clone()));
            }
        }
    }
    assert_eq!(clustered, reference, "sharded streaming diverged from the single-server runs");

    // Conservation: the cluster report's totals equal the per-frame sums.
    let report = cluster.report();
    let reused: u64 = reference.iter().map(|(_, r)| r.cells_reused).sum();
    let recomputed: u64 = reference.iter().map(|(_, r)| r.cells_recomputed).sum();
    assert_eq!(report.aggregate.counters[Counter::CellsReused], reused);
    assert_eq!(report.aggregate.counters[Counter::CellsRecomputed], recomputed);
    assert!(reused > 0, "a 4-frame sparse stream must reuse cells");
}

#[test]
fn detect_stream_is_bit_identical_to_cold_detection() {
    let detector = detector_with(2);
    let snapshot = detector.to_snapshot();
    let cluster = Cluster::new(&snapshot, cluster_config(2, 2)).unwrap();
    let engine = Detector::default();

    let source = VideoStream::new(TemporalConfig::crowded_scene(9));
    let stream = StreamId::new(40);
    for t in 0..4u64 {
        let frame: GrayImage = source.render(t).image;
        let cold = engine.detect(&detector, &frame);
        let warm = cluster.detect_stream(stream, &frame).unwrap();
        assert_eq!(warm.detections, cold, "frame {t} diverges from cold detect");
    }
}

#[test]
fn model_swap_invalidates_stream_caches_on_every_shard() {
    let blue = detector_with(1);
    let green = detector_with(2);
    let cluster = Cluster::new(&blue.to_snapshot(), cluster_config(2, 1)).unwrap();
    let engine = Detector::default();

    // Warm several streams so both shards hold cached state.
    let frame: GrayImage = VideoStream::new(TemporalConfig::static_scene(3)).render(0).image;
    let streams: Vec<StreamId> = (0..6u64).map(StreamId::new).collect();
    let mut grid_cells = 0;
    for &s in &streams {
        let cold = cluster.detect_stream(s, &frame).unwrap();
        grid_cells = cold.cells_recomputed;
        let warm = cluster.detect_stream(s, &frame).unwrap();
        assert_eq!(warm.cells_recomputed, 0, "identical frame must be served from cache");
    }

    cluster.swap_model(&green.to_snapshot()).unwrap();

    // The same pixels after the swap: the cache must not answer — every
    // cell recomputes under the new model, and the output matches the
    // green model's cold run, not the blue one's.
    let green_ref = engine.detect(&green, &frame);
    let blue_ref = engine.detect(&blue, &frame);
    for &s in &streams {
        let post = cluster.detect_stream(s, &frame).unwrap();
        assert_eq!(
            post.cells_recomputed, grid_cells,
            "stream {s}: swap left stale cells in the cache"
        );
        assert_eq!(post.detections, green_ref, "stream {s}: not served by the green model");
        if green_ref != blue_ref {
            assert_ne!(post.detections, blue_ref, "stream {s}: served stale blue output");
        }
    }
}

#[test]
fn builder_rejects_degenerate_configs() {
    assert!(ClusterConfig::builder().shards(0).build().is_err());
    assert!(ClusterConfig::builder().stream_cache_capacity(0).build().is_err());
    assert!(ClusterConfig::builder().workers(0).build().is_err());
    assert!(ClusterConfig::builder().queue_capacity(0).build().is_err());
    assert!(ClusterConfig::builder().batch_size(0).build().is_err());
    assert!(ClusterConfig::builder().queue_capacity(2).batch_size(4).build().is_err());
    let ok = ClusterConfig::builder()
        .shards(2)
        .stream_cache_capacity(8)
        .queue_capacity(64)
        .build()
        .unwrap();
    assert_eq!(ok.shards, 2);
    assert_eq!(ok.stream_cache_capacity, 8);
    assert_eq!(ok.queue.capacity, 64);
}

#[test]
fn stream_cache_eviction_costs_only_warmth() {
    let detector = detector_with(1);
    let config =
        ClusterConfig::builder().shards(1).workers(1).stream_cache_capacity(1).build().unwrap();
    let cluster = Cluster::new(&detector.to_snapshot(), config).unwrap();
    let frame: GrayImage = VideoStream::new(TemporalConfig::static_scene(3)).render(0).image;
    let engine = Detector::default();
    let reference = engine.detect(&detector, &frame);

    // Two streams fighting over a one-slot cache: every frame evicts the
    // other stream, so nothing is ever reused — but results stay exact.
    for round in 0..3 {
        for s in [StreamId::new(1), StreamId::new(2)] {
            let r = cluster.detect_stream(s, &frame).unwrap();
            assert_eq!(r.cells_reused, 0, "round {round} {s}: evicted stream reused cells");
            assert_eq!(r.detections, reference, "round {round} {s}: eviction changed output");
        }
    }
}
