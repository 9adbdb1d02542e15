//! The cluster report's trace summary is live: every `report()` profiles
//! the process-global tracer afresh, so its `runtime.batch` count keeps
//! pace with the batches the shards have served, and its `Display`
//! prints the stage block. It profiles only the spans started since its
//! cluster was built, so clusters that serve one after another each
//! count their own batches.
//!
//! Its own test binary, because the tracer is process-global; the tests
//! in it take turns installing one.

use pcnn_cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn_core::pipeline::TrainedDetector;
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::Backpressure;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::{stages, Clock, Counter, Tracer};
use pcnn_vision::{SynthConfig, SynthDataset};
use std::sync::Mutex;

/// Serializes the tests that install the process-global tracer.
static TRACER: Mutex<()> = Mutex::new(());

fn detector() -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig::default());
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

fn config() -> ClusterConfig {
    ClusterConfig::builder()
        .shards(1)
        .workers(1)
        .batch_size(2)
        .backpressure(Backpressure::Block)
        .build()
        .expect("valid config")
}

fn frames() -> Vec<StreamFrame> {
    let ds = SynthDataset::new(SynthConfig::default());
    (0..4)
        .map(|i| StreamFrame { stream: StreamId::new(i % 2), image: ds.train_positive(i) })
        .collect()
}

/// The traced `runtime.batch` spans in a report's summary.
fn batch_spans(report: &pcnn_cluster::ClusterReport) -> u64 {
    let trace = report.trace.as_ref().expect("a tracer is installed");
    trace.stages.iter().find(|s| s.name == stages::RUNTIME_BATCH).map_or(0, |s| s.count)
}

#[test]
fn the_cluster_trace_summary_counts_every_served_batch() {
    let _turn = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    let cluster = Cluster::new(&detector().to_snapshot(), config()).expect("cluster");
    let frames = frames();

    let _tracer = Tracer::install(Clock::mock());
    for round in 1..=3 {
        let results = cluster.serve(&frames);
        assert!(results.iter().all(Option::is_some), "round {round}: every frame is served");
        let report = cluster.report();
        assert_eq!(report.aggregate.counters[Counter::Frames], 4 * round);
        let trace = report.trace.as_ref().expect("a tracer is installed");
        let batch = trace
            .stages
            .iter()
            .find(|s| s.name == stages::RUNTIME_BATCH)
            .expect("batches were traced");
        assert_eq!(
            batch.count,
            report.aggregate.counters[Counter::Batches],
            "round {round}: {report}"
        );
        let text = report.to_string();
        assert!(text.contains(stages::RUNTIME_BATCH), "round {round}: {text}");
    }
    Tracer::uninstall();
}

#[test]
fn clusters_serving_in_turn_each_count_their_own_batches() {
    let _turn = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    let _tracer = Tracer::install(Clock::mock());
    let snapshot = detector().to_snapshot();
    let frames = frames();
    for turn in 1..=2 {
        let cluster = Cluster::new(&snapshot, config()).expect("cluster");
        let results = cluster.serve(&frames);
        assert!(results.iter().all(Option::is_some), "cluster {turn}: every frame is served");
        let report = cluster.report();
        assert!(report.aggregate.counters[Counter::Batches] > 0);
        assert_eq!(
            batch_spans(&report),
            report.aggregate.counters[Counter::Batches],
            "cluster {turn}: {report}"
        );
    }
    Tracer::uninstall();
}
