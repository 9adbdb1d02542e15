//! `PCNN_TRACE=1` records a cluster's very first serve: the tracer is
//! installed when the cluster is built, before its first `cluster.serve`
//! span opens, so that span and every shard batch inside it are counted.
//!
//! Its own test binary, because the environment variable and the tracer
//! are process-global.

use pcnn_cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn_core::pipeline::TrainedDetector;
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::Backpressure;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::{stages, Counter};
use pcnn_vision::{SynthConfig, SynthDataset};

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

#[test]
fn the_env_tracer_records_the_first_serve() {
    // Set before anything in this process reads it: the first cluster
    // built below is what installs the tracer.
    std::env::set_var("PCNN_TRACE", "1");
    let config = ClusterConfig::builder()
        .shards(1)
        .workers(1)
        .batch_size(2)
        .backpressure(Backpressure::Block)
        .build()
        .expect("valid config");
    let cluster = Cluster::new(&detector().to_snapshot(), config).expect("cluster");
    let ds = SynthDataset::new(SynthConfig::default());
    let frames: Vec<StreamFrame> = (0..4)
        .map(|i| StreamFrame { stream: StreamId::new(i % 2), image: ds.train_positive(i) })
        .collect();

    let results = cluster.serve(&frames);
    assert!(results.iter().all(Option::is_some), "every frame is served");
    let report = cluster.report();
    let trace = report.trace.as_ref().expect("PCNN_TRACE=1 installs a tracer");
    let count = |name: &str| trace.stages.iter().find(|s| s.name == name).map_or(0, |s| s.count);
    assert_eq!(count(stages::CLUSTER_SERVE), 1, "the one serve is traced: {report}");
    assert_eq!(
        count(stages::RUNTIME_BATCH),
        report.aggregate.counters[Counter::Batches],
        "{report}"
    );
    assert_eq!(
        count(stages::CLUSTER_SHARD_BATCH),
        count(stages::RUNTIME_BATCH),
        "every shard batch is traced with its runtime batch: {report}"
    );
}
