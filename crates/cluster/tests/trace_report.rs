//! The cluster report's trace summary is live: every `report()` profiles
//! the process-global tracer afresh, so its `runtime.batch` count keeps
//! pace with the batches the shards have served, and its `Display`
//! prints the stage block.
//!
//! Its own test binary, because the tracer is process-global.

use pcnn_cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn_core::pipeline::TrainedDetector;
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::Backpressure;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::{stages, Clock, Tracer};
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
fn the_cluster_trace_summary_counts_every_served_batch() {
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

    let _tracer = Tracer::install(Clock::mock());
    for round in 1..=3 {
        let results = cluster.serve(&frames);
        assert!(results.iter().all(Option::is_some), "round {round}: every frame is served");
        let report = cluster.report();
        assert_eq!(report.aggregate.frames_served, 4 * round);
        let trace = report.trace.as_ref().expect("a tracer is installed");
        let batch = trace
            .stages
            .iter()
            .find(|s| s.name == stages::RUNTIME_BATCH)
            .expect("batches were traced");
        assert_eq!(batch.count, report.aggregate.batches, "round {round}: {report}");
        let text = report.to_string();
        assert!(text.contains(stages::RUNTIME_BATCH), "round {round}: {text}");
    }
    Tracer::uninstall();
}
