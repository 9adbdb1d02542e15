//! Every report names the kernel path the process serves on when the
//! report is taken. The label's trinary half flips the first time a
//! multiply-free GEMM runs anywhere in the process, so this binary holds
//! one test: its cluster is built before any trinary GEMM has run, and
//! only the cluster's own serve runs one.

use pcnn_cluster::{Cluster, ClusterConfig};
use pcnn_core::cotrain::{PartitionedSystem, TrainSetConfig};
use pcnn_core::{EednClassifierConfig, Extractor, StreamId};
use pcnn_hog::BlockNorm;
use pcnn_vision::{SynthConfig, SynthDataset};

#[test]
fn shard_and_aggregate_labels_name_the_trinary_path_after_an_eedn_serve() {
    let ds = SynthDataset::new(SynthConfig::default());
    let detector = PartitionedSystem::train_eedn_detector(
        Extractor::napprox_fp(BlockNorm::None),
        &ds,
        TrainSetConfig { n_pos: 8, n_neg: 8, mining_scenes: 0, mining_rounds: 0 },
        EednClassifierConfig { hidden1: 24, hidden2: 12, epochs: 2, ..Default::default() },
    );
    let config = ClusterConfig::builder().shards(2).workers(1).build().expect("valid config");
    let cluster = Cluster::new(&detector.to_snapshot(), config).expect("cluster");
    let built = cluster.report();
    assert!(built.aggregate.kernel_backend.starts_with("f32+"), "nothing ran trinary yet: {built}");

    cluster.detect(StreamId::new(0), &ds.train_positive(0)).expect("one Eedn frame served");
    let report = cluster.report();
    assert_eq!(report.shards.len(), 2);
    for shard in &report.shards {
        let label = &shard.report.kernel_backend;
        assert!(label.starts_with("trinary+"), "shard {}: {label}", shard.shard);
    }
    let label = &report.aggregate.kernel_backend;
    assert!(label.starts_with("trinary+"), "aggregate: {label}");
}
