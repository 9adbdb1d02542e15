//! Serving-throughput demo: push a batch of synthetic scenes through a
//! one-shard cluster at several worker counts and print the shard's
//! `RuntimeReport` and the `ClusterReport` after each run. Under
//! `PCNN_TRACE=1` the cluster report ends with the live per-stage trace
//! summary.
//!
//! ```text
//! cargo run --release --example serve_throughput
//! PCNN_TRACE=1 cargo run --release --example serve_throughput
//! ```

use pcnn::cluster::{Cluster, ClusterConfig, StreamFrame};
use pcnn::core::{Extractor, PartitionedSystem, StreamId, TrainSetConfig};
use pcnn::hog::BlockNorm;
use pcnn::runtime::Backpressure;
use pcnn::vision::{SynthConfig, SynthDataset};
use std::time::Instant;

const FRAMES: usize = 12;

fn main() {
    let dataset = SynthDataset::new(SynthConfig::default());

    println!("training NApprox(fp) + SVM detector…");
    let detector = PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &dataset,
        TrainSetConfig { n_pos: 80, n_neg: 160, mining_scenes: 2, mining_rounds: 1 },
    );
    let snapshot = detector.to_snapshot();

    let frames: Vec<StreamFrame> = (0..FRAMES as u64)
        .map(|i| StreamFrame { stream: StreamId::new(i), image: dataset.test_scene(i).image })
        .collect();
    println!(
        "serving {FRAMES} synthetic scenes ({}x{} px) on one shard\n",
        frames[0].image.width(),
        frames[0].image.height()
    );

    let mut baseline_fps = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let config = ClusterConfig::builder()
            .shards(1)
            .workers(workers)
            .chunk_rows(4)
            .queue_capacity(16)
            .batch_size(4)
            .backpressure(Backpressure::Block)
            .build()
            .expect("valid cluster config");
        let cluster = Cluster::new(&snapshot, config).expect("snapshot rebuilds");
        let start = Instant::now();
        let results = cluster.serve(&frames);
        let elapsed = start.elapsed();

        let detections: usize = results.iter().flatten().map(Vec::len).sum();
        let fps = FRAMES as f64 / elapsed.as_secs_f64();
        if workers == 1 {
            baseline_fps = fps;
        }
        println!(
            "workers={workers}: {:.2}s  {:.2} frames/s  (speedup {:.2}x)  {detections} detections",
            elapsed.as_secs_f64(),
            fps,
            fps / baseline_fps
        );
        println!("{}", cluster.shards()[0].report());
        println!("{}", cluster.report());
    }
}
