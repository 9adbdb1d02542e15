//! Sharded-serving walkthrough: warm-start a cluster from a checkpoint
//! directory, serve a seeded open-loop load through the rendezvous
//! router, roll a blue/green model swap mid-stream, and print the
//! per-shard and aggregate cluster report.
//!
//! ```text
//! cargo run --release --example cluster_serve
//! ```

use pcnn::cluster::{arrivals, run_slo, Cluster, ClusterConfig, LoadProfile, SloBudget};
use pcnn::core::{Extractor, PartitionedSystem, TrainSetConfig};
use pcnn::hog::BlockNorm;
use pcnn::runtime::Backpressure;
use pcnn::store::CheckpointDir;
use pcnn::vision::{GrayImage, SynthConfig, SynthDataset};

fn main() {
    let dataset = SynthDataset::new(SynthConfig::default());

    println!("training NApprox(fp) + SVM detector…");
    let detector = PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &dataset,
        TrainSetConfig { n_pos: 80, n_neg: 160, mining_scenes: 2, mining_rounds: 1 },
    );

    // Persist the trained model the way a training job would, then
    // warm-start the serving tier from the newest snapshot on disk.
    let dir = std::env::temp_dir().join(format!("pcnn-cluster-serve-{}", std::process::id()));
    let checkpoints = CheckpointDir::create(&dir).expect("create checkpoint dir");
    checkpoints.save(1, &detector.to_snapshot()).expect("save snapshot");

    let config = ClusterConfig::builder()
        .shards(2)
        .router_seed(7)
        .workers(2)
        .backpressure(Backpressure::Block)
        .build()
        .expect("valid cluster config");
    let cluster = Cluster::warm_start(&checkpoints, config).expect("warm start from checkpoints");
    println!("warm-started {} shards from {}\n", config.shards, dir.display());

    // A seeded open-loop schedule: 6 streams at 6 Hz aggregate (the
    // serial detection path runs near 10 fps on a single-core host, so
    // this keeps utilization under one). The router pins each stream to
    // one shard for its whole life.
    let profile = LoadProfile { seed: 42, streams: 6, rate_hz: 6.0, frames: 30 };
    let schedule = arrivals(&profile);
    for stream in 0..u64::from(profile.streams) {
        println!("stream {stream} -> shard {}", cluster.route(stream.into()));
    }

    let scenes: Vec<GrayImage> = (0..4u64).map(|i| dataset.test_scene(i).image.clone()).collect();
    let budget = SloBudget { p50_us: 400_000, p99_us: 1_500_000, shed_ppm: 0 };
    println!("\nserving {} frames open loop at {} Hz…", profile.frames, profile.rate_hz);
    let slo = run_slo(&cluster, &schedule, budget, |a| {
        scenes[(a.stream % scenes.len() as u64) as usize].clone()
    });
    println!("{slo}\n");

    // Roll a blue/green swap: each shard publishes the new model, then
    // drains its in-flight batches before the next shard swaps. Here the
    // "new" model is the same snapshot; a real deployment would load a
    // retrained one.
    let generation = cluster.swap_model(&detector.to_snapshot()).expect("rolling swap");
    println!("rolled every shard to generation {generation}\n");

    println!("{}", cluster.report());

    let _ = std::fs::remove_dir_all(&dir);
}
