//! Self-healing walkthrough: warm-start a sharded tier from a
//! checkpoint directory, serve interleaved video streams while a
//! scripted chaos plan kills one shard mid-run (and injects a transient
//! frame failure on a survivor), and watch the supervisor fail the
//! dead shard's streams over, retry the injected failure, respawn the
//! shard warm from disk, and still serve every frame — bit-identical
//! to a run with no faults at all.
//!
//! ```text
//! cargo run --release --example cluster_failover
//! ```

use pcnn::cluster::{ChaosEvent, ChaosPlan, Cluster, ClusterConfig, StreamFrame, StreamOutcome};
use pcnn::core::{Extractor, PartitionedSystem, StreamId, TrainSetConfig};
use pcnn::hog::BlockNorm;
use pcnn::runtime::{Backpressure, RetryPolicy};
use pcnn::store::CheckpointDir;
use pcnn::trace::Counter;
use pcnn::vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};
use std::time::Duration;

fn main() {
    let dataset = SynthDataset::new(SynthConfig::default());

    println!("training NApprox(fp) + SVM detector…");
    let detector = PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &dataset,
        TrainSetConfig { n_pos: 80, n_neg: 160, mining_scenes: 2, mining_rounds: 1 },
    );

    // Persist the model: respawns reload the newest valid snapshot from
    // this directory, so a killed shard comes back warm.
    let dir = std::env::temp_dir().join(format!("pcnn-cluster-failover-{}", std::process::id()));
    let checkpoints = CheckpointDir::create(&dir).expect("create checkpoint dir");
    checkpoints.save(1, &detector.to_snapshot()).expect("save snapshot");

    let config = ClusterConfig::builder()
        .shards(3)
        .router_seed(7)
        .workers(2)
        .backpressure(Backpressure::Block)
        .retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            deadline: None,
            jitter_pm: 500,
        })
        .build()
        .expect("valid cluster config");
    let cluster = Cluster::warm_start(&checkpoints, config).expect("warm start from checkpoints");
    println!("warm-started 3 shards from {}\n", dir.display());

    // Four interleaved camera streams, six frames each.
    let sources: Vec<VideoStream> =
        (0..4u64).map(|s| VideoStream::new(TemporalConfig::sparse_scene(s + 1))).collect();
    let mut frames = Vec::new();
    for t in 0..6 {
        for (s, source) in sources.iter().enumerate() {
            frames.push(StreamFrame {
                stream: StreamId::new(s as u64),
                image: source.render(t).image,
            });
        }
    }

    // Script the outage: kill stream 0's shard before its third frame,
    // and fail the first frame on some other shard once (a transient
    // error the retry policy absorbs).
    let victim = cluster.route(StreamId::new(0));
    let mut plan =
        ChaosPlan::new(42).with_event(ChaosEvent::KillShard { shard: victim, at_frame: 2 });
    if let Some(other) = (1..4).map(|s| cluster.route(StreamId::new(s))).find(|&s| s != victim) {
        plan = plan.with_event(ChaosEvent::FailFrame { shard: other, at_frame: 0 });
        println!(
            "chaos plan: kill shard {victim} at its 3rd frame, fail one frame on shard {other}"
        );
    } else {
        println!("chaos plan: kill shard {victim} at its 3rd frame");
    }

    let outcomes = cluster.serve_streams_with(&frames, Some(&plan));

    let mut served = 0;
    let mut redispatched = 0;
    let mut retried = 0;
    for outcome in &outcomes {
        if let StreamOutcome::Served { attempts, redispatched: moved, .. } = outcome {
            served += 1;
            redispatched += u32::from(*moved);
            retried += u32::from(*attempts > 1);
        }
    }
    println!(
        "\nserved {served}/{} frames ({redispatched} re-dispatched after the kill, {retried} after a retry)",
        frames.len()
    );

    let report = cluster.report();
    print!("\n{report}");
    assert_eq!(served, frames.len(), "the tier must absorb the outage without losing a frame");
    assert_eq!(
        report.aggregate.counters[Counter::Respawns],
        1,
        "the killed shard respawns warm from the checkpoint"
    );

    std::fs::remove_dir_all(&dir).ok();
}
