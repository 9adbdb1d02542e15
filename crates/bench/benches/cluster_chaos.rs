//! Self-healing overhead under chaos: the same interleaved stream load
//! served twice — once clean, once with a scripted mid-run shard kill
//! (plus an injected frame failure when the routing spreads wide
//! enough) — and judged by the same SLO harness, so the cost of a
//! failover + warm respawn shows up as a p99/throughput delta instead
//! of an anecdote. Writes `results/BENCH_chaos.json`.
//!
//! The vendored criterion stand-in has no CLI parsing, so this bench
//! carries its own `main`: pass `--test` (as CI does) for a short smoke
//! run. Smoke mode still writes the JSON — CI uploads it as an
//! artifact on every run, so the document carries a `smoke` flag
//! instead of being skipped.

use pcnn_cluster::{
    run_stream_slo, ChaosEvent, ChaosPlan, Cluster, ClusterConfig, SloBudget, StreamFrame,
};
use pcnn_core::{Extractor, PartitionedSystem, StreamId, TrainSetConfig, TrainedDetector};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{Backpressure, RetryPolicy};
use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};
use serde::Serialize;
use std::time::Duration;

/// One scenario's outcome, as recorded in `results/BENCH_chaos.json`.
#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    offered: u64,
    served: u64,
    shed: u64,
    deadline_exceeded: u64,
    retried_served: u64,
    wall_s: f64,
    throughput_fps: f64,
    p50_us: Option<u64>,
    p99_us: Option<u64>,
    slo_pass: bool,
    failovers: u64,
    respawns: u64,
    retries: u64,
}

#[derive(Serialize)]
struct BenchDoc {
    bench: String,
    smoke: bool,
    shards: u32,
    workers: usize,
    streams: u64,
    frames: usize,
    budget: SloBudget,
    /// p99 under a one-shard kill over p99 clean, as a percentage
    /// (100 = no degradation), when both quantiles resolved.
    p99_kill_over_clean_pct: Option<f64>,
    results: Vec<ScenarioResult>,
}

fn trained() -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig::default());
    PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &ds,
        TrainSetConfig { n_pos: 60, n_neg: 120, mining_scenes: 1, mining_rounds: 1 },
    )
}

fn interleaved(streams: u64, per_stream: u64) -> Vec<StreamFrame> {
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

fn cluster(shards: u32, workers: usize) -> Cluster {
    let snapshot = trained().to_snapshot();
    let config = ClusterConfig::builder()
        .shards(shards)
        .router_seed(7)
        .workers(workers)
        .backpressure(Backpressure::Block)
        .retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            deadline: None,
            jitter_pm: 500,
        })
        .build()
        .expect("valid cluster config");
    Cluster::new(&snapshot, config).expect("valid cluster")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (shards, workers) = (3u32, 2usize);
    let (streams, per_stream) = if smoke { (3u64, 4u64) } else { (4u64, 8u64) };
    let frames = interleaved(streams, per_stream);
    // Every frame is offered at the start, so a frame's latency is its
    // measured completion time: queueing behind its stream's earlier
    // frames, failover and respawn included.
    let budget = SloBudget { p50_us: 1_000_000, p99_us: 2_000_000, shed_ppm: 0 };

    let mut results = Vec::new();

    let clean = cluster(shards, workers);
    let clean_slo = run_stream_slo(&clean, &frames, budget, None);
    let clean_report = clean.report();
    println!("bench: chaos/clean {clean_slo}");
    results.push(ScenarioResult {
        scenario: "clean".to_string(),
        offered: clean_slo.offered,
        served: clean_slo.served,
        shed: clean_slo.shed,
        deadline_exceeded: clean_slo.deadline_exceeded,
        retried_served: clean_slo.retried_served,
        wall_s: clean_slo.wall_s,
        throughput_fps: clean_slo.throughput_fps,
        p50_us: clean_slo.p50_us,
        p99_us: clean_slo.p99_us,
        slo_pass: clean_slo.pass,
        failovers: clean_report.failovers,
        respawns: clean_report.respawns,
        retries: clean_report.retries,
    });

    let chaotic = cluster(shards, workers);
    let victim = chaotic.route(StreamId::new(0));
    let mut plan =
        ChaosPlan::new(0xDAC17).with_event(ChaosEvent::KillShard { shard: victim, at_frame: 2 });
    if let Some(other) =
        (1..streams).map(|s| chaotic.route(StreamId::new(s))).find(|&s| s != victim)
    {
        plan = plan.with_event(ChaosEvent::FailFrame { shard: other, at_frame: 0 });
    }
    let chaos_slo = run_stream_slo(&chaotic, &frames, budget, Some(&plan));
    let chaos_report = chaotic.report();
    println!(
        "bench: chaos/one-shard-kill {chaos_slo}  [{} failovers, {} respawns, {} retries]",
        chaos_report.failovers, chaos_report.respawns, chaos_report.retries
    );
    results.push(ScenarioResult {
        scenario: "one-shard-kill".to_string(),
        offered: chaos_slo.offered,
        served: chaos_slo.served,
        shed: chaos_slo.shed,
        deadline_exceeded: chaos_slo.deadline_exceeded,
        retried_served: chaos_slo.retried_served,
        wall_s: chaos_slo.wall_s,
        throughput_fps: chaos_slo.throughput_fps,
        p50_us: chaos_slo.p50_us,
        p99_us: chaos_slo.p99_us,
        slo_pass: chaos_slo.pass,
        failovers: chaos_report.failovers,
        respawns: chaos_report.respawns,
        retries: chaos_report.retries,
    });

    let p99_kill_over_clean_pct = match (chaos_slo.p99_us, clean_slo.p99_us) {
        (Some(kill), Some(clean)) if clean > 0 => Some(100.0 * kill as f64 / clean as f64),
        _ => None,
    };

    let doc = BenchDoc {
        bench: "cluster_chaos".to_string(),
        smoke,
        shards,
        workers,
        streams,
        frames: frames.len(),
        budget,
        p99_kill_over_clean_pct,
        results,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_chaos.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize"))
        .expect("write BENCH_chaos.json");
    println!("wrote {path}");

    // Both runs use Block backpressure: a frame that goes unserved was
    // lost, not shed by policy.
    let lost: u64 = doc.results.iter().map(|r| r.offered - r.served).sum();
    if lost > 0 {
        eprintln!("bench: chaos lost {lost} frames under Block backpressure");
        std::process::exit(1);
    }
}
