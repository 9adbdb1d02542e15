//! Self-healing overhead under chaos: the same interleaved stream load
//! served twice — once clean, once with a scripted mid-run shard kill
//! (plus an injected frame failure when the routing spreads wide
//! enough) — and judged by the same SLO harness, so the cost of a
//! failover + warm respawn shows up as a p99/throughput delta instead
//! of an anecdote. Both runs use `Backpressure::Block`, so a frame that
//! goes unserved was lost, not shed by policy. Records
//! `results/BENCH_chaos.json` through [`pcnn_bench::harness`];
//! `--check` holds the shed, deadline and self-healing counters exact.

use pcnn_bench::harness::{Gate, Mode, Report};
use pcnn_cluster::{
    run_stream_slo, ChaosEvent, ChaosPlan, Cluster, ClusterConfig, SloBudget, StreamFrame,
};
use pcnn_core::{DetectorSnapshot, StreamId};
use pcnn_runtime::{Backpressure, RetryPolicy};
use pcnn_vision::{TemporalConfig, VideoStream};
use serde::Serialize;
use std::time::Duration;

/// One scenario's outcome, as recorded in `results/BENCH_chaos.json`.
#[derive(Serialize)]
struct ScenarioResult {
    name: String,
    shards: u32,
    streams: u64,
    budget: SloBudget,
    offered: u64,
    served: u64,
    shed: u64,
    deadline_exceeded: u64,
    retried_served: u64,
    wall_s: f64,
    throughput_fps: f64,
    p50_us: Option<u64>,
    p99_us: Option<u64>,
    /// This scenario's p99 over the clean run's, as a percentage (100 =
    /// no degradation), when both quantiles resolved.
    p99_over_clean_pct: Option<f64>,
    slo_pass: bool,
    failovers: u64,
    respawns: u64,
    retries: u64,
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

fn cluster(snapshot: &DetectorSnapshot, shards: u32, workers: usize) -> Cluster {
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
    Cluster::new(snapshot, config).expect("valid cluster")
}

fn main() {
    let mode = Mode::from_args();
    let snapshot = pcnn_bench::small_svm_detector().to_snapshot();
    let (shards, workers) = (3u32, 2usize);
    let (streams, per_stream) = mode.pick((4u64, 8u64), (3, 4));
    let frames = interleaved(streams, per_stream);
    // Every frame is offered at the start, so a frame's latency is its
    // measured completion time: queueing behind its stream's earlier
    // frames, failover and respawn included.
    let budget = SloBudget { p50_us: 1_000_000, p99_us: 2_000_000, shed_ppm: 0 };

    let clean = cluster(&snapshot, shards, workers);
    let clean_slo = run_stream_slo(&clean, &frames, budget, None);

    let chaotic = cluster(&snapshot, shards, workers);
    let victim = chaotic.route(StreamId::new(0));
    let mut plan =
        ChaosPlan::new(0xDAC17).with_event(ChaosEvent::KillShard { shard: victim, at_frame: 2 });
    if let Some(other) =
        (1..streams).map(|s| chaotic.route(StreamId::new(s))).find(|&s| s != victim)
    {
        plan = plan.with_event(ChaosEvent::FailFrame { shard: other, at_frame: 0 });
    }
    let chaos_slo = run_stream_slo(&chaotic, &frames, budget, Some(&plan));

    let results = [("clean", &clean, &clean_slo), ("one-shard-kill", &chaotic, &chaos_slo)].map(
        |(name, cluster, slo)| {
            let report = cluster.report();
            assert_eq!(slo.served, slo.offered, "{name}: frames lost under Block backpressure");
            ScenarioResult {
                name: name.to_string(),
                shards,
                streams,
                budget,
                offered: slo.offered,
                served: slo.served,
                shed: slo.shed,
                deadline_exceeded: slo.deadline_exceeded,
                retried_served: slo.retried_served,
                wall_s: slo.wall_s,
                throughput_fps: slo.throughput_fps,
                p50_us: slo.p50_us,
                p99_us: slo.p99_us,
                p99_over_clean_pct: match (slo.p99_us, clean_slo.p99_us) {
                    (Some(p99), Some(clean)) if clean > 0 => {
                        Some(100.0 * p99 as f64 / clean as f64)
                    }
                    _ => None,
                },
                slo_pass: slo.pass,
                failovers: report.failovers,
                respawns: report.respawns,
                retries: report.retries,
            }
        },
    );

    Report::new("cluster_chaos", workers, &results).finish(
        mode,
        "BENCH_chaos.json",
        &[
            Gate::Exact("shed"),
            Gate::Exact("deadline_exceeded"),
            Gate::Exact("retried_served"),
            Gate::Exact("failovers"),
            Gate::Exact("respawns"),
            Gate::Exact("retries"),
        ],
    );
}
