//! Cluster-tier scaling under seeded open-loop load.
//!
//! Drives the sharded serving tier with the `pcnn_cluster` SLO harness
//! at several shard counts, judges each run against fixed p50/p99
//! schedule-to-completion budgets, and times a blue/green model swap on
//! the loaded tier. Every run uses `Backpressure::Block`, so each
//! offered frame must be served and none shed; that assert runs in every
//! mode, so `--check` gates nothing further. Records
//! `results/BENCH_cluster.json` through [`pcnn_bench::harness`].

use pcnn_bench::harness::{Mode, Report};
use pcnn_cluster::{arrivals, run_slo, Cluster, ClusterConfig, LoadProfile, SloBudget};
use pcnn_runtime::{Backpressure, RuntimeConfig};
use pcnn_vision::GrayImage;
use serde::Serialize;
use std::time::Instant;

/// One shard-count configuration's SLO outcome, as recorded in
/// `results/BENCH_cluster.json`.
#[derive(Serialize)]
struct BenchResult {
    name: String,
    shards: u32,
    rate_hz: f64,
    budget: SloBudget,
    offered: u64,
    served: u64,
    shed: u64,
    wall_s: f64,
    throughput_fps: f64,
    p50_us: Option<u64>,
    p99_us: Option<u64>,
    slo_pass: bool,
    /// Wall time of a full rolling blue/green swap issued right after
    /// the load run, with the tier's queues and pools warm.
    swap_ms: f64,
}

fn main() {
    let mode = Mode::from_args();
    let snapshot = pcnn_bench::small_svm_detector().to_snapshot();
    let scenes: Vec<GrayImage> =
        pcnn_bench::test_scenes(4).into_iter().map(|scene| scene.image).collect();

    // The offered rate must be sustainable on the smallest CI host (the
    // serial detection path runs near 10 fps on one core), or the open
    // loop measures nothing but unbounded backlog: keep utilization
    // under one and let the quantiles report the queueing.
    let profile =
        LoadProfile { seed: 0xDAC17, streams: 8, rate_hz: 6.0, frames: mode.pick(60, 12) };
    let schedule = arrivals(&profile);
    let budget = SloBudget { p50_us: 400_000, p99_us: 1_500_000, shed_ppm: 0 };
    let workers = 2;

    let mut results = Vec::new();
    for shards in [1u32, 2, 4] {
        let config = ClusterConfig {
            shards,
            router_seed: 7,
            runtime: RuntimeConfig::builder()
                .workers(workers)
                .backpressure(Backpressure::Block)
                .build()
                .expect("valid runtime config"),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(&snapshot, config).expect("valid cluster config");
        let slo = run_slo(&cluster, &schedule, budget, |a| {
            scenes[(a.stream % scenes.len() as u64) as usize].clone()
        });
        let swap_start = Instant::now();
        cluster.swap_model(&snapshot).expect("swap on warm tier");
        let swap_ms = swap_start.elapsed().as_secs_f64() * 1e3;
        assert!(
            slo.served == slo.offered && slo.shed == 0,
            "shards={shards}: Block backpressure must serve every offered frame \
             ({} offered, {} served, {} shed)",
            slo.offered,
            slo.served,
            slo.shed
        );
        results.push(BenchResult {
            name: format!("shards_{shards}"),
            shards,
            rate_hz: profile.rate_hz,
            budget,
            offered: slo.offered,
            served: slo.served,
            shed: slo.shed,
            wall_s: slo.wall_s,
            throughput_fps: slo.throughput_fps,
            p50_us: slo.p50_us,
            p99_us: slo.p99_us,
            slo_pass: slo.pass,
            swap_ms,
        });
    }

    Report::new("cluster_scaling", workers, &results).finish(mode, "BENCH_cluster.json", &[]);
}
