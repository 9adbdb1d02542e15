//! Cluster-level observability: per-shard reports plus their merged
//! aggregate, serializable for dashboards and the SLO harness.

use pcnn_runtime::RuntimeReport;
use serde::{Deserialize, Serialize};

/// One shard's slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// The shard's index in the cluster.
    pub shard: u32,
    /// The generation of the model currently installed.
    pub generation: u64,
    /// Completed blue/green installs on this shard.
    pub swaps: u64,
    /// Whether the shard is currently out of the routing rotation.
    pub drained: bool,
    /// The shard's accumulated serving report.
    pub report: RuntimeReport,
}

/// A point-in-time summary of the whole serving tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Per-shard reports, by shard index.
    pub shards: Vec<ShardReport>,
    /// Every shard report merged through
    /// [`RuntimeReport::merge`]: counters summed, latency histograms
    /// combined bucket by bucket, `workers` totalling the threads
    /// serving across the tier.
    pub aggregate: RuntimeReport,
    /// Frames submitted to the tier: every frame a serve call offered,
    /// shed ones included, plus every `detect` and `detect_stream`
    /// call.
    pub frames_routed: u64,
    /// Frames shed at the cluster edge by a full shard queue.
    pub frames_shed: u64,
    /// Completed cluster-wide blue/green swaps.
    pub swaps: u64,
    /// Streams migrated off a dead shard to a survivor (tracker state
    /// carried over, cache warmth rebuilt).
    #[serde(default)]
    pub failovers: u64,
    /// Dead or stalled shards respawned warm from the latest
    /// checkpoint (or the seed snapshot).
    #[serde(default)]
    pub respawns: u64,
    /// Failed frame attempts retried at the serving edge.
    #[serde(default)]
    pub retries: u64,
    /// Frames whose deadline expired before any attempt could succeed.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Shard serve loops condemned by the watchdog for heartbeat
    /// silence with work in flight.
    #[serde(default)]
    pub stalls: u64,
    /// Live per-stage tracing statistics, when a `pcnn_trace` tracer is
    /// installed: the spans started since the cluster was built, from
    /// every shard (they land in the same process-global tracer, so this
    /// is the tier-wide view; two clusters serving at the same time in
    /// one process see each other's spans). The trace spans are the only
    /// record of per-stage wall time, and this is the only report field
    /// that carries them.
    #[serde(default)]
    pub trace: Option<TraceSummary>,
}

/// Per-stage tracing statistics in a [`ClusterReport`]: a serializable
/// mirror of [`pcnn_trace::ProfileReport`] (the trace crate itself stays
/// dependency-free, so the serde derives live here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// The kernel path and SIMD tier the traced spans ran on, e.g.
    /// `"trinary+avx2"` or `"f32+scalar"` (see
    /// [`RuntimeReport::kernel_backend`]).
    #[serde(default)]
    pub kernel_backend: String,
    /// One entry per traced stage, sorted by descending total duration.
    pub stages: Vec<StageSummary>,
}

/// One traced stage's aggregate timings in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// The stage's span name, e.g. `"runtime.batch"`.
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Shortest span in nanoseconds.
    pub min_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
    /// Exact median duration in nanoseconds.
    pub p50_ns: u64,
    /// Exact 99th-percentile duration in nanoseconds.
    pub p99_ns: u64,
    /// Counter totals as `(snake_case name, value)` pairs.
    pub counters: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Mirrors `report`, tagged with the kernel path its spans ran on.
    pub(crate) fn new(report: pcnn_trace::ProfileReport, kernel_backend: String) -> Self {
        TraceSummary {
            kernel_backend,
            stages: report
                .stages
                .into_iter()
                .map(|s| StageSummary {
                    name: s.name.to_owned(),
                    count: s.count,
                    total_ns: s.total_ns,
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                    p50_ns: s.p50_ns,
                    p99_ns: s.p99_ns,
                    counters: s
                        .counters
                        .into_iter()
                        .map(|(c, v)| (c.name().to_owned(), v))
                        .collect(),
                })
                .collect(),
        }
    }
}

impl ClusterReport {
    /// Frames served across every shard.
    pub fn frames_served(&self) -> u64 {
        self.aggregate.frames_served
    }

    /// Batches served below their shard's primary level (the live model
    /// failed its canary probe and the fallback floor served).
    pub fn degraded_batches(&self) -> u64 {
        self.aggregate.degraded_batches
    }

    /// Stream-cache cells reused across every shard (video serving).
    pub fn cells_reused(&self) -> u64 {
        self.aggregate.cells_reused
    }

    /// Stream-cache cells recomputed across every shard (video serving).
    pub fn cells_recomputed(&self) -> u64 {
        self.aggregate.cells_recomputed
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster report ({} shards, {} workers total)",
            self.shards.len(),
            self.aggregate.workers
        )?;
        writeln!(
            f,
            "  frames routed {:>8}   shed {:>6}   served {:>8}   swaps {:>3}",
            self.frames_routed, self.frames_shed, self.aggregate.frames_served, self.swaps
        )?;
        for shard in &self.shards {
            writeln!(
                f,
                "  shard {:>2}: gen {:>3}  swaps {:>3}  {:>8} frames  {:>6} batches{}",
                shard.shard,
                shard.generation,
                shard.swaps,
                shard.report.frames_served,
                shard.report.batches,
                if shard.drained { "  [drained]" } else { "" }
            )?;
        }
        let latency = &self.aggregate.batch_latency;
        if let (Some(p50), Some(p99)) = (latency.p50(), latency.p99()) {
            writeln!(
                f,
                "  batch latency: p50 {:.2}ms  p99 {:.2}ms",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3
            )?;
        }
        if self.aggregate.cells_reused + self.aggregate.cells_recomputed > 0 {
            let total = self.aggregate.cells_reused + self.aggregate.cells_recomputed;
            writeln!(
                f,
                "  stream cache: {} cells reused, {} recomputed ({:.1}% hit)",
                self.aggregate.cells_reused,
                self.aggregate.cells_recomputed,
                100.0 * self.aggregate.cells_reused as f64 / total as f64
            )?;
        }
        if self.failovers + self.respawns + self.retries + self.stalls > 0 {
            writeln!(
                f,
                "  self-healing: {} failovers  {} respawns  {} retries  {} stalls",
                self.failovers, self.respawns, self.retries, self.stalls
            )?;
        }
        if self.deadline_exceeded > 0 {
            writeln!(f, "  deadlines: {} exceeded", self.deadline_exceeded)?;
        }
        if self.aggregate.degraded_batches > 0 {
            writeln!(
                f,
                "  degradation: {} batches / {} frames on the fallback floor",
                self.aggregate.degraded_batches, self.aggregate.degraded_frames
            )?;
        }
        if let Some(trace) = &self.trace {
            writeln!(f, "  trace: {} stages", trace.stages.len())?;
            for stage in &trace.stages {
                writeln!(
                    f,
                    "    {:<20} {:>8} spans  total {:>10.3}ms  p50 {:>8.3}ms  p99 {:>8.3}ms",
                    stage.name,
                    stage.count,
                    stage.total_ns as f64 / 1e6,
                    stage.p50_ns as f64 / 1e6,
                    stage.p99_ns as f64 / 1e6,
                )?;
            }
        }
        Ok(())
    }
}
