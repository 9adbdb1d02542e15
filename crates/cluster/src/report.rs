//! Cluster-level observability: per-shard reports plus their merged
//! aggregate, serializable for dashboards and the SLO harness.

use pcnn_runtime::RuntimeReport;
use pcnn_trace::Counter;
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
    /// The cluster's own counts merged with every shard report
    /// through [`RuntimeReport::merge`]: counters summed, latency
    /// histograms combined bucket by bucket, `workers` totalling the
    /// threads serving across the tier. Its counter table adds the
    /// edge's counts to the shards': `frames_routed` (every frame a
    /// serve call offered, shed ones included, plus every `detect` and
    /// `detect_stream` call), `frames_shed`, cluster-wide `swaps`,
    /// `failovers` (streams migrated off a dead shard), `respawns`,
    /// `retries`, `deadlines_exceeded` and watchdog `stalls`.
    pub aggregate: RuntimeReport,
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

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cluster report ({} shards)", self.shards.len())?;
        for shard in &self.shards {
            writeln!(
                f,
                "  shard {:>2}: gen {:>3}  swaps {:>3}  {:>8} frames  {:>6} batches{}",
                shard.shard,
                shard.generation,
                shard.swaps,
                shard.report.counters[Counter::Frames],
                shard.report.counters[Counter::Batches],
                if shard.drained { "  [drained]" } else { "" }
            )?;
        }
        writeln!(f, "{}", self.aggregate)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_runtime::Metrics;

    /// A one-shard report whose aggregate adds two failovers at the edge.
    fn sample() -> (ClusterReport, String) {
        let served = Metrics::new();
        served.add(Counter::Frames, 3);
        let edge = Metrics::new();
        edge.add(Counter::Failovers, 2);
        let report = served.report(1);
        let aggregate = edge.report(0).merge(&report);
        let shards =
            vec![ShardReport { shard: 0, generation: 0, swaps: 0, drained: false, report }];
        let report = ClusterReport { shards, aggregate, trace: None };
        let json = serde_json::to_string(&report).unwrap();
        (report, json)
    }

    #[test]
    fn cluster_reports_with_counters_as_fields_are_refused() {
        let (report, json) = sample();
        let back: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.aggregate.counters[Counter::Failovers], 2);
        // The shape written before the counter table: counters as fields
        // of the cluster report and of every runtime report.
        let aggregate = "\"counters\":[[\"frames\",3],[\"failovers\",2]]";
        let shard = "\"counters\":[[\"frames\",3]]";
        assert!(json.contains(aggregate) && json.contains(shard), "{json}");
        let old = json
            .replacen(aggregate, "\"frames_served\":3,\"system\":null", 1)
            .replacen(shard, "\"frames_served\":3,\"system\":null", 1)
            .replacen('{', "{\"frames_routed\":3,\"failovers\":2,", 1);
        assert!(!old.contains("counters"), "{old}");
        let err = serde_json::from_str::<ClusterReport>(&old).unwrap_err().to_string();
        assert!(err.contains("`counters`"), "{err}");
    }

    #[test]
    fn cluster_reports_refuse_unknown_and_repeated_counter_names() {
        let (_, json) = sample();
        let failovers = "[\"failovers\",2]";
        let unknown = json.replacen(failovers, "[\"failover\",2]", 1);
        let err = serde_json::from_str::<ClusterReport>(&unknown).unwrap_err().to_string();
        assert!(err.contains("unknown counter `failover`"), "{err}");
        let repeated = json.replacen(failovers, "[\"failovers\",2],[\"failovers\",1]", 1);
        let err = serde_json::from_str::<ClusterReport>(&repeated).unwrap_err().to_string();
        assert!(err.contains("counter `failovers` repeated"), "{err}");
    }
}
