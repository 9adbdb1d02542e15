//! Span records and the typed counter taxonomy.

/// Maximum distinct counters one span can carry. Fixed so a
/// [`SpanRecord`] is `Copy` and recording never allocates; additions
/// beyond the cap are silently dropped (no instrumented stage comes
/// close).
pub const MAX_COUNTERS: usize = 6;

/// The typed counters spans attribute work to.
///
/// One shared taxonomy keeps exporters and conformance fixtures stable:
/// a stage never invents an ad-hoc counter name, it picks from this
/// list, and the serving reports keep their counters in a table with
/// one slot per counter under the same names. Values are totals over
/// the span (not rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Simulator ticks executed.
    Ticks,
    /// Cores stepped this tick (the active-core worklist length).
    ActiveCores,
    /// Spikes delivered to core axons.
    SpikesDelivered,
    /// Spikes routed through the fabric.
    SpikesRouted,
    /// Synaptic integration events.
    SynapticEvents,
    /// Floating-point multiply-adds, counted as 2 flops each.
    Flops,
    /// Multiply-free add/subtract selections executed by the trinary
    /// kernels (one op per nonzero weight per output column).
    Ops,
    /// Elements moved by a packing kernel (im2col/col2im).
    Elements,
    /// Frames served: detected end to end, pyramid through NMS.
    Frames,
    /// Sliding windows scored.
    Windows,
    /// Bytes read from or written to disk.
    Bytes,
    /// Training epochs completed.
    Epochs,
    /// Batches processed: training mini-batches, or serving batches.
    Batches,
    /// Training samples seen.
    Samples,
    /// Pyramid cells served from a stream's temporal cache.
    CellsReused,
    /// Pyramid cells recomputed because their pixels changed.
    CellsRecomputed,
    /// Active tracks observed (one observation per tracked frame, so
    /// totals are conserved across worker counts).
    TracksActive,
    /// Serving batches run below the primary fallback-chain level.
    DegradedBatches,
    /// Frames offered in serving batches run below the primary
    /// fallback-chain level.
    DegradedFrames,
    /// Health probes that failed (one per skipped level per batch).
    HealthFailures,
    /// Worker panics caught and isolated to their frame.
    PanicsCaught,
    /// Frames submitted to the cluster tier, shed ones included.
    FramesRouted,
    /// Frames shed at the cluster edge by a full shard queue.
    FramesShed,
    /// Completed cluster-wide blue/green model swaps.
    Swaps,
    /// Streams migrated off a dead shard to a survivor.
    Failovers,
    /// Dead or stalled shards respawned warm from a snapshot.
    Respawns,
    /// Failed frame attempts retried at the serving edge.
    Retries,
    /// Frames whose deadline expired before any attempt succeeded.
    DeadlinesExceeded,
    /// Shard serve loops condemned by the watchdog for heartbeat
    /// silence with work in flight.
    Stalls,
}

impl Counter {
    /// Every counter, in declaration order, so `Counter::ALL[c as usize]`
    /// is `c`: the index of a per-counter table.
    pub const ALL: [Counter; 29] = [
        Counter::Ticks,
        Counter::ActiveCores,
        Counter::SpikesDelivered,
        Counter::SpikesRouted,
        Counter::SynapticEvents,
        Counter::Flops,
        Counter::Ops,
        Counter::Elements,
        Counter::Frames,
        Counter::Windows,
        Counter::Bytes,
        Counter::Epochs,
        Counter::Batches,
        Counter::Samples,
        Counter::CellsReused,
        Counter::CellsRecomputed,
        Counter::TracksActive,
        Counter::DegradedBatches,
        Counter::DegradedFrames,
        Counter::HealthFailures,
        Counter::PanicsCaught,
        Counter::FramesRouted,
        Counter::FramesShed,
        Counter::Swaps,
        Counter::Failovers,
        Counter::Respawns,
        Counter::Retries,
        Counter::DeadlinesExceeded,
        Counter::Stalls,
    ];

    /// The counter whose [`name`](Counter::name) is `name`, if any.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The counter's stable snake_case name, used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Ticks => "ticks",
            Counter::ActiveCores => "active_cores",
            Counter::SpikesDelivered => "spikes_delivered",
            Counter::SpikesRouted => "spikes_routed",
            Counter::SynapticEvents => "synaptic_events",
            Counter::Flops => "flops",
            Counter::Ops => "ops",
            Counter::Elements => "elements",
            Counter::Frames => "frames",
            Counter::Windows => "windows",
            Counter::Bytes => "bytes",
            Counter::Epochs => "epochs",
            Counter::Batches => "batches",
            Counter::Samples => "samples",
            Counter::CellsReused => "cells_reused",
            Counter::CellsRecomputed => "cells_recomputed",
            Counter::TracksActive => "tracks_active",
            Counter::DegradedBatches => "degraded_batches",
            Counter::DegradedFrames => "degraded_frames",
            Counter::HealthFailures => "health_failures",
            Counter::PanicsCaught => "panics_caught",
            Counter::FramesRouted => "frames_routed",
            Counter::FramesShed => "frames_shed",
            Counter::Swaps => "swaps",
            Counter::Failovers => "failovers",
            Counter::Respawns => "respawns",
            Counter::Retries => "retries",
            Counter::DeadlinesExceeded => "deadlines_exceeded",
            Counter::Stalls => "stalls",
        }
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One completed span, as recorded in a [`Trace`](crate::Trace).
///
/// `id` numbers spans per lane in *open* order (1-based); `parent` is
/// the id of the enclosing span on the same lane, or 0 for a root.
/// Spans never span threads: a span opened on one thread closes on the
/// same thread, and cross-thread work shows up as root spans on the
/// worker's lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static stage name, e.g. `"truenorth.tick"`.
    pub name: &'static str,
    /// Per-lane span id in open order (1-based).
    pub id: u32,
    /// Id of the enclosing span on the same lane; 0 for roots.
    pub parent: u32,
    /// Start timestamp in clock nanoseconds.
    pub start_ns: u64,
    /// End timestamp in clock nanoseconds.
    pub end_ns: u64,
    /// Counter slots; only the first `n_counters` are meaningful.
    pub counters: [(Counter, u64); MAX_COUNTERS],
    /// Number of populated counter slots.
    pub n_counters: u8,
}

impl SpanRecord {
    /// The populated counter slots, in the order they were first added.
    pub fn counters(&self) -> &[(Counter, u64)] {
        &self.counters[..self.n_counters as usize]
    }

    /// The value of one counter, if the span carries it.
    pub fn counter(&self, which: Counter) -> Option<u64> {
        self.counters().iter().find(|(c, _)| *c == which).map(|&(_, v)| v)
    }

    /// Span duration in clock nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique() {
        let all = Counter::ALL;
        for (i, a) in all.iter().enumerate() {
            assert_eq!(*a as usize, i, "{a} is out of declaration order");
            assert_eq!(Counter::from_name(a.name()), Some(*a));
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(Counter::from_name("frames_served"), None);
    }
}
