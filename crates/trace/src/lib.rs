//! Span-based tracing and profiling for the PCNN workspace.
//!
//! Every hot path in the workspace — `pcnn_truenorth::System::tick`,
//! the `pcnn-kernels` GEMM driver, the `pcnn-eedn` layer passes, the
//! co-training epoch loop, the serving runtime's batch stages, and the
//! checkpoint store — opens a [`fn@span`] carrying a static stage name and
//! typed [`Counter`] increments (ticks, spikes delivered, GEMM flops,
//! frames, bytes checkpointed). Spans nest into a per-thread tree and
//! are exported two ways:
//!
//! * a Chrome `trace_event` JSON document
//!   ([`Trace::to_chrome_json`]) loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev);
//! * a compact aggregate [`ProfileReport`] (per-stage
//!   count/total/min/max/p50/p99).
//!
//! # Determinism contract
//!
//! Tracing is deterministic modulo wall-clock: under
//! [`Clock::mock`] the full span tree — names, nesting, ordering and
//! counter values — is bit-identical across runs at a fixed seed. The
//! golden-trace conformance suite (`tests/golden.rs`) pins that
//! invariant against a checked-in fixture.
//!
//! # Overhead contract
//!
//! With no tracer installed, [`fn@span`] is one relaxed atomic load and a
//! branch; the returned [`SpanGuard`] is inert and **nothing is
//! allocated** (pinned by `tests/disabled_alloc.rs` with a counting
//! allocator). Recording is lock-free: each thread appends to its own
//! buffer and flushes to the shared collector in amortized batches.
//!
//! # Example
//!
//! ```
//! use pcnn_trace::{Clock, Counter, Tracer};
//!
//! let tracer = Tracer::install(Clock::mock());
//! {
//!     let outer = pcnn_trace::span("example.outer");
//!     let inner = pcnn_trace::span("example.inner");
//!     inner.add(Counter::Frames, 2);
//!     drop(inner);
//!     outer.add(Counter::Bytes, 100);
//! }
//! let trace = tracer.drain();
//! assert_eq!(trace.span_count(), 2);
//! assert_eq!(trace.counter_total("example.inner", Counter::Frames), 2);
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! Tracer::uninstall();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod profile;
pub mod span;
pub mod trace;
pub mod tracer;

pub use clock::Clock;
pub use profile::{quantile_from_buckets, ProfileReport, StageProfile};
pub use span::{Counter, SpanRecord, MAX_COUNTERS};
pub use trace::{LaneTrace, Trace};
pub use tracer::{is_enabled, profile_snapshot, span, SpanGuard, Tracer};

/// Stage names used by the workspace's instrumentation, so tests and
/// exporters reference one canonical spelling.
pub mod stages {
    /// One `pcnn_truenorth::System::tick`.
    pub const TRUENORTH_TICK: &str = "truenorth.tick";
    /// One GEMM through the `pcnn-kernels` driver (any variant).
    pub const KERNELS_GEMM: &str = "kernels.gemm";
    /// One bitplane add/sub GEMM through the trinary inference path.
    pub const KERNELS_GEMM_TRINARY: &str = "kernels.gemm_trinary";
    /// One `im2col` patch gather.
    pub const KERNELS_IM2COL: &str = "kernels.im2col";
    /// One `col2im` scatter-accumulate.
    pub const KERNELS_COL2IM: &str = "kernels.col2im";
    /// A whole `Sequential` inference pass.
    pub const EEDN_INFER: &str = "eedn.infer";
    /// A whole `Sequential` training forward pass.
    pub const EEDN_FORWARD: &str = "eedn.forward";
    /// A whole `Sequential` backward pass.
    pub const EEDN_BACKWARD: &str = "eedn.backward";
    /// Descriptor/window collection before co-training.
    pub const COTRAIN_COLLECT: &str = "cotrain.collect";
    /// The full co-training entry point.
    pub const COTRAIN_TRAIN: &str = "cotrain.train";
    /// One training epoch.
    pub const COTRAIN_EPOCH: &str = "cotrain.epoch";
    /// Assembling one request batch in the serving runtime.
    pub const RUNTIME_ASSEMBLE: &str = "runtime.assemble";
    /// One detection batch end to end.
    pub const RUNTIME_BATCH: &str = "runtime.batch";
    /// The pyramid stage of a batch.
    pub const RUNTIME_PYRAMID: &str = "runtime.pyramid";
    /// The cell-extraction stage of a batch (on a stream frame it also
    /// hashes cells and carries the cells_reused/cells_recomputed split).
    pub const RUNTIME_CELLS: &str = "runtime.cells";
    /// The window-classification stage of a batch.
    pub const RUNTIME_CLASSIFY: &str = "runtime.classify";
    /// The non-maximum-suppression stage of a batch.
    pub const RUNTIME_NMS: &str = "runtime.nms";
    /// Probing a stream frame's whole-frame hash against its temporal
    /// cell cache (an unchanged frame skips every later stage).
    pub const RUNTIME_CACHE_PROBE: &str = "runtime.cache_probe";
    /// One tracker update on a stream's detections.
    pub const RUNTIME_TRACK: &str = "runtime.track";
    /// One checkpoint save.
    pub const STORE_SAVE: &str = "store.save";
    /// One checkpoint load.
    pub const STORE_LOAD: &str = "store.load";
    /// One routed serve pass through the cluster tier.
    pub const CLUSTER_SERVE: &str = "cluster.serve";
    /// One batch executed by a cluster shard.
    pub const CLUSTER_SHARD_BATCH: &str = "cluster.shard_batch";
    /// One blue/green model install draining a cluster shard.
    pub const CLUSTER_SWAP: &str = "cluster.swap";
    /// Re-routing a dead shard's streams and queued frames to the
    /// surviving shards (tracker state migrates, cache warmth does not).
    pub const CLUSTER_FAILOVER: &str = "cluster.failover";
    /// Respawning a dead or stalled shard warm from the latest
    /// checkpoint snapshot.
    pub const CLUSTER_RESPAWN: &str = "cluster.respawn";
    /// One deadline-aware retry of a failed stream frame at the
    /// cluster edge.
    pub const CLUSTER_RETRY: &str = "cluster.retry";
}

/// Installs a wall-clock tracer when the `PCNN_TRACE` environment
/// variable is set to a non-empty value other than `0`, and returns
/// whether tracing is enabled afterwards.
///
/// Idempotent and race-free: concurrent callers install at most one
/// tracer, and an already-installed tracer is left untouched. Test
/// suites and examples call this so CI can flip tracing on (the chaos
/// job runs the supervision suite once with `PCNN_TRACE=1`) without a
/// code change.
pub fn init_from_env() -> bool {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let wanted =
            std::env::var("PCNN_TRACE").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        if wanted && !is_enabled() {
            Tracer::install(Clock::wall()).leak();
        }
    });
    is_enabled()
}
