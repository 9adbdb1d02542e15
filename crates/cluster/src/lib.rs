//! # pcnn-cluster — sharded, replicated detection serving
//!
//! The multi-replica tier over [`pcnn_runtime`]'s single
//! [`DetectionServer`](pcnn_runtime::DetectionServer): N detector
//! shards behind a deterministic stream router, built for rolling model
//! upgrades under sustained load.
//!
//! * [`router`] — [`ShardRouter`]: rendezvous (highest-random-weight)
//!   hashing on stream id, deterministic across processes and releases,
//!   serde-able, with drain/restore moving only the drained shard's
//!   streams;
//! * [`shard`] — [`Shard`]: one replica owning a swappable
//!   [`TrainedDetector`](pcnn_core::pipeline::TrainedDetector) (warm
//!   started from a [`pcnn_store`] snapshot), serving batches on its
//!   own worker pool with install-time canary health probes feeding a
//!   per-shard fallback floor;
//! * [`cluster`] — [`Cluster`]: the data plane and the control plane.
//!   The data plane is one supervised serve loop —
//!   a feeder routing frames to per-shard queues, one drainer per
//!   shard, load shedding at the edge, per-frame retries under a
//!   deadline, dead or stalled shards failed over and respawned warm —
//!   the only place the workspace queues, retries or watches for
//!   stalls, behind [`serve`] (batches of frames),
//!   [`serve_streams`] (temporal video streams with per-shard cell
//!   caches and trackers) and the SLO harnesses. The control plane's
//!   rolling blue/green [`swap_model`] drains one shard at a time with
//!   zero dropped frames and stream caches invalidated at install.
//!   `&Cluster` is `Copy` and `Sync`, so
//!   another thread can swap, drain or report while a serve runs;
//! * [`chaos`] — seeded, scripted shard kills, stalls, frame failures
//!   and checkpoint corruption for the supervised loop;
//! * [`report`] — [`ClusterReport`]: every shard's
//!   [`RuntimeReport`](pcnn_runtime::RuntimeReport), their merge and
//!   the live [`TraceSummary`] of the process-global tracer;
//! * [`loadgen`] — seeded open-loop Poisson load and the SLO harnesses,
//!   judging measured per-frame latency (completion minus due time)
//!   against p50/p99 budgets.
//!
//! ## Determinism
//!
//! Routing is a pure function of `(seed, stream id, shard count)`, and
//! each shard's parallel pipeline is bit-identical to the serial path,
//! so a fixed-seed cluster produces bit-identical per-stream results to
//! a single server run on the same frames — regardless of per-shard
//! worker counts. Pinned by `tests/cluster_serving.rs`.
//!
//! ## Swap protocol
//!
//! [`swap_model`] rebuilds the detector from a snapshot per shard, then
//! rolls: publish to shard 0, drain its in-flight batches, move on.
//! Queued frames flow throughout; every submitted frame is served
//! exactly once, by exactly one model generation
//! (`tests/swap.rs`).
//!
//! [`swap_model`]: Cluster::swap_model
//! [`serve`]: Cluster::serve
//! [`serve_streams`]: Cluster::serve_streams

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod loadgen;
pub mod report;
pub mod router;
pub mod shard;

pub use chaos::{corrupt_newest_checkpoint, ChaosEvent, ChaosPlan};
pub use cluster::{
    Cluster, ClusterConfig, ClusterConfigBuilder, StreamFrame, StreamOutcome, SupervisionConfig,
};
pub use loadgen::{arrivals, run_slo, run_stream_slo, Arrival, LoadProfile, SloBudget, SloReport};
pub use report::{ClusterReport, ShardReport, StageSummary, TraceSummary};
pub use router::ShardRouter;
pub use shard::{Shard, ShardModel};
