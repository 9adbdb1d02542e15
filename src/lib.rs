//! # pcnn — Partitioned Convolutional Neural Networks
//!
//! Facade crate for the reproduction of *Co-training of Feature Extraction
//! and Classification using Partitioned Convolutional Neural Networks*
//! (Tsai et al., DAC 2017). It re-exports every workspace crate under a
//! stable module hierarchy so downstream users can depend on one crate:
//!
//! * [`truenorth`] — tick-accurate neurosynaptic-system simulator;
//! * [`faults`] — seeded, replayable fault plans (dead cores, stuck
//!   axons/neurons, spike loss, delay jitter, threshold drift) injected
//!   into the simulator;
//! * [`vision`] — image substrate, synthetic pedestrian dataset (still
//!   scenes and seeded temporal video streams), detection evaluation
//!   (miss rate vs. false positives per image);
//! * [`track`] — tracking-by-detection over video streams: temporal NMS
//!   and a greedy-IoU multi-object tracker;
//! * [`hog`] — HoG feature-extraction variants (Dalal–Triggs, FPGA
//!   fixed-point, NApprox neuromorphic approximation);
//! * [`eedn`] — Eedn-style constrained CNN training (trinary weights,
//!   spiking activations, crossbar-sized groups);
//! * [`svm`] — linear SVM with hard-negative mining;
//! * [`corelets`] — the NApprox HoG corelets and Eedn deployment onto the
//!   simulator;
//! * [`parrot`] — the Parrot-HoG trained feature extractor;
//! * [`core`] — the partitioned co-training pipeline, paradigm comparison
//!   and power/throughput models;
//! * [`runtime`] — the parallel, batched detection-serving subsystem
//!   (deterministic work scheduling, serving metrics, panic isolation,
//!   plus temporal video streaming with change-driven cell caching);
//! * [`cluster`] — the sharded, replicated serving tier over the
//!   runtime: rendezvous stream routing, per-shard warm start from
//!   checkpoints, blue/green model swap with drain, one supervised serve
//!   loop (queueing with backpressure, load shedding, retries,
//!   deadlines, stall detection) and a seeded open-loop SLO load
//!   harness;
//! * [`store`] — crash-safe persistence: a versioned, checksummed
//!   envelope format with atomic-rename writes for trained detectors,
//!   training checkpoints and simulator snapshots;
//! * [`trace`] — zero-dependency span tracing and profiling across the
//!   simulator, kernels, training and serving layers, with Chrome
//!   `trace_event` export and aggregate profile reports.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! system inventory and experiment index.

#![forbid(unsafe_code)]

pub use pcnn_cluster as cluster;
pub use pcnn_core as core;
pub use pcnn_corelets as corelets;
pub use pcnn_eedn as eedn;
pub use pcnn_faults as faults;
pub use pcnn_hog as hog;
pub use pcnn_parrot as parrot;
pub use pcnn_runtime as runtime;
pub use pcnn_store as store;
pub use pcnn_svm as svm;
pub use pcnn_trace as trace;
pub use pcnn_track as track;
pub use pcnn_truenorth as truenorth;
pub use pcnn_vision as vision;
