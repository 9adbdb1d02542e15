//! # pcnn-runtime — parallel, batched detection serving
//!
//! A serving subsystem over the [`pcnn_core`] detection pipeline:
//!
//! * [`scheduler`] — deterministic work scheduling: a detection batch
//!   decomposes into per-frame, per-pyramid-level and per-window-chunk
//!   items executed on a fixed pool of scoped threads, with results
//!   merged in scan order so parallel output is **bit-identical** to
//!   the serial path at any worker count;
//! * [`metrics`] — serving counters, one per
//!   [`pcnn_trace::Counter`] (`frames`, `windows`, `panics_caught`, …)
//!   under the names the trace spans use, and the batch-latency
//!   [`Histogram`], the log-linear histogram every serving latency uses
//!   (at most 1/64 wide per bucket, merging bucket by bucket),
//!   snapshotted into a serializable [`RuntimeReport`] whose
//!   [`Counters`] table merges in one loop. Per-stage wall time lives
//!   only in the `runtime.*` trace spans;
//! * [`server`] — [`DetectionServer`], the staged pipeline plus the
//!   counters it feeds: one pipeline over (frame, [`CellCache`]) pairs —
//!   cache probe, pyramid, cells, classify, NMS — that a batch runs
//!   over fresh caches it then drops (nothing is hashed, every cell and
//!   window is computed) and a stream frame over the stream's own
//!   cache, with the window code, the shared-block SVM scoring of
//!   `Detector::score_windows` included, taken from
//!   [`Detector`](pcnn_core::pipeline::Detector);
//! * [`cache`] / [`stream`] — temporal video serving: a per-stream
//!   [`CellCache`] diffs each frame's pyramid cells against the
//!   previous frame so only changed cells re-run the extractor (and
//!   only windows touching them re-run the classifier), and a
//!   [`StreamHandle`] pairs that cache with a
//!   [`Tracker`](pcnn_track::Tracker) for tracking-by-detection via
//!   [`DetectionServer::detect_stream`] — output detections stay
//!   **bit-identical** to a cold run;
//! * [`degrade`] — graceful degradation: a [`FallbackChain`] of
//!   service levels with per-batch canary health probes, so a detector
//!   whose simulated hardware carries an injected
//!   [`FaultPlan`](pcnn_truenorth::FaultPlan) falls back to a software
//!   paradigm instead of serving garbage (or panicking), with
//!   degradation counted in the [`RuntimeReport`];
//! * [`queue`] / [`supervise`] — the primitives the `pcnn-cluster`
//!   serve loop supervises shards with: a bounded [`RequestQueue`]
//!   batcher ([`QueueConfig`] capacity, batch size and
//!   [`Backpressure::Reject`] or [`Backpressure::Block`]), the
//!   [`RetryPolicy`] (bounded exponential-backoff retry under a
//!   deadline), and a [`Watchdog`] that flags a stalled [`Heartbeat`];
//! * [`chaos`] — fault injection ([`PanicInjector`]) for pinning the
//!   supervision contract: a panicking classify chunk fails only its
//!   own frame, is counted as `panics_caught`, and leaves no lock
//!   poisoned.
//!
//! ## Supervision
//!
//! Worker panics are caught per work item
//! ([`scheduler::try_parallel_map`]): a poisoned input fails only the
//! frames it belongs to — [`DetectionServer::detect_batch`] returns a
//! per-frame `Result`. Queueing, shedding, retries, deadlines and stall
//! detection live once, in the `pcnn-cluster` serve loop, which serves
//! every frame through this server. Queue locks recover from
//! poisoning, so one crashed worker never wedges producers or
//! consumers.
//!
//! ## Determinism
//!
//! The scheduler never lets thread timing reach the output: work items
//! are pure functions of their inputs, results are reassembled by item
//! index, and raw detections are rebuilt in the serial scan order. The
//! caveat is extraction that draws from one sequential RNG: stochastic
//! Parrot coding (`StochasticRounds` noise) and `HardwareNApprox` under
//! a spike drop, duplication or jitter fault plan, whose corelet sits
//! behind a `Mutex`. Their draws interleave across threads, and a
//! cache hit skips draws, so such a run depends on the worker count and
//! a cached stream differs from a cold run. Noise-free configurations
//! are exactly reproducible, cached or cold.
//!
//! ```
//! use pcnn_runtime::{DetectionServer, RuntimeConfig};
//! # use pcnn_core::pipeline::{Detector, TrainedDetector};
//! # use pcnn_core::{Extractor, WindowClassifier};
//! # use pcnn_hog::BlockNorm;
//! # use pcnn_svm::{train, FeatureScaler, TrainConfig};
//! # use pcnn_vision::GrayImage;
//! # let extractor = Extractor::napprox_fp(BlockNorm::L2);
//! # let dim = extractor.crop_descriptor(&GrayImage::new(64, 128)).len();
//! # let xs = vec![vec![0.0; dim], vec![1.0; dim]];
//! # let scaler = FeatureScaler::fit(&xs);
//! # let model = train(&scaler.apply_all(&xs), &[true, false], TrainConfig::default());
//! # let detector = TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } };
//! let config = RuntimeConfig::builder().workers(2).build().unwrap();
//! let server = DetectionServer::new(Detector::default(), &detector, config).unwrap();
//! let frame = GrayImage::new(96, 160);
//! let detections = server.detect_frame(&frame);
//! let report = server.report();
//! assert_eq!(report.counters[pcnn_trace::Counter::Frames], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod degrade;
pub mod metrics;
pub mod queue;
pub mod scheduler;
pub mod server;
pub mod stream;
pub mod supervise;

pub use cache::{CacheStats, CellCache, LevelCache};
pub use chaos::PanicInjector;
pub use degrade::{canary_reference, FallbackChain, ServiceLevel, DEFAULT_PROBE_TOLERANCE};
pub use metrics::{Counters, Histogram, LevelReport, Metrics, RuntimeReport};
pub use queue::{Backpressure, PushError, QueueConfig, RequestQueue};
pub use scheduler::{parallel_map, plan_chunks, try_parallel_map, Chunk, WorkerPanic};
pub use server::{DetectionServer, RuntimeConfig, RuntimeConfigBuilder};
pub use stream::{StreamFrameResult, StreamHandle, StreamSnapshot, StreamState};
pub use supervise::{Heartbeat, RetryPolicy, Watchdog, WatchdogStatus};
