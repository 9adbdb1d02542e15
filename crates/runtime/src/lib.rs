//! # pcnn-runtime — parallel, batched detection serving
//!
//! A serving subsystem over the [`pcnn_core`] detection pipeline:
//!
//! * [`scheduler`] — deterministic work scheduling: a detection batch
//!   decomposes into per-frame, per-pyramid-level and per-window-chunk
//!   items executed on a fixed pool of scoped threads, with results
//!   merged in scan order so parallel output is **bit-identical** to
//!   the serial path at any worker count;
//! * [`queue`] — a bounded request queue/batcher with configurable
//!   capacity, batch size and backpressure ([`Backpressure::Reject`]
//!   or [`Backpressure::Block`]);
//! * [`metrics`] — lock-free serving counters (frames served, windows
//!   scored, queue depth, per-stage wall time, latency histogram)
//!   snapshotted into a serializable [`RuntimeReport`], with the
//!   neurosynaptic simulator's [`SystemStats`](pcnn_truenorth::SystemStats)
//!   threaded through;
//! * [`server`] — [`DetectionServer`], the front-end tying the three
//!   together: one staged pipeline over (frame, [`CellCache`]) pairs —
//!   cache probe, pyramid, cells, classify, NMS — that a batch runs
//!   over fresh caches it then drops (nothing is hashed, every cell and
//!   window is computed) and a stream frame over the stream's own
//!   cache, with the per-window code taken from
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
//! * [`supervise`] — request supervision: [`RetryPolicy`] deadlines
//!   with bounded exponential-backoff retry for
//!   [`DetectionServer::submit`], and a [`Watchdog`] that flags stalled
//!   batches off the metrics heartbeat;
//! * [`chaos`] — fault injection ([`PanicInjector`]) for pinning the
//!   supervision contract: a panicking classify chunk fails only its
//!   own frame's request, is counted as `panics_caught`, and leaves no
//!   lock poisoned.
//!
//! ## Supervision
//!
//! Worker panics are caught per work item
//! ([`scheduler::try_parallel_map`]): a poisoned input fails only the
//! frames it belongs to — [`DetectionServer::detect_batch`] returns a
//! per-frame `Result` — while [`DetectionServer::submit`] layers
//! deadlines and bounded retry on top. Queue locks recover from poisoning, so one crashed worker never
//! wedges producers or consumers.
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
//! let report = server.report(None);
//! assert_eq!(report.frames_served, 1);
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
pub use metrics::{
    Histogram, HistogramReport, LevelReport, Metrics, RuntimeReport, Stage, StageSummary,
    StageTimes, TraceSummary, LATENCY_BOUNDS_US,
};
pub use queue::{Backpressure, PushError, QueueConfig, RequestQueue};
pub use scheduler::{parallel_map, plan_chunks, try_parallel_map, Chunk, WorkerPanic};
pub use server::{DetectionServer, RuntimeConfig, RuntimeConfigBuilder};
pub use stream::{StreamFrameResult, StreamHandle, StreamSnapshot, StreamState};
pub use supervise::{RetryPolicy, Watchdog, WatchdogStatus};
