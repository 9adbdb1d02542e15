//! The cluster front-end: a router over N shards, one supervised
//! feeder/drainer serve loop with load shedding, and the rolling
//! blue/green swap.

use crate::chaos::{ActiveChaos, ChaosAction, ChaosPlan};
use crate::report::{ClusterReport, ShardReport, TraceSummary};
use crate::router::ShardRouter;
use crate::shard::{Shard, ShardModel};
use pcnn_core::pipeline::{DetectorConfig, TrainedDetector};
use pcnn_core::{DetectorSnapshot, Error, Result, StreamId};
use pcnn_runtime::StreamFrameResult;
use pcnn_runtime::{
    Backpressure, Heartbeat, Metrics, PushError, QueueConfig, RequestQueue, RetryPolicy,
    RuntimeConfig, Watchdog, WatchdogStatus,
};
use pcnn_store::CheckpointDir;
use pcnn_trace::Counter;
use pcnn_vision::{Detection, GrayImage};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// How often a blocked push, a wait for a scheduled frame or a quiesce
/// wait re-checks tier health, and the granularity at which a chaos
/// stall re-checks condemnation.
const SUPERVISE_SLICE: Duration = Duration::from_millis(5);

/// How long `heal` waits for a condemned drainer to acknowledge death
/// before harvesting its in-flight frames anyway. Cooperative exits
/// (panics, condemnation checks, chaos stalls) acknowledge within
/// milliseconds; only a drainer wedged inside a single serve call for
/// this long is abandoned in place.
const HEAL_GRACE: Duration = Duration::from_secs(5);

/// Self-healing parameters: how the tier detects, retries and recovers
/// from shard failures. They cover every serve call —
/// [`Cluster::serve`], [`Cluster::serve_streams`] and the SLO harnesses
/// alike — because all of them run the same supervised loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionConfig {
    /// Per-frame retry policy at the serving edge: failed stream-frame
    /// attempts are retried up to `max_attempts` with seeded-jitter
    /// exponential backoff, bounded by `deadline` when one is set. Batch
    /// frames (from [`Cluster::serve`]) get one attempt. The deadline
    /// also bounds how long any frame waits for a full shard queue. The
    /// default is [`RetryPolicy::no_retry`] — a failed frame fails,
    /// exactly as the tier behaved before supervision existed.
    pub retry: RetryPolicy,
    /// How long a shard's serve loop may hold work in flight without a
    /// heartbeat before the [`Watchdog`] condemns it as stalled and the
    /// supervisor fails its streams over. Stream frames beat once per
    /// frame; batch frames beat once per popped batch, so for them this
    /// bounds the service time of one batch.
    pub stall_after: Duration,
    /// Whether a dead or condemned shard is respawned warm (from the
    /// warm-start checkpoint directory when there is one, else from the
    /// seed snapshot). When `false` the shard stays drained and its
    /// streams remain on the survivors.
    pub respawn: bool,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            retry: RetryPolicy::no_retry(),
            stall_after: Duration::from_secs(5),
            respawn: true,
        }
    }
}

/// Cluster-tier parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Detector shards (replicas). Streams are spread across them by
    /// rendezvous hash on the stream id.
    pub shards: u32,
    /// Salt for the stream router. Same seed + same shard count ⇒ the
    /// same stream-to-shard assignment in every process.
    pub router_seed: u64,
    /// Per-shard serving-runtime parameters (worker pool, chunking).
    /// Every shard gets its own pool.
    pub runtime: RuntimeConfig,
    /// Per-shard request queue: capacity, frames drained per batch and
    /// full-queue behaviour. Every shard lane gets its own queue.
    pub queue: QueueConfig,
    /// Per-shard cap on cached temporal stream states (cell/window
    /// caches plus trackers). The least recently served stream is
    /// evicted when a shard exceeds it; eviction costs only warmth.
    pub stream_cache_capacity: usize,
    /// Self-healing: stall detection, edge retries and shard respawn.
    /// Defaults preserve pre-supervision behaviour (no retries, 5 s
    /// stall threshold, respawn on).
    #[serde(default)]
    pub supervision: SupervisionConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            router_seed: 0,
            runtime: RuntimeConfig::default(),
            queue: QueueConfig::default(),
            stream_cache_capacity: 64,
            supervision: SupervisionConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// A validating builder over the cluster, per-shard runtime and
    /// per-shard queue parameters, mirroring [`RuntimeConfig::builder`].
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder { config: ClusterConfig::default() }
    }

    /// Validates the shard count, the stream-cache capacity, the
    /// supervision parameters, the per-shard runtime parameters (the
    /// same validation a single server uses) and the per-shard queue.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::InvalidConfig {
                what: "cluster.shards".to_owned(),
                reason: "shard count must be positive".to_owned(),
            });
        }
        if self.stream_cache_capacity == 0 {
            return Err(Error::InvalidConfig {
                what: "cluster.stream_cache_capacity".to_owned(),
                reason: "a shard must be able to cache at least one stream".to_owned(),
            });
        }
        if self.supervision.retry.max_attempts == 0 {
            return Err(Error::InvalidConfig {
                what: "cluster.supervision.retry.max_attempts".to_owned(),
                reason: "a frame needs at least one attempt".to_owned(),
            });
        }
        if self.supervision.stall_after.is_zero() {
            return Err(Error::InvalidConfig {
                what: "cluster.supervision.stall_after".to_owned(),
                reason: "a zero stall threshold condemns every in-flight frame".to_owned(),
            });
        }
        self.runtime.validate()?;
        self.queue.validate()
    }
}

/// Builder for [`ClusterConfig`]; [`build`](ClusterConfigBuilder::build)
/// validates everything at once.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Detector shards (replicas).
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.config.shards = shards;
        self
    }

    /// Salt for the stream router.
    #[must_use]
    pub fn router_seed(mut self, seed: u64) -> Self {
        self.config.router_seed = seed;
        self
    }

    /// Worker threads per shard.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.runtime.workers = workers;
        self
    }

    /// Image rows per work chunk on each shard.
    #[must_use]
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.config.runtime.chunk_rows = rows;
        self
    }

    /// Request-queue depth per shard.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue.capacity = capacity;
        self
    }

    /// Frames drained per batch on each shard.
    #[must_use]
    pub fn batch_size(mut self, size: usize) -> Self {
        self.config.queue.batch_size = size;
        self
    }

    /// Full-queue behaviour on each shard.
    #[must_use]
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.config.queue.backpressure = policy;
        self
    }

    /// Per-shard cap on cached temporal stream states.
    #[must_use]
    pub fn stream_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.stream_cache_capacity = capacity;
        self
    }

    /// Per-frame retry policy at the serving edge.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.supervision.retry = policy;
        self
    }

    /// Heartbeat silence after which a shard's serve loop is condemned
    /// as stalled.
    #[must_use]
    pub fn stall_after(mut self, threshold: Duration) -> Self {
        self.config.supervision.stall_after = threshold;
        self
    }

    /// Whether dead shards are respawned warm from the latest
    /// checkpoint (or the seed snapshot).
    #[must_use]
    pub fn respawn(mut self, respawn: bool) -> Self {
        self.config.supervision.respawn = respawn;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the first offending field.
    pub fn build(self) -> Result<ClusterConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One frame of one stream, as submitted to the cluster.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// The stream (camera, client connection) the frame belongs to.
    /// All frames of a stream are served by the same shard.
    pub stream: StreamId,
    /// The frame itself.
    pub image: GrayImage,
}

/// What finally happened to one submitted frame, after retries,
/// failovers and re-dispatches. `R` is what a served frame returns: a
/// [`StreamFrameResult`] for a stream frame — the per-frame return of
/// [`Cluster::serve_streams_with`] — or the detections of a batch frame.
#[derive(Debug)]
pub enum StreamOutcome<R = StreamFrameResult> {
    /// The frame was served (possibly after retries, possibly by a
    /// failover shard after its primary died mid-run).
    Served {
        /// The frame's detections (for a stream frame, also its tracks
        /// and cache accounting).
        result: R,
        /// Serve attempts the frame took, first try included.
        attempts: u32,
        /// Whether the frame was re-dispatched after its original shard
        /// died or stalled with the frame still queued.
        redispatched: bool,
    },
    /// Shed at the edge by a full shard queue under
    /// [`Backpressure::Reject`].
    Shed,
    /// The frame's deadline expired before an attempt could succeed.
    DeadlineExceeded,
    /// Every attempt failed (and, when the whole tier is down, frames
    /// that could not be dispatched at all).
    Failed {
        /// The last attempt's error.
        error: Error,
        /// Serve attempts made before giving up.
        attempts: u32,
    },
}

impl<R> StreamOutcome<R> {
    /// The served frame result, when there is one.
    pub fn served(&self) -> Option<&R> {
        match self {
            StreamOutcome::Served { result, .. } => Some(result),
            _ => None,
        }
    }
}

/// One incarnation of a shard's serve loop: its queue, its heartbeat,
/// the batch it currently owns, and the flags the supervisor uses to
/// condemn and bury it. A respawned shard gets a fresh lane — stale
/// state from the dead incarnation can never leak into the new one.
#[derive(Debug)]
pub(crate) struct Lane {
    queue: RequestQueue<usize>,
    heartbeat: Heartbeat,
    /// Set by the supervisor when the watchdog declares the lane
    /// stalled; the drainer checks it before serving each frame or
    /// batch (and between chaos-stall sleep slices) and exits without
    /// serving.
    condemned: AtomicBool,
    /// Set when the drainer is gone — a caught panic, or a condemned
    /// exit. The supervisor heals a dead lane: orphans re-dispatch,
    /// streams fail over, the shard respawns.
    dead: AtomicBool,
    /// The popped batch the drainer owns right now, front = next to
    /// serve. On death these frames are orphans, recovered ahead of
    /// the queue's remainder so per-stream order survives the failover.
    current: Mutex<VecDeque<usize>>,
}

impl Lane {
    fn new(config: QueueConfig) -> Self {
        Lane {
            queue: RequestQueue::new(config),
            heartbeat: Heartbeat::new(),
            condemned: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            current: Mutex::new(VecDeque::new()),
        }
    }

    /// Locks the current batch, recovering from poisoning — indices in
    /// a deque are valid after any panic, and a poisoned lock here
    /// would lose the dead drainer's orphans.
    fn lock_current(&self) -> MutexGuard<'_, VecDeque<usize>> {
        self.current.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// What one serve call shares between its feeder and its drainers.
pub(crate) struct Call<'a, R> {
    cluster: &'a Cluster,
    frames: &'a [StreamFrame],
    /// Each frame's outcome, with its completion time since `start`.
    results: Vec<OnceLock<(StreamOutcome<R>, Duration)>>,
    redispatched: Vec<AtomicBool>,
    chaos: Option<ActiveChaos>,
    /// Salts the retry backoff jitter.
    seed: u64,
    start: Instant,
}

impl<R> Call<'_, R> {
    /// Records frame `i`'s outcome, stamped with its completion time.
    /// The first outcome recorded for a frame wins.
    fn resolve(&self, i: usize, outcome: StreamOutcome<R>) {
        let _ = self.results[i].set((outcome, self.start.elapsed()));
    }

    fn resolved(&self, i: usize) -> bool {
        self.results[i].get().is_some()
    }
}

/// How a drainer serves the frames its lane pops, chosen by what a
/// served frame returns. Runs on the drainer thread inside
/// `catch_unwind`; panics (real or chaos-injected) kill only the lane.
pub(crate) trait Drain: Sized + Send + Sync {
    /// Serves `lane` for shard `shard` until its queue closes or the
    /// supervisor condemns it.
    fn drain(shard: &Shard, lane: &Lane, call: &Call<'_, Self>);
}

/// Batch frames (from [`Cluster::serve`] and
/// [`run_slo`](crate::run_slo)) carry no tracker or cache: each popped
/// batch is one [`Shard::run_batch`] call under one heartbeat, and a
/// frame that fails resolves `Failed` after that one attempt.
impl Drain for Vec<Detection> {
    fn drain(shard: &Shard, lane: &Lane, call: &Call<'_, Self>) {
        while let Some(batch) = lane.queue.pop_batch() {
            *lane.lock_current() = batch.iter().copied().collect();
            if lane.condemned.load(Ordering::Acquire) {
                return;
            }
            lane.heartbeat.begin_work();
            let images: Vec<&GrayImage> = batch.iter().map(|&i| &call.frames[i].image).collect();
            for (&i, served) in batch.iter().zip(shard.run_batch(&images)) {
                let redispatched = call.redispatched[i].load(Ordering::Relaxed);
                call.resolve(
                    i,
                    match served {
                        Ok(result) => StreamOutcome::Served { result, attempts: 1, redispatched },
                        Err(error) => StreamOutcome::Failed { error, attempts: 1 },
                    },
                );
            }
            lane.lock_current().clear();
            lane.heartbeat.end_work();
        }
    }
}

/// Stream frames are served one at a time through
/// [`Shard::run_stream_frame`], each under its own heartbeat, with the
/// call's chaos plan and the supervision retry policy applied.
impl Drain for StreamFrameResult {
    fn drain(shard: &Shard, lane: &Lane, call: &Call<'_, Self>) {
        let policy = call.cluster.config.supervision.retry;
        while let Some(batch) = lane.queue.pop_batch() {
            *lane.lock_current() = batch.into();
            loop {
                if lane.condemned.load(Ordering::Acquire) {
                    return;
                }
                let Some(&i) = lane.lock_current().front() else { break };
                lane.heartbeat.begin_work();
                let mut forced_fail = false;
                match call.chaos.as_ref().and_then(|chaos| chaos.on_frame(shard.id())) {
                    Some(ChaosAction::Kill) => {
                        panic!("chaos: shard {} killed before frame {i}", shard.id())
                    }
                    Some(ChaosAction::Stall(how_long)) => {
                        // Sleep in slices, re-checking condemnation: a
                        // condemned stall wakes into a clean exit, leaving
                        // the unserved frame for the supervisor to recover.
                        let stalled_at = Instant::now();
                        while stalled_at.elapsed() < how_long {
                            std::thread::sleep(SUPERVISE_SLICE);
                            if lane.condemned.load(Ordering::Acquire) {
                                return;
                            }
                        }
                    }
                    Some(ChaosAction::Fail) => forced_fail = true,
                    None => {}
                }
                let frame = &call.frames[i];
                let frame_start = Instant::now();
                let mut attempt = 0u32;
                let outcome = loop {
                    attempt += 1;
                    let served = if forced_fail && attempt == 1 {
                        Err(chaos_failure(shard.id()))
                    } else {
                        shard.run_stream_frame(frame.stream, &frame.image)
                    };
                    match served {
                        Ok(result) => {
                            break StreamOutcome::Served {
                                result,
                                attempts: attempt,
                                redispatched: call.redispatched[i].load(Ordering::Relaxed),
                            }
                        }
                        Err(error) => {
                            if attempt >= policy.max_attempts.max(1) {
                                break StreamOutcome::Failed { error, attempts: attempt };
                            }
                            let backoff = policy.backoff_jittered(attempt, call.seed ^ i as u64);
                            if policy.deadline.is_some_and(|d| frame_start.elapsed() + backoff >= d)
                            {
                                call.cluster.metrics.add(Counter::DeadlinesExceeded, 1);
                                break StreamOutcome::DeadlineExceeded;
                            }
                            call.cluster.metrics.add(Counter::Retries, 1);
                            let span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_RETRY);
                            std::thread::sleep(backoff);
                            drop(span);
                        }
                    }
                };
                call.resolve(i, outcome);
                lane.lock_current().pop_front();
                lane.heartbeat.end_work();
            }
        }
    }
}

/// Installs (once) a panic hook that swallows the default backtrace
/// print for chaos-injected kills — their panics are scripted, caught
/// by the drainer's `catch_unwind`, and would otherwise spray stderr on
/// every chaos run. Any other panic still reaches the previous hook.
fn quiet_chaos_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let chaotic = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("chaos:"));
            if !chaotic {
                previous(info);
            }
        }));
    });
}

/// The error a chaos-injected frame failure surfaces as (shaped like a
/// real worker panic, so the retry path cannot tell them apart).
fn chaos_failure(shard: u32) -> Error {
    Error::WorkerPanic {
        stage: "cluster.chaos".to_owned(),
        message: format!("injected frame failure on shard {shard}"),
    }
}

/// A sharded, replicated serving tier over the detection runtime.
///
/// Frames are routed by stream id to one of `shards` replicas, each an
/// owned swappable model with its own worker pool, request queue and
/// (optional) fallback floor. Determinism contract: with a fixed router
/// seed and shard count, per-stream results are bit-identical to a
/// single [`DetectionServer`](pcnn_runtime::DetectionServer) run on the
/// same frames, regardless of per-shard worker counts.
#[derive(Debug)]
pub struct Cluster {
    router: Mutex<ShardRouter>,
    shards: Vec<Shard>,
    config: ClusterConfig,
    /// The snapshot the tier was built from — the respawn source of
    /// last resort when no checkpoint directory is attached (or its
    /// contents are all corrupt).
    seed_snapshot: DetectorSnapshot,
    /// The warm-start checkpoint directory, when the tier came from
    /// one: respawns reload the newest valid snapshot from here.
    respawn_dir: Option<PathBuf>,
    /// The edge's counts: frames routed and shed, swaps, failovers,
    /// respawns, retries, deadlines exceeded and stalls.
    metrics: Metrics,
    /// When the cluster was built, on the tracer's clock: its report
    /// profiles only the spans started since.
    trace_mark: pcnn_trace::TraceMark,
}

impl Cluster {
    /// A cluster of `config.shards` replicas, each warm-started from
    /// `snapshot` (generation 0).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a degenerate configuration, or any
    /// snapshot-rebuild failure from
    /// [`TrainedDetector::from_snapshot`].
    pub fn new(snapshot: &DetectorSnapshot, config: ClusterConfig) -> Result<Self> {
        Self::with_engine(snapshot, config, DetectorConfig::default())
    }

    /// Like [`new`](Cluster::new) with an explicit detection-engine
    /// configuration (pyramid, NMS) shared by every shard.
    pub fn with_engine(
        snapshot: &DetectorSnapshot,
        config: ClusterConfig,
        engine: DetectorConfig,
    ) -> Result<Self> {
        config.validate()?;
        // PCNN_TRACE=1 must be live before the first serve opens its
        // `cluster.serve` span, not only once a shard builds its server.
        pcnn_trace::init_from_env();
        let trace_mark = pcnn_trace::mark();
        let router = ShardRouter::new(config.shards, config.router_seed)?;
        let shards = (0..config.shards)
            .map(|id| {
                let detector = TrainedDetector::from_snapshot(snapshot)?;
                Ok(Shard::new(id, detector, config.runtime, engine, config.stream_cache_capacity))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Cluster {
            router: Mutex::new(router),
            shards,
            config,
            seed_snapshot: snapshot.clone(),
            respawn_dir: None,
            metrics: Metrics::new(),
            trace_mark,
        })
    }

    /// Warm-starts a cluster from the newest valid snapshot in a
    /// [`CheckpointDir`] — the serving-side counterpart of
    /// resume-from-checkpoint training.
    ///
    /// # Errors
    ///
    /// [`Error::MissingEntry`] when the directory holds no usable
    /// snapshot, plus everything [`new`](Cluster::new) can raise.
    pub fn warm_start(dir: &CheckpointDir, config: ClusterConfig) -> Result<Self> {
        let Some((_, snapshot)) = dir.load_latest::<DetectorSnapshot>()? else {
            return Err(Error::MissingEntry {
                what: format!("detector snapshot in {}", dir.path().display()),
            });
        };
        let mut cluster = Self::new(&snapshot, config)?;
        // Respawns reload from the same directory, picking up epochs
        // saved after the warm start (and falling past corrupt ones).
        cluster.respawn_dir = Some(dir.path().to_path_buf());
        Ok(cluster)
    }

    /// The detector a respawned shard comes back with: the newest valid
    /// snapshot in the warm-start directory when there is one (chaos
    /// may corrupt the newest file first — that is the point of the
    /// [`ChaosEvent::CorruptNewestCheckpoint`](crate::ChaosEvent)
    /// fault), else the seed snapshot the tier was built from.
    fn respawn_detector(&self, chaos: Option<&ActiveChaos>) -> Result<TrainedDetector> {
        if let Some(path) = &self.respawn_dir {
            let dir = CheckpointDir::create(path)?;
            if chaos.is_some_and(ActiveChaos::take_corrupt_checkpoint) {
                let _ = crate::chaos::corrupt_newest_checkpoint(&dir);
            }
            if let Ok(Some((_, snapshot))) = dir.load_latest::<DetectorSnapshot>() {
                return TrainedDetector::from_snapshot(&snapshot);
            }
        }
        TrainedDetector::from_snapshot(&self.seed_snapshot)
    }

    /// Locks the router, recovering from poisoning — drain lists and
    /// seeds stay structurally valid across any panic.
    fn lock_router(&self) -> MutexGuard<'_, ShardRouter> {
        self.router.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers a fallback floor rebuilt from `snapshot` and shared by
    /// every shard: a batch whose live model fails its canary probe is
    /// served by the floor instead (counted as degraded in the shard
    /// report), so shard faults cost accuracy, never availability.
    ///
    /// # Errors
    ///
    /// Snapshot-rebuild failures from
    /// [`TrainedDetector::from_snapshot`].
    pub fn set_fallback(&mut self, snapshot: &DetectorSnapshot) -> Result<()> {
        let floor = Arc::new(ShardModel::new(TrainedDetector::from_snapshot(snapshot)?, 0));
        for shard in &mut self.shards {
            shard.set_fallback(Arc::clone(&floor));
        }
        Ok(())
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shards, by index.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard currently serving `stream`.
    pub fn route(&self, stream: StreamId) -> u32 {
        self.lock_router().route(stream.raw())
    }

    /// Rolling blue/green swap across the shards: shard by shard, each
    /// publishes the model rebuilt from `snapshot`, then drains the
    /// batches in flight under older generations before the next shard
    /// swaps, so capacity dips by at most one replica. Queued frames are
    /// untouched throughout — every submitted frame is served exactly
    /// once, by exactly one model generation — and every shard's temporal
    /// stream caches are invalidated once its drain completes, so the new
    /// generation never serves cells extracted by the old one. Returns the
    /// last shard's new generation.
    ///
    /// # Errors
    ///
    /// Snapshot-rebuild failures. Shards already swapped keep the new
    /// model (the roll stops, it does not revert).
    pub fn swap_model(&self, snapshot: &DetectorSnapshot) -> Result<u64> {
        let mut generation = 0;
        for shard in &self.shards {
            let detector = TrainedDetector::from_snapshot(snapshot)?;
            generation = shard.install(detector);
        }
        self.metrics.add(Counter::Swaps, 1);
        Ok(generation)
    }

    /// Takes a shard out of the routing rotation; its streams re-route
    /// to the surviving shards (which keep their own streams — see
    /// [`ShardRouter`]). Frames already queued for the shard still
    /// drain through it.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an out-of-range shard or when this
    /// would leave no shard in rotation.
    pub fn drain_shard(&self, shard: u32) -> Result<()> {
        self.lock_router().drain(shard)
    }

    /// Returns a drained shard to the rotation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an out-of-range shard.
    pub fn restore_shard(&self, shard: u32) -> Result<()> {
        self.lock_router().restore(shard)
    }

    /// Detects over a single routed frame on the caller's thread (the
    /// one-shot path; streams of frames belong in [`serve`](Cluster::serve)).
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanic`] when a pipeline stage panicked for this
    /// frame.
    pub fn detect(&self, stream: StreamId, frame: &GrayImage) -> Result<Vec<Detection>> {
        let shard = self.route(stream);
        self.metrics.add(Counter::FramesRouted, 1);
        self.shards[shard as usize].run_batch(&[frame]).pop().expect("one frame in, one result out")
    }

    /// Detects over one frame of a video stream on the caller's thread,
    /// using the temporal cache and tracker the routed shard keeps for
    /// `stream`. Frames of a stream must be submitted in capture order.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanic`] when a pipeline stage panicked for this
    /// frame; the stream's cache is invalidated and its next frame runs
    /// cold.
    pub fn detect_stream(&self, stream: StreamId, frame: &GrayImage) -> Result<StreamFrameResult> {
        let shard = self.route(stream);
        self.metrics.add(Counter::FramesRouted, 1);
        self.shards[shard as usize].run_stream_frame(stream, frame)
    }

    /// Serves interleaved video-stream frames through the sharded tier:
    /// the feeder routes every frame to its shard's queue in input
    /// order while one drainer per shard serves them through
    /// [`Shard::run_stream_frame`]. A single drainer per shard means
    /// each stream's frames are served strictly in submission order, so
    /// temporal caches and trackers observe the stream as a camera
    /// would produce it.
    ///
    /// The loop is supervised: drainers run under `catch_unwind` with a
    /// per-lane heartbeat, and the feeder doubles as supervisor — a
    /// dead or watchdog-condemned shard is drained from the rotation,
    /// its streams fail over to the survivors (trackers migrate,
    /// caches rebuild warmth), its unserved frames re-dispatch in
    /// order, and the shard respawns warm from the latest checkpoint.
    ///
    /// Returns per-frame outcomes in input order; `None` marks frames
    /// shed by a full shard queue under
    /// [`Backpressure::Reject`],
    /// and `Some(Err(_))` a frame whose attempts all failed.
    pub fn serve_streams(&self, frames: &[StreamFrame]) -> Vec<Option<Result<StreamFrameResult>>> {
        self.serve_streams_with(frames, None)
            .into_iter()
            .map(|outcome| match outcome {
                StreamOutcome::Served { result, .. } => Some(Ok(result)),
                StreamOutcome::Shed | StreamOutcome::DeadlineExceeded => None,
                StreamOutcome::Failed { error, .. } => Some(Err(error)),
            })
            .collect()
    }

    /// [`serve_streams`](Cluster::serve_streams) with full per-frame
    /// outcomes and optional scripted fault injection — the entry point
    /// the chaos harness drives. `plan` (when given) arms the scripted
    /// kills, stalls, frame failures and checkpoint corruption; its
    /// seed also salts the retry backoff jitter.
    pub fn serve_streams_with(
        &self,
        frames: &[StreamFrame],
        plan: Option<&ChaosPlan>,
    ) -> Vec<StreamOutcome> {
        self.serve_loop(frames, plan, None).into_iter().map(|(outcome, _)| outcome).collect()
    }

    /// Serves a batch of frames through the sharded tier: the feeder
    /// routes every frame to its shard's queue in input order while one
    /// drainer per shard serves each popped batch on that shard's
    /// worker pool. The loop is supervised exactly like
    /// [`serve_streams`](Cluster::serve_streams): a dead or stalled
    /// shard's unserved frames re-dispatch to the survivors while the
    /// shard respawns.
    ///
    /// Returns per-frame detections in input order; `None` marks frames
    /// shed by a full shard queue under
    /// [`Backpressure::Reject`].
    /// With [`Backpressure::Block`]
    /// every slot is `Some`.
    ///
    /// # Panics
    ///
    /// Re-raises the first failed frame's error (such as
    /// [`Error::WorkerPanic`]) as a panic, once every frame has an
    /// outcome and the shard lanes are closed. Use
    /// [`detect`](Cluster::detect) when a failed frame must not take the
    /// caller down.
    pub fn serve(&self, frames: &[StreamFrame]) -> Vec<Option<Vec<Detection>>> {
        let mut failure = None;
        let detections = self
            .serve_loop(frames, None, None)
            .into_iter()
            .map(|(outcome, _)| match outcome {
                StreamOutcome::Served { result, .. } => Some(result),
                StreamOutcome::Shed | StreamOutcome::DeadlineExceeded => None,
                StreamOutcome::Failed { error, .. } => {
                    failure = failure.take().or(Some(error));
                    None
                }
            })
            .collect();
        if let Some(error) = failure {
            panic!("{error}");
        }
        detections
    }

    /// The one serve loop behind every entry point: routes `frames` to
    /// per-shard lanes in input order under supervision, and returns each
    /// frame's outcome with its completion time since the call started.
    /// `R` picks the drainer body — whole batches for batch frames, one
    /// frame at a time for stream frames. `due_us[i]` (when given) is
    /// frame `i`'s scheduled arrival relative to the start: the feeder
    /// holds the frame until then and submits it whatever the tier's
    /// progress (open loop).
    pub(crate) fn serve_loop<R: Drain>(
        &self,
        frames: &[StreamFrame],
        plan: Option<&ChaosPlan>,
        due_us: Option<&[u64]>,
    ) -> Vec<(StreamOutcome<R>, Duration)> {
        let span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_SERVE);
        self.metrics.add_traced(&span, Counter::FramesRouted, frames.len() as u64);
        if plan.is_some() {
            quiet_chaos_panics();
        }
        let call = Call {
            cluster: self,
            frames,
            results: (0..frames.len()).map(|_| OnceLock::new()).collect(),
            redispatched: (0..frames.len()).map(|_| AtomicBool::new(false)).collect(),
            chaos: plan.map(|p| ActiveChaos::new(p, self.config.shards)),
            seed: plan.map_or(self.config.router_seed, |p| p.seed),
            start: Instant::now(),
        };
        std::thread::scope(|scope| {
            let mut run = ServeLoop {
                scope,
                call: &call,
                lanes: (0..self.shards.len())
                    .map(|_| Arc::new(Lane::new(self.config.queue)))
                    .collect(),
                down: vec![false; self.shards.len()],
                tier_down: false,
                pending: VecDeque::new(),
                last_route: HashMap::new(),
                last_pushed: HashMap::new(),
                watchdog: Watchdog::new(self.config.supervision.stall_after),
            };
            for k in 0..run.lanes.len() {
                run.spawn_drainer(k, Arc::clone(&run.lanes[k]));
            }
            for i in 0..frames.len() {
                if let Some(due_us) = due_us {
                    run.wait_until(Duration::from_micros(due_us[i]));
                }
                run.flush_pending();
                run.dispatch(i);
            }
            run.finish();
        });
        drop(span);
        call.results
            .into_iter()
            .map(|slot| slot.into_inner().expect("finish() resolves every frame"))
            .collect()
    }

    /// Snapshots the whole tier: every shard's accumulated
    /// [`RuntimeReport`](pcnn_runtime::RuntimeReport), their aggregate
    /// merged onto the edge's own counters (routing, shedding, swaps,
    /// self-healing) and the live trace summary when a tracer is
    /// installed. The summary profiles the
    /// spans started since this cluster was built, so clusters that
    /// serve one after another in one process each report their own;
    /// clusters serving at the same time share the process-global
    /// tracer and each count the other's spans too.
    pub fn report(&self) -> ClusterReport {
        let router = self.lock_router();
        let shards: Vec<ShardReport> = self
            .shards
            .iter()
            .map(|s| ShardReport {
                shard: s.id(),
                generation: s.generation(),
                swaps: s.swaps(),
                drained: router.is_drained(s.id()),
                report: s.report(),
            })
            .collect();
        drop(router);
        let edge = self.metrics.report(0);
        let aggregate = shards.iter().fold(edge, |acc, s| acc.merge(&s.report));
        let trace = pcnn_trace::profile_since(self.trace_mark)
            .map(|profile| TraceSummary::new(profile, aggregate.kernel_backend.clone()));
        ClusterReport { shards, aggregate, trace }
    }
}

/// How one push attempt at the serving edge resolved.
enum PushOutcome {
    /// Queued on the target lane.
    Pushed,
    /// Rejected by a full queue ([`Backpressure::Reject`]).
    Shed,
    /// The admission deadline expired while the queue stayed full.
    Deadline,
    /// The target lane died (or was respawned) mid-push — re-route and
    /// try again.
    Rerouted,
}

/// The feeder-as-supervisor state for one serve call. The feeder thread
/// owns it exclusively; drainers see only the shared [`Call`] and their
/// own [`Lane`].
struct ServeLoop<'s, 'e, R> {
    /// The call's thread scope, where drainers (and respawned ones) run.
    scope: &'s std::thread::Scope<'s, 'e>,
    call: &'e Call<'e, R>,
    /// One lane per shard, replaced wholesale on respawn.
    lanes: Vec<Arc<Lane>>,
    /// Shards that died and were not respawned; they stay drained.
    down: Vec<bool>,
    /// The last shard died and could not be drained or respawned —
    /// nothing is left to serve, remaining frames fail fast.
    tier_down: bool,
    /// Orphaned frame indices awaiting re-dispatch, oldest first.
    pending: VecDeque<usize>,
    /// Where each stream's frames were last pushed — route changes
    /// (failover out, return after respawn) migrate tracker state.
    last_route: HashMap<u64, u32>,
    /// Each stream's most recently pushed frame index, for quiescing
    /// before a migration.
    last_pushed: HashMap<u64, usize>,
    watchdog: Watchdog,
}

impl<R: Drain> ServeLoop<'_, '_, R> {
    /// Spawns `lane`'s drainer for shard `k` under `catch_unwind`: a
    /// panic (chaos kill, or a real bug) marks the lane dead instead of
    /// tearing down the serve call.
    fn spawn_drainer(&self, k: usize, lane: Arc<Lane>) {
        let shard = &self.call.cluster.shards[k];
        let call = self.call;
        self.scope.spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                R::drain(shard, &lane, call);
            }));
            // Dead on EVERY exit path — panic or clean return — so the
            // supervisor's pre-harvest wait in `heal` always terminates.
            lane.dead.store(true, Ordering::Release);
        });
    }

    /// One supervision sweep: heal every dead lane, and condemn (then
    /// heal) every lane whose heartbeat the watchdog flags as stalled.
    fn supervise(&mut self) {
        for k in 0..self.lanes.len() {
            if self.down[k] {
                continue;
            }
            let lane = Arc::clone(&self.lanes[k]);
            if lane.dead.load(Ordering::Acquire) {
                self.heal(k);
            } else if !lane.condemned.load(Ordering::Acquire)
                && matches!(self.watchdog.check(&lane.heartbeat), WatchdogStatus::Stalled { .. })
            {
                self.call.cluster.metrics.add(Counter::Stalls, 1);
                lane.condemned.store(true, Ordering::Release);
                self.heal(k);
            }
        }
    }

    /// Buries shard `k`'s dead lane and brings the tier back to full
    /// strength: recover the orphaned frames (the dead drainer's
    /// current batch, then its queue, preserving per-stream order),
    /// drain the shard from the rotation, migrate its stream trackers
    /// to the survivors, respawn it warm, and restore it. Orphans go to
    /// the front of the pending deque for re-dispatch.
    fn heal(&mut self, k: usize) {
        let span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_FAILOVER);
        let cluster = self.call.cluster;
        let lane = Arc::clone(&self.lanes[k]);
        lane.condemned.store(true, Ordering::Release);
        lane.queue.close();
        // A condemned-but-alive drainer may still be mid-serve on its
        // front frame. Harvesting that frame (and snapshotting the
        // shard's trackers) while the serve can still commit would let
        // one frame update a tracker twice — once in the old lane, once
        // re-dispatched against the migrated snapshot. Wait for the
        // drainer to acknowledge death: it checks condemnation between
        // frames and inside chaos stalls, and the spawn wrapper marks
        // the lane dead on every exit. A thread still unresponsive
        // after the grace window is abandoned wedged-in-place and its
        // frames are recovered best-effort.
        let grace = Instant::now();
        while !lane.dead.load(Ordering::Acquire) && grace.elapsed() < HEAL_GRACE {
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut orphans: Vec<usize> = lane.lock_current().drain(..).collect();
        while let Some(batch) = lane.queue.pop_batch() {
            orphans.extend(batch);
        }
        orphans.retain(|&i| !self.call.resolved(i));
        let shard = &cluster.shards[k];
        let drained = cluster.lock_router().drain(k as u32).is_ok();
        if drained {
            let snapshots = shard.take_stream_snapshots();
            let router = cluster.lock_router();
            for snapshot in snapshots {
                let stream = snapshot.id.raw();
                let target = router.route(stream);
                cluster.shards[target as usize].install_stream_snapshot(snapshot);
                self.last_route.insert(stream, target);
                cluster.metrics.add_traced(&span, Counter::Failovers, 1);
            }
        }
        let mut respawned = false;
        if cluster.config.supervision.respawn {
            if let Ok(detector) = cluster.respawn_detector(self.call.chaos.as_ref()) {
                let respawn_span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_RESPAWN);
                shard.respawn(detector);
                cluster.metrics.add(Counter::Respawns, 1);
                let fresh = Arc::new(Lane::new(cluster.config.queue));
                self.lanes[k] = Arc::clone(&fresh);
                self.spawn_drainer(k, fresh);
                if drained {
                    let _ = cluster.lock_router().restore(k as u32);
                }
                respawned = true;
                drop(respawn_span);
            }
        }
        if !respawned {
            self.down[k] = true;
            if !drained {
                self.tier_down = true;
            }
        }
        for &i in orphans.iter().rev() {
            self.pending.push_front(i);
        }
        drop(span);
    }

    /// Re-dispatches every orphaned frame, oldest first. An orphan's
    /// stream keeps its frame order: orphans of one stream all come
    /// from the same dead lane, in queue order, ahead of any input
    /// frame not yet dispatched.
    fn flush_pending(&mut self) {
        while let Some(i) = self.pending.pop_front() {
            if self.call.resolved(i) {
                continue;
            }
            self.call.redispatched[i].store(true, Ordering::Relaxed);
            self.dispatch(i);
        }
    }

    /// Holds the feeder until `due` after the call started, supervising
    /// the tier and re-dispatching orphans every [`SUPERVISE_SLICE`].
    fn wait_until(&mut self, due: Duration) {
        while let Some(early) = due.checked_sub(self.call.start.elapsed()) {
            std::thread::sleep(early.min(SUPERVISE_SLICE));
            self.supervise();
            self.flush_pending();
        }
    }

    /// Routes and pushes frame `i`, healing the tier as needed: route
    /// changes migrate the stream's tracker (after quiescing its last
    /// in-flight frame), dead targets trigger failover and re-route,
    /// full queues shed or run down the admission deadline.
    fn dispatch(&mut self, i: usize) {
        let cluster = self.call.cluster;
        let stream = self.call.frames[i].stream;
        loop {
            if self.tier_down {
                self.call.resolve(
                    i,
                    StreamOutcome::Failed {
                        error: Error::WorkerPanic {
                            stage: "cluster.supervise".to_owned(),
                            message: "no shard in rotation (last shard died, respawn unavailable)"
                                .to_owned(),
                        },
                        attempts: 0,
                    },
                );
                return;
            }
            self.supervise();
            if self.tier_down {
                continue;
            }
            let target = cluster.lock_router().route(stream.raw());
            if self.down[target as usize] {
                continue;
            }
            if let Some(&previous) = self.last_route.get(&stream.raw()) {
                if previous != target {
                    // The stream moved (failover out, or home again
                    // after a respawn): wait out its in-flight frame,
                    // then carry the tracker over. The cache stays
                    // behind — cold serves are bit-identical, warmth
                    // rebuilds on the next frame.
                    self.quiesce(stream, i);
                    if let Some(snapshot) =
                        cluster.shards[previous as usize].take_stream_snapshot(stream)
                    {
                        let now = cluster.lock_router().route(stream.raw());
                        cluster.shards[now as usize].install_stream_snapshot(snapshot);
                        self.last_route.insert(stream.raw(), now);
                    } else {
                        self.last_route.insert(stream.raw(), target);
                    }
                    continue;
                }
            }
            match self.push_to(target as usize, i) {
                PushOutcome::Pushed => {
                    self.last_route.insert(stream.raw(), target);
                    self.last_pushed.insert(stream.raw(), i);
                    return;
                }
                PushOutcome::Shed => {
                    cluster.metrics.add(Counter::FramesShed, 1);
                    self.call.resolve(i, StreamOutcome::Shed);
                    return;
                }
                PushOutcome::Deadline => {
                    cluster.metrics.add(Counter::DeadlinesExceeded, 1);
                    self.call.resolve(i, StreamOutcome::DeadlineExceeded);
                    return;
                }
                PushOutcome::Rerouted => continue,
            }
        }
    }

    /// Waits until `stream` has no frame in flight, so its tracker can
    /// migrate without racing a serve. A frame is quiesced when it is
    /// resolved, orphaned into `pending` (its lane died — nothing is
    /// serving it), or is the very frame being dispatched.
    fn quiesce(&mut self, stream: StreamId, current: usize) {
        loop {
            let Some(&last) = self.last_pushed.get(&stream.raw()) else { return };
            if last == current || self.call.resolved(last) || self.pending.contains(&last) {
                return;
            }
            self.supervise();
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Pushes frame `i` to shard `target`'s lane in supervised slices:
    /// between blocked slices the tier is re-checked (so a dead drainer
    /// behind a full queue cannot wedge the feeder), and the configured
    /// deadline bounds the total wait.
    fn push_to(&mut self, target: usize, i: usize) -> PushOutcome {
        let lane = Arc::clone(&self.lanes[target]);
        let deadline = self.call.cluster.config.supervision.retry.deadline;
        let started = Instant::now();
        loop {
            if lane.dead.load(Ordering::Acquire) {
                return PushOutcome::Rerouted;
            }
            match lane.queue.push_timeout(i, SUPERVISE_SLICE) {
                Ok(_) => return PushOutcome::Pushed,
                Err(PushError::Full) => return PushOutcome::Shed,
                Err(PushError::Closed) => return PushOutcome::Rerouted,
                Err(PushError::Timeout) => {
                    if deadline.is_some_and(|d| started.elapsed() >= d) {
                        return PushOutcome::Deadline;
                    }
                    self.supervise();
                    if !Arc::ptr_eq(&lane, &self.lanes[target]) {
                        // The lane was respawned out from under us.
                        return PushOutcome::Rerouted;
                    }
                }
            }
        }
    }

    /// Epilogue: keep supervising and re-dispatching until every frame
    /// has an outcome, then close the lanes so the drainers exit.
    fn finish(&mut self) {
        loop {
            self.supervise();
            self.flush_pending();
            if (0..self.call.frames.len()).all(|i| self.call.resolved(i)) {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        for lane in &self.lanes {
            lane.queue.close();
        }
    }
}
