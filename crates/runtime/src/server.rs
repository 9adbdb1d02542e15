//! The detection server: batched, parallel frame serving with metrics.
//!
//! [`DetectionServer`] wraps a trained detector and runs the paper's
//! pipeline once, as stages over (frame, [`CellCache`]) pairs on a
//! fixed worker pool:
//!
//! 1. **cache probe** — a stream frame identical to its cache's last
//!    frame reuses that frame's detections;
//! 2. **pyramid** — one work item per frame;
//! 3. **cells** — one work item per (frame, pyramid level), hashing the
//!    level's cells and extracting only the changed ones;
//! 4. **classify** — one work item per window-row chunk, scoring only
//!    the stale windows;
//! 5. **nms** — one work item per frame, rebuilding the raw detections
//!    from the cached window scores in serial scan order (level, row,
//!    column) and suppressing them, exactly as [`Detector::detect`]
//!    does with freshly computed scores.
//!
//! [`detect_batch`](DetectionServer::detect_batch) passes fresh caches
//! and drops them, so it skips the probe and the hashing and computes
//! every cell and window once; [`detect_stream`](DetectionServer::detect_stream)
//! passes the stream's own cache and then updates its tracker. Either
//! way the per-window code is [`Detector`]'s, and the output is
//! bit-identical to [`Detector::detect`]'s serial scan for any worker
//! count.

use crate::cache::{frame_hash, CacheStats, CellCache, LevelCache};
use crate::chaos::PanicInjector;
use crate::degrade::FallbackChain;
use crate::metrics::{LevelReport, Metrics, RuntimeReport, Stage};
use crate::queue::{Backpressure, PushError, QueueConfig, RequestQueue};
use crate::scheduler::{plan_chunks, try_parallel_map, Chunk, WorkerPanic};
use crate::stream::{StreamFrameResult, StreamHandle, StreamState};
use crate::supervise::RetryPolicy;
use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Error, StreamId};
use pcnn_truenorth::SystemStats;
use pcnn_vision::pyramid::{scale_pyramid, Pyramid};
use pcnn_vision::{non_maximum_suppression, Detection, GrayImage};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Serving-runtime parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Worker threads in the pool. One means serial execution.
    pub workers: usize,
    /// Window start rows per classification work item. Smaller chunks
    /// balance better across workers; larger chunks amortize dispatch.
    pub chunk_rows: usize,
    /// Request queue/batcher parameters.
    pub queue: QueueConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { workers: 4, chunk_rows: 4, queue: QueueConfig::default() }
    }
}

impl RuntimeConfig {
    /// A validating builder:
    /// `RuntimeConfig::builder().workers(8).queue_capacity(64).build()?`.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder::default()
    }

    /// Validates every field, mirroring what [`DetectionServer::new`]
    /// enforces.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let bad = |what: &str, reason: &str| {
            Err(Error::InvalidConfig { what: what.to_owned(), reason: reason.to_owned() })
        };
        if self.workers == 0 {
            return bad("workers", "worker count must be positive");
        }
        if self.chunk_rows == 0 {
            return bad("chunk_rows", "chunk_rows must be positive");
        }
        if self.queue.capacity == 0 {
            return bad("queue.capacity", "queue capacity must be positive");
        }
        if self.queue.batch_size == 0 {
            return bad("queue.batch_size", "batch size must be positive");
        }
        if self.queue.batch_size > self.queue.capacity {
            return bad("queue.batch_size", "batch size cannot exceed queue capacity");
        }
        Ok(())
    }
}

/// Step-by-step construction of a [`RuntimeConfig`], validated at
/// [`build`](RuntimeConfigBuilder::build) time so an impossible
/// configuration is an [`Error`], not a panic deep in the server.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the window rows per classification work item.
    pub fn chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.config.chunk_rows = chunk_rows;
        self
    }

    /// Sets the request-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue.capacity = capacity;
        self
    }

    /// Sets the maximum requests per drained batch.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.queue.batch_size = batch_size;
        self
    }

    /// Sets the full-queue behavior.
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.config.queue.backpressure = backpressure;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the first offending field.
    pub fn build(self) -> Result<RuntimeConfig, Error> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A batched, parallel serving front-end over a trained detector —
/// or over a [`FallbackChain`] of them, degrading per batch when the
/// preferred level fails its health probe.
#[derive(Debug)]
pub struct DetectionServer<'d> {
    engine: Detector,
    chain: FallbackChain<'d>,
    config: RuntimeConfig,
    metrics: Metrics,
    injector: Option<PanicInjector>,
}

impl<'d> DetectionServer<'d> {
    /// A server running `engine` over a single `detector` (no fallback).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `workers`, `chunk_rows` or the queue
    /// configuration is degenerate.
    pub fn new(
        engine: Detector,
        detector: &'d TrainedDetector,
        config: RuntimeConfig,
    ) -> Result<Self, Error> {
        let label = detector.extractor.kind().label();
        Self::with_chain(engine, FallbackChain::new().push(label, detector), config)
    }

    /// A server degrading along `chain`: each batch is served by the
    /// first level that passes its canary health probe, with everything
    /// below the primary counted as degraded in the report. The last
    /// level serves unconditionally, so the server never refuses a
    /// batch.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the chain is empty or the runtime
    /// configuration is degenerate.
    pub fn with_chain(
        engine: Detector,
        chain: FallbackChain<'d>,
        config: RuntimeConfig,
    ) -> Result<Self, Error> {
        config.validate()?;
        if chain.is_empty() {
            return Err(Error::InvalidConfig {
                what: "fallback chain".to_owned(),
                reason: "needs at least one service level".to_owned(),
            });
        }
        // Opt-in observability: PCNN_TRACE=1 turns on wall-clock span
        // tracing for the whole process (surfaced via RuntimeReport).
        pcnn_trace::init_from_env();
        let metrics = Metrics::with_levels(chain.len());
        Ok(DetectionServer { engine, chain, config, metrics, injector: None })
    }

    /// Arms chaos injection: classify chunks of the injector's target
    /// frame panic until its charges run out. Test-harness plumbing for
    /// the supervision contract — panics are caught per chunk, so only
    /// the poisoned frame's request fails.
    pub fn with_panic_injection(mut self, injector: PanicInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The live serving metrics — feed them to a
    /// [`Watchdog`](crate::Watchdog) for stall detection, or count
    /// checkpoint writes/restores against the same report.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The wrapped detection engine.
    pub fn engine(&self) -> &Detector {
        &self.engine
    }

    /// The fallback chain (a single level for
    /// [`new`](DetectionServer::new)-built servers).
    pub fn chain(&self) -> &FallbackChain<'d> {
        &self.chain
    }

    /// Probes the chain and returns the level index and detector that
    /// would serve the next batch, recording any probe failures.
    fn select_level(&self, frames: u64) -> (usize, &'d TrainedDetector) {
        let levels = self.chain.levels();
        if levels.len() == 1 {
            self.metrics.add_level_batch(0);
            return (0, levels[0].detector());
        }
        let (index, failures) = self.chain.select();
        self.metrics.add_health_failures(failures);
        self.metrics.add_level_batch(index);
        if index > 0 {
            self.metrics.add_degraded_batch(frames);
        }
        (index, levels[index].detector())
    }

    /// Runs one batch of frames through the staged parallel pipeline,
    /// returning per-frame results in input order. With a fallback
    /// chain the serving level is chosen per batch by health probe.
    ///
    /// Supervised: a worker panic inside any stage fails **only the
    /// frames it belongs to** — every other frame in the batch still
    /// returns its detections, the caught panic is counted in the
    /// report, and no lock is left poisoned. Use
    /// [`detect_frame`](DetectionServer::detect_frame) when a panicking
    /// convenience wrapper is acceptable.
    pub fn detect_batch(&self, frames: &[&GrayImage]) -> Vec<Result<Vec<Detection>, Error>> {
        if frames.is_empty() {
            return Vec::new();
        }
        let (_, detector) = self.select_level(frames.len() as u64);
        self.batch(frames.len(), || {
            let mut caches = vec![CellCache::new(); frames.len()];
            self.run(detector, None, frames, &mut caches)
                .into_iter()
                .map(|r| r.map(|(detections, _)| detections))
                .collect()
        })
    }

    /// Runs `body` over `frames` frames as one batch: inside a
    /// `runtime.batch` span and the metrics' work window, counting the
    /// frames it served and the batch latency.
    fn batch<T>(
        &self,
        frames: usize,
        body: impl FnOnce() -> Vec<Result<T, Error>>,
    ) -> Vec<Result<T, Error>> {
        let span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_BATCH);
        if span.is_recording() {
            span.add(pcnn_trace::Counter::Frames, frames as u64);
        }
        let start = Instant::now();
        self.metrics.begin_work();
        let results = body();
        self.metrics.add_frames(results.iter().filter(|r| r.is_ok()).count() as u64);
        self.metrics.add_batch(start.elapsed());
        self.metrics.end_work();
        results
    }

    /// The staged pipeline of the [module docs](self) over `frames`, each
    /// paired with its cell cache; the cells stage is
    /// [`LevelCache::refresh`] per (frame, level).
    ///
    /// `Some(token)` means the caches persist (streams): each is keyed to
    /// the token, reuse is probed and hashed, a served frame is recorded
    /// in its cache, and a failed frame's cache is invalidated so partial
    /// state never survives. `None` means fresh caches the caller drops
    /// (batches): nothing is hashed, and every cell and window is
    /// computed once.
    ///
    /// A worker panic fails only the frame it belongs to, with the first
    /// failing stage named in the error. Reuse decisions depend only on
    /// pixel content, so results and counts match at any worker count.
    fn run(
        &self,
        detector: &TrainedDetector,
        token: Option<u64>,
        frames: &[&GrayImage],
        caches: &mut [CellCache],
    ) -> Vec<Result<(Vec<Detection>, CacheStats), Error>> {
        let workers = self.config.workers;
        let reuse = token.is_some();
        // Each frame's outcome once it is known; frames still `None`
        // flow on through the stages.
        type Outcome = Option<Result<Vec<Detection>, Error>>;
        let mut outcome: Vec<Outcome> = frames.iter().map(|_| None).collect();
        let mut stats = vec![CacheStats::default(); frames.len()];
        let fail = |outcome: &mut [Outcome], frame: usize, stage: &str, p: WorkerPanic| {
            self.metrics.add_panics(1);
            if outcome[frame].is_none() {
                let message = p.message;
                outcome[frame] = Some(Err(Error::WorkerPanic { stage: stage.to_owned(), message }));
            }
        };
        let pending = |outcome: &[Outcome]| -> Vec<usize> {
            (0..frames.len()).filter(|&f| outcome[f].is_none()).collect()
        };

        let mut hashes = vec![0; frames.len()];
        if let Some(token) = token {
            let _span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CACHE_PROBE);
            for (f, cache) in caches.iter_mut().enumerate() {
                cache.ensure_token(token);
                hashes[f] = frame_hash(frames[f]);
                if let Some(detections) = cache.unchanged(hashes[f]) {
                    stats[f].cells_reused = cache.total_cells();
                    outcome[f] = Some(Ok(detections.clone()));
                }
            }
        }

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_PYRAMID);
        let t = Instant::now();
        let todo = pending(&outcome);
        let config = self.engine.config().pyramid;
        let built =
            try_parallel_map(workers, todo.len(), |i| scale_pyramid(frames[todo[i]], config));
        let mut pyramids: Vec<Option<Pyramid>> = frames.iter().map(|_| None).collect();
        for (&f, r) in todo.iter().zip(built) {
            match r {
                Ok(pyramid) => pyramids[f] = Some(pyramid),
                Err(p) => fail(&mut outcome, f, "pyramid", p),
            }
        }
        self.metrics.add_stage(Stage::Pyramid, t.elapsed());
        drop(stage_span);

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CELLS);
        let t = Instant::now();
        let mut level_of = Vec::new();
        let mut slots = Vec::new();
        for (f, cache) in caches.iter_mut().enumerate() {
            if let Some(pyramid) = &pyramids[f] {
                for (l, lc) in cache.levels_mut(pyramid.levels.len()).iter_mut().enumerate() {
                    level_of.push((f, l));
                    slots.push(Mutex::new(lc));
                }
            }
        }
        let refreshed = try_parallel_map(workers, slots.len(), |i| {
            let (f, l) = level_of[i];
            let level = &pyramids[f].as_ref().expect("a pending frame has a pyramid").levels[l];
            let mut lc = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
            lc.refresh(level, &detector.extractor, reuse)
        });
        // A panicked refresh fails its frame, whose cache is dropped or
        // invalidated below, so a poisoned slot's level is never read.
        let mut levels: Vec<&mut LevelCache> = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let mut stale = Vec::with_capacity(levels.len());
        for (&(f, _), r) in level_of.iter().zip(refreshed) {
            match r {
                Ok((level_stats, windows)) => {
                    stats[f].cells_reused += level_stats.cells_reused;
                    stats[f].cells_recomputed += level_stats.cells_recomputed;
                    stale.push(windows);
                }
                Err(p) => {
                    fail(&mut outcome, f, "cells", p);
                    stale.push(Vec::new());
                }
            }
        }
        if reuse && stage_span.is_recording() {
            let reused = stats.iter().map(|s| s.cells_reused).sum();
            let recomputed = stats.iter().map(|s| s.cells_recomputed).sum();
            stage_span.add(pcnn_trace::Counter::CellsReused, reused);
            stage_span.add(pcnn_trace::Counter::CellsRecomputed, recomputed);
        }
        self.metrics.add_stage(Stage::Cells, t.elapsed());
        drop(stage_span);

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CLASSIFY);
        let t = Instant::now();
        let grids: Vec<usize> =
            (0..levels.len()).filter(|&g| outcome[level_of[g].0].is_none()).collect();
        let dims: Vec<(usize, usize)> =
            levels.iter().map(|lc| Detector::window_grid(lc.cells_x, lc.cells_y)).collect();
        let rows: Vec<(usize, usize)> = grids.iter().map(|&g| (level_of[g].0, dims[g].0)).collect();
        let chunks = plan_chunks(&rows, self.config.chunk_rows);
        // A chunk's level and its stale windows: the level's row-major
        // stale list restricted to the chunk's rows is a contiguous run.
        let chunk_windows = |chunk: &Chunk| {
            let g = grids[chunk.grid];
            let cols = dims[g].1;
            let lo = stale[g].partition_point(|&w| w < chunk.rows.start * cols);
            let hi = stale[g].partition_point(|&w| w < chunk.rows.end * cols);
            (g, &stale[g][lo..hi])
        };
        let scored = try_parallel_map(workers, chunks.len(), |i| {
            if let Some(injector) = &self.injector {
                injector.maybe_panic(chunks[i].frame);
            }
            let (g, windows) = chunk_windows(&chunks[i]);
            let (lc, cols): (&LevelCache, usize) = (levels[g], dims[g].1);
            let cell = |cx: usize, cy: usize| lc.histograms[cy * lc.cells_x + cx].as_slice();
            windows
                .iter()
                .map(|&w| {
                    let descriptor =
                        Detector::assemble_window(&detector.extractor, w % cols, w / cols, cell);
                    detector.classifier.score(&descriptor)
                })
                .collect::<Vec<f32>>()
        });
        let mut windows_scored = 0u64;
        for (chunk, r) in chunks.iter().zip(scored) {
            match r {
                Ok(scores) => {
                    let (g, windows) = chunk_windows(chunk);
                    windows_scored += windows.len() as u64;
                    for (&w, score) in windows.iter().zip(scores) {
                        levels[g].window_scores[w] = score;
                    }
                }
                Err(p) => fail(&mut outcome, chunk.frame, "classify", p),
            }
        }
        self.metrics.add_windows(windows_scored);
        self.metrics.add_stage(Stage::Classify, t.elapsed());
        if stage_span.is_recording() {
            stage_span.add(pcnn_trace::Counter::Windows, windows_scored);
        }
        drop(stage_span);

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_NMS);
        let t = Instant::now();
        let todo = pending(&outcome);
        let caches_view: &[CellCache] = caches;
        let suppressed = try_parallel_map(workers, todo.len(), |i| {
            let raw: Vec<Detection> = caches_view[todo[i]]
                .levels()
                .iter()
                .flat_map(|lc| {
                    let cols = Detector::window_grid(lc.cells_x, lc.cells_y).1;
                    self.engine.window_detections(lc.scale, cols, &lc.window_scores)
                })
                .collect();
            non_maximum_suppression(raw, self.engine.config().nms_epsilon)
        });
        for (&f, r) in todo.iter().zip(suppressed) {
            match r {
                Ok(detections) => outcome[f] = Some(Ok(detections)),
                Err(p) => fail(&mut outcome, f, "nms", p),
            }
        }
        self.metrics.add_stage(Stage::Nms, t.elapsed());
        drop(stage_span);

        if reuse {
            for ((cache, result), &hash) in caches.iter_mut().zip(&outcome).zip(&hashes) {
                match result {
                    Some(Ok(detections)) => cache.finish_frame(hash, detections.clone()),
                    _ => cache.invalidate(),
                }
            }
        }
        outcome
            .into_iter()
            .zip(stats)
            .map(|(result, stats)| {
                result.expect("every frame is served or failed").map(|dets| (dets, stats))
            })
            .collect()
    }

    /// Detects over a single frame on the worker pool. Output is
    /// bit-identical to [`Detector::detect`]. A thin convenience
    /// wrapper over [`detect_batch`](DetectionServer::detect_batch).
    ///
    /// # Panics
    ///
    /// Re-raises the frame's failure as a panic — use
    /// [`detect_batch`](DetectionServer::detect_batch) when a worker
    /// panic must not take the caller down.
    pub fn detect_frame(&self, img: &GrayImage) -> Vec<Detection> {
        self.detect_batch(&[img])
            .pop()
            .expect("one frame in, one result out")
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Submits one frame under a [`RetryPolicy`]: failed attempts are
    /// retried with exponential backoff until the attempt budget or the
    /// deadline runs out. Retries and deadline misses are counted in
    /// the report.
    ///
    /// # Errors
    ///
    /// The last attempt's [`Error::WorkerPanic`] once attempts are
    /// exhausted, or [`Error::DeadlineExceeded`] when the in-flight
    /// budget ran out first.
    pub fn submit(&self, frame: &GrayImage, policy: &RetryPolicy) -> Result<Vec<Detection>, Error> {
        let start = Instant::now();
        let max_attempts = policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=max_attempts {
            if let Some(deadline) = policy.deadline {
                if start.elapsed() >= deadline {
                    self.metrics.add_deadline_miss();
                    return Err(Error::DeadlineExceeded {
                        waited_ms: start.elapsed().as_millis() as u64,
                        deadline_ms: deadline.as_millis() as u64,
                    });
                }
            }
            match self.detect_batch(&[frame]).pop().expect("one frame in, one result out") {
                Ok(detections) => return Ok(detections),
                Err(e) => {
                    last_err = Some(e);
                    if attempt < max_attempts {
                        self.metrics.add_retry();
                        let mut backoff = policy.backoff_after(attempt);
                        if let Some(deadline) = policy.deadline {
                            backoff = backoff.min(deadline.saturating_sub(start.elapsed()));
                        }
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// Serves a stream of frames through the request queue: a feeder
    /// thread enqueues every frame (index-tagged) while this thread
    /// drains batches and runs them on the worker pool.
    ///
    /// Returns per-frame detections in input order; `None` marks frames
    /// dropped by [`Backpressure::Reject`]. With
    /// [`Backpressure::Block`] every slot is `Some`.
    ///
    /// # Panics
    ///
    /// Re-raises the first failed frame's error (such as
    /// [`Error::WorkerPanic`]) as a panic, after closing the queue so a
    /// feeder parked on a full queue exits instead of waiting forever.
    /// Use [`detect_batch`](DetectionServer::detect_batch) when a
    /// failed frame must not take the caller down.
    pub fn serve(&self, frames: &[GrayImage]) -> Vec<Option<Vec<Detection>>> {
        let queue: RequestQueue<usize> = RequestQueue::new(self.config.queue);
        let mut results: Vec<Option<Vec<Detection>>> = (0..frames.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let feeder = scope.spawn(|| {
                let mut rejected = 0u64;
                for index in 0..frames.len() {
                    match queue.push(index) {
                        Ok(depth) => self.metrics.observe_queue_depth(depth as u64),
                        Err(PushError::Full | PushError::Timeout) => rejected += 1,
                        Err(PushError::Closed) => break,
                    }
                }
                queue.close();
                self.metrics.add_rejected(rejected);
            });
            while let Some(batch) = queue.pop_batch() {
                let assemble_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_ASSEMBLE);
                let imgs: Vec<&GrayImage> = batch.iter().map(|&i| &frames[i]).collect();
                if assemble_span.is_recording() {
                    assemble_span.add(pcnn_trace::Counter::Frames, imgs.len() as u64);
                }
                drop(assemble_span);
                let dets = self.detect_batch(&imgs);
                for (&i, d) in batch.iter().zip(dets) {
                    match d {
                        Ok(d) => results[i] = Some(d),
                        Err(e) => {
                            queue.close();
                            panic!("{e}");
                        }
                    }
                }
            }
            feeder.join().expect("feeder thread panicked");
        });
        results
    }

    /// Opens a video stream: mints a self-contained [`StreamHandle`]
    /// holding the stream's temporal cache and tracker. The server
    /// keeps no registry — dropping the last handle clone releases the
    /// state.
    pub fn open_stream(&self, id: StreamId) -> StreamHandle {
        StreamHandle::new(id)
    }

    /// Processes the next frame of a stream: detections come from the
    /// temporal cell cache (only changed cells re-run the extractor,
    /// only windows touching them re-run the classifier) and feed the
    /// stream's tracker. Frames of one stream must arrive in order.
    ///
    /// Output detections are **bit-identical** to a cold
    /// [`Detector::detect`] run on the same frame.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanic`] if a worker died mid-frame; the stream's
    /// cache is invalidated (the next frame runs cold) and the tracker
    /// is left as of the previous frame.
    pub fn detect_stream(
        &self,
        handle: &StreamHandle,
        img: &GrayImage,
    ) -> Result<StreamFrameResult, Error> {
        let mut state = handle.lock();
        self.detect_stream_state(&mut state, img)
    }

    /// [`detect_stream`](DetectionServer::detect_stream) over directly
    /// owned state — the entry point for owners that manage stream
    /// state themselves (cluster shards hold one [`StreamState`] per
    /// routed stream).
    ///
    /// # Errors
    ///
    /// As [`detect_stream`](DetectionServer::detect_stream).
    pub fn detect_stream_state(
        &self,
        state: &mut StreamState,
        img: &GrayImage,
    ) -> Result<StreamFrameResult, Error> {
        let (level, detector) = self.select_level(1);
        let mut results = self.batch(1, || {
            let cache = std::slice::from_mut(&mut state.cache);
            let result = self.run(detector, Some(level as u64), &[img], cache);
            let result = result.into_iter().next().expect("one frame in, one result out");
            vec![result.map(|(detections, stats)| {
                let track_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_TRACK);
                let tracks = state.tracker.update(&detections);
                let active = tracks.len() as u64;
                if track_span.is_recording() {
                    track_span.add(pcnn_trace::Counter::TracksActive, active);
                }
                drop(track_span);
                self.metrics.add_cells_reused(stats.cells_reused);
                self.metrics.add_cells_recomputed(stats.cells_recomputed);
                self.metrics.add_tracks_active(active);
                StreamFrameResult {
                    detections,
                    tracks,
                    cells_reused: stats.cells_reused,
                    cells_recomputed: stats.cells_recomputed,
                }
            })]
        });
        results.pop().expect("one frame in, one result out")
    }

    /// Snapshots the serving metrics. Pass the simulator counters when
    /// the detector runs on the TrueNorth substrate (e.g. from
    /// `NApproxHogCorelet::stats`) to thread them into the report. The
    /// report carries per-level batch counts and degradation totals when
    /// the server has a fallback chain.
    pub fn report(&self, system: Option<SystemStats>) -> RuntimeReport {
        let mut report = self.metrics.report(self.config.workers, system);
        report.levels = self
            .chain
            .labels()
            .into_iter()
            .zip(self.metrics.level_counts())
            .map(|(label, batches)| LevelReport { label, batches })
            .collect();
        report.trace = pcnn_trace::profile_snapshot().map(crate::metrics::TraceSummary::from);
        report
    }
}
