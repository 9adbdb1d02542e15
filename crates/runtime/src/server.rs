//! The detection server: the paper's staged pipeline with metrics.
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
//!    the stale windows through [`Detector::score_windows`]: the SVM
//!    from the chunk's blocks, each normalized once, up to 32 adjacent
//!    windows per pass; the Eedn network 64 assembled descriptors per
//!    inference pass;
//! 5. **nms** — one work item per frame, rebuilding the raw detections
//!    from the cached window scores in serial scan order (level, row,
//!    column) and suppressing them, exactly as [`Detector::detect`]
//!    does with freshly computed scores.
//!
//! [`detect_batch`](DetectionServer::detect_batch) passes fresh caches
//! and drops them, so it skips the probe and the hashing and computes
//! every cell and window once; [`detect_stream`](DetectionServer::detect_stream)
//! passes the stream's own cache and then updates its tracker. Either
//! way the window code is [`Detector`]'s, and the output is
//! bit-identical to [`Detector::detect`]'s serial per-window scan for
//! any worker count.
//!
//! The server has no queue and no retry loop of its own: queueing,
//! shedding, retries, deadlines and stall detection live in the cluster
//! tier's supervised serve loop, which runs every frame through these
//! entry points.

use crate::cache::{frame_hash, CacheStats, CellCache, LevelCache};
use crate::chaos::PanicInjector;
use crate::degrade::FallbackChain;
use crate::metrics::{LevelReport, Metrics, RuntimeReport};
use crate::scheduler::{plan_chunks, try_parallel_map, Chunk, WorkerPanic};
use crate::stream::{StreamFrameResult, StreamHandle, StreamState};
use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Error, StreamId};
use pcnn_trace::Counter;
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
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { workers: 4, chunk_rows: 4 }
    }
}

impl RuntimeConfig {
    /// A validating builder:
    /// `RuntimeConfig::builder().workers(8).chunk_rows(2).build()?`.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder::default()
    }

    /// Validates every field, mirroring what [`DetectionServer::new`]
    /// enforces.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), Error> {
        let bad = |what: &str, reason: &str| {
            Err(Error::InvalidConfig { what: what.to_owned(), reason: reason.to_owned() })
        };
        if self.workers == 0 {
            return bad("workers", "worker count must be positive");
        }
        if self.chunk_rows == 0 {
            return bad("chunk_rows", "chunk_rows must be positive");
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

/// A parallel serving front-end over a trained detector — or over a
/// [`FallbackChain`] of them, degrading per batch when the preferred
/// level fails its health probe.
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
    /// [`Error::InvalidConfig`] if `workers` or `chunk_rows` is zero.
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
        // tracing for the whole process (surfaced via the cluster
        // report's trace summary and `pcnn_trace::profile_snapshot`).
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
        self.metrics.add(Counter::HealthFailures, failures);
        self.metrics.add_level_batch(index);
        if index > 0 {
            self.metrics.add(Counter::DegradedBatches, 1);
            self.metrics.add(Counter::DegradedFrames, frames);
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
        self.batch(|| {
            let mut caches = vec![CellCache::new(); frames.len()];
            self.run(detector, None, frames, &mut caches)
                .into_iter()
                .map(|r| r.map(|(detections, _)| detections))
                .collect()
        })
    }

    /// Runs `body` as one batch inside a `runtime.batch` span, counting
    /// the frames it served and the batch latency.
    fn batch<T>(&self, body: impl FnOnce() -> Vec<Result<T, Error>>) -> Vec<Result<T, Error>> {
        let span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_BATCH);
        let start = Instant::now();
        let results = body();
        let served = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.metrics.add_traced(&span, Counter::Frames, served);
        self.metrics.add_batch(start.elapsed());
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
            self.metrics.add(Counter::PanicsCaught, 1);
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
        drop(stage_span);

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CELLS);
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
        if reuse {
            let reused = stats.iter().map(|s| s.cells_reused).sum();
            let recomputed = stats.iter().map(|s| s.cells_recomputed).sum();
            self.metrics.add_traced(&stage_span, Counter::CellsReused, reused);
            self.metrics.add_traced(&stage_span, Counter::CellsRecomputed, recomputed);
        }
        drop(stage_span);

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CLASSIFY);
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
            let lc: &LevelCache = levels[g];
            let cell = |cx: usize, cy: usize| lc.histograms[cy * lc.cells_x + cx].as_slice();
            let mut scores = vec![0.0; windows.len()];
            Detector::score_windows(detector, dims[g].1, cell, windows, &mut scores);
            scores
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
        self.metrics.add_traced(&stage_span, Counter::Windows, windows_scored);
        drop(stage_span);

        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_NMS);
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
        let mut results = self.batch(|| {
            let cache = std::slice::from_mut(&mut state.cache);
            let result = self.run(detector, Some(level as u64), &[img], cache);
            let result = result.into_iter().next().expect("one frame in, one result out");
            vec![result.map(|(detections, stats)| {
                let track_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_TRACK);
                let tracks = state.tracker.update(&detections);
                self.metrics.add_traced(&track_span, Counter::TracksActive, tracks.len() as u64);
                drop(track_span);
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

    /// Snapshots the serving metrics, with per-level batch counts when
    /// the server has a fallback chain. Simulator ticks are not counted
    /// here: the `truenorth.tick` spans and
    /// [`pcnn_core::Extractor::hardware_stats`] carry them.
    pub fn report(&self) -> RuntimeReport {
        let mut report = self.metrics.report(self.config.workers);
        report.levels = self
            .chain
            .labels()
            .into_iter()
            .zip(self.metrics.level_counts())
            .map(|(label, batches)| LevelReport { label, batches })
            .collect();
        report
    }
}
