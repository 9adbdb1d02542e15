//! One replica of the serving tier: an owned, swappable model behind a
//! drain-aware install protocol.
//!
//! A [`Shard`] owns its [`TrainedDetector`] (rebuilt from a
//! [`DetectorSnapshot`](pcnn_core::DetectorSnapshot) at warm start) and
//! serves batches through a per-batch [`DetectionServer`] so the model
//! reference never outlives the batch. The blue/green swap protocol:
//!
//! 1. every batch registers itself against the model *generation* it
//!    serves with before touching a frame;
//! 2. [`install`](Shard::install) publishes the new model first, then
//!    blocks until every batch registered under an **older** generation
//!    has finished — batches that start after publication use the new
//!    model immediately and never delay the drain;
//! 3. queued frames are untouched throughout, so a swap drops nothing:
//!    each frame is served by exactly one model generation.
//!
//! Health probing survives the swap because the canary reference is
//! captured once at install time ([`canary_reference`]) and carried on
//! the model, not re-baselined per batch — a fault that develops after
//! install still trips the probe and degrades the shard to its
//! fallback floor.

use pcnn_core::pipeline::{Detector, DetectorConfig, TrainedDetector};
use pcnn_core::{Error, StreamId};
use pcnn_runtime::{
    canary_reference, DetectionServer, FallbackChain, Metrics, RuntimeConfig, RuntimeReport,
    ServiceLevel, StreamFrameResult, StreamSnapshot, StreamState,
};
use pcnn_vision::{Detection, GrayImage};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// An installed model: the detector plus the healthy canary histograms
/// captured at install time and the generation that installed it.
#[derive(Debug)]
pub struct ShardModel {
    detector: TrainedDetector,
    canaries: Vec<Vec<f32>>,
    generation: u64,
}

impl ShardModel {
    /// Wraps `detector` as generation `generation`, capturing its
    /// healthy canary reference now.
    pub fn new(detector: TrainedDetector, generation: u64) -> Self {
        let canaries = canary_reference(&detector);
        ShardModel { detector, canaries, generation }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &TrainedDetector {
        &self.detector
    }

    /// The install generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The service level this model serves as, probing against the
    /// install-time canary reference.
    fn level(&self) -> ServiceLevel<'_> {
        let label = self.detector.extractor.kind().label();
        ServiceLevel::with_reference(label, &self.detector, self.canaries.clone())
    }
}

/// Mutable shard state: the live model and, per model generation, how
/// many batches are currently in flight under it.
#[derive(Debug)]
struct ShardState {
    model: Arc<ShardModel>,
    in_flight: BTreeMap<u64, usize>,
}

/// Per-stream temporal state owned by the shard, bounded by an LRU cap
/// so an unbounded stream-id space cannot grow shard memory without
/// limit.
#[derive(Debug)]
struct StreamStore {
    states: BTreeMap<u64, (u64, StreamState)>,
    tick: u64,
    capacity: usize,
}

impl StreamStore {
    fn new(capacity: usize) -> Self {
        StreamStore { states: BTreeMap::new(), tick: 0, capacity }
    }

    /// Removes the stream's state (creating fresh state for an unseen —
    /// or evicted — stream). The caller runs the frame outside the
    /// store lock and puts the state back with [`put`](StreamStore::put).
    fn take(&mut self, stream: StreamId) -> StreamState {
        match self.states.remove(&stream.raw()) {
            Some((_, state)) => state,
            None => StreamState::new(stream),
        }
    }

    /// Returns a stream's state after a frame, evicting the least
    /// recently used stream when over capacity. Eviction costs only
    /// warmth: an evicted stream's next frame runs cold and re-tracks.
    fn put(&mut self, stream: StreamId, state: StreamState) {
        self.tick += 1;
        self.states.insert(stream.raw(), (self.tick, state));
        while self.states.len() > self.capacity {
            let oldest = self
                .states
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(&id, _)| id)
                .expect("non-empty over-capacity store");
            self.states.remove(&oldest);
        }
    }

    /// Drops every stream's cached pixels (trackers keep their
    /// identity) — called when a new model generation installs.
    fn invalidate(&mut self) {
        for (_, state) in self.states.values_mut() {
            state.invalidate();
        }
    }

    /// Removes one stream's state as a migratable snapshot (tracker
    /// only — cache warmth is not portable), or `None` when the shard
    /// holds no state for it.
    fn take_snapshot(&mut self, stream: StreamId) -> Option<StreamSnapshot> {
        self.states.remove(&stream.raw()).map(|(_, state)| state.snapshot())
    }

    /// Removes every stream's state as migratable snapshots, in
    /// ascending stream-id order (deterministic for a given store
    /// content, whatever order the streams were served in).
    fn drain_snapshots(&mut self) -> Vec<StreamSnapshot> {
        let states = std::mem::take(&mut self.states);
        states.into_values().map(|(_, state)| state.snapshot()).collect()
    }

    /// Installs a migrated stream's state (cold cache, live tracker),
    /// subject to the same LRU cap as served frames.
    fn install(&mut self, snapshot: StreamSnapshot) {
        let stream = snapshot.id;
        self.put(stream, StreamState::from_snapshot(snapshot));
    }
}

/// One serving replica: an owned model, a worker pool configuration and
/// accumulated metrics.
#[derive(Debug)]
pub struct Shard {
    id: u32,
    state: Mutex<ShardState>,
    batch_done: Condvar,
    /// A shared always-works floor, probed after the live model.
    fallback: Option<Arc<ShardModel>>,
    config: RuntimeConfig,
    engine: DetectorConfig,
    report: Mutex<RuntimeReport>,
    swaps: AtomicU64,
    streams: Mutex<StreamStore>,
}

impl Shard {
    /// A shard serving `detector` (as generation 0) under the given
    /// runtime and engine configuration, caching temporal state for up
    /// to `stream_cache_capacity` streams.
    pub fn new(
        id: u32,
        detector: TrainedDetector,
        config: RuntimeConfig,
        engine: DetectorConfig,
        stream_cache_capacity: usize,
    ) -> Self {
        Shard {
            id,
            state: Mutex::new(ShardState {
                model: Arc::new(ShardModel::new(detector, 0)),
                in_flight: BTreeMap::new(),
            }),
            batch_done: Condvar::new(),
            fallback: None,
            config,
            engine,
            report: Mutex::new(Metrics::new().report(config.workers, None)),
            swaps: AtomicU64::new(0),
            streams: Mutex::new(StreamStore::new(stream_cache_capacity.max(1))),
        }
    }

    /// Registers a shared fallback floor, probed when the live model
    /// fails its canary check. Serving-tier construction only — the
    /// floor is fixed for the shard's lifetime.
    pub(crate) fn set_fallback(&mut self, fallback: Arc<ShardModel>) {
        self.fallback = Some(fallback);
    }

    /// The shard's index in the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Locks the model/in-flight state, recovering from poisoning: the
    /// invariants are a model `Arc` and a counter map, both valid after
    /// any panic mid-critical-section.
    fn lock_state(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Locks the report accumulator, recovering from poisoning.
    fn lock_report(&self) -> MutexGuard<'_, RuntimeReport> {
        self.report.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Locks the per-stream store, recovering from poisoning the way
    /// [`RequestQueue`](pcnn_runtime::RequestQueue) does. A panic while
    /// the lock is held (an injected chaos panic, an eviction bug)
    /// leaves a map and a tick counter — both structurally valid — and
    /// the worst a half-applied update can cost is cache warmth, which
    /// the caller's error path invalidates anyway. Poisoning must not
    /// permanently wedge every stream routed to this shard.
    fn lock_streams(&self) -> MutexGuard<'_, StreamStore> {
        self.streams.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The generation of the currently installed model.
    pub fn generation(&self) -> u64 {
        self.lock_state().model.generation
    }

    /// Completed model swaps.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// A snapshot of the shard's accumulated serving report.
    pub fn report(&self) -> RuntimeReport {
        self.lock_report().clone()
    }

    /// Streams with temporal state currently cached on this shard.
    pub fn cached_streams(&self) -> usize {
        self.lock_streams().states.len()
    }

    /// Removes one stream's migratable state (tracker, no cache) for
    /// failover to another shard, or `None` when this shard holds no
    /// state for it. Only call when no frame of the stream is in
    /// flight on this shard — the cluster's supervisor quiesces the
    /// stream first.
    pub fn take_stream_snapshot(&self, stream: StreamId) -> Option<StreamSnapshot> {
        self.lock_streams().take_snapshot(stream)
    }

    /// Removes every stream's migratable state, ascending by stream id
    /// — the bulk form used when this shard dies and its streams
    /// scatter to the survivors.
    pub fn take_stream_snapshots(&self) -> Vec<StreamSnapshot> {
        self.lock_streams().drain_snapshots()
    }

    /// Installs a stream's migrated state on this shard: the tracker
    /// resumes where the source shard left it, the cache starts cold
    /// and rebuilds warmth from the stream's next frame.
    pub fn install_stream_snapshot(&self, snapshot: StreamSnapshot) {
        self.lock_streams().install(snapshot);
    }

    /// Replaces the model after this shard's serve loop died (a panic
    /// escaped a drainer, or the watchdog condemned a stall): publishes
    /// `detector` as the next generation, discards stale in-flight
    /// registrations — the loop that made them is gone and can never
    /// deregister, so draining them like [`install`](Shard::install)
    /// would wait forever — and invalidates this shard's stream caches
    /// (only this shard's: survivors keep their warmth). Returns the
    /// new generation.
    pub fn respawn(&self, detector: TrainedDetector) -> u64 {
        let model = ShardModel::new(detector, 0);
        let mut state = self.lock_state();
        let generation = state.model.generation + 1;
        state.model = Arc::new(ShardModel { generation, ..model });
        state.in_flight.clear();
        drop(state);
        self.batch_done.notify_all();
        self.lock_streams().invalidate();
        generation
    }

    /// Installs `detector` as the next model generation and drains the
    /// previous one: publishes the new model immediately (so queued
    /// frames keep flowing), then blocks until every batch that started
    /// under an older generation has completed. Returns the new
    /// generation.
    ///
    /// Batches that begin *after* publication serve with the new model
    /// and never delay the drain, so install latency is bounded by the
    /// in-flight batches at the moment of publication — not by offered
    /// load.
    pub fn install(&self, detector: TrainedDetector) -> u64 {
        let span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_SWAP);
        let model = ShardModel::new(detector, 0);
        let mut state = self.lock_state();
        let generation = state.model.generation + 1;
        state.model = Arc::new(ShardModel { generation, ..model });
        while state.in_flight.range(..generation).next().is_some() {
            state = self.batch_done.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        drop(state);
        // Cached cell histograms and window scores were produced by the
        // old generation; they must never be served by the new one.
        // Trackers keep their identity — a swap changes the model, not
        // the scene.
        self.lock_streams().invalidate();
        self.swaps.fetch_add(1, Ordering::Relaxed);
        drop(span);
        generation
    }

    /// Serves one batch with the currently installed model, returning
    /// per-frame results in input order (worker panics isolated per
    /// frame, as in [`DetectionServer::detect_batch`]).
    pub fn run_batch(&self, frames: &[&GrayImage]) -> Vec<Result<Vec<Detection>, Error>> {
        if frames.is_empty() {
            return Vec::new();
        }
        let span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_SHARD_BATCH);
        if span.is_recording() {
            span.add(pcnn_trace::Counter::Frames, frames.len() as u64);
        }
        self.serve_current(|server| server.detect_batch(frames))
    }

    /// Serves one frame of a video stream with the currently installed
    /// model, using (and updating) the stream's temporal cache and
    /// tracker owned by this shard. Frames of one stream must arrive in
    /// order — the cluster's per-shard drainer guarantees that.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanic`] when a pipeline stage panicked; the
    /// stream's cache is invalidated so the next frame runs cold.
    pub fn run_stream_frame(
        &self,
        stream: StreamId,
        frame: &GrayImage,
    ) -> Result<StreamFrameResult, Error> {
        let span = pcnn_trace::span(pcnn_trace::stages::CLUSTER_SHARD_BATCH);
        if span.is_recording() {
            span.add(pcnn_trace::Counter::Frames, 1);
        }
        self.serve_current(|server| {
            // The stream's state leaves the store while its frame runs,
            // so a long frame never blocks other streams on the lock.
            let mut state = self.lock_streams().take(stream);
            let result = server.detect_stream_state(&mut state, frame);
            self.lock_streams().put(stream, state);
            result
        })
    }

    /// Runs `serve` on a transient [`DetectionServer`] over the
    /// installed model (and the fallback floor, when configured) while
    /// the call is registered in flight under the model's generation,
    /// then merges the server's report into the shard accumulator.
    fn serve_current<T>(&self, serve: impl FnOnce(&DetectionServer<'_>) -> T) -> T {
        let in_flight = InFlight::register(self);
        let model = &in_flight.model;
        let mut chain = FallbackChain::new().push_level(model.level());
        if let Some(fallback) = &self.fallback {
            chain = chain.push_level(fallback.level());
        }
        let server = DetectionServer::with_chain(Detector::new(self.engine), chain, self.config)
            .expect("shard config validated at cluster build");
        let out = serve(&server);
        let call_report = server.report(None);
        let mut report = self.lock_report();
        // merge() sums `workers` (an aggregate over shards reports total
        // threads); within one shard the pool size is constant.
        *report = RuntimeReport { workers: self.config.workers, ..report.merge(&call_report) };
        out
    }
}

/// A call registered in flight under the model generation it serves, so
/// [`Shard::install`] drains it before returning. Dropping the guard —
/// also while unwinding — releases the registration, tolerating a
/// [`Shard::respawn`] that already cleared it.
struct InFlight<'s> {
    shard: &'s Shard,
    model: Arc<ShardModel>,
}

impl<'s> InFlight<'s> {
    fn register(shard: &'s Shard) -> Self {
        let mut state = shard.lock_state();
        let model = Arc::clone(&state.model);
        *state.in_flight.entry(model.generation).or_insert(0) += 1;
        InFlight { shard, model }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut state = self.shard.lock_state();
        let generation = self.model.generation;
        if let Some(count) = state.in_flight.get_mut(&generation) {
            *count -= 1;
            if *count == 0 {
                state.in_flight.remove(&generation);
                self.shard.batch_done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_core::{Extractor, WindowClassifier};
    use pcnn_hog::BlockNorm;
    use pcnn_svm::{train, FeatureScaler, TrainConfig};
    use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};

    fn small_detector() -> TrainedDetector {
        let ds = SynthDataset::new(SynthConfig::default());
        let extractor = Extractor::napprox_fp(BlockNorm::L2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
            ys.push(true);
            xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
            ys.push(false);
        }
        let scaler = FeatureScaler::fit(&xs);
        let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
        TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
    }

    fn small_shard() -> Shard {
        Shard::new(0, small_detector(), RuntimeConfig::default(), DetectorConfig::default(), 8)
    }

    /// Regression for the poisoned stream-store lock: a panic while
    /// holding the store mutex (here: forced from another thread) used
    /// to wedge every later `run_stream_frame` on this shard with
    /// "shard stream lock" panics. The store must recover like the
    /// request queue does.
    #[test]
    fn stream_store_survives_a_poisoned_lock() {
        let shard = std::sync::Arc::new(small_shard());
        let stream = StreamId::new(3);
        let video = VideoStream::new(TemporalConfig::sparse_scene(1));
        let first = video.render(0).image;
        shard.run_stream_frame(stream, &first).expect("clean first frame");
        assert_eq!(shard.cached_streams(), 1);

        // Poison the store mutex: panic while holding it.
        let poisoner = std::sync::Arc::clone(&shard);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.streams.lock().unwrap();
            panic!("poison the stream store");
        });
        assert!(handle.join().is_err());
        assert!(shard.streams.lock().is_err(), "store mutex must actually be poisoned");

        // Every store entry point recovers instead of propagating.
        let second = video.render(1).image;
        let warm = shard.run_stream_frame(stream, &second).expect("poisoned store must recover");
        assert!(warm.cells_reused > 0, "state survived the poisoning, frame 2 runs warm");
        let snap = shard.take_stream_snapshot(stream).expect("state still present");
        shard.install_stream_snapshot(snap);
        assert_eq!(shard.cached_streams(), 1);
        assert_eq!(shard.take_stream_snapshots().len(), 1);
        assert_eq!(shard.cached_streams(), 0);
    }

    /// Respawn publishes a fresh generation, clears stale in-flight
    /// registrations (the dead loop can never deregister them) and
    /// invalidates only this shard's caches.
    #[test]
    fn respawn_clears_in_flight_and_bumps_generation() {
        let shard = small_shard();
        // Simulate a drainer that died between registering and
        // deregistering a batch under generation 0.
        shard.lock_state().in_flight.insert(0, 1);
        let generation = shard.respawn(small_detector());
        assert_eq!(generation, 1);
        assert_eq!(shard.generation(), 1);
        assert!(shard.lock_state().in_flight.is_empty(), "stale registrations discarded");
        // install() after a respawn must not hang on the stale count.
        let generation = shard.install(small_detector());
        assert_eq!(generation, 2);
    }

    /// A call whose registration a respawn clears mid-call still
    /// completes — releasing an already-cleared registration is a no-op
    /// — and leaves nothing behind for a later install to wait on.
    #[test]
    fn respawn_during_a_registered_call_lets_the_call_finish() {
        let shard = small_shard();
        let frame = GrayImage::new(64, 128);
        let results = shard.serve_current(|server| {
            assert_eq!(shard.lock_state().in_flight.get(&0), Some(&1), "call registered");
            assert_eq!(shard.respawn(small_detector()), 1);
            server.detect_batch(&[&frame])
        });
        assert!(results[0].is_ok(), "{results:?}");
        assert!(shard.lock_state().in_flight.is_empty(), "nothing left registered");
        assert_eq!(shard.install(small_detector()), 2, "install does not wait on the old call");
        assert_eq!(shard.report().frames_served, 1, "the call's report still merged");
    }
}
