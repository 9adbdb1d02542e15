//! Serving metrics: atomic counters and one mergeable latency
//! [`Histogram`], snapshotted into a serializable [`RuntimeReport`].
//!
//! Stage wall time is not counted here: the `runtime.*` trace spans
//! (`pcnn_trace::stages`) are its only record.

use pcnn_truenorth::SystemStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Sub-buckets per power of two is `2^SUB_BITS`: every bucket is at
/// most 1/64 of its lower edge wide, and values below 128 get a bucket
/// each.
const SUB_BITS: u32 = 6;

/// The bucket holding `u64::MAX`, the last one.
const LAST_BUCKET: u32 = bucket_of(u64::MAX);

/// A log-linear (HDR-style) histogram over `u64` samples, the one
/// latency histogram of the serving tier: 64 sub-buckets per power of
/// two, each at most 1/64 (1.6%) of its lower edge wide across all of
/// `u64`, so no sample overflows. Two histograms merge exactly, bucket
/// by bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// `(bucket, count)` for every non-empty bucket, ascending.
    buckets: Vec<(u32, u64)>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.add(bucket_of(value), 1);
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|&(_, count)| count).sum()
    }

    /// The histogram of both sample sets: bucket counts add.
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let mut merged = self.clone();
        for &(bucket, count) in &other.buckets {
            merged.add(bucket, count);
        }
        merged
    }

    /// The nearest-rank `q`-quantile: the largest value of the bucket
    /// holding rank `ceil(q * total)`. It is never below the exact
    /// sample at that rank and at most 1/64 above it. `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1).min(total);
        let mut seen = 0;
        self.buckets.iter().find_map(|&(bucket, count)| {
            seen += count;
            (seen >= rank).then(|| bucket_max(bucket))
        })
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    fn add(&mut self, bucket: u32, count: u64) {
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += count,
            Err(i) => self.buckets.insert(i, (bucket, count)),
        }
    }
}

/// The bucket holding `value`. Values below `2^(SUB_BITS + 1)` are
/// their own bucket; above, each power of two splits into `2^SUB_BITS`
/// buckets `2^shift` wide.
const fn bucket_of(value: u64) -> u32 {
    let shift = (u64::BITS - value.leading_zeros()).saturating_sub(SUB_BITS + 1);
    ((shift as u64) << SUB_BITS) as u32 + (value >> shift) as u32
}

/// The largest value that lands in `bucket`; a bucket past the last
/// (only a malformed document holds one) reads as the last.
fn bucket_max(bucket: u32) -> u64 {
    let bucket = u64::from(bucket.min(LAST_BUCKET));
    let shift = (bucket >> SUB_BITS).saturating_sub(1);
    ((bucket - (shift << SUB_BITS)) << shift) + ((1 << shift) - 1)
}

/// Live counters for one serving runtime, fed through a shared
/// `&Metrics` from every worker thread: counters are atomics, and the
/// latency histogram sits behind a mutex taken once per batch.
#[derive(Debug)]
pub struct Metrics {
    frames_served: AtomicU64,
    windows_scored: AtomicU64,
    batches: AtomicU64,
    batch_latency_us: Mutex<Histogram>,
    degraded_batches: AtomicU64,
    degraded_frames: AtomicU64,
    health_failures: AtomicU64,
    level_batches: Vec<AtomicU64>,
    panics_caught: AtomicU64,
    cells_reused: AtomicU64,
    cells_recomputed: AtomicU64,
    tracks_active: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics with no service-level counters.
    pub fn new() -> Self {
        Self::with_levels(0)
    }

    /// Fresh metrics tracking `levels` fallback-chain service levels.
    pub fn with_levels(levels: usize) -> Self {
        Metrics {
            frames_served: AtomicU64::new(0),
            windows_scored: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_latency_us: Mutex::default(),
            degraded_batches: AtomicU64::new(0),
            degraded_frames: AtomicU64::new(0),
            health_failures: AtomicU64::new(0),
            level_batches: (0..levels).map(|_| AtomicU64::new(0)).collect(),
            panics_caught: AtomicU64::new(0),
            cells_reused: AtomicU64::new(0),
            cells_recomputed: AtomicU64::new(0),
            tracks_active: AtomicU64::new(0),
        }
    }

    /// Counts `n` frames served.
    pub fn add_frames(&self, n: u64) {
        self.frames_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` windows scored.
    pub fn add_windows(&self, n: u64) {
        self.windows_scored.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one completed batch and its wall time.
    pub fn add_batch(&self, latency: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.latency().record(latency.as_micros() as u64);
    }

    /// The batch-latency histogram. A panic cannot leave it half
    /// updated, so a poisoned lock is recovered.
    fn latency(&self) -> std::sync::MutexGuard<'_, Histogram> {
        self.batch_latency_us.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one batch served below the primary service level, covering
    /// `frames` frames.
    pub fn add_degraded_batch(&self, frames: u64) {
        self.degraded_batches.fetch_add(1, Ordering::Relaxed);
        self.degraded_frames.fetch_add(frames, Ordering::Relaxed);
    }

    /// Counts `n` failed health probes.
    pub fn add_health_failures(&self, n: u64) {
        self.health_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one batch served at fallback-chain level `index`. Ignored
    /// when the metrics were not sized for that level.
    pub fn add_level_batch(&self, index: usize) {
        if let Some(c) = self.level_batches.get(index) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batches served per fallback-chain level.
    pub fn level_counts(&self) -> Vec<u64> {
        self.level_batches.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Counts `n` worker panics caught and isolated.
    pub fn add_panics(&self, n: u64) {
        self.panics_caught.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` pyramid cells served from a stream's temporal cache.
    pub fn add_cells_reused(&self, n: u64) {
        self.cells_reused.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` pyramid cells recomputed because their pixels changed.
    pub fn add_cells_recomputed(&self, n: u64) {
        self.cells_recomputed.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` live tracks observed after one tracker update (one
    /// observation per tracked frame, so totals are conserved across
    /// worker counts and shard layouts).
    pub fn add_tracks_active(&self, n: u64) {
        self.tracks_active.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshots every counter into a serializable report. `workers` is
    /// echoed into the report; `system` carries simulator counters when
    /// the detector runs on the TrueNorth substrate.
    pub fn report(&self, workers: usize, system: Option<SystemStats>) -> RuntimeReport {
        RuntimeReport {
            workers,
            frames_served: self.frames_served.load(Ordering::Relaxed),
            windows_scored: self.windows_scored.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_latency: self.latency().clone(),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            degraded_frames: self.degraded_frames.load(Ordering::Relaxed),
            health_failures: self.health_failures.load(Ordering::Relaxed),
            levels: Vec::new(),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            cells_reused: self.cells_reused.load(Ordering::Relaxed),
            cells_recomputed: self.cells_recomputed.load(Ordering::Relaxed),
            tracks_active: self.tracks_active.load(Ordering::Relaxed),
            kernel_backend: pcnn_kernels::backend_summary(),
            system,
        }
    }
}

/// Per-service-level serving counters in a [`RuntimeReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelReport {
    /// The level's label, e.g. `"NApprox-HW"`.
    pub label: String,
    /// Batches served at this level.
    pub batches: u64,
}

/// A point-in-time summary of a serving runtime, serializable for
/// dashboards and experiment logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Worker threads the runtime was configured with.
    pub workers: usize,
    /// Frames fully detected (pyramid through NMS).
    pub frames_served: u64,
    /// Sliding windows scored across all frames and pyramid levels.
    pub windows_scored: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batch wall time in microseconds, one sample per batch.
    pub batch_latency: Histogram,
    /// Batches served below the primary fallback-chain level.
    #[serde(default)]
    pub degraded_batches: u64,
    /// Frames served below the primary fallback-chain level.
    #[serde(default)]
    pub degraded_frames: u64,
    /// Health probes that failed (one per skipped level per batch).
    #[serde(default)]
    pub health_failures: u64,
    /// Per-level batch counts, in fallback-chain preference order.
    /// Empty when the server has no fallback chain.
    #[serde(default)]
    pub levels: Vec<LevelReport>,
    /// Worker panics caught and isolated to their frame.
    #[serde(default)]
    pub panics_caught: u64,
    /// Pyramid cells served from stream temporal caches.
    #[serde(default)]
    pub cells_reused: u64,
    /// Pyramid cells recomputed because their pixels changed.
    #[serde(default)]
    pub cells_recomputed: u64,
    /// Live-track observations summed over tracked stream frames.
    #[serde(default)]
    pub tracks_active: u64,
    /// The kernel path and SIMD tier this process serves on, e.g.
    /// `"trinary+avx2"` or `"f32+scalar"`. Snapshotted from
    /// [`pcnn_kernels::backend_summary`] at report time, so the trinary
    /// half reflects whether a multiply-free GEMM has actually run.
    #[serde(default)]
    pub kernel_backend: String,
    /// Neurosynaptic-simulator counters, when the extractor or
    /// classifier runs on the simulated TrueNorth substrate.
    pub system: Option<SystemStats>,
}

impl RuntimeReport {
    /// Combines two reports into one, the primitive a cluster-level
    /// aggregate is built from: counters sum, latency histograms merge
    /// bucket by bucket ([`Histogram::merge`]), per-level batch counts
    /// merge by label, and simulator counters sum field-wise when both
    /// sides carry them. `workers` sums, so an aggregate over shards
    /// reports the total worker threads serving.
    ///
    /// A fresh all-zero report is the identity: `zero.merge(&r)` equals
    /// `r` in every counter.
    pub fn merge(&self, other: &RuntimeReport) -> RuntimeReport {
        let mut levels = self.levels.clone();
        for level in &other.levels {
            match levels.iter_mut().find(|l| l.label == level.label) {
                Some(l) => l.batches += level.batches,
                None => levels.push(level.clone()),
            }
        }
        let system = match (&self.system, &other.system) {
            (Some(a), Some(b)) => Some(SystemStats {
                ticks: a.ticks + b.ticks,
                routed_spikes: a.routed_spikes + b.routed_spikes,
                output_spikes: a.output_spikes + b.output_spikes,
                injected_spikes: a.injected_spikes + b.injected_spikes,
                synaptic_events: a.synaptic_events + b.synaptic_events,
            }),
            (a, b) => (*a).or(*b),
        };
        RuntimeReport {
            workers: self.workers + other.workers,
            frames_served: self.frames_served + other.frames_served,
            windows_scored: self.windows_scored + other.windows_scored,
            batches: self.batches + other.batches,
            batch_latency: self.batch_latency.merge(&other.batch_latency),
            degraded_batches: self.degraded_batches + other.degraded_batches,
            degraded_frames: self.degraded_frames + other.degraded_frames,
            health_failures: self.health_failures + other.health_failures,
            levels,
            panics_caught: self.panics_caught + other.panics_caught,
            cells_reused: self.cells_reused + other.cells_reused,
            cells_recomputed: self.cells_recomputed + other.cells_recomputed,
            tracks_active: self.tracks_active + other.tracks_active,
            kernel_backend: if self.kernel_backend.is_empty() {
                other.kernel_backend.clone()
            } else {
                self.kernel_backend.clone()
            },
            system,
        }
    }
}

impl std::fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "runtime report ({} workers)", self.workers)?;
        writeln!(f, "  frames served {:>8}   batches {:>6}", self.frames_served, self.batches)?;
        writeln!(f, "  windows scored {:>10}", self.windows_scored)?;
        if !self.kernel_backend.is_empty() {
            writeln!(f, "  kernel backend: {}", self.kernel_backend)?;
        }
        let ms = |us: Option<u64>| us.map_or(f64::NAN, |us| us as f64 / 1e3);
        write!(
            f,
            "  batch latency: p50 {:.2}ms  p99 {:.2}ms",
            ms(self.batch_latency.p50()),
            ms(self.batch_latency.p99())
        )?;
        if self.panics_caught > 0 {
            writeln!(f)?;
            write!(f, "  supervision: {} panics caught", self.panics_caught)?;
        }
        if self.cells_reused + self.cells_recomputed > 0 {
            writeln!(f)?;
            let stats = crate::cache::CacheStats {
                cells_reused: self.cells_reused,
                cells_recomputed: self.cells_recomputed,
            };
            write!(
                f,
                "  stream cache: {} cells reused, {} recomputed ({:.1}% hit), {} track observations",
                self.cells_reused,
                self.cells_recomputed,
                stats.hit_rate() * 100.0,
                self.tracks_active
            )?;
        }
        if !self.levels.is_empty() {
            writeln!(f)?;
            write!(
                f,
                "  degradation: {} batches / {} frames below primary, {} probe failures",
                self.degraded_batches, self.degraded_frames, self.health_failures
            )?;
            for level in &self.levels {
                writeln!(f)?;
                write!(f, "    {:<20} {:>6} batches", level.label, level.batches)?;
            }
        }
        if let Some(s) = &self.system {
            writeln!(f)?;
            write!(
                f,
                "  truenorth: ticks {}  routed {}  synaptic events {}",
                s.ticks, s.routed_spikes, s.synaptic_events
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_one_sixty_fourth_above_the_exact_rank() {
        // 5000 samples log-spaced over nine decades (1 to 1e9), each
        // nudged off the grid, plus both ends of the one-bucket-per-value
        // range and u64::MAX.
        let mut samples: Vec<u64> = (0..5000u32)
            .map(|i| {
                let x = 10f64.powf(9.0 * f64::from(i) / 5000.0);
                (x * (1.0 + f64::from(i % 7) / 10.0)) as u64
            })
            .collect();
        samples.extend([0, 127, 128, u64::MAX]);
        let mut h = Histogram::default();
        for &sample in &samples {
            h.record(sample);
        }
        samples.sort_unstable();
        assert_eq!(h.total(), samples.len() as u64);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let estimate = h.quantile(q).expect("a non-empty histogram");
            assert!(
                exact <= estimate && estimate <= exact.saturating_add(exact / 64),
                "q {q}: exact {exact}, estimate {estimate}"
            );
        }
        let empty = Histogram::default();
        assert_eq!((empty.quantile(0.5), empty.p50(), empty.p99()), (None, None, None));
    }

    #[test]
    fn merged_snapshots_equal_one_histogram_of_both_sample_sets() {
        let a = Metrics::new();
        a.add_frames(2);
        a.add_windows(10);
        a.add_batch(Duration::from_micros(50));
        a.add_batch(Duration::from_secs(10));
        let b = Metrics::new();
        b.add_frames(4);
        b.add_batch(Duration::from_micros(50));
        b.add_batch(Duration::from_micros(60));
        b.add_batch(Duration::from_secs(20));
        let (ra, rb) = (a.report(2, None), b.report(3, None));
        let merged = ra.merge(&rb);
        assert_eq!(merged.workers, 5);
        assert_eq!(merged.frames_served, 6);
        assert_eq!(merged.windows_scored, 10);
        assert_eq!(merged.batches, 5);
        let mut both = Histogram::default();
        for us in [50, 10_000_000, 50, 60, 20_000_000] {
            both.record(us);
        }
        assert_eq!(merged.batch_latency, both, "bucket counts add");
        assert_eq!(rb.batch_latency.merge(&ra.batch_latency), both, "in either order");
        assert_eq!(merged.batch_latency.total(), merged.batches);
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let m = Metrics::new();
        m.add_frames(3);
        m.add_windows(1000);
        m.add_batch(Duration::from_millis(12));
        let report = m.report(4, Some(SystemStats { ticks: 7, ..Default::default() }));
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.system.unwrap().ticks, 7);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Metrics::new();
        m.add_frames(1);
        let text = m.report(2, None).to_string();
        assert!(text.contains("frames served"));
    }

    #[test]
    fn degradation_counters_reach_the_report() {
        let m = Metrics::with_levels(3);
        m.add_level_batch(0);
        m.add_level_batch(2);
        m.add_level_batch(9); // out of range: ignored, not a panic
        m.add_degraded_batch(4);
        m.add_health_failures(2);
        let mut report = m.report(1, None);
        assert_eq!(m.level_counts(), vec![1, 0, 1]);
        assert_eq!(report.degraded_batches, 1);
        assert_eq!(report.degraded_frames, 4);
        assert_eq!(report.health_failures, 2);
        report.levels = vec![
            LevelReport { label: "NApprox-HW".into(), batches: 1 },
            LevelReport { label: "Traditional-HoG".into(), batches: 1 },
        ];
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(report.to_string().contains("below primary"));
    }

    #[test]
    fn supervision_counters_reach_the_report() {
        let m = Metrics::new();
        m.add_panics(2);
        let report = m.report(1, None);
        assert_eq!(report.panics_caught, 2);
        let text = report.to_string();
        assert!(text.contains("supervision: 2 panics caught"), "{text}");
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reports_with_the_retired_queue_and_supervision_keys_still_decode() {
        // A report serialized while the runtime still counted queueing,
        // retries, deadlines, stalls and checkpoints, timed stages and
        // copied the trace profile carries nine keys this report no
        // longer has; decoding looks fields up by name, so the extra
        // keys are ignored.
        let m = Metrics::new();
        m.add_frames(1);
        m.add_panics(1);
        let report = m.report(1, None);
        let json = serde_json::to_string(&report).unwrap();
        let retired = "\"frames_rejected\":2,\"max_queue_depth\":3,\"retries\":4,\
                       \"deadline_misses\":5,\"stalls_detected\":6,\
                       \"checkpoints_written\":7,\"checkpoints_restored\":8,\
                       \"stage\":{\"pyramid_ms\":1.5,\"cells_ms\":2.0,\
                       \"classify_ms\":3.0,\"nms_ms\":0.5},\
                       \"trace\":{\"kernel_backend\":\"f32+scalar\",\"stages\":[]},";
        let old = json.replacen('{', &format!("{{{retired}"), 1);
        assert!(old.contains("max_queue_depth") && old.contains("classify_ms"), "{old}");
        let back: RuntimeReport = serde_json::from_str(&old).unwrap();
        assert_eq!(back, report);
        // The fixed-bucket `batch_latency` shape is refused rather than
        // read as an empty histogram.
        let buckets = "\"batch_latency\":{\"buckets\":[]}";
        let fixed = "\"batch_latency\":{\"bounds_us\":[100,1000],\"counts\":[0,0,0]}";
        assert!(json.contains(buckets), "{json}");
        let err = serde_json::from_str::<RuntimeReport>(&json.replacen(buckets, fixed, 1));
        assert!(err.is_err_and(|e| e.to_string().contains("buckets")));
    }

    #[test]
    fn stream_counters_reach_report_merge_and_display() {
        let a = Metrics::new();
        a.add_cells_reused(300);
        a.add_cells_recomputed(100);
        a.add_tracks_active(7);
        let b = Metrics::new();
        b.add_cells_reused(50);
        b.add_tracks_active(3);
        let merged = a.report(1, None).merge(&b.report(1, None));
        assert_eq!(merged.cells_reused, 350);
        assert_eq!(merged.cells_recomputed, 100);
        assert_eq!(merged.tracks_active, 10);
        let text = a.report(1, None).to_string();
        assert!(text.contains("stream cache: 300 cells reused"), "{text}");
        assert!(text.contains("75.0% hit"), "{text}");
        let json = serde_json::to_string(&merged).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn merge_with_empty_report_is_identity() {
        let m = Metrics::with_levels(2);
        m.add_frames(5);
        m.add_windows(700);
        m.add_batch(Duration::from_micros(450));
        m.add_batch(Duration::from_millis(30));
        m.add_level_batch(0);
        m.add_degraded_batch(3);
        let mut report = m.report(4, Some(SystemStats { ticks: 9, ..Default::default() }));
        report.levels = vec![LevelReport { label: "primary".into(), batches: 1 }];
        let zero = Metrics::new().report(0, None);
        let merged = zero.merge(&report);
        assert_eq!(merged, report, "zero.merge(r) must equal r");
        let merged = report.merge(&zero);
        assert_eq!(merged, report, "r.merge(zero) must equal r");
    }

    #[test]
    fn merge_combines_levels_by_label_and_sums_system_stats() {
        let mut a = Metrics::with_levels(2)
            .report(1, Some(SystemStats { ticks: 5, routed_spikes: 7, ..Default::default() }));
        a.levels = vec![
            LevelReport { label: "hw".into(), batches: 3 },
            LevelReport { label: "sw".into(), batches: 1 },
        ];
        let mut b = Metrics::with_levels(2)
            .report(1, Some(SystemStats { ticks: 2, synaptic_events: 11, ..Default::default() }));
        b.levels = vec![
            LevelReport { label: "sw".into(), batches: 4 },
            LevelReport { label: "floor".into(), batches: 2 },
        ];
        let merged = a.merge(&b);
        assert_eq!(
            merged.levels,
            vec![
                LevelReport { label: "hw".into(), batches: 3 },
                LevelReport { label: "sw".into(), batches: 5 },
                LevelReport { label: "floor".into(), batches: 2 },
            ]
        );
        let system = merged.system.unwrap();
        assert_eq!(system.ticks, 7);
        assert_eq!(system.routed_spikes, 7);
        assert_eq!(system.synaptic_events, 11);
    }

    #[test]
    fn kernel_backend_reaches_report_and_display() {
        let report = Metrics::new().report(1, None);
        // "<numeric>+<simd>", e.g. "f32+avx2" or "trinary+scalar".
        let (numeric, simd) = report.kernel_backend.split_once('+').expect("numeric+simd label");
        assert!(numeric == "f32" || numeric == "trinary", "{numeric}");
        assert!(["scalar", "avx2", "neon"].contains(&simd), "{simd}");
        assert!(report.to_string().contains("kernel backend"));
        // Merge keeps a non-empty label over an empty (pre-field) one.
        let mut old = report.clone();
        old.kernel_backend = String::new();
        assert_eq!(report.merge(&old).kernel_backend, report.kernel_backend);
        assert_eq!(old.merge(&report).kernel_backend, report.kernel_backend);
    }
}
