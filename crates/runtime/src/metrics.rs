//! Serving metrics: one atomic per [`Counter`] and one mergeable
//! latency [`Histogram`], snapshotted into a serializable
//! [`RuntimeReport`] whose [`Counters`] table sums in one loop.
//!
//! Counts carry the trace's counter names, so a report's `frames` is
//! what its `runtime.batch` spans count. Stage wall time is not counted
//! here: the `runtime.*` trace spans (`pcnn_trace::stages`) are its only
//! record.

use pcnn_trace::{Counter, SpanGuard};
use serde::{Deserialize, Serialize, Value};
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

/// Live counters for one serving runtime or one cluster edge, fed
/// through a shared `&Metrics` from every worker thread: one atomic per
/// [`Counter`], one per fallback-chain level, and the latency histogram
/// behind a mutex taken once per batch.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; Counter::ALL.len()],
    level_batches: Vec<AtomicU64>,
    batch_latency_us: Mutex<Histogram>,
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
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            level_batches: (0..levels).map(|_| AtomicU64::new(0)).collect(),
            batch_latency_us: Mutex::default(),
        }
    }

    /// Counts `n` more of `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` more of `counter` here and on `span`: the one call for
    /// a stage whose count is both traced and reported.
    pub fn add_traced(&self, span: &SpanGuard, counter: Counter, n: u64) {
        span.add(counter, n);
        self.add(counter, n);
    }

    /// Counts one completed batch and its wall time.
    pub fn add_batch(&self, latency: Duration) {
        self.add(Counter::Batches, 1);
        self.latency().record(latency.as_micros() as u64);
    }

    /// The batch-latency histogram. A panic cannot leave it half
    /// updated, so a poisoned lock is recovered.
    fn latency(&self) -> std::sync::MutexGuard<'_, Histogram> {
        self.batch_latency_us.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Snapshots every counter into a serializable report, labelled with
    /// the kernel path the process serves on now. `workers` is echoed
    /// into the report.
    pub fn report(&self, workers: usize) -> RuntimeReport {
        RuntimeReport {
            workers,
            counters: Counters(std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))),
            batch_latency: self.latency().clone(),
            levels: Vec::new(),
            kernel_backend: pcnn_kernels::backend_summary(),
        }
    }
}

/// One count per [`Counter`], the counter table of a [`RuntimeReport`];
/// index it by counter: `report.counters[Counter::Frames]`.
///
/// It serializes as `[name, value]` pairs under the counters' trace
/// names, zero counts left out. Decoding refuses an unknown or repeated
/// name, and a name left out reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; Counter::ALL.len()]);

impl Counters {
    /// The non-zero counts, in [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> {
        Counter::ALL.into_iter().zip(self.0).filter(|&(_, n)| n > 0)
    }
}

impl std::ops::Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl Serialize for Counters {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|(counter, n)| (counter.name(), n).to_value()).collect())
    }
}

impl Deserialize for Counters {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let mut counters = Counters::default();
        let mut seen = [false; Counter::ALL.len()];
        for (name, n) in Vec::<(String, u64)>::from_value(value)? {
            let Some(counter) = Counter::from_name(&name) else {
                return Err(serde::Error::msg(format!("unknown counter `{name}` in counters")));
            };
            if std::mem::replace(&mut seen[counter as usize], true) {
                return Err(serde::Error::msg(format!("counter `{name}` repeated in counters")));
            }
            counters.0[counter as usize] = n;
        }
        Ok(counters)
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
    /// Every count, by [`Counter`]: `frames` served (pyramid through
    /// NMS), `windows` scored, `batches` executed, the stream cache's
    /// `cells_reused`/`cells_recomputed` and `tracks_active`, the
    /// fallback chain's `degraded_batches`, `degraded_frames` and
    /// `health_failures`, and `panics_caught`. A cluster's aggregate
    /// adds its edge counts: `frames_routed`, `frames_shed`, `swaps`,
    /// `failovers`, `respawns`, `retries`, `deadlines_exceeded` and
    /// `stalls`.
    pub counters: Counters,
    /// Batch wall time in microseconds, one sample per batch.
    pub batch_latency: Histogram,
    /// Per-level batch counts, in fallback-chain preference order.
    /// Empty when the server has no fallback chain.
    #[serde(default)]
    pub levels: Vec<LevelReport>,
    /// The kernel path and SIMD tier this process serves on, e.g.
    /// `"trinary+avx2"` or `"f32+scalar"`. Read from
    /// [`pcnn_kernels::backend_summary`] when the report is taken, so
    /// the trinary half reflects whether a multiply-free GEMM has
    /// actually run by then.
    #[serde(default)]
    pub kernel_backend: String,
}

impl RuntimeReport {
    /// Combines two reports into one, the primitive a cluster-level
    /// aggregate is built from: counters sum, latency histograms merge
    /// bucket by bucket ([`Histogram::merge`]) and per-level batch
    /// counts merge by label. `workers` sums, so an aggregate over
    /// shards reports the total worker threads serving.
    ///
    /// `kernel_backend` is `self`'s, never combined: a label is read
    /// when a report is taken, so merging into a fresh report labels the
    /// result with the kernel path serving now. A fresh all-zero report
    /// is otherwise the identity: `zero.merge(&r)` equals `r` in every
    /// counter.
    pub fn merge(&self, other: &RuntimeReport) -> RuntimeReport {
        let mut counters = self.counters;
        for (sum, n) in counters.0.iter_mut().zip(other.counters.0) {
            *sum += n;
        }
        let mut levels = self.levels.clone();
        for level in &other.levels {
            match levels.iter_mut().find(|l| l.label == level.label) {
                Some(l) => l.batches += level.batches,
                None => levels.push(level.clone()),
            }
        }
        RuntimeReport {
            workers: self.workers + other.workers,
            counters,
            batch_latency: self.batch_latency.merge(&other.batch_latency),
            levels,
            kernel_backend: self.kernel_backend.clone(),
        }
    }
}

impl std::fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime report ({} workers)", self.workers)?;
        if !self.kernel_backend.is_empty() {
            write!(f, "\n  kernel backend: {}", self.kernel_backend)?;
        }
        let latency = &self.batch_latency;
        if let (Some(p50), Some(p99)) = (latency.p50(), latency.p99()) {
            let (p50, p99) = (p50 as f64 / 1e3, p99 as f64 / 1e3);
            write!(f, "\n  batch latency: p50 {p50:.2}ms  p99 {p99:.2}ms")?;
        }
        for (counter, n) in self.counters.iter() {
            write!(f, "\n  {:<20} {n:>10}", counter.name())?;
        }
        for level in &self.levels {
            write!(f, "\n  level {:<20} {:>6} batches", level.label, level.batches)?;
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
        a.add(Counter::Frames, 2);
        a.add(Counter::Windows, 10);
        a.add_batch(Duration::from_micros(50));
        a.add_batch(Duration::from_secs(10));
        let b = Metrics::new();
        b.add(Counter::Frames, 4);
        b.add_batch(Duration::from_micros(50));
        b.add_batch(Duration::from_micros(60));
        b.add_batch(Duration::from_secs(20));
        let (ra, rb) = (a.report(2), b.report(3));
        let merged = ra.merge(&rb);
        assert_eq!(merged.workers, 5);
        assert_eq!(merged.counters[Counter::Frames], 6);
        assert_eq!(merged.counters[Counter::Windows], 10);
        assert_eq!(merged.counters[Counter::Batches], 5);
        let mut both = Histogram::default();
        for us in [50, 10_000_000, 50, 60, 20_000_000] {
            both.record(us);
        }
        assert_eq!(merged.batch_latency, both, "bucket counts add");
        assert_eq!(rb.batch_latency.merge(&ra.batch_latency), both, "in either order");
        assert_eq!(merged.batch_latency.total(), merged.counters[Counter::Batches]);
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let m = Metrics::new();
        m.add(Counter::Frames, 3);
        m.add(Counter::Windows, 1000);
        m.add_batch(Duration::from_millis(12));
        let report = m.report(4);
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    /// Whether `text` has a table line naming `counter` with value `n`.
    fn shows(text: &str, counter: Counter, n: u64) -> bool {
        let line = [counter.name().to_owned(), n.to_string()];
        text.lines().any(|l| l.split_whitespace().eq(line.iter().map(String::as_str)))
    }

    #[test]
    fn display_is_nonempty() {
        let m = Metrics::new();
        m.add(Counter::Frames, 1);
        let text = m.report(2).to_string();
        assert!(shows(&text, Counter::Frames, 1), "{text}");
    }

    #[test]
    fn degradation_counters_reach_the_report() {
        let m = Metrics::with_levels(3);
        m.add_level_batch(0);
        m.add_level_batch(2);
        m.add_level_batch(9); // out of range: ignored, not a panic
        m.add(Counter::DegradedBatches, 1);
        m.add(Counter::DegradedFrames, 4);
        m.add(Counter::HealthFailures, 2);
        let mut report = m.report(1);
        assert_eq!(m.level_counts(), vec![1, 0, 1]);
        assert_eq!(report.counters[Counter::DegradedBatches], 1);
        assert_eq!(report.counters[Counter::DegradedFrames], 4);
        assert_eq!(report.counters[Counter::HealthFailures], 2);
        report.levels = vec![
            LevelReport { label: "NApprox-HW".into(), batches: 1 },
            LevelReport { label: "Traditional-HoG".into(), batches: 1 },
        ];
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let text = report.to_string();
        assert!(shows(&text, Counter::DegradedBatches, 1), "{text}");
        assert!(shows(&text, Counter::DegradedFrames, 4), "{text}");
        assert!(shows(&text, Counter::HealthFailures, 2), "{text}");
    }

    #[test]
    fn supervision_counters_reach_the_report() {
        let m = Metrics::new();
        m.add(Counter::PanicsCaught, 2);
        let report = m.report(1);
        assert_eq!(report.counters[Counter::PanicsCaught], 2);
        let text = report.to_string();
        assert!(shows(&text, Counter::PanicsCaught, 2), "{text}");
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reports_with_counters_as_fields_are_refused() {
        let m = Metrics::new();
        m.add(Counter::Frames, 1);
        m.add(Counter::PanicsCaught, 1);
        let json = serde_json::to_string(&m.report(1)).unwrap();
        let table = "\"counters\":[[\"frames\",1],[\"panics_caught\",1]]";
        assert!(json.contains(table), "{json}");
        // The per-field shape written before the counter table.
        let fields = "\"frames_served\":1,\"windows_scored\":0,\"batches\":0,\
                      \"panics_caught\":1,\"system\":null";
        let err = serde_json::from_str::<RuntimeReport>(&json.replacen(table, fields, 1));
        assert!(err.is_err_and(|e| e.to_string().contains("`counters`")));
        // The fixed-bucket `batch_latency` shape is refused rather than
        // read as an empty histogram.
        let buckets = "\"batch_latency\":{\"buckets\":[]}";
        let fixed = "\"batch_latency\":{\"bounds_us\":[100,1000],\"counts\":[0,0,0]}";
        assert!(json.contains(buckets), "{json}");
        let err = serde_json::from_str::<RuntimeReport>(&json.replacen(buckets, fixed, 1));
        assert!(err.is_err_and(|e| e.to_string().contains("buckets")));
    }

    #[test]
    fn counter_tables_refuse_unknown_and_repeated_names() {
        let decode = |table: &str| serde_json::from_str::<Counters>(table);
        let table = decode("[[\"frames\",3],[\"retries\",2]]").unwrap();
        assert_eq!((table[Counter::Frames], table[Counter::Retries]), (3, 2));
        assert_eq!(table[Counter::Windows], 0, "a name left out reads 0");
        assert_eq!(decode("[]").unwrap(), Counters::default());
        let unknown = decode("[[\"frames_served\",3]]").unwrap_err().to_string();
        assert!(unknown.contains("unknown counter `frames_served`"), "{unknown}");
        let repeated = decode("[[\"frames\",3],[\"frames\",0]]").unwrap_err().to_string();
        assert!(repeated.contains("counter `frames` repeated"), "{repeated}");
        assert!(decode("{\"frames\":3}").is_err(), "a map is not a table");
    }

    #[test]
    fn stream_counters_reach_report_merge_and_display() {
        let a = Metrics::new();
        a.add(Counter::CellsReused, 300);
        a.add(Counter::CellsRecomputed, 100);
        a.add(Counter::TracksActive, 7);
        let b = Metrics::new();
        b.add(Counter::CellsReused, 50);
        b.add(Counter::TracksActive, 3);
        let merged = a.report(1).merge(&b.report(1));
        assert_eq!(merged.counters[Counter::CellsReused], 350);
        assert_eq!(merged.counters[Counter::CellsRecomputed], 100);
        assert_eq!(merged.counters[Counter::TracksActive], 10);
        let text = merged.to_string();
        assert!(shows(&text, Counter::CellsReused, 350), "{text}");
        assert!(shows(&text, Counter::CellsRecomputed, 100), "{text}");
        assert!(shows(&text, Counter::TracksActive, 10), "{text}");
        let json = serde_json::to_string(&merged).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn merge_with_empty_report_is_identity() {
        let m = Metrics::with_levels(2);
        m.add(Counter::Frames, 5);
        m.add(Counter::Windows, 700);
        m.add_batch(Duration::from_micros(450));
        m.add_batch(Duration::from_millis(30));
        m.add_level_batch(0);
        m.add(Counter::DegradedBatches, 1);
        m.add(Counter::DegradedFrames, 3);
        let mut report = m.report(4);
        report.levels = vec![LevelReport { label: "primary".into(), batches: 1 }];
        let zero = Metrics::new().report(0);
        let merged = zero.merge(&report);
        assert_eq!(merged, report, "zero.merge(r) must equal r");
        let merged = report.merge(&zero);
        assert_eq!(merged, report, "r.merge(zero) must equal r");
    }

    #[test]
    fn merge_combines_levels_by_label() {
        let mut a = Metrics::with_levels(2).report(1);
        a.levels = vec![
            LevelReport { label: "hw".into(), batches: 3 },
            LevelReport { label: "sw".into(), batches: 1 },
        ];
        let mut b = Metrics::with_levels(2).report(1);
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
    }

    #[test]
    fn kernel_backend_reaches_report_and_display() {
        let report = Metrics::new().report(1);
        // "<numeric>+<simd>", e.g. "f32+avx2" or "trinary+scalar".
        let (numeric, simd) = report.kernel_backend.split_once('+').expect("numeric+simd label");
        assert!(numeric == "f32" || numeric == "trinary", "{numeric}");
        assert!(["scalar", "avx2", "neon"].contains(&simd), "{simd}");
        let text = report.to_string();
        assert!(text.contains(&format!("kernel backend: {}", report.kernel_backend)), "{text}");
        // A merge keeps the label of the report it merges into.
        let mut old = report.clone();
        old.kernel_backend = String::new();
        assert_eq!(report.merge(&old).kernel_backend, report.kernel_backend);
        assert_eq!(old.merge(&report).kernel_backend, "");
    }
}
