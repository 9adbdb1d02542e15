//! Aggregate profiling: per-stage duration statistics with exact
//! quantiles.

use crate::span::Counter;
use crate::trace::Trace;

/// Duration statistics for one stage (all spans sharing a name).
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// The stage's static span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Shortest span in nanoseconds.
    pub min_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
    /// Median duration in nanoseconds (exact, from sorted samples).
    pub p50_ns: u64,
    /// 99th-percentile duration in nanoseconds (exact).
    pub p99_ns: u64,
    /// Counter totals over the stage's spans, sorted by counter.
    pub counters: Vec<(Counter, u64)>,
}

/// Per-stage aggregate of a [`Trace`]: one [`StageProfile`] per
/// distinct span name, sorted by descending total duration.
///
/// Quantiles here are *exact* — computed from the sorted span
/// durations, not a histogram sketch: a trace holds every span, so it
/// needs no estimate. (The serving runtime's latency histogram, which
/// keeps no samples, estimates nearest-rank quantiles within 1/64.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// One entry per stage, sorted by descending `total_ns` (ties by
    /// name, so mock-clock reports are deterministic).
    pub stages: Vec<StageProfile>,
}

impl ProfileReport {
    /// Builds the report by aggregating `trace` per span name.
    pub fn from_trace(trace: &Trace) -> ProfileReport {
        // One bucket per stage name: durations (sorted later) + counter totals.
        type Group = (&'static str, Vec<u64>, Vec<(Counter, u64)>);
        let mut groups: Vec<Group> = Vec::new();
        for span in trace.spans() {
            let group = match groups.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(g) => g,
                None => {
                    groups.push((span.name, Vec::new(), Vec::new()));
                    groups.last_mut().expect("just pushed")
                }
            };
            group.1.push(span.duration_ns());
            for &(counter, value) in span.counters() {
                match group.2.iter_mut().find(|(c, _)| *c == counter) {
                    Some(t) => t.1 = t.1.saturating_add(value),
                    None => group.2.push((counter, value)),
                }
            }
        }
        let mut stages: Vec<StageProfile> = groups
            .into_iter()
            .map(|(name, mut durations, mut counters)| {
                durations.sort_unstable();
                counters.sort_by_key(|&(c, _)| c);
                let count = durations.len() as u64;
                StageProfile {
                    name,
                    count,
                    total_ns: durations.iter().fold(0u64, |a, &d| a.saturating_add(d)),
                    min_ns: *durations.first().expect("group is non-empty"),
                    max_ns: *durations.last().expect("group is non-empty"),
                    p50_ns: exact_quantile(&durations, 0.50),
                    p99_ns: exact_quantile(&durations, 0.99),
                    counters,
                }
            })
            .collect();
        stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        ProfileReport { stages }
    }

    /// The profile for one stage, if any span carried that name.
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders a fixed-width table, one stage per line. Durations are
    /// printed in microseconds with 3 decimals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            "stage", "count", "total_us", "min_us", "max_us", "p50_us", "p99_us"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                s.name,
                s.count,
                s.total_ns as f64 / 1_000.0,
                s.min_ns as f64 / 1_000.0,
                s.max_ns as f64 / 1_000.0,
                s.p50_ns as f64 / 1_000.0,
                s.p99_ns as f64 / 1_000.0,
            ));
        }
        out
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Exact quantile of an already-sorted sample set, by linear
/// interpolation between the two nearest order statistics (the "R-7"
/// rule spreadsheets use). `sorted` must be non-empty and ascending;
/// `q` is clamped to `[0, 1]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let q = q.clamp(0.0, 1.0);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = q * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let a = sorted[lo] as f64;
    let b = sorted[hi] as f64;
    (a + (b - a) * frac).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanRecord, MAX_COUNTERS};
    use crate::trace::LaneTrace;

    fn span_with_duration(name: &'static str, id: u32, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent: 0,
            start_ns: 0,
            end_ns: dur_ns,
            counters: [(Counter::Ticks, 0); MAX_COUNTERS],
            n_counters: 0,
        }
    }

    #[test]
    fn exact_quantiles_interpolate() {
        assert_eq!(exact_quantile(&[10], 0.5), 10);
        assert_eq!(exact_quantile(&[10, 20], 0.5), 15);
        assert_eq!(exact_quantile(&[10, 20, 30], 0.5), 20);
        assert_eq!(exact_quantile(&[0, 100], 0.99), 99);
        assert_eq!(exact_quantile(&[1, 2, 3, 4], 0.0), 1);
        assert_eq!(exact_quantile(&[1, 2, 3, 4], 1.0), 4);
    }

    #[test]
    fn report_aggregates_and_sorts_by_total() {
        let trace = Trace {
            lanes: vec![LaneTrace {
                lane: 0,
                spans: vec![
                    span_with_duration("small", 1, 10),
                    span_with_duration("big", 2, 1_000),
                    span_with_duration("small", 3, 30),
                ],
            }],
            dropped: 0,
        };
        let report = trace.profile();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "big");
        let small = report.stage("small").expect("stage present");
        assert_eq!(small.count, 2);
        assert_eq!(small.total_ns, 40);
        assert_eq!(small.min_ns, 10);
        assert_eq!(small.max_ns, 30);
        assert_eq!(small.p50_ns, 20);
        assert!(report.render().contains("big"));
    }
}
