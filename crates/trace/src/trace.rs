//! Drained traces: per-lane span collections and aggregate queries.

use crate::profile::ProfileReport;
use crate::span::{Counter, SpanRecord};

/// All spans one thread (lane) completed, sorted by open order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneTrace {
    /// Registration index of the lane, stable within one tracer.
    pub lane: u32,
    /// The lane's spans, sorted by [`SpanRecord::id`] (open order).
    pub spans: Vec<SpanRecord>,
}

/// Everything a tracer collected: one [`LaneTrace`] per recording
/// thread, plus a count of spans dropped at the retention cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Per-thread lanes, in lane-registration order. Lanes that never
    /// completed a span are omitted.
    pub lanes: Vec<LaneTrace>,
    /// Spans discarded because a lane hit its retention cap; 0 in any
    /// healthy run.
    pub dropped: u64,
}

impl Trace {
    /// Total completed spans across all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Iterates every span across all lanes, lane order first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.lanes.iter().flat_map(|l| l.spans.iter())
    }

    /// Sum of one counter over every span named `name`.
    pub fn counter_total(&self, name: &str, which: Counter) -> u64 {
        self.spans()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counter(which))
            .fold(0, u64::saturating_add)
    }

    /// Aggregates into a per-stage [`ProfileReport`].
    pub fn profile(&self) -> ProfileReport {
        ProfileReport::from_trace(self)
    }

    /// Exports in Chrome `trace_event` JSON format; see
    /// [`chrome`](crate::chrome).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(self)
    }

    /// Renders an aggregated summary keyed by *path* (ancestor names
    /// joined with `/`), one line per distinct path in first-occurrence
    /// order, with span count and counter totals:
    ///
    /// ```text
    /// runtime.batch  count=2  frames=2
    /// runtime.batch/runtime.pyramid  count=2
    /// ```
    ///
    /// This is the golden-fixture format: it pins stage names, nesting
    /// and counter values while staying compact and clock-independent.
    pub fn render_summary(&self) -> String {
        struct Row {
            path: String,
            count: u64,
            counters: Vec<(Counter, u64)>,
        }
        let mut rows: Vec<Row> = Vec::new();
        for lane in &self.lanes {
            // (id, path) ancestry stack: spans are sorted by id = open
            // order and a parent always opens before its children, so one
            // pass reconstructs the tree.
            let mut stack: Vec<(u32, String)> = Vec::new();
            for span in &lane.spans {
                while let Some((top, _)) = stack.last() {
                    if *top == span.parent {
                        break;
                    }
                    stack.pop();
                }
                let path = match stack.last() {
                    Some((_, parent_path)) => format!("{parent_path}/{}", span.name),
                    None => span.name.to_string(),
                };
                let row = match rows.iter_mut().find(|r| r.path == path) {
                    Some(row) => row,
                    None => {
                        rows.push(Row { path: path.clone(), count: 0, counters: Vec::new() });
                        rows.last_mut().expect("just pushed")
                    }
                };
                row.count += 1;
                for &(counter, value) in span.counters() {
                    match row.counters.iter_mut().find(|(c, _)| *c == counter) {
                        Some(t) => t.1 = t.1.saturating_add(value),
                        None => row.counters.push((counter, value)),
                    }
                }
                stack.push((span.id, path));
            }
        }
        let mut out = String::new();
        for row in &rows {
            out.push_str(&format!("{}  count={}", row.path, row.count));
            let mut counters = row.counters.clone();
            counters.sort_by_key(|&(c, _)| c);
            for (counter, value) in counters {
                out.push_str(&format!("  {counter}={value}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::MAX_COUNTERS;

    fn rec(name: &'static str, id: u32, parent: u32, counters: &[(Counter, u64)]) -> SpanRecord {
        let mut slots = [(Counter::Ticks, 0); MAX_COUNTERS];
        slots[..counters.len()].copy_from_slice(counters);
        SpanRecord {
            name,
            id,
            parent,
            start_ns: id as u64 * 1_000,
            end_ns: id as u64 * 1_000 + 500,
            counters: slots,
            n_counters: counters.len() as u8,
        }
    }

    fn sample() -> Trace {
        Trace {
            lanes: vec![LaneTrace {
                lane: 0,
                spans: vec![
                    rec("batch", 1, 0, &[(Counter::Frames, 2)]),
                    rec("stage", 2, 1, &[(Counter::Windows, 9)]),
                    rec("stage", 3, 1, &[(Counter::Windows, 1)]),
                    rec("batch", 4, 0, &[(Counter::Frames, 1)]),
                    rec("stage", 5, 4, &[(Counter::Windows, 5)]),
                ],
            }],
            dropped: 0,
        }
    }

    #[test]
    fn counter_totals_aggregate_by_name() {
        let t = sample();
        assert_eq!(t.counter_total("stage", Counter::Windows), 15);
        assert_eq!(t.counter_total("batch", Counter::Frames), 3);
        assert_eq!(t.counter_total("stage", Counter::Frames), 0);
    }

    #[test]
    fn render_summary_groups_by_path() {
        let t = sample();
        let summary = t.render_summary();
        let expected = "batch  count=2  frames=3\nbatch/stage  count=3  windows=15\n";
        assert_eq!(summary, expected);
    }
}
