//! Benchmark-owned spans around calls into the program's layers.
//!
//! The replay wraps each call in a [`Recorder::span`]; spans nest by a
//! stack, are kept in memory, and are written out as a Chrome trace when
//! the run ends. A span's self time is its duration minus the durations
//! of its direct children — the replay is serial, so children never
//! overlap each other.

use serde::Value;
use std::time::Instant;

/// Stage names, one per layer function the replay calls.
pub mod stage {
    /// One replayed frame, end to end.
    pub const FRAME: &str = "frame";
    /// `pcnn_vision::scale_pyramid`.
    pub const PYRAMID: &str = "vision.pyramid";
    /// `pcnn_runtime::cache` frame and cell hashing (one span per frame
    /// hash and per pyramid level: a cell hash is too short to time alone).
    pub const HASH: &str = "runtime.hash";
    /// `cell_patch` and `Extractor::cell_histogram` on one cell.
    pub const EXTRACT: &str = "core.extract";
    /// `pcnn_hog::block::assemble_descriptor` over one window's cells.
    pub const ASSEMBLE: &str = "hog.assemble";
    /// `WindowClassifier::score` on one window descriptor.
    pub const CLASSIFY: &str = "core.classify";
    /// `pcnn_vision::non_maximum_suppression` over one frame's windows.
    pub const NMS: &str = "vision.nms";
    /// `Tracker::update` with one frame's detections.
    pub const TRACK: &str = "track.update";
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// The replayed frame the span belongs to.
    pub frame: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects nested spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    frame: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), frame: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Tags the spans opened from now on with `frame`.
    pub fn set_frame(&mut self, frame: usize) {
        self.frame = frame;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open, and returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, frame: self.frame, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time in ns: its duration minus its direct
/// children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// For each replayed frame (each root span), the share of its wall time
/// its direct children account for.
pub fn frame_coverage(spans: &[Span]) -> Vec<f64> {
    let own = self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, own)| 1.0 - own as f64 / s.duration_ns().max(1) as f64)
        .collect()
}

/// The spans as a Chrome `trace_event` document (complete events, µs),
/// one thread row per replayed frame.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".to_owned(), Value::Str(s.name.to_owned())),
                ("cat".to_owned(), Value::Str("replay".to_owned())),
                ("ph".to_owned(), Value::Str("X".to_owned())),
                ("ts".to_owned(), Value::Float(s.start_ns as f64 / 1e3)),
                ("dur".to_owned(), Value::Float(s.duration_ns() as f64 / 1e3)),
                ("pid".to_owned(), Value::UInt(1)),
                ("tid".to_owned(), Value::UInt(s.frame as u64)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("traceEvents".to_owned(), Value::Array(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, frame: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("frame", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
            span("next", None, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 30]);
        // Self times of a tree add back up to its root's duration.
        assert_eq!(self_times(&spans)[..4].iter().sum::<u64>(), spans[0].duration_ns());
        let coverage = frame_coverage(&spans);
        assert_eq!(coverage.len(), 2, "one entry per root span");
        assert!((coverage[0] - 0.7).abs() < 1e-12 && coverage[1] == 0.0, "{coverage:?}");
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::new();
        rec.set_frame(3);
        let out = rec
            .span("frame", |rec| rec.span("a", |rec| rec.span("b", |_| 1)) + rec.span("c", |_| 2));
        assert_eq!(out, 3);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("frame", None), ("a", Some(0)), ("b", Some(1)), ("c", Some(0))]);
        assert!(spans.iter().all(|s| s.frame == 3 && s.start_ns <= s.end_ns));
        let own = self_times(spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }
}
