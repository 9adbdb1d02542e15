//! Overhead of `pcnn-trace` spans on an instrumented hot path.
//!
//! Each row times a baseline against the same loop with one extra span
//! open/add/drop per call, interleaved with [`time_pair`]:
//!
//! * `disabled_span_only` — an empty loop body against a bare span with
//!   no tracer installed (the production default: one relaxed atomic
//!   load and a branch);
//! * `disabled_span_on_gemm_8x8x8` — a tiny unit of real work (an
//!   8×8×8 GEMM, roughly one microkernel invocation) against the same
//!   work inside a disabled span;
//! * `enabled_span_on_gemm_8x8x8` — the same pair under a wall-clock
//!   tracer, where the GEMM's own span records too.
//!
//! The contract pinned by `crates/trace/tests/disabled_alloc.rs` is
//! that a disabled span allocates nothing; this bench shows its time
//! cost is likewise negligible. Records `results/BENCH_trace.json`
//! through [`pcnn_bench::harness`] with no `--check` gate: on a shared
//! 2-vCPU host the interleaved bare/disabled ratio of a ~220 ns call
//! moves by tens of percent between runs, so a floor would only measure
//! noise. The disabled-span cost is a number to read, not a gate.

use pcnn_bench::harness::{time_pair, Mode, Report};
use pcnn_kernels::{gemm, GemmScratch};
use pcnn_trace::{stages, Clock, Counter, Tracer};
use serde::Serialize;
use std::hint::black_box;

/// One baseline-vs-span pair, as recorded in `results/BENCH_trace.json`.
#[derive(Serialize)]
struct OverheadResult {
    name: String,
    /// Calls per timed batch; each figure is the fastest batch over
    /// the call count.
    calls: usize,
    base_ns: f64,
    span_ns: f64,
    overhead_ns: f64,
}

fn pair(
    name: &str,
    reps: usize,
    calls: usize,
    mut base: impl FnMut(),
    mut span: impl FnMut(),
) -> OverheadResult {
    let (base_s, span_s) =
        time_pair(reps, || (0..calls).for_each(|_| base()), || (0..calls).for_each(|_| span()));
    let (base_ns, span_ns) = (base_s * 1e9 / calls as f64, span_s * 1e9 / calls as f64);
    OverheadResult {
        name: name.to_owned(),
        calls,
        base_ns,
        span_ns,
        overhead_ns: span_ns - base_ns,
    }
}

/// One microkernel-sized unit of work. `gemm` already opens its own
/// span, so the [`spanned`] side of a pair adds exactly one.
fn gemm_8x8x8() -> impl FnMut() {
    let (m, k, n) = (8, 8, 8);
    let (a, b) = (vec![0.25f32; m * k], vec![0.5f32; k * n]);
    let mut c = vec![0.0f32; m * n];
    let mut s = GemmScratch::default();
    move || {
        c.iter_mut().for_each(|v| *v = 0.0);
        gemm(&mut s, m, k, n, black_box(&a), k, black_box(&b), n, &mut c, n);
        black_box(&mut c);
    }
}

/// `work` inside one span open/add/drop, the shape every instrumented
/// layer uses.
fn spanned(mut work: impl FnMut()) -> impl FnMut() {
    move || {
        let span = pcnn_trace::span(stages::KERNELS_GEMM);
        span.add(Counter::Flops, black_box(1024));
        work();
    }
}

fn main() {
    let mode = Mode::from_args();
    let (reps, calls) = mode.pick((20, 5_000), (1, 100));

    assert!(!pcnn_trace::is_enabled(), "bench must start with tracing off");
    let mut results = vec![
        pair("disabled_span_only", reps, calls * 10, || {}, spanned(|| {})),
        pair("disabled_span_on_gemm_8x8x8", reps, calls, gemm_8x8x8(), spanned(gemm_8x8x8())),
    ];

    let tracer = Tracer::install(Clock::wall());
    results.push(pair(
        "enabled_span_on_gemm_8x8x8",
        reps,
        calls,
        gemm_8x8x8(),
        spanned(gemm_8x8x8()),
    ));
    let trace = tracer.drain();
    Tracer::uninstall();
    assert!(trace.span_count() > calls, "the enabled run must have recorded spans");

    Report::new("trace_overhead", 1, &results).finish(mode, "BENCH_trace.json", &[]);
}
