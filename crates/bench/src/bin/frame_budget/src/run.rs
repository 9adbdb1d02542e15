//! One workload run: cycles of set-up, closed loop and open loop, each
//! time divided by the host's slowdown measured around it; then the
//! agreement gate and (when traced) the per-layer replay.

use crate::host;
use crate::replay::{self, same_detections};
use crate::schedule;
use crate::serve::{self, Job, Output, Sample};
use crate::spans::{self, stage, Recorder, Span};
use crate::stats::{self, latency_percentile, median, percentile};
use crate::workload::{self, Labelled, Workload};
use pcnn_cluster::{Cluster, StreamFrame};
use pcnn_core::{Detector, DetectorConfig, DetectorSnapshot, Error, StreamId, TrainedDetector};
use pcnn_runtime::{DetectionServer, RuntimeConfig, StreamState};
use pcnn_vision::{Evaluator, GrayImage};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Cycles per run. Each cycle sets up once, runs its share of the
/// closed-loop rounds and then its segment of the open-loop schedule,
/// so that every metric samples the host across the whole run rather
/// than during one stretch of it. `setup_s` is the cycles' median.
const CYCLES: usize = 3;

/// Reference slices each thread times for a reading around a set-up, a
/// closed-loop round or the replay.
const PROBE_SLICES: usize = 3;

/// Replay passes at most, while the stages do not reconcile.
const REPLAY_PASSES: usize = 3;

/// Warm-up frames each set-up serves and discards.
const WARMUP_FRAMES: usize = 2;

/// A replayed frame's stages must cover at least this share of its
/// wall time.
pub const MIN_COVERAGE: f64 = 0.95;

/// The generator's p99 lateness above which a run is invalid.
/// Latencies exclude the generator's lag, so lateness below it changes
/// only the arrival pattern, by a few milliseconds.
pub const MAX_GENERATOR_LATE_MS: f64 = 5.0;

/// How much of a workload to run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures: set-ups, closed and open loops.
    pub seconds: f64,
    /// Whether to run the traced replay.
    pub trace: bool,
    /// Tiny counts: one cycle, two replayed frames per source.
    pub smoke: bool,
}

/// One named measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The validity and agreement gates of one run.
#[derive(Debug, Clone, Copy)]
pub struct Gates {
    /// Frames checked for agreement.
    pub agreement_frames: usize,
    /// Served, serial (and, when traced, replayed) detections all
    /// matched bit for bit on every checked frame.
    pub agreement: bool,
    /// The lowest share of a replayed frame's wall time its stages
    /// account for (traced runs only).
    pub min_coverage: Option<f64>,
    /// The generator's p99 lateness, ms.
    pub generator_late_p99_ms: f64,
}

impl Gates {
    /// Whether the timing can be trusted: the replay reconciled and the
    /// generator kept its schedule. An invalid run still reports its
    /// metrics; the document and the gate line say it is invalid.
    pub fn valid(&self) -> bool {
        self.min_coverage.is_none_or(|c| c >= MIN_COVERAGE)
            && self.generator_late_p99_ms <= MAX_GENERATOR_LATE_MS
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// The user-visible metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics: the open loop's always, the replay's when
    /// traced.
    pub per_layer: Vec<Metric>,
    /// Frames submitted over the closed and open loops.
    pub attempted: usize,
    /// Frames shed or failed among them.
    pub failed: usize,
    /// FNV-1a digest of every open-loop frame's detections (primers
    /// first, then jobs).
    pub digest: u64,
    /// Gate outcomes.
    pub gates: Gates,
    /// The replay's spans (traced runs only).
    pub spans: Vec<Span>,
    /// Every open-loop frame's timing, in job order, as measured.
    pub samples: Vec<Sample>,
    /// Served frames per second of each closed-loop round, as measured.
    pub closed_rates: Vec<f64>,
    /// The host readings around set-ups, closed-loop rounds and the
    /// replay, in order; the open loop's are in `samples`.
    pub slowdowns: Vec<f64>,
}

/// A run's inputs: the frames; the primers (each camera's first frame,
/// served untimed before the open loop so that streams start warm); the
/// open-loop jobs; and each source's frames in capture order, as
/// indices into the served list — primers first, then jobs.
struct Inputs {
    frames: Vec<Labelled>,
    primers: Vec<Job>,
    jobs: Vec<Job>,
    by_source: Vec<Vec<usize>>,
}

impl Inputs {
    /// The `i`-th served frame's job.
    fn served(&self, i: usize) -> &Job {
        self.primers.get(i).unwrap_or_else(|| &self.jobs[i - self.primers.len()])
    }
}

fn inputs(w: &Workload, seed: u64, count: usize) -> Inputs {
    let arrivals = w.arrivals(seed, count);
    let stream = |s: usize| StreamId::new(workload::STREAMS[s]);
    if w.streaming() {
        // Camera c's frame k is frames[c * (count + 1) + k]; frame 0
        // primes the stream, frames 1..=count are due in the open loop.
        let per_camera = count + 1;
        let frames = workload::cameras()
            .iter()
            .flat_map(|camera| (0..per_camera).map(|k| workload::render(camera, k)))
            .collect();
        let primers: Vec<Job> = (0..w.sources)
            .map(|c| Job { due_us: 0, stream: stream(c), input: c * per_camera })
            .collect();
        let mut by_source: Vec<Vec<usize>> = (0..w.sources).map(|c| vec![c]).collect();
        let jobs = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| {
                by_source[a.source].push(w.sources + i);
                Job {
                    due_us: a.due_us,
                    stream: stream(a.source),
                    input: a.source * per_camera + a.index + 1,
                }
            })
            .collect();
        Inputs { frames, primers, jobs, by_source }
    } else {
        let picks = schedule::order(seed, workload::POOL, arrivals.len());
        let jobs = arrivals
            .iter()
            .zip(picks)
            .map(|(a, input)| Job {
                due_us: a.due_us,
                stream: stream(a.index % w.shards as usize),
                input,
            })
            .collect();
        Inputs {
            frames: workload::frame_pool(w.kind),
            primers: Vec::new(),
            jobs,
            by_source: vec![(0..arrivals.len()).collect()],
        }
    }
}

/// Runs workload `w`.
pub fn run(w: &Workload, settings: Settings) -> Report {
    let count = w.open_frames(settings.seconds);
    let inputs = inputs(w, settings.seed, count);
    let warmup: Vec<_> = inputs.frames[..WARMUP_FRAMES].iter().map(|l| l.image.clone()).collect();
    let cycles = if settings.smoke { 1 } else { CYCLES };
    let segments = segments(&inputs.jobs, cycles, w.schedule_us(count));
    let closed_s = settings.seconds * workload::CLOSED_SHARE / cycles as f64;

    let m = measure(w, &inputs, &warmup, &segments, closed_s);
    let peak_rss_mb = peak_rss_mb();

    let attempted = m.closed.attempted + m.served.len();
    let failed = m.closed.failed + m.served.iter().filter(|o| o.is_err()).count();
    let open_outputs = &m.served[inputs.primers.len()..];
    let latencies: Vec<f64> = m
        .samples
        .iter()
        .zip(open_outputs)
        .filter(|(_, o)| o.is_ok())
        .map(|(s, _)| s.latency_us() as f64 / 1e3 / s.slowdown)
        .collect();
    let open_failed = open_outputs.len() - latencies.len();
    let metric = |name, unit, value| Metric { name, unit, value };
    let end_to_end = vec![
        metric("throughput_fps", "frames/s", m.closed.served as f64 / m.closed.seconds),
        metric("p50_ms", "ms", latency_percentile(&latencies, open_failed, 50)),
        metric("tail_ms", "ms", latency_percentile(&latencies, open_failed, w.tail_pct)),
        metric("served_frac", "ratio", (attempted - failed) as f64 / attempted as f64),
        metric("lamr", "ratio", lamr(&inputs, open_outputs)),
        metric("setup_s", "s", median(&m.setup_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ];

    // Preemption inside a replayed frame's glue code shows up as
    // unaccounted time; the replay is repeated until it reconciles, and
    // `replay.passes` says how often it ran. The replay is serial, and
    // its times are divided by the one-thread slowdown across all passes.
    let replay_frames = if settings.smoke { 2 } else { w.replay_frames };
    let mut slowdowns = m.slowdowns;
    let before = settings.trace.then(|| host::slowdown(1, PROBE_SLICES));
    let mut replay_passes = 1;
    let mut checked = check(w, &inputs, &m.served, &m.snapshot, replay_frames, settings.trace);
    while checked.min_coverage < MIN_COVERAGE && replay_passes < REPLAY_PASSES {
        eprintln!(
            "frame_budget: {}: replay stages cover {:.4} of a frame; repeating",
            w.name, checked.min_coverage
        );
        replay_passes += 1;
        checked = check(w, &inputs, &m.served, &m.snapshot, replay_frames, settings.trace);
    }
    let spans = checked.recorder.spans().to_vec();
    let mut per_layer = match before {
        Some(before) => {
            let after = host::slowdown(1, PROBE_SLICES);
            slowdowns.extend([before, after]);
            let replay = Replay {
                untraced: checked.untraced,
                detector: &checked.replayed,
                frames: checked.frames,
                passes: replay_passes,
                slowdown: (before + after) / 2.0,
            };
            replay_layers(&spans, &replay)
        }
        None => Vec::new(),
    };
    per_layer.extend(open_loop_layers(w, &m.samples, open_outputs, m.generator_late_p99_ms));
    let frame_slowdowns: Vec<f64> = m.samples.iter().map(|s| s.slowdown).collect();
    per_layer.push(metric("bench.host_slowdown", "ratio", median(&frame_slowdowns)));
    Report {
        end_to_end,
        per_layer,
        attempted,
        failed,
        digest: digest(&m.served),
        gates: Gates {
            agreement_frames: checked.frames,
            agreement: checked.agreement,
            min_coverage: settings.trace.then_some(checked.min_coverage),
            generator_late_p99_ms: m.generator_late_p99_ms,
        },
        spans,
        samples: m.samples,
        closed_rates: m.closed.rates,
        slowdowns,
    }
}

/// One open-loop segment: the jobs due in it and the due time it starts
/// at.
struct Segment {
    start_us: u64,
    jobs: Range<usize>,
}

/// Splits due-ordered `jobs` over a schedule of `schedule_us` into
/// `cycles` segments of equal length.
fn segments(jobs: &[Job], cycles: usize, schedule_us: u64) -> Vec<Segment> {
    let mut first = 0;
    (0..cycles as u64)
        .map(|k| {
            let end_us = schedule_us * (k + 1) / cycles as u64;
            let last = first + jobs[first..].partition_point(|j| j.due_us < end_us);
            let segment = Segment { start_us: schedule_us * k / cycles as u64, jobs: first..last };
            first = last;
            segment
        })
        .collect()
}

/// What one measurement observed.
struct Measured {
    /// The snapshot the serving cluster was built from.
    snapshot: DetectorSnapshot,
    /// Each cycle's set-up time at reference speed, s.
    setup_s: Vec<f64>,
    closed: Closed,
    /// Every served frame's output: primers first, then jobs.
    served: Vec<Result<Output, Error>>,
    /// Every job's timing.
    samples: Vec<Sample>,
    /// The host readings around set-ups and closed-loop rounds, in
    /// order.
    slowdowns: Vec<f64>,
    generator_late_p99_ms: f64,
}

/// One measurement: a set-up, closed-loop rounds and an open-loop
/// segment per cycle. The first set-up's cluster serves every open-loop
/// segment (and the frame workloads' closed rounds); the later set-ups
/// are timed and dropped. A set-up trains on one thread, so its time is
/// divided by the mean of one-thread host readings just before and
/// after it.
fn measure(
    w: &Workload,
    inputs: &Inputs,
    warmup: &[GrayImage],
    segments: &[Segment],
    closed_s: f64,
) -> Measured {
    let mut slowdowns = Vec::new();
    let mut serving: Option<(DetectorSnapshot, Cluster)> = None;
    let mut setup_s = Vec::with_capacity(segments.len());
    let mut closed = Closed::default();
    let mut served = Vec::with_capacity(inputs.primers.len() + inputs.jobs.len());
    let mut samples = Vec::with_capacity(inputs.jobs.len());
    for segment in segments {
        let before = host::slowdown(1, PROBE_SLICES);
        let start = Instant::now();
        let snapshot = workload::train(w.kind);
        let cluster = workload::build(w, &snapshot, warmup);
        let seconds = start.elapsed().as_secs_f64();
        let after = host::slowdown(1, PROBE_SLICES);
        slowdowns.extend([before, after]);
        setup_s.push(seconds / ((before + after) / 2.0));
        if serving.is_none() {
            // Each camera's first frame, served untimed, connects and
            // warms its stream.
            served.extend(inputs.primers.iter().map(|j| {
                cluster.detect_stream(j.stream, &inputs.frames[j.input].image).map(Output::Stream)
            }));
            serving = Some((snapshot, cluster));
        } else {
            drop((snapshot, cluster));
        }
        let (snapshot, cluster) = serving.as_ref().expect("the first cycle set up");

        let fresh = || workload::build(w, snapshot, warmup);
        closed_phase(w, cluster, fresh, inputs, closed_s, &mut closed, &mut slowdowns);

        let jobs: Vec<Job> = inputs.jobs[segment.jobs.clone()]
            .iter()
            .map(|j| Job { due_us: j.due_us - segment.start_us, ..*j })
            .collect();
        let open = serve::open_loop(cluster, &jobs, &inputs.frames, w.streaming());
        served.extend(open.outputs);
        samples.extend(open.samples.iter().map(|s| s.shifted(segment.start_us)));
    }
    let (snapshot, _) = serving.expect("at least one cycle");
    let generator_late_p99_ms = generator_late_p99_ms(&samples);
    Measured { snapshot, setup_s, closed, served, samples, slowdowns, generator_late_p99_ms }
}

/// What the closed-loop rounds observed.
#[derive(Debug, Default)]
struct Closed {
    /// Served frames per second of each round, as measured.
    rates: Vec<f64>,
    /// Frames served over all rounds.
    served: usize,
    /// Time the rounds took at reference speed, s.
    seconds: f64,
    attempted: usize,
    failed: usize,
}

/// Closed-loop rounds of the same fixed work, each one `serve` call,
/// for `budget_s` (at least one round), added to `closed`. Frame
/// workloads send `closed_batch` frames of their pool, in turn, to
/// `cluster`; cameras send their first frames, one frame of each camera
/// after another, to a `fresh` cluster each round, so every round
/// starts from cold stream caches. A round keeps every worker of every
/// shard busy: a host reading on that many threads, appended to
/// `readings`, precedes the first round and follows each one, and a
/// round's time is divided by the mean of the two around it.
fn closed_phase(
    w: &Workload,
    cluster: &Cluster,
    fresh: impl Fn() -> Cluster,
    inputs: &Inputs,
    budget_s: f64,
    closed: &mut Closed,
    readings: &mut Vec<f64>,
) {
    let frames = &inputs.frames;
    let frame = |stream: usize, input: usize| StreamFrame {
        stream: StreamId::new(workload::STREAMS[stream]),
        image: frames[input].image.clone(),
    };
    let start = Instant::now();
    let first = closed.rates.len();
    let mut before = host::slowdown(w.threads(), PROBE_SLICES);
    readings.push(before);
    for r in first.. {
        if r > first && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let round = if w.streaming() {
            let per_camera = frames.len() / w.sources;
            let batch: Vec<_> = (0..w.closed_batch)
                .map(|i| frame(i % w.sources, (i % w.sources) * per_camera + i / w.sources))
                .collect();
            serve::closed_round(&fresh(), &batch, true)
        } else {
            let batch: Vec<_> = (r * w.closed_batch..(r + 1) * w.closed_batch)
                .map(|i| frame(i % w.shards as usize, i % frames.len()))
                .collect();
            serve::closed_round(cluster, &batch, false)
        };
        let after = host::slowdown(w.threads(), PROBE_SLICES);
        readings.push(after);
        closed.rates.push(round.served as f64 / round.seconds);
        closed.served += round.served;
        closed.seconds += round.seconds / ((before + after) / 2.0);
        closed.attempted += w.closed_batch;
        closed.failed += w.closed_batch - round.served;
        before = after;
    }
}

fn generator_late_p99_ms(samples: &[Sample]) -> f64 {
    let mut late: Vec<f64> = samples.iter().map(|s| s.late_us as f64 / 1e3).collect();
    stats::sort(&mut late);
    percentile(&late, 99)
}

/// The log-average miss rate of the open loop's detections against
/// ground truth, each distinct input counted once (a failed frame as one
/// with no detections). The inputs are fixed, so this reads the same on
/// every seed while the outputs stay the same.
fn lamr(inputs: &Inputs, open_outputs: &[Result<Output, Error>]) -> f64 {
    let mut seen = vec![false; inputs.frames.len()];
    let mut evaluator = Evaluator::new();
    for (job, output) in inputs.jobs.iter().zip(open_outputs) {
        if !std::mem::replace(&mut seen[job.input], true) {
            let detections = output.as_ref().map_or(&[][..], Output::detections);
            evaluator.add_image(detections, &inputs.frames[job.input].truth);
        }
    }
    evaluator.curve().log_average_miss_rate()
}

/// What the agreement gate and the replay saw.
struct Checked {
    frames: usize,
    agreement: bool,
    /// Untraced serial time over the replayed frames.
    untraced: Duration,
    recorder: Recorder,
    /// The lowest share of a replayed frame's wall time its stage spans
    /// cover (1 without a replay).
    min_coverage: f64,
    /// The detector the replay ran (its hardware counters cover exactly
    /// the replayed frames).
    replayed: TrainedDetector,
}

/// The agreement gate over each source's first `replay_frames` frames:
/// the served detections must equal a serial `Detector::detect`, and
/// when traced, the replay's too — and for cameras its tracks and cache
/// counts, and an untraced serial stream server's detections.
fn check(
    w: &Workload,
    inputs: &Inputs,
    served: &[Result<Output, Error>],
    snapshot: &DetectorSnapshot,
    replay_frames: usize,
    trace: bool,
) -> Checked {
    // Fresh detectors rebuilt from the served snapshot.
    let engine = DetectorConfig::default();
    let reference = TrainedDetector::from_snapshot(snapshot).expect("snapshot rebuilds");
    let replayed = TrainedDetector::from_snapshot(snapshot).expect("snapshot rebuilds");
    let serial_server = (trace && w.streaming()).then(|| {
        let runtime = RuntimeConfig::builder().workers(1).build().expect("one worker is valid");
        DetectionServer::new(Detector::new(engine), &reference, runtime).expect("server builds")
    });

    let mut agreement = true;
    let mut frames = 0;
    let mut untraced = Duration::ZERO;
    let mut recorder = Recorder::new();
    for frames_of_source in &inputs.by_source {
        let serial_stream = serial_server.as_ref().map(|s| s.open_stream(StreamId::new(0)));
        let mut replay_stream = StreamState::new(StreamId::new(0));
        for &j in frames_of_source.iter().take(replay_frames) {
            let image = &inputs.frames[inputs.served(j).input].image;
            let Ok(served) = &served[j] else {
                agreement = false;
                continue;
            };
            let start = Instant::now();
            let serial = Detector::new(engine).detect(&reference, image);
            let serial_time = start.elapsed();
            let mut ok = same_detections(served.detections(), &serial);
            if trace {
                recorder.set_frame(frames);
                if let (Some(server), Some(stream)) = (&serial_server, &serial_stream) {
                    let step = replay::stream_frame(
                        &mut recorder,
                        &engine,
                        &replayed,
                        &mut replay_stream,
                        image,
                    );
                    ok &= same_detections(&step.detections, &serial);
                    ok &= matches!(served, Output::Stream(result) if *result == step);
                    let start = Instant::now();
                    let again = server.detect_stream(stream, image).expect("serial stream frame");
                    untraced += start.elapsed();
                    ok &= same_detections(&again.detections, &serial);
                } else {
                    let dets = replay::frame(&mut recorder, &engine, &replayed, image);
                    ok &= same_detections(&dets, &serial);
                    untraced += serial_time;
                }
            }
            agreement &= ok;
            frames += 1;
        }
    }
    let min_coverage = spans::frame_coverage(recorder.spans()).into_iter().fold(1.0, f64::min);
    Checked { frames, agreement, untraced, recorder, min_coverage, replayed }
}

/// What the per-layer metrics take from the kept replay pass.
struct Replay<'a> {
    /// Untraced serial time over the replayed frames.
    untraced: Duration,
    /// The detector the replay ran.
    detector: &'a TrainedDetector,
    frames: usize,
    passes: usize,
    /// The host's slowdown across the replay passes.
    slowdown: f64,
}

/// Per-layer metrics from the replay's spans, per replayed frame, with
/// times at reference speed.
fn replay_layers(spans: &[Span], replay: &Replay) -> Vec<Metric> {
    let Replay { untraced, detector, frames, passes, slowdown } = *replay;
    let own = spans::self_times(spans);
    let total = |name: &str| -> (f64, usize) {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0.0, 0), |(ns, n), (_, &o)| (ns + o as f64, n + 1))
    };
    let frames_f = frames.max(1) as f64;
    let per_frame_ms = |name: &str| total(name).0 / frames_f / 1e6 / slowdown;
    let per_call_us = |name: &str| {
        let (ns, n) = total(name);
        if n == 0 {
            0.0
        } else {
            ns / n as f64 / 1e3 / slowdown
        }
    };
    let calls = |name: &str| total(name).1 as f64 / frames_f;
    let wall: u64 = spans.iter().filter(|s| s.name == stage::FRAME).map(Span::duration_ns).sum();
    let (unaccounted, _) = total(stage::FRAME);
    let untraced_ns = untraced.as_nanos().max(1) as f64;
    let hw = detector.extractor.hardware_stats().unwrap_or_default();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("vision.pyramid_ms", "ms", per_frame_ms(stage::PYRAMID)),
        m("core.extract_ms", "ms", per_frame_ms(stage::EXTRACT)),
        m("core.cells_extracted", "count", calls(stage::EXTRACT)),
        m("core.extract_us_per_cell", "us", per_call_us(stage::EXTRACT)),
        m("truenorth.ticks_per_frame", "count", hw.ticks as f64 / frames_f),
        m("truenorth.synaptic_events_per_frame", "count", hw.synaptic_events as f64 / frames_f),
        m("truenorth.spikes_per_frame", "count", hw.routed_spikes as f64 / frames_f),
        m("hog.assemble_ms", "ms", per_frame_ms(stage::ASSEMBLE)),
        m("core.classify_ms", "ms", per_frame_ms(stage::CLASSIFY)),
        m("core.windows_scored", "count", calls(stage::CLASSIFY)),
        m("core.classify_us_per_window", "us", per_call_us(stage::CLASSIFY)),
        m("runtime.hash_ms", "ms", per_frame_ms(stage::HASH)),
        m("track.update_ms", "ms", per_frame_ms(stage::TRACK)),
        m("vision.nms_ms", "ms", per_frame_ms(stage::NMS)),
        m("replay.unaccounted_share", "ratio", unaccounted / wall.max(1) as f64),
        m("replay.overhead_share", "ratio", (wall as f64 - untraced_ns) / untraced_ns),
        m("replay.passes", "count", passes as f64),
    ]
}

/// Per-layer metrics of the open-loop phase: the cluster's queueing and
/// load (times at reference speed, the busy share as measured), the
/// cache and the generator's own lag.
fn open_loop_layers(
    w: &Workload,
    samples: &[Sample],
    open_outputs: &[Result<Output, Error>],
    generator_late_p99_ms: f64,
) -> Vec<Metric> {
    let sorted_ms = |part: fn(&Sample) -> u64| {
        let mut v: Vec<f64> = samples.iter().map(|s| part(s) as f64 / 1e3 / s.slowdown).collect();
        stats::sort(&mut v);
        v
    };
    let wait = sorted_ms(|s| s.start_us - s.due_us - s.late_us);
    let service = sorted_ms(|s| s.done_us - s.start_us);
    let wall = samples.iter().map(|s| s.done_us).max().unwrap_or(1).max(1) as f64;
    let shards = w.shards as usize;
    let mut busy = vec![0u64; shards];
    let mut routed = vec![0usize; shards];
    for s in samples {
        busy[s.shard as usize] += s.done_us - s.start_us;
        routed[s.shard as usize] += 1;
    }
    let busy_share = busy.iter().map(|&b| b as f64 / wall).sum::<f64>() / shards as f64;
    let route_share_max =
        *routed.iter().max().expect("at least one shard") as f64 / samples.len() as f64;

    let (mut reused, mut total) = (0u64, 0u64);
    for output in open_outputs {
        if let Ok(Output::Stream(r)) = output {
            reused += r.cells_reused;
            total += r.cells_reused + r.cells_recomputed;
        }
    }
    let hit_rate = if total == 0 { 0.0 } else { reused as f64 / total as f64 };
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("runtime.cell_hit_rate", "ratio", hit_rate),
        m("cluster.queue_wait_p50_ms", "ms", percentile(&wait, 50)),
        m("cluster.queue_wait_tail_ms", "ms", percentile(&wait, w.tail_pct)),
        m("cluster.service_p50_ms", "ms", percentile(&service, 50)),
        m("cluster.busy_share", "ratio", busy_share),
        m("cluster.route_share_max", "ratio", route_share_max),
        m("bench.generator_late_p99_ms", "ms", generator_late_p99_ms),
    ]
}

/// FNV-1a over every served frame's detections, in serving-list order;
/// a failed frame hashes as a marker word.
fn digest(served: &[Result<Output, Error>]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(PRIME);
    };
    for output in served {
        match output {
            Ok(o) => {
                eat(o.detections().len() as u64);
                for d in o.detections() {
                    for v in [d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height, d.score] {
                        eat(u64::from(v.to_bits()));
                    }
                }
            }
            Err(_) => eat(u64::MAX),
        }
    }
    h
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
