//! The two end-to-end phases, driven from outside the program through
//! the public `Cluster` API.
//!
//! * Closed loop: a whole batch through `Cluster::serve` (or
//!   `serve_streams`), the call timed as it returns; the cluster's own
//!   request queues and drainers run.
//! * Open loop: one client thread per shard walks the frames routed to
//!   that shard in due order, sleeps until each is due unless it is
//!   already behind, and calls `Cluster::detect` (or `detect_stream`).
//!   The client stands in for the cluster's queue, so each frame's wait
//!   is measured exactly: due → start is queueing, start → done service.
//!   It measures the host's slowdown just before and just after each
//!   frame, in time it would otherwise idle, with as many threads as its
//!   shard runs a frame on.

use crate::host;
use crate::workload::Labelled;
use pcnn_cluster::{Cluster, StreamFrame};
use pcnn_core::{Error, StreamId};
use pcnn_runtime::StreamFrameResult;
use pcnn_vision::Detection;
use std::time::{Duration, Instant};

/// Head start between spawning the clients and the first due time.
const LEAD: Duration = Duration::from_millis(50);

/// A client sleeps until this long before a frame is due, then spins:
/// an idle virtual CPU woken by a timer can start milliseconds late.
const SPIN: Duration = Duration::from_millis(5);

/// A client takes a host reading (one reference slice, 4 to 15 ms)
/// this long before a frame is due, and after a frame unless its next
/// one is due sooner than this.
const PROBE_AHEAD: Duration = Duration::from_millis(30);

/// One open-loop frame request.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Due time, µs from the start of the phase.
    pub due_us: u64,
    /// The stream it belongs to (routes it to a shard).
    pub stream: StreamId,
    /// Index of its frame in the phase's input slice.
    pub input: usize,
}

/// What the cluster returned for one frame.
#[derive(Debug)]
pub enum Output {
    /// Detections from the frame path.
    Frame(Vec<Detection>),
    /// Detections, tracks and cache accounting from the stream path.
    Stream(StreamFrameResult),
}

impl Output {
    /// The frame's detections.
    pub fn detections(&self) -> &[Detection] {
        match self {
            Output::Frame(d) => d,
            Output::Stream(r) => &r.detections,
        }
    }
}

/// Timing of one open-loop frame, µs from the start of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the frame was due.
    pub due_us: u64,
    /// When the client called the cluster.
    pub start_us: u64,
    /// When the call returned.
    pub done_us: u64,
    /// How late the client started, beyond the later of the due time
    /// and the end of its previous call: the generator's own lag.
    pub late_us: u64,
    /// The shard that served it.
    pub shard: u32,
    /// The host's slowdown across the frame: the mean of its client's
    /// readings just before and just after it (the previous one stands
    /// in for a reading there was no time for).
    pub slowdown: f64,
}

impl Sample {
    /// Due to done, less the generator's own lag: the latency a
    /// punctual client would have seen.
    pub fn latency_us(&self) -> u64 {
        self.done_us - self.due_us - self.late_us
    }

    /// The same timing on a clock that starts `us` earlier.
    pub fn shifted(&self, us: u64) -> Sample {
        Sample {
            due_us: self.due_us + us,
            start_us: self.start_us + us,
            done_us: self.done_us + us,
            ..*self
        }
    }
}

/// Everything the open-loop phase observed, in job order.
#[derive(Debug)]
pub struct OpenLoop {
    /// Per-job timing.
    pub samples: Vec<Sample>,
    /// Per-job result.
    pub outputs: Vec<Result<Output, Error>>,
}

/// Serves `jobs` open loop, one client thread per shard.
pub fn open_loop(
    cluster: &Cluster,
    jobs: &[Job],
    frames: &[Labelled],
    streaming: bool,
) -> OpenLoop {
    let routes: Vec<u32> = jobs.iter().map(|j| cluster.route(j.stream)).collect();
    let start = Instant::now() + LEAD;
    let mut slots: Vec<Option<(Sample, Result<Output, Error>)>> =
        (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cluster.config().shards)
            .map(|shard| {
                let mine: Vec<usize> = (0..jobs.len()).filter(|&i| routes[i] == shard).collect();
                let client = Client { cluster, jobs, frames, streaming, start, shard };
                scope.spawn(move || client.serve(&mine))
            })
            .collect();
        for client in clients {
            for (i, sample, output) in client.join().expect("open-loop client panicked") {
                slots[i] = Some((sample, output));
            }
        }
    });
    let (samples, outputs) =
        slots.into_iter().map(|s| s.expect("every job has exactly one client")).unzip();
    OpenLoop { samples, outputs }
}

/// One open-loop client: the jobs of one shard, on one thread.
struct Client<'a> {
    cluster: &'a Cluster,
    jobs: &'a [Job],
    frames: &'a [Labelled],
    streaming: bool,
    /// When due time 0 falls.
    start: Instant,
    shard: u32,
}

impl Client<'_> {
    fn due(&self, job: usize) -> Instant {
        self.start + Duration::from_micros(self.jobs[job].due_us)
    }

    /// Serves jobs `mine`, in due order.
    fn serve(&self, mine: &[usize]) -> Vec<(usize, Sample, Result<Output, Error>)> {
        let threads = self.cluster.config().runtime.workers;
        let mut last = host::slowdown(threads, 1);
        let mut free_us = 0;
        let mut served = Vec::with_capacity(mine.len());
        for (n, &i) in mine.iter().enumerate() {
            let job = self.jobs[i];
            let due = self.due(i);
            let before = match due.checked_duration_since(Instant::now() + PROBE_AHEAD) {
                Some(ahead) => {
                    std::thread::sleep(ahead);
                    host::slowdown(threads, 1)
                }
                None => last,
            };
            if let Some(ahead) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(ahead);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let start_us = micros_since(self.start);
            let image = &self.frames[job.input].image;
            let output = if self.streaming {
                self.cluster.detect_stream(job.stream, image).map(Output::Stream)
            } else {
                self.cluster.detect(job.stream, image).map(Output::Frame)
            };
            let done_us = micros_since(self.start);
            let late_us = start_us.saturating_sub(job.due_us.max(free_us));
            free_us = done_us;
            let next_due = mine.get(n + 1).map(|&j| self.due(j));
            let after = if next_due.is_none_or(|d| Instant::now() + PROBE_AHEAD <= d) {
                host::slowdown(threads, 1)
            } else {
                before
            };
            last = after;
            let slowdown = (before + after) / 2.0;
            let sample = Sample {
                due_us: job.due_us,
                start_us,
                done_us,
                late_us,
                shard: self.shard,
                slowdown,
            };
            served.push((i, sample, output));
        }
        served
    }
}

fn micros_since(start: Instant) -> u64 {
    Instant::now().saturating_duration_since(start).as_micros() as u64
}

/// What one closed-loop round observed.
#[derive(Debug)]
pub struct ClosedRound {
    /// Frames served.
    pub served: usize,
    /// Wall time of the `serve` call, s.
    pub seconds: f64,
}

/// Serves `frames` in one `serve` (or, `streaming`, `serve_streams`)
/// call.
pub fn closed_round(cluster: &Cluster, frames: &[StreamFrame], streaming: bool) -> ClosedRound {
    let start = Instant::now();
    let served = if streaming {
        cluster.serve_streams(frames).iter().filter(|r| matches!(r, Some(Ok(_)))).count()
    } else {
        cluster.serve(frames).iter().filter(|r| r.is_some()).count()
    };
    ClosedRound { served, seconds: start.elapsed().as_secs_f64() }
}
