//! Sustained load generation and SLO measurement for the cluster tier.
//!
//! The generator is **open loop**: arrival times come from a seeded
//! Poisson process fixed before the run, and the feeder submits each
//! frame at its scheduled instant whether or not the tier has kept up.
//! Closed-loop harnesses hide overload by slowing the offered rate to
//! match the server (coordinated omission); an open schedule keeps the
//! queueing delay of a falling-behind tier in the latency histogram,
//! which is the number an SLO is about.
//!
//! Both harnesses run the cluster's one supervised serve loop and read
//! its per-frame outcomes. A served frame's latency is measured, never
//! derived from wall time: its completion time minus its due time. The
//! due time is the scheduled arrival under [`run_slo`], and the serve
//! start under [`run_stream_slo`], which offers every frame at once —
//! so queueing behind a stream's earlier frames, stalls, failover and
//! respawn all land in the samples. The samples go into the runtime's
//! one latency [`Histogram`], the type of a
//! [`RuntimeReport`](pcnn_runtime::RuntimeReport)'s batch latency too,
//! and the reported p50/p99 are its nearest-rank quantiles: never below
//! the exact sample at that rank, and at most 1/64 above it.

use crate::chaos::ChaosPlan;
use crate::cluster::{Cluster, StreamFrame, StreamOutcome};
use pcnn_runtime::{Histogram, StreamFrameResult};
use pcnn_vision::{Detection, GrayImage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Parameters of the seeded open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Seed for arrival times and stream assignment. Same seed, same
    /// schedule — byte for byte.
    pub seed: u64,
    /// Distinct stream ids, drawn uniformly per arrival.
    pub streams: u32,
    /// Mean aggregate arrival rate in frames per second.
    pub rate_hz: f64,
    /// Total arrivals to generate.
    pub frames: usize,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile { seed: 0, streams: 8, rate_hz: 20.0, frames: 64 }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Scheduled submission time, microseconds from run start.
    pub at_us: u64,
    /// The stream this frame belongs to.
    pub stream: u64,
}

/// The deterministic arrival schedule for `profile`: exponential
/// inter-arrival gaps (a Poisson process at `rate_hz`) with the stream
/// drawn uniformly per arrival, all from one seeded generator.
///
/// # Panics
///
/// Panics when `rate_hz` is not strictly positive or `streams` is zero.
pub fn arrivals(profile: &LoadProfile) -> Vec<Arrival> {
    assert!(profile.rate_hz > 0.0, "arrival rate must be positive");
    assert!(profile.streams > 0, "need at least one stream");
    let mut rng = SmallRng::seed_from_u64(profile.seed);
    let mut at_s = 0.0f64;
    (0..profile.frames)
        .map(|_| {
            let unit: f64 = rng.random();
            // Inverse-CDF exponential draw; 1-unit is in (0, 1], so the
            // log argument never hits zero.
            at_s += -(1.0 - unit).ln() / profile.rate_hz;
            let stream = rng.random_range(0..u64::from(profile.streams));
            Arrival { at_us: (at_s * 1e6) as u64, stream }
        })
        .collect()
}

/// Latency budgets an SLO run is judged against, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloBudget {
    /// Median latency budget (completion minus due time).
    pub p50_us: u64,
    /// Tail (99th percentile) budget.
    pub p99_us: u64,
    /// Highest tolerable shed fraction, in parts per million of the
    /// offered frames (0 = every frame must be served).
    pub shed_ppm: u64,
}

/// The outcome of one SLO load run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Frames offered by the schedule.
    pub offered: u64,
    /// Frames served to completion.
    pub served: u64,
    /// Frames shed at the cluster edge.
    pub shed: u64,
    /// Frames whose deadline expired while waiting for a full queue or
    /// between retries (zero when no deadline is configured).
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Frames served after at least one failed attempt was retried
    /// (stream frames only: a batch frame gets one attempt).
    #[serde(default)]
    pub retried_served: u64,
    /// Wall time of the run in seconds.
    pub wall_s: f64,
    /// Served throughput in frames per second.
    pub throughput_fps: f64,
    /// Measured median latency (µs): `latency.p50()`.
    pub p50_us: Option<u64>,
    /// Measured 99th-percentile latency (µs): `latency.p99()`.
    pub p99_us: Option<u64>,
    /// The per-frame latency samples in µs, one per served frame.
    pub latency: Histogram,
    /// The budgets the run was judged against.
    pub budget: SloBudget,
    /// Whether every budget held.
    pub pass: bool,
}

impl std::fmt::Display for SloReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |us: Option<u64>| us.map_or(f64::NAN, |us| us as f64 / 1e3);
        write!(
            f,
            "slo {}: {}/{} frames served ({} shed) in {:.2}s ({:.1} fps)  p50 {:.2}ms (budget {:.2})  p99 {:.2}ms (budget {:.2})",
            if self.pass { "PASS" } else { "FAIL" },
            self.served,
            self.offered,
            self.shed,
            self.wall_s,
            self.throughput_fps,
            ms(self.p50_us),
            self.budget.p50_us as f64 / 1e3,
            ms(self.p99_us),
            self.budget.p99_us as f64 / 1e3,
        )?;
        if self.deadline_exceeded + self.retried_served > 0 {
            write!(
                f,
                "  [{} deadline-exceeded, {} retried-then-served]",
                self.deadline_exceeded, self.retried_served
            )?;
        }
        Ok(())
    }
}

/// Runs `schedule` against `cluster` open loop and judges the measured
/// latency quantiles against `budget`.
///
/// `frame_for` supplies the image for each arrival (typically a small
/// pool of pre-rendered scenes indexed by stream); frames are cloned
/// into the submission order once, up front, so rendering cost never
/// pollutes the latency measurement.
pub fn run_slo<F>(
    cluster: &Cluster,
    schedule: &[Arrival],
    budget: SloBudget,
    mut frame_for: F,
) -> SloReport
where
    F: FnMut(&Arrival) -> GrayImage,
{
    let frames: Vec<StreamFrame> = schedule
        .iter()
        .map(|a| StreamFrame { stream: pcnn_core::StreamId::new(a.stream), image: frame_for(a) })
        .collect();
    let due_us: Vec<u64> = schedule.iter().map(|a| a.at_us).collect();
    let start = Instant::now();
    let outcomes = cluster.serve_loop::<Vec<Detection>>(&frames, None, Some(&due_us));
    judge(&outcomes, &due_us, start.elapsed().as_secs_f64(), budget)
}

/// Runs a supervised *stream* serve under an optional chaos plan and
/// judges it like [`run_slo`] — the harness behind the chaos bench.
/// Every frame is offered at the start and admitted as fast as the tier
/// takes it, so a frame's latency is its completion time; losses split
/// into shed, deadline-exceeded and retried-then-served, and all three
/// land in the report.
pub fn run_stream_slo(
    cluster: &Cluster,
    frames: &[StreamFrame],
    budget: SloBudget,
    plan: Option<&ChaosPlan>,
) -> SloReport {
    let start = Instant::now();
    let outcomes = cluster.serve_loop::<StreamFrameResult>(frames, plan, None);
    judge(&outcomes, &[], start.elapsed().as_secs_f64(), budget)
}

/// Tallies per-frame outcomes into an [`SloReport`]. Each served frame
/// adds one latency sample: its completion time minus `due_us[i]`, or
/// minus nothing when there is no schedule.
fn judge<R>(
    outcomes: &[(StreamOutcome<R>, Duration)],
    due_us: &[u64],
    wall_s: f64,
    budget: SloBudget,
) -> SloReport {
    let mut latency = Histogram::default();
    let [mut shed, mut deadline_exceeded, mut retried_served] = [0u64; 3];
    for (i, (outcome, done)) in outcomes.iter().enumerate() {
        match outcome {
            StreamOutcome::Served { attempts, .. } => {
                retried_served += u64::from(*attempts > 1);
                let due = due_us.get(i).copied().unwrap_or(0);
                latency.record((done.as_micros() as u64).saturating_sub(due));
            }
            StreamOutcome::Shed => shed += 1,
            StreamOutcome::DeadlineExceeded => deadline_exceeded += 1,
            StreamOutcome::Failed { .. } => {}
        }
    }
    let (p50_us, p99_us) = (latency.p50(), latency.p99());
    let (offered, served) = (outcomes.len() as u64, latency.total());
    // Every frame the tier failed to serve counts against the loss
    // budget, whether it was shed outright or timed out.
    let lost_ppm = ((shed + deadline_exceeded) * 1_000_000).checked_div(offered).unwrap_or(0);
    let pass = p50_us.is_some_and(|p| p <= budget.p50_us)
        && p99_us.is_some_and(|p| p <= budget.p99_us)
        && lost_ppm <= budget.shed_ppm;
    SloReport {
        offered,
        served,
        shed,
        deadline_exceeded,
        retried_served,
        wall_s,
        throughput_fps: if wall_s > 0.0 { served as f64 / wall_s } else { 0.0 },
        p50_us,
        p99_us,
        latency,
        budget,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let profile = LoadProfile { seed: 9, streams: 4, rate_hz: 100.0, frames: 200 };
        let a = arrivals(&profile);
        let b = arrivals(&profile);
        assert_eq!(a, b, "same seed must give the same schedule");
        for pair in a.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us, "arrival times must be non-decreasing");
        }
        assert!(a.iter().all(|x| x.stream < 4));
        // Mean gap should be in the right ballpark for 100 Hz: the 200th
        // arrival lands around 2 s, well within (0.5 s, 8 s).
        let last = a.last().unwrap().at_us;
        assert!((500_000..8_000_000).contains(&last), "last arrival at {last}µs");
    }

    #[test]
    fn different_seeds_differ() {
        let a = arrivals(&LoadProfile { seed: 1, ..Default::default() });
        let b = arrivals(&LoadProfile { seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }
}
