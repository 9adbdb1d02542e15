//! Supervision primitives: the retry policy, the heartbeat and the stall
//! watchdog. The cluster tier's serve loop is where they run: it retries
//! failed frames under a [`RetryPolicy`], beats one [`Heartbeat`] per
//! shard lane, and condemns a lane its [`Watchdog`] finds stalled.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How a supervised frame responds to failure: how many attempts to
/// make, how long to back off between them, and how long the frame may
/// stay in flight overall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff: Duration,
    /// Overall in-flight budget. `None` means attempts alone bound the
    /// request.
    pub deadline: Option<Duration>,
    /// Jitter width applied to each backoff, in per-mille of the
    /// exponential base. `0` keeps the exact exponential schedule; `j`
    /// spreads each backoff uniformly over `[base·(1 − j/2000),
    /// base·(1 + j/2000))` so that N producers retrying the same failed
    /// shard do not stampede it in lockstep. The draw is a pure
    /// function of the caller's seed and the attempt number — fully
    /// deterministic, no clock involved.
    #[serde(default)]
    pub jitter_pm: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            deadline: Some(Duration::from_secs(30)),
            jitter_pm: 0,
        }
    }
}

/// The `splitmix64` finalizer, used to derive deterministic jitter
/// draws from a seed without pulling a generator into the policy.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A single attempt, no backoff, no deadline — the "fail fast"
    /// policy, equivalent to an unsupervised call.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, base_backoff: Duration::ZERO, deadline: None, jitter_pm: 0 }
    }

    /// This policy with the given jitter width (per-mille of the
    /// exponential base, clamped to 1000).
    #[must_use]
    pub fn with_jitter(mut self, jitter_pm: u32) -> Self {
        self.jitter_pm = jitter_pm.min(1000);
        self
    }

    /// The backoff to sleep after failed attempt number `attempt`
    /// (1-based): `base_backoff << (attempt - 1)`, saturating. The
    /// exact exponential schedule, jitter excluded.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1_u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
    }

    /// The jittered backoff after failed attempt `attempt` for the
    /// request identified by `seed`: the exponential base spread
    /// uniformly over `[base·(1 − j/2000), base·(1 + j/2000))` by a
    /// seeded `splitmix64` draw. Deterministic: the same `(policy,
    /// seed, attempt)` always sleeps the same duration, so retry
    /// schedules replay bit-identically under `Clock::Mock` traces —
    /// while distinct seeds de-synchronize, which is the point.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.backoff_after(attempt);
        let jitter = u64::from(self.jitter_pm.min(1000));
        if jitter == 0 || base.is_zero() {
            return base;
        }
        let draw = mix(seed ^ (u64::from(attempt) << 32)) % (jitter + 1);
        // factor in per-mille: 1000 - j/2 + draw, draw ∈ [0, j].
        let factor_pm = 1000 - jitter / 2 + draw;
        let nanos = base.as_nanos().saturating_mul(u128::from(factor_pm)) / 1000;
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// A sign-of-life signal for one unit of supervised serving (a cluster
/// shard's lane): work in flight plus the last time work began or
/// ended. Lock-free, so the serving thread beats it while a supervisor
/// reads it.
#[derive(Debug)]
pub struct Heartbeat {
    in_flight: AtomicU64,
    /// Milliseconds since `created` at the last beat.
    last_beat_ms: AtomicU64,
    created: Instant,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Self::new()
    }
}

impl Heartbeat {
    /// A heartbeat with nothing in flight that has never beaten.
    pub fn new() -> Self {
        Heartbeat {
            in_flight: AtomicU64::new(0),
            last_beat_ms: AtomicU64::new(0),
            created: Instant::now(),
        }
    }

    /// Marks the start of one unit of supervised work.
    pub fn begin_work(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.beat();
    }

    /// Marks the end of one unit of supervised work.
    pub fn end_work(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.beat();
    }

    fn beat(&self) {
        let now = self.created.elapsed().as_millis() as u64;
        self.last_beat_ms.fetch_max(now, Ordering::Relaxed);
    }

    /// Units of supervised work currently executing.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last beat (`None` before any beat).
    pub fn silent_ms(&self) -> Option<u64> {
        let last = self.last_beat_ms.load(Ordering::Relaxed);
        if last == 0 && self.in_flight() == 0 {
            return None;
        }
        Some((self.created.elapsed().as_millis() as u64).saturating_sub(last))
    }
}

/// What the watchdog concluded about a heartbeat's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogStatus {
    /// No work in flight and nothing overdue.
    Idle,
    /// Work in flight and the heartbeat is fresh.
    Healthy,
    /// Work has been in flight with no heartbeat for longer than the
    /// configured threshold — a wedged worker, an extractor stuck in
    /// the simulator, or a deadlocked stage.
    Stalled {
        /// Milliseconds since the last sign of life.
        silent_ms: u64,
    },
}

/// A stall detector over a [`Heartbeat`]: it flags the work as stalled
/// when work is in flight but the heartbeat has been silent past the
/// threshold.
///
/// The watchdog takes no threads of its own — call
/// [`check`](Watchdog::check) from wherever supervision lives (a
/// monitoring loop, a liveness probe handler).
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    stall_after: Duration,
}

impl Watchdog {
    /// A watchdog that flags a stall after `stall_after` of silence
    /// with work in flight.
    pub fn new(stall_after: Duration) -> Self {
        Watchdog { stall_after }
    }

    /// The configured silence threshold.
    pub fn stall_after(&self) -> Duration {
        self.stall_after
    }

    /// Classifies the heartbeat's current liveness. The caller counts
    /// and acts on a `Stalled` verdict.
    pub fn check(&self, heartbeat: &Heartbeat) -> WatchdogStatus {
        let in_flight = heartbeat.in_flight();
        let Some(silent_ms) = heartbeat.silent_ms() else {
            return WatchdogStatus::Idle;
        };
        if in_flight == 0 {
            return WatchdogStatus::Idle;
        }
        if u128::from(silent_ms) > self.stall_after.as_millis() {
            WatchdogStatus::Stalled { silent_ms }
        } else {
            WatchdogStatus::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            deadline: None,
            jitter_pm: 0,
        };
        assert_eq!(p.backoff_after(1), Duration::from_millis(10));
        assert_eq!(p.backoff_after(2), Duration::from_millis(20));
        assert_eq!(p.backoff_after(3), Duration::from_millis(40));
    }

    #[test]
    fn zero_jitter_keeps_the_exact_exponential_schedule() {
        let p = RetryPolicy::default();
        for attempt in 1..6 {
            for seed in [0u64, 1, 0xDAC17] {
                assert_eq!(p.backoff_jittered(attempt, seed), p.backoff_after(attempt));
            }
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_seed_dependent() {
        let p = RetryPolicy::default().with_jitter(500); // ±25 %
        for attempt in 1..6 {
            let base = p.backoff_after(attempt);
            let lo = base.mul_f64(0.75);
            let hi = base.mul_f64(1.25);
            for seed in 0..64u64 {
                let d = p.backoff_jittered(attempt, seed);
                assert_eq!(d, p.backoff_jittered(attempt, seed), "same seed must replay");
                assert!(
                    d >= lo && d <= hi,
                    "attempt {attempt} seed {seed}: {d:?} ∉ [{lo:?}, {hi:?}]"
                );
            }
        }
        // Distinct seeds must actually de-synchronize the schedule.
        let draws: std::collections::BTreeSet<Duration> =
            (0..64u64).map(|seed| p.backoff_jittered(2, seed)).collect();
        assert!(draws.len() > 8, "only {} distinct backoffs across 64 seeds", draws.len());
    }

    #[test]
    fn with_jitter_clamps_to_full_width() {
        let p = RetryPolicy::default().with_jitter(5000);
        assert_eq!(p.jitter_pm, 1000);
        let base = p.backoff_after(1);
        for seed in 0..32u64 {
            let d = p.backoff_jittered(1, seed);
            assert!(d >= base.mul_f64(0.5) && d <= base.mul_f64(1.5));
        }
    }

    #[test]
    fn policy_roundtrips_through_serde() {
        let p = RetryPolicy::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn heartbeat_tracks_in_flight_work() {
        let heartbeat = Heartbeat::new();
        assert_eq!(heartbeat.silent_ms(), None);
        assert_eq!(heartbeat.in_flight(), 0);
        // Let wall time advance so the first beat records a nonzero
        // timestamp (a zero beat with nothing in flight reads as
        // "never beaten").
        std::thread::sleep(Duration::from_millis(5));
        heartbeat.begin_work();
        assert_eq!(heartbeat.in_flight(), 1);
        assert!(heartbeat.silent_ms().is_some());
        heartbeat.end_work();
        assert_eq!(heartbeat.in_flight(), 0);
        // Once work has happened the heartbeat history persists.
        assert!(heartbeat.silent_ms().is_some());
    }

    #[test]
    fn watchdog_is_idle_then_healthy_then_stalled() {
        let heartbeat = Heartbeat::new();
        let dog = Watchdog::new(Duration::from_millis(30));
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Idle);

        heartbeat.begin_work();
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Healthy);

        std::thread::sleep(Duration::from_millis(60));
        assert!(
            matches!(dog.check(&heartbeat), WatchdogStatus::Stalled { silent_ms } if silent_ms >= 30)
        );

        heartbeat.end_work();
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Idle);
    }
}
