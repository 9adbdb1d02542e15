//! Time sources for span timestamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where span timestamps come from.
///
/// Timestamps are nanoseconds from an arbitrary per-tracer origin —
/// only differences and ordering are meaningful.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Monotonic wall time, measured from the moment the clock was
    /// created. The production source.
    Wall(Instant),
    /// A deterministic counter that advances by exactly 1 µs per
    /// reading. Two runs of the same serial workload produce
    /// bit-identical timestamps, which is what makes golden-trace
    /// fixtures possible.
    Mock(Arc<AtomicU64>),
}

impl Clock {
    /// A monotonic wall clock starting now.
    pub fn wall() -> Self {
        Clock::Wall(Instant::now())
    }

    /// A deterministic mock clock starting at zero.
    pub fn mock() -> Self {
        Clock::Mock(Arc::new(AtomicU64::new(0)))
    }

    /// Nanoseconds since this clock's origin. The mock variant returns
    /// 0, 1000, 2000, … across successive readings (shared between
    /// threads, so concurrent readers still get unique, ordered
    /// values).
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall(base) => base.elapsed().as_nanos() as u64,
            Clock::Mock(counter) => counter.fetch_add(1_000, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_is_deterministic() {
        let c = Clock::mock();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 1_000);
        assert_eq!(c.now_ns(), 2_000);
        let fresh = Clock::mock();
        assert_eq!(fresh.now_ns(), 0);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = Clock::wall();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
