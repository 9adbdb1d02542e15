//! How fast the host runs right now.
//!
//! The reference host is a virtual machine on shared hardware, and how
//! much CPU it gets drifts with what other tenants run, for seconds to
//! minutes at a time:
//!
//! * one busy thread runs up to about 1.6 times slower, and CPU time
//!   moves with wall time, so no clock reading hides it;
//! * two busy threads at once can each run 2 to 3.3 times slower, in
//!   quantized steps, as if both virtual CPUs shared one core, while a
//!   single thread at the same moment runs at full speed.
//!
//! [`slowdown`] times a fixed computation on as many threads as the
//! measured work keeps busy, and the run divides each time by it, so
//! that every metric is reported at the reference speed
//! ([`NOMINAL_US`]). The computation allocates and frees constantly,
//! chases pointers and branches unpredictably, the mix that slows most
//! and the one the detectors run. Timed in turn with serial Fig. 4
//! frames on one thread, in 5-s blocks, a frame's time divided by a
//! slice's stayed between 17.9 and 22.4 while the frame's own time moved
//! between 68 and 113 ms.

use crate::schedule;
use std::collections::BTreeMap;
use std::time::Instant;

/// One slice of the reference computation takes this long, µs, on the
/// reference host when it is not slowed down.
pub const NOMINAL_US: f64 = 4_500.0;

/// Events one slice schedules.
const EVENTS: u32 = 60_000;

/// The host's slowdown against [`NOMINAL_US`]: `slices` slices timed on
/// each of `threads` threads at once, the mean over threads of each
/// one's median slice.
pub fn slowdown(threads: usize, slices: usize) -> f64 {
    let time = || {
        let times: Vec<f64> = (0..slices)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(slice());
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        crate::stats::median(&times)
    };
    let medians: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(time)).collect();
        let mut medians = vec![time()];
        medians.extend(others.into_iter().map(|t| t.join().expect("host probe thread panicked")));
        medians
    });
    medians.iter().sum::<f64>() / medians.len() as f64 / NOMINAL_US
}

/// One slice: a discrete-event loop over a `BTreeMap` queue. It
/// allocates, chases pointers and branches unpredictably; the work is
/// identical on every call.
fn slice() -> u64 {
    let mut queue: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let (mut now, mut acc) = (0u64, 0u64);
    for i in 0..EVENTS {
        let delay = 1 + schedule::mix(u64::from(i)) % 64;
        queue.entry(now + delay).or_default().push(i);
        if i % 3 == 0 {
            if let Some((t, due)) = queue.pop_first() {
                now = t;
                for e in due {
                    acc = acc.wrapping_add(u64::from(e) * t);
                    if e & 1 == 0 {
                        acc ^= acc >> 3;
                    }
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        assert_eq!(slice(), slice());
    }

    #[test]
    fn slowdown_is_positive_and_finite() {
        for threads in [1, 2] {
            let s = slowdown(threads, 3);
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
    }
}
