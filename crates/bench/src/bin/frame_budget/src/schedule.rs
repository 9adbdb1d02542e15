//! Arrival schedules.
//!
//! Every draw the benchmark makes — which scene each frame request
//! shows, each camera's phase, when each frame is due — is a pure
//! function of `(seed, salt, index)` through the SplitMix64 mixer, so
//! one seed fixes a run's inputs exactly and nothing depends on draw
//! order.

/// Salts that keep the benchmark's independent draws apart.
pub mod salt {
    /// Order in which a frame workload's pool items arrive.
    pub const ORDER: u64 = 0x4f52_4445;
    /// Per-source clock phase.
    pub const PHASE: u64 = 0x5048_4153;
    /// Per-frame position within its clock slot.
    pub const SLOT: u64 = 0x534c_4f54;
}

/// The SplitMix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 64-bit draw keyed on `(seed, salt, index)`.
pub fn draw(seed: u64, salt: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(salt)) ^ index)
}

/// A uniform draw in `[0, 1)` keyed on `(seed, salt, index)`.
pub fn unit(seed: u64, salt: u64, index: u64) -> f64 {
    (draw(seed, salt, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// One frame due at the serving tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the frame is due, in µs from the start of the phase.
    pub due_us: u64,
    /// The sending source (a camera, or the one stream of independent
    /// frame requests).
    pub source: usize,
    /// The frame's position in its source's sequence.
    pub index: usize,
}

/// How far into its slot a clock frame may fall, as a share of the
/// period.
pub const JITTER: f64 = 0.25;

/// The due times of `count` frames from source `source` of `sources`,
/// each sending at `rate_hz`: a clock whose frame `k` is due at
/// `(k + phase + JITTER · u_k) T`, with `u_k` uniform in `[0, 1)`. The
/// seeded phase puts source `s` somewhere in `[s, s + 1) / sources` of
/// the period, so sources stay staggered; the in-slot draw lets
/// neighbouring frames come closer now and then. Jitter below one
/// period keeps a source's frames in capture order.
pub fn clock(seed: u64, source: usize, sources: usize, rate_hz: f64, count: usize) -> Vec<u64> {
    let period_us = 1e6 / rate_hz;
    let phase = (source as f64 + unit(seed, salt::PHASE, source as u64)) / sources as f64;
    let stream = draw(seed, salt::SLOT, source as u64);
    (0..count)
        .map(|k| {
            let offset = JITTER * unit(stream, salt::SLOT, k as u64);
            ((k as f64 + phase + offset) * period_us) as u64
        })
        .collect()
}

/// The merged schedule of `sources` clocks, `count` frames each, in due
/// order (ties broken by source).
pub fn clocks(seed: u64, sources: usize, rate_hz: f64, count: usize) -> Vec<Arrival> {
    let mut all: Vec<Arrival> = (0..sources)
        .flat_map(|source| {
            clock(seed, source, sources, rate_hz, count)
                .into_iter()
                .enumerate()
                .map(move |(index, due_us)| Arrival { due_us, source, index })
        })
        .collect();
    all.sort_by_key(|a| (a.due_us, a.source));
    all
}

/// Which of `pool` items each of `count` requests shows: whole passes
/// over the pool, each pass in its own seeded order, so every item is
/// shown equally often, to within one.
pub fn order(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut picks = Vec::with_capacity(count + pool);
    for pass in 0.. {
        if picks.len() >= count {
            break;
        }
        let mut items: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            let key = (pass * pool + i) as u64;
            items.swap(i, (draw(seed, salt::ORDER, key) % (i as u64 + 1)) as usize);
        }
        picks.extend(items);
    }
    picks.truncate(count);
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        assert_eq!(clocks(7, 6, 5.0, 40), clocks(7, 6, 5.0, 40));
        assert_eq!(order(7, 24, 100), order(7, 24, 100));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = clocks(1, 6, 10.0, 50);
        let b = clocks(2, 6, 10.0, 50);
        assert_eq!(a.len(), b.len());
        let moved = a.iter().zip(&b).filter(|(x, y)| x.due_us != y.due_us).count();
        assert!(moved > 290, "only {moved} of 300 due times differ");
        let (a, b) = (order(1, 24, 240), order(2, 24, 240));
        let moved = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(moved > 200, "only {moved} of 240 picks differ");
    }

    #[test]
    fn each_clock_keeps_capture_order_inside_its_slots() {
        let period = 1e6 / 5.0;
        for source in 0..6 {
            let due = clock(11, source, 6, 5.0, 100);
            assert!(due.windows(2).all(|w| w[0] < w[1]), "source {source} out of order");
            let phase = (source as f64 + unit(11, salt::PHASE, source as u64)) / 6.0;
            assert!(phase >= source as f64 / 6.0 && phase < (source + 1) as f64 / 6.0);
            for (k, &d) in due.iter().enumerate() {
                let offset = d as f64 / period - k as f64 - phase;
                assert!((-1e-5..JITTER).contains(&offset), "frame {k} left its slot: {offset}");
            }
        }
    }

    #[test]
    fn merged_clocks_are_due_ordered_and_complete() {
        let all = clocks(3, 6, 7.5, 30);
        assert_eq!(all.len(), 180);
        assert!(all.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        for source in 0..6 {
            let indices: Vec<usize> =
                all.iter().filter(|a| a.source == source).map(|a| a.index).collect();
            assert_eq!(indices, (0..30).collect::<Vec<_>>());
        }
    }

    #[test]
    fn order_shows_every_item_equally_often() {
        for count in [0, 5, 24, 100] {
            let picks = order(9, 24, count);
            assert_eq!(picks.len(), count);
            let mut shown = [0usize; 24];
            picks.iter().for_each(|&p| shown[p] += 1);
            let (lo, hi) = (shown.iter().min().unwrap(), shown.iter().max().unwrap());
            assert!(hi - lo <= 1, "count {count}: items shown {lo}..={hi} times");
        }
    }
}
