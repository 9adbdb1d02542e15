//! Deterministic stream-to-shard routing by rendezvous hashing.
//!
//! Every frame carries a stream id (a camera, a client connection); the
//! router assigns each stream to one shard so a stream's frames are
//! always served — and therefore ordered, batched and swapped —
//! together. Rendezvous (highest-random-weight) hashing gives the two
//! properties a serving tier needs:
//!
//! * **determinism** — the assignment is a pure function of
//!   `(seed, stream id, shard)` built on a fixed 64-bit mixer, so the
//!   same configuration routes the same streams to the same shards in
//!   every process, on every release (pinned by a golden test);
//! * **minimal disruption** — draining a shard moves *only* the streams
//!   that lived on it; every other stream keeps its shard, so a rolling
//!   drain never reshuffles healthy replicas.

use pcnn_core::{Error, Result};
use serde::{Deserialize, Serialize};

/// The `splitmix64` finalizer: a fixed, well-mixed 64-bit permutation.
/// This constant mixer *is* the routing contract — changing it would
/// silently re-route every stream across a release boundary, which the
/// golden hash-stability test exists to catch.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, serde-able rendezvous router over `shards` shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRouter {
    shards: u32,
    seed: u64,
    /// Shards currently out of rotation (draining for maintenance or a
    /// rolling swap). Kept sorted and duplicate-free so serialization
    /// is canonical.
    drained: Vec<u32>,
}

impl ShardRouter {
    /// A router over `shards` shards, salted by `seed`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `shards` is zero.
    pub fn new(shards: u32, seed: u64) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidConfig {
                what: "router.shards".to_owned(),
                reason: "shard count must be positive".to_owned(),
            });
        }
        Ok(ShardRouter { shards, seed, drained: Vec::new() })
    }

    /// Total shards, drained ones included.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Shards currently in rotation, ascending.
    pub fn active(&self) -> Vec<u32> {
        (0..self.shards).filter(|&s| !self.is_drained(s)).collect()
    }

    /// Whether `shard` is currently drained.
    pub fn is_drained(&self, shard: u32) -> bool {
        self.drained.binary_search(&shard).is_ok()
    }

    /// Takes `shard` out of rotation. Streams it served re-route to the
    /// surviving shards; every other stream keeps its assignment.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `shard` is out of range or when
    /// draining it would leave no shard in rotation.
    pub fn drain(&mut self, shard: u32) -> Result<()> {
        if shard >= self.shards {
            return Err(Error::InvalidConfig {
                what: "router.drain".to_owned(),
                reason: format!("shard {shard} out of range (cluster has {})", self.shards),
            });
        }
        if self.active().len() == 1 && !self.is_drained(shard) {
            return Err(Error::InvalidConfig {
                what: "router.drain".to_owned(),
                reason: "cannot drain the last shard in rotation".to_owned(),
            });
        }
        if let Err(slot) = self.drained.binary_search(&shard) {
            self.drained.insert(slot, shard);
        }
        Ok(())
    }

    /// Returns `shard` to rotation; its original streams route back to
    /// it (rendezvous weights never changed).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `shard` is out of range.
    pub fn restore(&mut self, shard: u32) -> Result<()> {
        if shard >= self.shards {
            return Err(Error::InvalidConfig {
                what: "router.restore".to_owned(),
                reason: format!("shard {shard} out of range (cluster has {})", self.shards),
            });
        }
        if let Ok(slot) = self.drained.binary_search(&shard) {
            self.drained.remove(slot);
        }
        Ok(())
    }

    /// The rendezvous weight of `stream` on `shard`.
    fn weight(&self, stream: u64, shard: u32) -> u64 {
        mix(self.seed ^ mix(stream) ^ mix(u64::from(shard).wrapping_mul(0xa24b_aed4_963e_e407)))
    }

    /// The shard serving `stream`: the in-rotation shard with the
    /// highest rendezvous weight. Ties (astronomically unlikely under a
    /// 64-bit mixer) break toward the lowest shard index so the answer
    /// stays total and deterministic.
    pub fn route(&self, stream: u64) -> u32 {
        debug_assert!(!self.active().is_empty(), "drain() keeps at least one shard in rotation");
        (0..self.shards)
            .filter(|&s| !self.is_drained(s))
            .max_by(|&a, &b| {
                self.weight(stream, a).cmp(&self.weight(stream, b)).then(b.cmp(&a))
                // prefer the lower index on a tie
            })
            .expect("at least one shard in rotation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardRouter::new(0, 1).is_err());
    }

    #[test]
    fn route_is_deterministic_and_in_range() {
        let router = ShardRouter::new(5, 42).unwrap();
        for stream in 0..200u64 {
            let shard = router.route(stream);
            assert!(shard < 5);
            assert_eq!(shard, router.route(stream), "stream {stream} routes unstably");
        }
    }

    #[test]
    fn streams_spread_across_shards() {
        let router = ShardRouter::new(4, 7).unwrap();
        let mut counts = [0usize; 4];
        for stream in 0..400u64 {
            counts[router.route(stream) as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count > 40, "shard {shard} serves only {count}/400 streams");
        }
    }

    #[test]
    fn cannot_drain_last_active_shard() {
        let mut router = ShardRouter::new(2, 0).unwrap();
        router.drain(0).unwrap();
        assert!(router.drain(1).is_err());
        // Draining an already-drained shard is idempotent, not an error.
        router.drain(0).unwrap();
        router.restore(0).unwrap();
        assert_eq!(router.active(), vec![0, 1]);
        assert!(router.drain(9).is_err());
        assert!(router.restore(9).is_err());
    }
}
