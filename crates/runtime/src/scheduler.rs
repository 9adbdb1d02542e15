//! Deterministic work scheduling over a fixed pool of scoped threads.
//!
//! The index-ordered map primitives live in the `pcnn-sched` crate and
//! are re-exported here under their historical paths. This module keeps
//! the detection-batch specific work decomposition: [`plan_chunks`]
//! splits the window-row grids of a frame batch into [`Chunk`]s in
//! serial scan order.

pub use pcnn_sched::{parallel_map, try_parallel_map, WorkerPanic};

/// One classification work item: a contiguous chunk of window rows
/// within one pyramid level of one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Frame index within the batch.
    pub frame: usize,
    /// Flat index of the (frame, level) grid this chunk scans.
    pub grid: usize,
    /// Window start rows covered by this chunk.
    pub rows: std::ops::Range<usize>,
}

/// Splits the valid window rows of each grid into chunks of at most
/// `chunk_rows` rows, emitted in (frame, level, row) order so that
/// concatenating chunk results by chunk index reproduces the serial
/// scan order.
///
/// `grids` gives, for each flat grid index, its owning frame and its
/// number of valid window rows.
pub fn plan_chunks(grids: &[(usize, usize)], chunk_rows: usize) -> Vec<Chunk> {
    assert!(chunk_rows > 0, "chunk_rows must be positive");
    let mut chunks = Vec::new();
    for (grid, &(frame, rows)) in grids.iter().enumerate() {
        let mut start = 0;
        while start < rows {
            let end = (start + chunk_rows).min(rows);
            chunks.push(Chunk { frame, grid, rows: start..end });
            start = end;
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_map_matches_serial() {
        let f = |i: usize| (i * 31 + 7) % 101;
        let serial: Vec<_> = (0..57).map(f).collect();
        for workers in [1, 2, 4] {
            assert_eq!(parallel_map(workers, 57, f), serial, "workers={workers}");
        }
    }

    #[test]
    fn chunks_cover_rows_in_order_without_overlap() {
        let grids = [(0, 7), (0, 3), (1, 0), (1, 5)];
        let chunks = plan_chunks(&grids, 3);
        // Every row of every grid appears exactly once, in order.
        for (grid, &(frame, rows)) in grids.iter().enumerate() {
            let covered: Vec<usize> =
                chunks.iter().filter(|c| c.grid == grid).flat_map(|c| c.rows.clone()).collect();
            assert_eq!(covered, (0..rows).collect::<Vec<_>>());
            assert!(chunks.iter().filter(|c| c.grid == grid).all(|c| c.frame == frame));
        }
        // Chunk order is (frame, grid, row)-monotone.
        for pair in chunks.windows(2) {
            assert!(
                (pair[0].frame, pair[0].grid, pair[0].rows.start)
                    < (pair[1].frame, pair[1].grid, pair[1].rows.start)
            );
        }
    }

    #[test]
    fn chunk_size_bounds_respected() {
        for chunk_rows in 1..6 {
            for c in plan_chunks(&[(0, 13)], chunk_rows) {
                assert!(c.rows.len() <= chunk_rows);
                assert!(!c.rows.is_empty());
            }
        }
    }
}
