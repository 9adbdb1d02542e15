//! Block contrast normalization.
//!
//! HoG groups 2×2 neighbouring cells into overlapping *blocks* (striding
//! one cell both ways) and normalizes each block's concatenated histogram,
//! giving the descriptor local contrast invariance. The paper's Figure 4
//! configurations all use 2×2 blocks with L2 normalization (`v/‖v‖₂`);
//! the TrueNorth experiments of Figure 5 *elide* normalization entirely
//! because it is costly on the neuromorphic platform — [`BlockNorm::None`]
//! reproduces that configuration.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Cells per block side (blocks are `BLOCK_CELLS × BLOCK_CELLS`).
pub const BLOCK_CELLS: usize = 2;

/// Block normalization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BlockNorm {
    /// No blocks: the descriptor is the raw concatenation of cell
    /// histograms (the paper's neuromorphic-classifier configuration).
    None,
    /// L2: `v / √(‖v‖₂² + ε²)`.
    #[default]
    L2,
    /// L2-Hys: L2, clip at 0.2, renormalize (Dalal's best performer).
    L2Hys,
    /// L1: `v / (‖v‖₁ + ε)`.
    L1,
}

const EPS: f32 = 1e-3;

impl BlockNorm {
    /// Cells per block side: [`BLOCK_CELLS`] when blocks are normalized,
    /// 1 under [`BlockNorm::None`], whose descriptor is its cells in
    /// order — 1×1 "blocks" that are never normalized.
    pub fn block_cells(self) -> usize {
        match self {
            BlockNorm::None => 1,
            _ => BLOCK_CELLS,
        }
    }

    /// Normalizes one block vector in place.
    pub fn apply(self, v: &mut [f32]) {
        match self {
            BlockNorm::None => {}
            BlockNorm::L2 => l2(v),
            BlockNorm::L2Hys => {
                l2(v);
                for x in v.iter_mut() {
                    *x = x.min(0.2);
                }
                l2(v);
            }
            BlockNorm::L1 => {
                let norm: f32 = v.iter().map(|x| x.abs()).sum::<f32>() + EPS;
                for x in v.iter_mut() {
                    *x /= norm;
                }
            }
        }
    }
}

fn l2(v: &mut [f32]) {
    let norm = (v.iter().map(|x| x * x).sum::<f32>() + EPS * EPS).sqrt();
    for x in v.iter_mut() {
        *x /= norm;
    }
}

/// Assembles a window descriptor from its cell histogram grid.
///
/// `grid[cy][cx]` are per-cell histograms of equal length. With
/// [`BlockNorm::None`] the output is the row-major concatenation of all
/// cells. Otherwise, overlapping 2×2 blocks (stride one cell) are
/// concatenated after per-block normalization: for an 8×16 cell window
/// that is 7×15 blocks of `4 × bins` values — 3780 dimensions at 9 bins,
/// the paper's 7560 at 18 bins.
///
/// # Panics
///
/// Panics if the grid is empty or ragged.
pub fn assemble_descriptor(grid: &[Vec<Vec<f32>>], norm: BlockNorm) -> Vec<f32> {
    assert!(!grid.is_empty() && !grid[0].is_empty(), "empty cell grid");
    let cells_x = grid[0].len();
    let bins = grid[0][0].len();
    for row in grid {
        assert_eq!(row.len(), cells_x, "ragged cell grid");
        for h in row {
            assert_eq!(h.len(), bins, "ragged histogram");
        }
    }
    let mut out = Vec::new();
    assemble_descriptor_into(cells_x, grid.len(), |cx, cy| &grid[cy][cx], norm, &mut out);
    out
}

/// [`assemble_descriptor`] over a `cells_x × cells_y` window whose cell
/// `(cx, cy)` histogram `cell` returns, appending the descriptor to
/// `out` — so a caller can assemble many windows into one reused buffer
/// straight from its own cell layout, without copying cells into a grid.
/// Each block is normalized in place where it lands in `out`, with the
/// same arithmetic as [`assemble_descriptor`], so the values are
/// bit-identical.
///
/// `cell` must return histograms of one length.
///
/// # Panics
///
/// Panics if the window is empty, or smaller than one block when `norm`
/// normalizes blocks.
pub fn assemble_descriptor_into<'a>(
    cells_x: usize,
    cells_y: usize,
    cell: impl Fn(usize, usize) -> &'a [f32],
    norm: BlockNorm,
    out: &mut Vec<f32>,
) {
    assert!(cells_x > 0 && cells_y > 0, "empty cell grid");
    let side = norm.block_cells();
    assert!(cells_x >= side && cells_y >= side, "window too small for {side}x{side} blocks");
    out.reserve(descriptor_len(cells_x, cells_y, cell(0, 0).len(), norm));
    for by in 0..=cells_y - side {
        for bx in 0..=cells_x - side {
            push_block(norm, bx, by, &cell, out);
        }
    }
}

/// Appends the block whose top-left cell is `(bx, by)` to `out` — its
/// `side × side` cells row by row, `side` being
/// [`norm.block_cells()`](BlockNorm::block_cells) — and normalizes it
/// where it landed: the one copy-and-normalize step behind every
/// descriptor value, whether assembled per window or into
/// [`BlockRows`].
fn push_block<'a>(
    norm: BlockNorm,
    bx: usize,
    by: usize,
    cell: &impl Fn(usize, usize) -> &'a [f32],
    out: &mut Vec<f32>,
) {
    let side = norm.block_cells();
    let start = out.len();
    for dy in 0..side {
        for dx in 0..side {
            out.extend_from_slice(cell(bx + dx, by + dy));
        }
    }
    norm.apply(&mut out[start..]);
}

/// The length of a descriptor assembled from a `cells_x × cells_y` grid
/// with `bins` bins under `norm`.
pub fn descriptor_len(cells_x: usize, cells_y: usize, bins: usize, norm: BlockNorm) -> usize {
    let side = norm.block_cells();
    (cells_x - side + 1) * (cells_y - side + 1) * side * side * bins
}

/// Blocks [`BlockRows::new`] normalizes before writing them out: one
/// 64-byte cache line of `f32` per plane row.
const GROUP_BLOCKS: usize = 16;

/// The normalized blocks of a rectangle of a cell grid, each normalized
/// once and shared by every window over it.
///
/// The layout is element-major ("planar"): for each of the
/// `side² × bins` elements of a block there is one plane holding that
/// element of every block, row-major over the rectangle's block rows ×
/// block columns. Descriptor dimension `d` of horizontally adjacent
/// windows is then a contiguous run of floats, `offsets[d] + k` for the
/// window `k` columns right of the first (see
/// [`window_offsets`](Self::window_offsets) and
/// [`from_block`](Self::from_block)), which is the layout a lane-parallel
/// scorer reads. Under [`BlockNorm::None`] the "blocks" are the raw
/// cells (1×1), so one layout serves every norm.
///
/// The values equal [`assemble_descriptor_into`]'s bit for bit: both
/// copy and normalize each block through one helper.
#[derive(Debug)]
pub struct BlockRows {
    side: usize,
    block_len: usize,
    cols: usize,
    plane: usize,
    data: Vec<f32>,
}

impl BlockRows {
    /// Normalizes the blocks whose top-left cells lie in `rows × cols`
    /// (block coordinates equal top-left cell coordinates), reading cell
    /// `(cx, cy)` from `cell`. `slack` zeros follow the last plane, so a
    /// reader may run up to that many floats past the rectangle's last
    /// block; whatever it reads there is padding.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty.
    pub fn new<'a>(
        norm: BlockNorm,
        rows: Range<usize>,
        cols: Range<usize>,
        slack: usize,
        cell: impl Fn(usize, usize) -> &'a [f32],
    ) -> Self {
        assert!(!rows.is_empty() && !cols.is_empty(), "empty block rectangle");
        let side = norm.block_cells();
        let block_len = side * side * cell(cols.start, rows.start).len();
        let (width, plane) = (cols.len(), rows.len() * cols.len());
        let mut data = vec![0.0; block_len * plane + slack];
        // Blocks are normalized a cache line's worth at a time into one
        // contiguous group, then written plane by plane, so every plane
        // row is written in whole lines rather than one float per line.
        let mut group = Vec::with_capacity(GROUP_BLOCKS * block_len);
        for (r, by) in rows.enumerate() {
            for c0 in (0..width).step_by(GROUP_BLOCKS) {
                let c1 = (c0 + GROUP_BLOCKS).min(width);
                group.clear();
                for bx in cols.start + c0..cols.start + c1 {
                    push_block(norm, bx, by, &cell, &mut group);
                }
                let planes = data[..block_len * plane].chunks_exact_mut(plane);
                for (e, values) in planes.enumerate() {
                    let row = &mut values[r * width + c0..r * width + c1];
                    for (slot, block) in row.iter_mut().zip(group.chunks_exact(block_len)) {
                        *slot = block[e];
                    }
                }
            }
        }
        BlockRows { side, block_len, cols: width, plane, data }
    }

    /// For a window of `cells_x × cells_y` cells, the offset of each of
    /// its descriptor dimensions, in descriptor order, from the window's
    /// top-left block in [`from_block`](Self::from_block).
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than one block.
    pub fn window_offsets(&self, cells_x: usize, cells_y: usize) -> Vec<usize> {
        assert!(cells_x >= self.side && cells_y >= self.side, "window smaller than a block");
        let (blocks_x, blocks_y) = (cells_x - self.side + 1, cells_y - self.side + 1);
        let mut offsets = Vec::with_capacity(blocks_x * blocks_y * self.block_len);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                offsets.extend((0..self.block_len).map(|e| e * self.plane + by * self.cols + bx));
            }
        }
        offsets
    }

    /// The buffer from the block at `(row, col)` of the rectangle on:
    /// dimension `d` of the window whose top-left block that is sits at
    /// `[offsets[d]]`, and of the window `k` columns right at
    /// `[offsets[d] + k]`.
    pub fn from_block(&self, row: usize, col: usize) -> &[f32] {
        &self.data[row * self.cols + col..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(cells_x: usize, cells_y: usize, bins: usize) -> Vec<Vec<Vec<f32>>> {
        (0..cells_y)
            .map(|cy| {
                (0..cells_x).map(|cx| (0..bins).map(|b| (cx + cy + b) as f32).collect()).collect()
            })
            .collect()
    }

    #[test]
    fn paper_descriptor_sizes() {
        // 8x16 cells: 9 bins + blocks = 3780; 18 bins + blocks = 7560
        // (the paper's 7x15x18x4); 18 bins without blocks = 2304.
        assert_eq!(descriptor_len(8, 16, 9, BlockNorm::L2), 3780);
        assert_eq!(descriptor_len(8, 16, 18, BlockNorm::L2), 7560);
        assert_eq!(descriptor_len(8, 16, 18, BlockNorm::None), 8 * 16 * 18);
    }

    #[test]
    fn assembled_len_matches_prediction() {
        for norm in [BlockNorm::None, BlockNorm::L2, BlockNorm::L1, BlockNorm::L2Hys] {
            let g = grid(8, 16, 9);
            assert_eq!(assemble_descriptor(&g, norm).len(), descriptor_len(8, 16, 9, norm));
        }
    }

    #[test]
    fn l2_blocks_have_unit_norm() {
        let g = grid(4, 4, 9);
        let d = assemble_descriptor(&g, BlockNorm::L2);
        for block in d.chunks(4 * 9) {
            let n: f32 = block.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-3, "block norm {n}");
        }
    }

    #[test]
    fn l2_is_scale_invariant() {
        let g1 = grid(3, 3, 9);
        let g2: Vec<Vec<Vec<f32>>> = g1
            .iter()
            .map(|row| row.iter().map(|h| h.iter().map(|v| v * 7.0).collect()).collect())
            .collect();
        let d1 = assemble_descriptor(&g1, BlockNorm::L2);
        let d2 = assemble_descriptor(&g2, BlockNorm::L2);
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn l2hys_clips_at_02() {
        // One dominant component gets clipped.
        let g = vec![vec![vec![100.0, 0.0, 0.0], vec![0.0; 3]], vec![vec![0.0; 3], vec![0.0; 3]]];
        let d = assemble_descriptor(&g, BlockNorm::L2Hys);
        assert!(d.iter().all(|&v| v <= 0.2 / 0.19), "clipped then renormalized: {d:?}");
    }

    #[test]
    fn l1_sums_to_one() {
        let g = grid(2, 2, 5);
        let d = assemble_descriptor(&g, BlockNorm::L1);
        let s: f32 = d.iter().sum();
        assert!((s - 1.0).abs() < 1e-2, "L1 block sums to ~1, got {s}");
    }

    #[test]
    fn none_is_plain_concatenation() {
        let g = grid(2, 2, 2);
        let d = assemble_descriptor(&g, BlockNorm::None);
        assert_eq!(d, vec![0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn into_appends_the_same_bits() {
        let g = grid(8, 16, 9);
        for norm in [BlockNorm::None, BlockNorm::L2, BlockNorm::L1, BlockNorm::L2Hys] {
            let mut out = vec![7.0];
            assemble_descriptor_into(8, 16, |cx, cy| &g[cy][cx], norm, &mut out);
            let want = assemble_descriptor(&g, norm);
            assert_eq!(out[0], 7.0, "{norm:?}: earlier contents are kept");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out[1..]), bits(&want), "{norm:?}");
        }
    }

    /// Seeded non-negative histograms with a spread of magnitudes, so
    /// L2-Hys clips and every norm divides by something other than one.
    fn seeded_grid(cells_x: usize, cells_y: usize, bins: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 10_000) as f32 / 997.0
        };
        (0..cells_y)
            .map(|_| (0..cells_x).map(|_| (0..bins).map(|_| next()).collect()).collect())
            .collect()
    }

    #[test]
    fn block_norm_none_uses_one_cell_blocks() {
        assert_eq!(BlockNorm::None.block_cells(), 1);
        for norm in [BlockNorm::L2, BlockNorm::L2Hys, BlockNorm::L1] {
            assert_eq!(norm.block_cells(), BLOCK_CELLS);
        }
        assemble_descriptor(&grid(1, 1, 9), BlockNorm::None);
    }

    #[test]
    fn block_rows_hold_every_window_descriptor_bit_for_bit() {
        let (win_x, win_y) = (4, 5);
        for norm in [BlockNorm::L2, BlockNorm::L2Hys, BlockNorm::L1, BlockNorm::None] {
            for bins in [9, 18] {
                let g = seeded_grid(11, 9, bins, bins as u64);
                let side = norm.block_cells();
                // A rectangle away from the grid's origin: windows with
                // top-left cells (1..=3, 2..=4) need blocks from there to
                // the last window's last block.
                let (rows, cols) = (2..4 + win_y - side + 1, 1..3 + win_x - side + 1);
                let cell = |cx: usize, cy: usize| g[cy][cx].as_slice();
                let blocks = BlockRows::new(norm, rows.clone(), cols.clone(), 0, cell);
                let offsets = blocks.window_offsets(win_x, win_y);
                assert_eq!(offsets.len(), descriptor_len(win_x, win_y, bins, norm));
                for cy0 in 2..=4 {
                    for cx0 in 1..=3 {
                        let sub: Vec<Vec<Vec<f32>>> = g[cy0..cy0 + win_y]
                            .iter()
                            .map(|row| row[cx0..cx0 + win_x].to_vec())
                            .collect();
                        let want = assemble_descriptor(&sub, norm);
                        let from_first = blocks.from_block(cy0 - rows.start, 0);
                        let lane = cx0 - cols.start;
                        for (d, (&o, w)) in offsets.iter().zip(&want).enumerate() {
                            let got = from_first[o + lane];
                            assert_eq!(
                                got.to_bits(),
                                w.to_bits(),
                                "{norm:?} bins {bins} window ({cx0}, {cy0}) dim {d}"
                            );
                            let direct = blocks.from_block(cy0 - rows.start, cx0 - cols.start)[o];
                            assert_eq!(direct.to_bits(), w.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_rows_pad_their_last_plane_with_slack() {
        let g = seeded_grid(3, 3, 4, 5);
        let cell = |cx: usize, cy: usize| g[cy][cx].as_slice();
        let blocks = BlockRows::new(BlockNorm::L2, 0..2, 0..2, 7, cell);
        // Four blocks of 16 elements, then seven zeros.
        let all = blocks.from_block(0, 0);
        assert_eq!(all.len(), 16 * 4 + 7);
        assert!(all[64..].iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty block rectangle")]
    fn empty_block_rectangle_rejected() {
        let g = grid(3, 3, 4);
        BlockRows::new(BlockNorm::L2, 1..1, 0..2, 0, |cx, cy| &g[cy][cx]);
    }

    #[test]
    fn zero_block_stays_finite() {
        let g = vec![vec![vec![0.0; 4]; 2]; 2];
        for norm in [BlockNorm::L2, BlockNorm::L1, BlockNorm::L2Hys] {
            let d = assemble_descriptor(&g, norm);
            assert!(d.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_grid_rejected_for_blocks() {
        assemble_descriptor(&grid(1, 1, 9), BlockNorm::L2);
    }
}
