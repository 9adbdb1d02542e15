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
    assert!(
        norm == BlockNorm::None || (cells_x >= BLOCK_CELLS && cells_y >= BLOCK_CELLS),
        "window too small for {BLOCK_CELLS}x{BLOCK_CELLS} blocks"
    );
    out.reserve(descriptor_len(cells_x, cells_y, cell(0, 0).len(), norm));
    if norm == BlockNorm::None {
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                out.extend_from_slice(cell(cx, cy));
            }
        }
        return;
    }
    for by in 0..=cells_y - BLOCK_CELLS {
        for bx in 0..=cells_x - BLOCK_CELLS {
            let start = out.len();
            for dy in 0..BLOCK_CELLS {
                for dx in 0..BLOCK_CELLS {
                    out.extend_from_slice(cell(bx + dx, by + dy));
                }
            }
            norm.apply(&mut out[start..]);
        }
    }
}

/// The length of a descriptor assembled from a `cells_x × cells_y` grid
/// with `bins` bins under `norm`.
pub fn descriptor_len(cells_x: usize, cells_y: usize, bins: usize, norm: BlockNorm) -> usize {
    match norm {
        BlockNorm::None => cells_x * cells_y * bins,
        _ => {
            (cells_x - BLOCK_CELLS + 1)
                * (cells_y - BLOCK_CELLS + 1)
                * BLOCK_CELLS
                * BLOCK_CELLS
                * bins
        }
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
