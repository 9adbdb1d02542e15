//! Temporal-coherence caching for video streams.
//!
//! Consecutive frames of a (near-)static camera share most of their
//! pixels, so re-running the cell extractor on every cell of every
//! frame is wasted work: even with NApprox's table-driven kernel a cell
//! costs about a microsecond, several times its patch hash. A
//! [`CellCache`] remembers, per pyramid level, a content hash of each
//! cell's padded 10×10 input patch alongside the histogram it produced,
//! plus a hash of each window's contributing cells alongside its
//! classifier score. On the next frame only cells whose pixels changed
//! re-run the extractor, and only windows touching a changed cell
//! re-run the classifier.
//!
//! The cache is the memo of the server's detection pipeline: every
//! frame, batch or stream, runs through a [`CellCache`]. A batch frame's
//! cache is fresh and dropped after the frame, so nothing is hashed and
//! every cell and window is computed; a stream keeps its cache between
//! frames. Cache keying — the frame hash, the cell patch hash, the
//! window hash — lives only in this module (see `LevelCache::refresh`).
//!
//! # Determinism contract
//!
//! A cached result is only ever reused when the exact input bits that
//! produced it are unchanged (equal patch hash ⇒ equal patch pixels,
//! modulo 64-bit FNV collisions, which are negligible at cell counts).
//! Extractors and classifiers are pure functions of their input in
//! every noise-free configuration, so the cached streaming path is
//! **bit-identical** to a cold run — pinned by
//! `tests/streaming_cache.rs`. Reuse decisions depend only on pixel
//! content, never on thread timing, so the reuse/recompute counters are
//! conserved across worker counts and shard layouts.
//!
//! # Invalidation
//!
//! The cache is keyed by a *detector token* (the fallback-chain level
//! that served the stream, combined by the owner with its model
//! generation). A token change — model swap, degradation switch —
//! clears every cached histogram and score. Owners can also call
//! [`CellCache::invalidate`] directly, as cluster shards do when a
//! blue/green install publishes a new generation.

use pcnn_core::pipeline::Detector;
use pcnn_core::Extractor;
use pcnn_hog::cell::CELL_SIZE;
use pcnn_vision::pyramid::PyramidLevel;
use pcnn_vision::{Detection, GrayImage, WINDOW_HEIGHT, WINDOW_WIDTH};

const WINDOW_CELLS_X: usize = WINDOW_WIDTH / CELL_SIZE;
const WINDOW_CELLS_Y: usize = WINDOW_HEIGHT / CELL_SIZE;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of `u64` words.
#[inline]
fn fnv_words(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = seed;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a chains [`frame_hash`] runs side by side. One chain is bound by
/// its multiply latency; independent lanes overlap their multiplies.
const FRAME_LANES: usize = 4;

/// Content hash of a whole frame (the fast path: an unchanged frame
/// skips the pyramid entirely). Pixel `i` feeds FNV-1a lane
/// `i % FRAME_LANES`; the dimensions, the lanes in order and the last
/// `len % FRAME_LANES` pixels are then folded with `fnv_words`.
pub fn frame_hash(img: &GrayImage) -> u64 {
    let dims = (img.width() as u64) << 32 | img.height() as u64;
    let pixels = img.pixels().chunks_exact(FRAME_LANES);
    let tail = pixels.remainder();
    let mut lanes = [FNV_OFFSET; FRAME_LANES];
    for group in pixels {
        for (h, p) in lanes.iter_mut().zip(group) {
            *h = (*h ^ u64::from(p.to_bits())).wrapping_mul(FNV_PRIME);
        }
    }
    fnv_words(
        FNV_OFFSET,
        std::iter::once(dims).chain(lanes).chain(tail.iter().map(|p| u64::from(p.to_bits()))),
    )
}

/// Content hash of one cell's padded input patch — the same 10×10
/// border-replicated region `pcnn_hog::cell::cell_patch` feeds the
/// extractor, walked in the same order but without allocating.
pub fn cell_patch_hash(img: &GrayImage, cell_x: usize, cell_y: usize) -> u64 {
    let px = (cell_x * CELL_SIZE) as isize - 1;
    let py = (cell_y * CELL_SIZE) as isize - 1;
    let mut h = FNV_OFFSET;
    for dy in 0..(CELL_SIZE as isize + 2) {
        for dx in 0..(CELL_SIZE as isize + 2) {
            h ^= u64::from(img.get_clamped(px + dx, py + dy).to_bits());
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Reuse/recompute totals for one probed frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells whose histogram was served from the cache.
    pub cells_reused: u64,
    /// Cells whose pixels changed and re-ran the extractor.
    pub cells_recomputed: u64,
}

impl CacheStats {
    /// Fraction of cells served from the cache (0 when nothing was
    /// probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cells_reused + self.cells_recomputed;
        if total == 0 {
            0.0
        } else {
            self.cells_reused as f64 / total as f64
        }
    }
}

/// Cached state of one pyramid level.
#[derive(Debug, Clone, Default)]
pub struct LevelCache {
    /// Cells per row.
    pub cells_x: usize,
    /// Cell rows.
    pub cells_y: usize,
    /// The level's scale factor (part of the shape key).
    pub scale: f32,
    /// Per-cell patch hashes, row-major (`cy * cells_x + cx`).
    pub cell_hashes: Vec<u64>,
    /// Per-cell histograms, row-major.
    pub histograms: Vec<Vec<f32>>,
    /// Per-window hashes over contributing cells, row-major.
    pub window_hashes: Vec<u64>,
    /// Per-window classifier scores, row-major (every window, including
    /// those below the score floor, so a reuse never re-scores).
    pub window_scores: Vec<f32>,
}

impl LevelCache {
    /// Whether the cached shape matches a level of the given geometry.
    pub fn matches(&self, cells_x: usize, cells_y: usize, scale: f32) -> bool {
        self.cells_x == cells_x && self.cells_y == cells_y && self.scale == scale
    }

    /// The hash of window `(row, col)` from the current cell hashes.
    pub fn window_hash(&self, row: usize, col: usize, wcx: usize, wcy: usize) -> u64 {
        fnv_words(
            FNV_OFFSET,
            (row..row + wcy).flat_map(|cy| {
                self.cell_hashes[cy * self.cells_x + col..cy * self.cells_x + col + wcx]
                    .iter()
                    .copied()
            }),
        )
    }

    /// Brings this level up to date with `level`, the same pyramid level
    /// of the next frame, and returns its cell counts with the row-major
    /// indices of the windows whose cached score is stale.
    ///
    /// With `reuse`, a cell re-runs `extractor` only when the hash of its
    /// padded patch changed, and a window goes stale only when the hash
    /// over its cells did. Without it every cell is extracted and every
    /// window is stale, and nothing is hashed: the caller drops the
    /// cache afterwards, so no later frame would read the hashes. Either
    /// way the cells to extract go to the extractor in one
    /// [`Extractor::cell_histograms`] call, in row-major order.
    pub(crate) fn refresh(
        &mut self,
        level: &PyramidLevel,
        extractor: &Extractor,
        reuse: bool,
    ) -> (CacheStats, Vec<usize>) {
        let cells_x = level.image.width() / CELL_SIZE;
        let cells_y = level.image.height() / CELL_SIZE;
        if !self.matches(cells_x, cells_y, level.scale) {
            *self = LevelCache {
                cells_x,
                cells_y,
                scale: level.scale,
                cell_hashes: vec![0; cells_x * cells_y],
                histograms: vec![Vec::new(); cells_x * cells_y],
                window_hashes: Vec::new(),
                window_scores: Vec::new(),
            };
        }
        let mut stats = CacheStats::default();
        let (mut changed, mut origins) = (Vec::new(), Vec::new());
        for idx in 0..cells_x * cells_y {
            let (cx, cy) = (idx % cells_x, idx / cells_x);
            if reuse {
                let h = cell_patch_hash(&level.image, cx, cy);
                // An empty histogram marks a never-computed cell (fresh
                // level), which must recompute even if its stored hash
                // happens to collide.
                if self.cell_hashes[idx] == h && !self.histograms[idx].is_empty() {
                    stats.cells_reused += 1;
                    continue;
                }
                self.cell_hashes[idx] = h;
            }
            changed.push(idx);
            origins.push((cx * CELL_SIZE, cy * CELL_SIZE));
        }
        let bins = extractor.bins();
        let mut flat = vec![0.0; origins.len() * bins];
        extractor.cell_histograms(&level.image, &origins, &mut flat);
        for (i, &idx) in changed.iter().enumerate() {
            self.histograms[idx] = flat[i * bins..][..bins].to_vec();
        }
        stats.cells_recomputed = changed.len() as u64;

        let (rows, cols) = Detector::window_grid(cells_x, cells_y);
        let n = rows * cols;
        let warm = self.window_hashes.len() == n && self.window_scores.len() == n;
        if !warm {
            self.window_hashes = vec![0; n];
            self.window_scores = vec![0.0; n];
        }
        if !reuse {
            return (stats, (0..n).collect());
        }
        let stale = (0..n)
            .filter(|&w| {
                let h = self.window_hash(w / cols, w % cols, WINDOW_CELLS_X, WINDOW_CELLS_Y);
                let changed = !warm || self.window_hashes[w] != h;
                self.window_hashes[w] = h;
                changed
            })
            .collect();
        (stats, stale)
    }
}

/// Per-stream temporal cache: cell histograms, window scores and the
/// last frame's final detections, valid for one detector token.
#[derive(Debug, Clone, Default)]
pub struct CellCache {
    /// The detector identity the cached values were computed with.
    token: Option<u64>,
    /// Hash of the last fully processed frame.
    frame_hash: Option<u64>,
    /// Final (post-NMS) detections of the last frame.
    last_detections: Option<Vec<Detection>>,
    /// Per-pyramid-level caches.
    levels: Vec<LevelCache>,
    /// Total cells across all levels (for fast-path accounting).
    total_cells: u64,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// Drops every cached value. Owners call this when the model behind
    /// the stream changes (blue/green swap) — cached histograms and
    /// scores from the old generation must never leak into the new one.
    pub fn invalidate(&mut self) {
        *self = CellCache::default();
    }

    /// Ensures the cache belongs to `token`, clearing it if not.
    /// Returns whether the cache was valid for the token already.
    pub fn ensure_token(&mut self, token: u64) -> bool {
        if self.token == Some(token) {
            true
        } else {
            self.invalidate();
            self.token = Some(token);
            false
        }
    }

    /// The cached final detections if `hash` matches the last fully
    /// processed frame (the unchanged-frame fast path).
    pub fn unchanged(&self, hash: u64) -> Option<&Vec<Detection>> {
        if self.frame_hash == Some(hash) {
            self.last_detections.as_ref()
        } else {
            None
        }
    }

    /// Total cells across all cached levels.
    pub fn total_cells(&self) -> u64 {
        self.total_cells
    }

    /// Whether the cache holds any level state.
    pub fn is_warm(&self) -> bool {
        !self.levels.is_empty()
    }

    /// The per-level caches.
    pub fn levels(&self) -> &[LevelCache] {
        &self.levels
    }

    /// Mutable access to the per-level caches, resized to `n` levels
    /// (new slots start empty).
    pub fn levels_mut(&mut self, n: usize) -> &mut [LevelCache] {
        self.levels.resize_with(n, LevelCache::default);
        &mut self.levels
    }

    /// Records the completed frame: its hash, its final detections and
    /// the cell total used by the fast path.
    pub fn finish_frame(&mut self, hash: u64, detections: Vec<Detection>) {
        self.total_cells = self.levels.iter().map(|l| (l.cells_x * l.cells_y) as u64).sum();
        self.frame_hash = Some(hash);
        self.last_detections = Some(detections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_hash_is_content_sensitive() {
        let a = GrayImage::from_fn(16, 16, |x, y| (x + y) as f32 / 32.0);
        let mut b = a.clone();
        assert_eq!(frame_hash(&a), frame_hash(&b));
        b.set(7, 3, 0.123);
        assert_ne!(frame_hash(&a), frame_hash(&b));
    }

    #[test]
    fn frame_hash_covers_every_lane_and_the_tail() {
        // 21 pixels: five per lane plus one past the last full group.
        let a = GrayImage::from_fn(7, 3, |x, y| (x * 3 + y) as f32 / 32.0);
        let h = frame_hash(&a);
        for i in 0..21 {
            let mut b = a.clone();
            b.set(i % 7, i / 7, 0.9);
            assert_ne!(frame_hash(&b), h, "pixel {i}");
        }
        // Neighbours sit in different lanes: swapping them must show.
        let mut swapped = a.clone();
        swapped.set(0, 0, a.get(1, 0));
        swapped.set(1, 0, a.get(0, 0));
        assert_ne!(frame_hash(&swapped), h);
        // Equal pixels in another shape hash differently.
        let flat = GrayImage::from_vec(21, 1, a.pixels().to_vec());
        assert_ne!(frame_hash(&flat), h);
    }

    #[test]
    fn cell_patch_hash_matches_patch_content() {
        let img = GrayImage::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 29) as f32 / 29.0);
        // Hash must cover exactly the 10×10 padded patch: a pixel just
        // outside it leaves the hash unchanged, one inside changes it.
        let h0 = cell_patch_hash(&img, 1, 1);
        let mut outside = img.clone();
        outside.set(18, 18, 0.999); // patch of cell (1,1) spans 7..=16
        assert_eq!(cell_patch_hash(&outside, 1, 1), h0);
        let mut inside = img.clone();
        inside.set(16, 16, 0.999); // border row of the padded patch
        assert_ne!(cell_patch_hash(&inside, 1, 1), h0);
    }

    #[test]
    fn cell_patch_hash_replicates_border() {
        // Cells on the image edge hash the same replicated pixels
        // cell_patch feeds the extractor.
        let a = GrayImage::from_fn(16, 16, |x, y| (x * y) as f32 / 256.0);
        let h = cell_patch_hash(&a, 0, 0);
        assert_ne!(h, cell_patch_hash(&a, 1, 0));
        assert_eq!(h, cell_patch_hash(&a, 0, 0));
    }

    #[test]
    fn ensure_token_clears_on_change() {
        let mut cache = CellCache::new();
        assert!(!cache.ensure_token(1), "fresh cache is not valid for any token");
        cache.finish_frame(42, vec![]);
        assert!(cache.unchanged(42).is_some());
        assert!(cache.ensure_token(1), "same token keeps the cache");
        assert!(cache.unchanged(42).is_some());
        assert!(!cache.ensure_token(2), "token change invalidates");
        assert!(cache.unchanged(42).is_none());
    }

    #[test]
    fn stats_hit_rate() {
        let s = CacheStats { cells_reused: 3, cells_recomputed: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
