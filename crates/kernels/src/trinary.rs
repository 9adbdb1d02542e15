//! Multiply-free GEMM over trinary (`{-1, 0, 1}`) weight matrices.
//!
//! Eedn deploys every weight as one of three values, so inference never
//! needs an f32 multiply: each output element is a signed *selection*
//! of input values. [`TrinaryMatrix`] packs a deployed weight matrix
//! once into two bitplanes — a plus-mask and a minus-mask, 64 columns
//! per `u64` word — and [`gemm_trinary`] walks the set bits of each
//! row, adding or subtracting row segments of `B` into an accumulator
//! tile held in registers across the whole walk (vectorised across the
//! independent output columns; one streamed load + add per nonzero
//! weight per lane).
//!
//! # Determinism contract
//!
//! The trinary path is **bit-identical** to the f32 product with the
//! same weights, and therefore to `pcnn_eedn::reference`:
//!
//! * `+1·x` and `-1·x` are exact in IEEE-754 (`1.0 * x == x`), and
//!   `acc - x` is the same operation as `acc + (-x)`;
//! * skipped zero weights contribute `±0.0` in the f32 product, which
//!   never changes a running sum — a sum that starts at `+0.0` can
//!   never become `-0.0` under round-to-nearest (only
//!   `(-0.0) + (-0.0)` produces `-0.0`), so dropping those terms drops
//!   exact no-ops;
//! * bits are visited in ascending column order, preserving the
//!   reference's left-to-right accumulation per output element.
//!
//! Work is traced as [`Counter::Ops`](pcnn_trace::Counter::Ops) — one
//! add/sub selection per nonzero weight per output column — under the
//! `kernels.gemm_trinary` stage, so profiles attribute the win to the
//! multiply-free path rather than reporting phantom flops.

use crate::dispatch::{self, SimdBackend};

/// Population counts of a trinarized weight buffer, as produced by the
/// packer (and by `pcnn_eedn`'s `trinarize_into`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrinaryStats {
    /// Weights deployed as `+1`.
    pub plus: usize,
    /// Weights deployed as `-1`.
    pub minus: usize,
    /// Total weights inspected (including zeros).
    pub total: usize,
}

impl TrinaryStats {
    /// Nonzero weight count: `plus + minus`.
    pub fn nonzero(&self) -> usize {
        self.plus + self.minus
    }

    /// Fraction of weights that are nonzero, in `[0, 1]`.
    ///
    /// An empty buffer (`total == 0`) has density `0.0` by definition:
    /// no weight is nonzero, so none contribute work.
    pub fn density(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.nonzero() as f32 / self.total as f32
        }
    }
}

/// A trinary matrix packed as two row-major bitplanes.
///
/// Bit `j % 64` of word `row * words_per_row + j / 64` in `plus`
/// (resp. `minus`) is set when element `(row, j)` is `+1.0` (resp.
/// `-1.0`); zeros set neither. Built once per deployed weight matrix
/// and reused across every inference call: the trinary `GroupedLinear`
/// and `Conv2d` layers in `pcnn_eedn` each keep one per group
/// resident, repacked only after their weights change.
#[derive(Debug, Default, Clone)]
pub struct TrinaryMatrix {
    plus: Vec<u64>,
    minus: Vec<u64>,
    rows: usize,
    cols: usize,
    words: usize,
    stats: TrinaryStats,
}

impl TrinaryMatrix {
    /// Packs row-major `w` (`rows × cols`, row stride `ldw`) into the
    /// bitplanes, reusing this buffer's allocation, and returns the
    /// population counts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is too short for the described matrix, or if any
    /// element is not exactly `-1.0`, `0.0` or `1.0` (the packer is
    /// for *deployed* trinary weights, not shadow weights).
    pub fn pack(&mut self, w: &[f32], ldw: usize, rows: usize, cols: usize) -> TrinaryStats {
        assert!(rows > 0 && cols > 0, "empty matrix");
        assert!((rows - 1) * ldw + cols <= w.len(), "matrix exceeds slice");
        let words = cols.div_ceil(64);
        self.plus.clear();
        self.plus.resize(rows * words, 0);
        self.minus.clear();
        self.minus.resize(rows * words, 0);
        self.rows = rows;
        self.cols = cols;
        self.words = words;
        let mut stats = TrinaryStats { plus: 0, minus: 0, total: rows * cols };
        for r in 0..rows {
            let row = &w[r * ldw..][..cols];
            for (j, &v) in row.iter().enumerate() {
                let bit = 1u64 << (j % 64);
                let word = r * words + j / 64;
                if v == 1.0 {
                    self.plus[word] |= bit;
                    stats.plus += 1;
                } else if v == -1.0 {
                    self.minus[word] |= bit;
                    stats.minus += 1;
                } else {
                    assert!(v == 0.0, "non-trinary weight {v} at ({r}, {j})");
                }
            }
        }
        self.stats = stats;
        stats
    }

    /// Packed row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Packed column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Population counts recorded by the last [`pack`](Self::pack).
    pub fn stats(&self) -> TrinaryStats {
        self.stats
    }
}

/// Columns of `B`/`C` per cache tile: the slice of `B` rows a tile
/// streams stays cache-resident across all the weight rows that reuse
/// it (the `C` tile itself lives in registers inside the dispatch
/// kernel).
const JT: usize = 256;

/// `C += W · B` where `W` is a packed trinary matrix: `b` is
/// `w.cols() × n` (stride `ldb`), `c` is `w.rows() × n` (stride
/// `ldc`), both row-major. Multiply-free and bit-identical to the f32
/// product (see module docs); runs on the process-wide SIMD backend.
///
/// # Panics
///
/// Panics if a slice is too short for its described matrix.
pub fn gemm_trinary(w: &TrinaryMatrix, n: usize, b: &[f32], ldb: usize, c: &mut [f32], ldc: usize) {
    gemm_trinary_with_backend(dispatch::active_backend(), w, n, b, ldb, c, ldc);
}

/// [`gemm_trinary`] on an explicit [`SimdBackend`]. Bit-identical
/// across backends.
///
/// # Panics
///
/// Panics if a slice is too short for its described matrix.
pub fn gemm_trinary_with_backend(
    kb: SimdBackend,
    w: &TrinaryMatrix,
    n: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let (m, k) = (w.rows, w.cols);
    assert!(m > 0 && k > 0 && n > 0, "empty gemm");
    assert!((k - 1) * ldb + n <= b.len(), "B exceeds slice");
    assert!((m - 1) * ldc + n <= c.len(), "C exceeds slice");
    let span = pcnn_trace::span(pcnn_trace::stages::KERNELS_GEMM_TRINARY);
    if span.is_recording() {
        // One add/sub selection per nonzero weight per output column.
        span.add(pcnn_trace::Counter::Ops, (w.stats.nonzero() as u64) * (n as u64));
    }
    dispatch::note_trinary_use();

    for j0 in (0..n).step_by(JT) {
        let jw = JT.min(n - j0);
        for r in 0..m {
            let crow = &mut c[r * ldc + j0..][..jw];
            let plus = &w.plus[r * w.words..][..w.words];
            let minus = &w.minus[r * w.words..][..w.words];
            // The dispatch kernel walks the set bits in ascending
            // order, preserving the reference's left-to-right
            // accumulation per output element.
            dispatch::trinary_row_tile(kb, crow, &b[j0..], ldb, plus, minus);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_trinary(rng: &mut SmallRng, len: usize, density: f64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.random_bool(density) {
                    if rng.random_bool(0.5) {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn rand_vec(rng: &mut SmallRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random_range(-1.0..1.0f32)).collect()
    }

    /// The textbook f32 product the trinary path must match bit-for-bit.
    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn assert_bits_eq(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "element {i}: {g} vs {w}");
        }
    }

    /// Shapes crossing the word (64-column) and JT-tile boundaries.
    fn shape_sweep() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (3, 63, 5),
            (4, 64, 8),
            (5, 65, 9),
            (7, 130, 31),
            (17, 288, JT + 9),
            (64, 100, 900),
        ]
    }

    #[test]
    fn trinary_gemm_matches_f32_product_bitwise() {
        let mut rng = SmallRng::seed_from_u64(0x73101);
        let mut tw = TrinaryMatrix::default();
        for density in [0.0, 0.5, 1.0] {
            for (m, k, n) in shape_sweep() {
                let w = rand_trinary(&mut rng, m * k, density);
                let b = rand_vec(&mut rng, k * n);
                let stats = tw.pack(&w, k, m, k);
                assert_eq!(stats.total, m * k);
                assert_eq!(
                    stats.nonzero(),
                    w.iter().filter(|&&v| v != 0.0).count(),
                    "density={density} shape=({m},{k},{n})"
                );
                let mut c = vec![0.0f32; m * n];
                gemm_trinary(&tw, n, &b, n, &mut c, n);
                assert_bits_eq(&c, &naive(m, k, n, &w, &b));
            }
        }
    }

    #[test]
    fn trinary_gemm_accumulates_and_respects_strides() {
        let mut rng = SmallRng::seed_from_u64(0x73102);
        let (m, k, n) = (5, 70, 7);
        let (ldb, ldc) = (n + 3, n + 6);
        let w = rand_trinary(&mut rng, m * k, 0.6);
        let bbig = rand_vec(&mut rng, k * ldb);
        let cinit = rand_vec(&mut rng, m * ldc);
        let mut cbig = cinit.clone();
        let mut tw = TrinaryMatrix::default();
        tw.pack(&w, k, m, k);
        gemm_trinary(&tw, n, &bbig, ldb, &mut cbig, ldc);
        // Dense reference over the strided views: the running sum is
        // *extended* from C's initial contents, term by term.
        for i in 0..m {
            for j in 0..n {
                let mut want = cinit[i * ldc + j];
                for p in 0..k {
                    want += w[i * k + p] * bbig[p * ldb + j];
                }
                assert_eq!(cbig[i * ldc + j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
        // Columns beyond n are untouched.
        for i in 0..m {
            for j in n..ldc {
                assert_eq!(cbig[i * ldc + j].to_bits(), cinit[i * ldc + j].to_bits());
            }
        }
    }

    #[test]
    fn backends_agree_bitwise() {
        let mut rng = SmallRng::seed_from_u64(0x73103);
        let (m, k, n) = (9, 129, 33);
        let w = rand_trinary(&mut rng, m * k, 0.5);
        let b = rand_vec(&mut rng, k * n);
        let mut tw = TrinaryMatrix::default();
        tw.pack(&w, k, m, k);
        let mut c_scalar = vec![0.0f32; m * n];
        gemm_trinary_with_backend(SimdBackend::Scalar, &tw, n, &b, n, &mut c_scalar, n);
        let mut c_active = vec![0.0f32; m * n];
        gemm_trinary(&tw, n, &b, n, &mut c_active, n);
        assert_bits_eq(&c_active, &c_scalar);
    }

    #[test]
    fn stats_density_handles_empty_and_full() {
        let empty = TrinaryStats::default();
        assert_eq!(empty.density(), 0.0);
        assert_eq!(empty.nonzero(), 0);
        let full = TrinaryStats { plus: 3, minus: 1, total: 4 };
        assert_eq!(full.density(), 1.0);
        assert_eq!(full.nonzero(), 4);
        let half = TrinaryStats { plus: 1, minus: 1, total: 4 };
        assert_eq!(half.density(), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-trinary weight")]
    fn shadow_weights_rejected() {
        let mut tw = TrinaryMatrix::default();
        tw.pack(&[0.5, 1.0], 2, 1, 2);
    }
}
