//! Reusable scratch buffers threaded through the eedn compute layer.

use crate::gemm::{GemmScratch, PackedA};

/// All per-call temporaries the GEMM-backed layers need, grouped so a
/// network can allocate once and reuse across every layer and step.
///
/// The buffers grow monotonically to the largest working set seen;
/// [`take_zeroed`] hands out zeroed views without
/// reallocating on the steady-state path.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// Packing buffers for the blocked GEMM itself.
    pub gemm: GemmScratch,
    /// `im2col` output: one column matrix per (sample, group).
    pub col: Vec<f32>,
    /// Gradient column matrix fed to `col2im`.
    pub dcol: Vec<f32>,
    /// Effective (projected) weights when a layer trains trinary.
    pub wbuf: Vec<f32>,
    /// Upstream gradient scaled by `alpha`, in GEMM layout.
    pub dbuf: Vec<f32>,
    /// f32 weight matrix packed once per call and reused across the
    /// batch (training and float layers; trinary inference reads the
    /// packed weights each layer keeps resident instead).
    pub wpack: PackedA,
    /// Transposed input block (`in × batch`) for the trinary linear
    /// inference path.
    pub bt: Vec<f32>,
    /// Transposed output block (`out × batch`) for the trinary linear
    /// inference path.
    pub ct: Vec<f32>,
}

/// Resizes `buf` to `len` and zeroes the live prefix, returning it as a
/// mutable slice. Capacity is retained across calls.
pub fn take_zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    &mut buf[..]
}

/// Resizes `buf` to `len` **without** clearing surviving contents:
/// for scratch slices whose next use overwrites every element (an
/// `im2col` destination, a transpose pack, a trinarize target), where
/// re-zeroing would only add a wasted pass over the buffer. Elements
/// beyond the old length come back zeroed; the rest keep stale values.
pub fn take_resized(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.resize(len, 0.0);
    &mut buf[..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resized_keeps_surviving_contents() {
        let mut v = vec![1.0f32, 2.0];
        let s = take_resized(&mut v, 4);
        assert_eq!(s, &[1.0, 2.0, 0.0, 0.0], "old prefix survives, growth is zeroed");
        let s = take_resized(&mut v, 2);
        assert_eq!(s, &[1.0, 2.0]);
    }

    #[test]
    fn take_zeroed_resets_contents_and_keeps_capacity() {
        let mut v = vec![1.0f32; 8];
        let s = take_zeroed(&mut v, 4);
        assert_eq!(s, &[0.0; 4]);
        s[0] = 9.0;
        let cap = v.capacity();
        let s = take_zeroed(&mut v, 8);
        assert_eq!(s, &[0.0; 8]);
        assert!(v.capacity() >= cap);
    }
}
