//! Value quantization for spike-coded and fixed-point arithmetic.
//!
//! TrueNorth inputs arrive as spike counts: a 64-spike window carries 6
//! bits of resolution, 32-spike carries 5 bits, and so on. Quantizing the
//! NApprox software model with the same width is what let the paper report
//! ≥ 99.5 % correlation between its hardware and software pipelines.

use serde::{Deserialize, Serialize};

/// Uniform quantizer over `[0, 1]` with `levels` steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quantization {
    levels: u32,
}

impl Quantization {
    /// A quantizer with `levels ≥ 1` steps (a value is represented by an
    /// integer in `0..=levels`).
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn new(levels: u32) -> Self {
        assert!(levels >= 1, "quantization needs at least one level");
        Quantization { levels }
    }

    /// The quantizer matching an `n`-spike rate code (64-spike = 6-bit…).
    pub fn spikes(n: u32) -> Self {
        Self::new(n)
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Quantizes `v ∈ [0, 1]` to its integer level (clamping outside
    /// values), rounding halves up.
    #[inline]
    pub fn level_of(&self, v: f32) -> u32 {
        // `f32::round` without its library call on targets lacking a
        // rounding instruction: for `x ≥ 0` the truncation is exact and
        // so is `x − t` (t ≤ x < t + 1), so this is `x.round() as u32`
        // for every input, NaN (0) included.
        let x = v.clamp(0.0, 1.0) * self.levels as f32;
        let t = x as u32;
        if x - t as f32 >= 0.5 {
            t + 1
        } else {
            t
        }
    }

    /// The real value a level decodes to.
    pub fn value_of(&self, level: u32) -> f32 {
        level.min(self.levels) as f32 / self.levels as f32
    }

    /// Round-trips a value through the quantizer.
    pub fn quantize(&self, v: f32) -> f32 {
        self.value_of(self.level_of(v))
    }

    /// Worst-case quantization error.
    pub fn max_error(&self) -> f32 {
        0.5 / self.levels as f32
    }
}

/// Pearson correlation between two equal-length sequences — the measure
/// behind the paper's "over 99.5 % correlation" validation claim.
///
/// Returns `None` when either input is degenerate (fewer than two samples
/// or zero variance).
pub fn pearson_correlation(a: &[f32], b: &[f32]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let ma = a.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x as f64 - ma;
        let dy = y as f64 - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_roundtrip() {
        let q = Quantization::spikes(64);
        assert_eq!(q.level_of(0.0), 0);
        assert_eq!(q.level_of(1.0), 64);
        assert_eq!(q.level_of(0.5), 32);
        assert!((q.quantize(0.5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn quantize_error_bounded() {
        let q = Quantization::spikes(16);
        for i in 0..=100 {
            let v = i as f32 / 100.0;
            assert!((q.quantize(v) - v).abs() <= q.max_error() + 1e-6);
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let q = Quantization::spikes(4);
        assert_eq!(q.level_of(-1.0), 0);
        assert_eq!(q.level_of(2.0), 4);
        assert_eq!(q.value_of(99), 1.0);
    }

    #[test]
    fn level_of_rounds_like_f32_round() {
        let mut values = vec![f32::NAN, -0.0, 0.0, -1.0, 2.0, 0.5, 1.0, f32::INFINITY];
        values.extend((0..=20_000).map(|i| i as f32 / 20_000.0));
        for levels in [1, 3, 4, 7, 64, 255, 256, 1000, 1 << 20, 1 << 24, (1 << 24) + 1, u32::MAX] {
            let q = Quantization::new(levels);
            // Every exact half a level step apart, and its neighbours.
            values.extend((0..levels.min(512)).flat_map(|l| {
                let half = (l as f32 + 0.5) / levels as f32;
                [half, half.next_down(), half.next_up()]
            }));
            for &v in &values {
                let want = (v.clamp(0.0, 1.0) * levels as f32).round() as u32;
                assert_eq!(q.level_of(v), want, "levels {levels}, v {v:e}");
            }
        }
    }

    #[test]
    fn one_level_is_binary() {
        let q = Quantization::spikes(1);
        assert_eq!(q.level_of(0.49), 0);
        assert_eq!(q.level_of(0.51), 1);
    }

    #[test]
    fn correlation_perfect_and_anti() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&a, &b).unwrap() - 1.0).abs() < 1e-9);
        let c = vec![4.0, 3.0, 2.0, 1.0];
        assert!((pearson_correlation(&a, &c).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_degenerate_cases() {
        assert!(pearson_correlation(&[1.0], &[1.0]).is_none());
        assert!(pearson_correlation(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(pearson_correlation(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn correlation_survives_quantization() {
        // Fine quantization barely dents correlation with the original —
        // the effect the paper's 99.5% figure quantifies.
        let q = Quantization::spikes(64);
        let a: Vec<f32> = (0..200).map(|i| (i as f32 * 0.37).sin() * 0.5 + 0.5).collect();
        let b: Vec<f32> = a.iter().map(|&v| q.quantize(v)).collect();
        assert!(pearson_correlation(&a, &b).unwrap() > 0.995);
    }
}
