//! Per-dimension feature standardization.
//!
//! HoG descriptors are non-negative with very unequal per-dimension
//! dynamic range (especially without block normalization, the
//! neuromorphic-classifier configuration). Standardizing to zero mean and
//! unit variance — fitted on the training set, applied everywhere —
//! stabilizes both the SVM solver and Eedn training.

use serde::{Deserialize, Serialize};

/// A fitted standardizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureScaler {
    pub(crate) mean: Vec<f32>,
    pub(crate) inv_std: Vec<f32>,
}

impl FeatureScaler {
    /// Fits a scaler to `examples`.
    ///
    /// Dimensions with zero variance get `inv_std = 0`, mapping them to a
    /// constant 0 rather than amplifying noise.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or ragged.
    pub fn fit(examples: &[Vec<f32>]) -> Self {
        assert!(!examples.is_empty(), "cannot fit scaler to empty data");
        let dim = examples[0].len();
        let n = examples.len() as f64;
        let mut mean = vec![0.0f64; dim];
        for x in examples {
            assert_eq!(x.len(), dim, "ragged examples");
            for (m, &v) in mean.iter_mut().zip(x) {
                *m += f64::from(v);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; dim];
        for x in examples {
            for ((s, &v), &m) in var.iter_mut().zip(x).zip(&mean) {
                let d = f64::from(v) - m;
                *s += d * d;
            }
        }
        let inv_std = var
            .iter()
            .map(|&s| {
                let sd = (s / n).sqrt();
                if sd < 1e-9 {
                    0.0
                } else {
                    (1.0 / sd) as f32
                }
            })
            .collect();
        FeatureScaler { mean: mean.into_iter().map(|m| m as f32).collect(), inv_std }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardizes one example in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn apply_in_place(&self, x: &mut [f32]) {
        assert_eq!(x.len(), self.dim(), "dimensionality mismatch");
        for ((v, &m), &is) in x.iter_mut().zip(&self.mean).zip(&self.inv_std) {
            *v = (*v - m) * is;
        }
    }

    /// Standardizes a copy of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        let mut out = x.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// Standardizes a whole dataset.
    pub fn apply_all(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        xs.iter().map(|x| self.apply(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let s = FeatureScaler::fit(&xs);
        let ys = s.apply_all(&xs);
        for d in 0..2 {
            let mean: f32 = ys.iter().map(|y| y[d]).sum::<f32>() / 3.0;
            let var: f32 = ys.iter().map(|y| (y[d] - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "dim {d} var {var}");
        }
    }

    #[test]
    fn constant_dimension_maps_to_zero() {
        let xs = vec![vec![7.0, 1.0], vec![7.0, 2.0]];
        let s = FeatureScaler::fit(&xs);
        let y = s.apply(&[7.0, 1.5]);
        assert_eq!(y[0], 0.0);
        assert!(y[1].abs() < 1.0);
    }

    #[test]
    fn apply_matches_apply_in_place() {
        let xs = vec![vec![0.0, 2.0], vec![4.0, 6.0]];
        let s = FeatureScaler::fit(&xs);
        let mut a = vec![1.0, 3.0];
        let b = s.apply(&a);
        s.apply_in_place(&mut a);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        FeatureScaler::fit(&[]);
    }
}
