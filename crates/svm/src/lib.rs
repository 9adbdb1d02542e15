//! Linear support vector machines with hard-negative mining.
//!
//! The paper trains "linear SVM classifiers from mining hard negative
//! examples through 2,416 positive person images and 12,180 negative
//! images" using LIBSVM. This crate provides the same capability from
//! scratch:
//!
//! * [`LinearSvm`] — the trained model: a weight vector and bias, scoring
//!   by inner product;
//! * [`linear::train`] — L2-regularized L1-loss SVM fitted by dual
//!   coordinate descent (the LIBLINEAR algorithm), with a seeded
//!   permutation schedule so training is reproducible;
//! * [`scale`] — per-dimension feature standardization, fitted on training
//!   data and applied at inference;
//! * [`lanes`] — [`LinearSvm::score_lanes`], standardizing and scoring up
//!   to 32 windows per pass from a shared lane layout, bit-identical to
//!   scoring each window alone;
//! * [`mining`] — the bootstrap loop: train, scan negative scenes for
//!   false positives, append them to the negative set, retrain;
//! * [`metrics`] — accuracy / precision / recall helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lanes;
pub mod linear;
pub mod metrics;
pub mod mining;
pub mod model;
pub mod scale;

pub use linear::{train, TrainConfig};
pub use metrics::BinaryMetrics;
pub use mining::{mine_hard_negatives, MiningConfig, MiningReport};
pub use model::LinearSvm;
pub use scale::FeatureScaler;
