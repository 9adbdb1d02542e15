//! Image substrate for the pedestrian-detection reproduction.
//!
//! Provides everything the detection pipeline needs below the feature
//! extractor:
//!
//! * [`image`] — grayscale/RGB images with f32 pixels in `[0, 1]`;
//! * [`draw`] — procedural drawing primitives used by the synthetic
//!   dataset generator;
//! * [`synth`] — a seeded synthetic pedestrian dataset standing in for the
//!   INRIA Person Dataset (see `DESIGN.md` for the substitution rationale);
//! * [`temporal`] — seeded video streams over the synthetic scenes:
//!   walking pedestrians with spawn/despawn, occlusion, lighting drift
//!   and camera pan, deterministic per `(seed, frame_idx)`;
//! * [`pyramid`] — bilinear rescaling and the 1.1×-spaced scale pyramid;
//! * [`window`] — the 64×128 detection window and scored detections;
//! * [`bbox`] — boxes and overlap math;
//! * [`nms`] — greedy non-maximum suppression (ε = 0.2);
//! * [`eval`] — the Dollár et al. evaluation protocol: detections are true
//!   positives when overlap ≥ 0.5, curves are miss rate vs. false
//!   positives per image (FPPI), summarized by log-average miss rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod draw;
pub mod eval;
pub mod image;
pub mod nms;
pub mod pyramid;
pub mod synth;
pub mod temporal;
pub mod window;

pub use bbox::BoundingBox;
pub use eval::{DetectionCurve, Evaluator, LabeledDetection};
pub use image::{GrayImage, RgbImage};
pub use nms::non_maximum_suppression;
pub use pyramid::{scale_pyramid, Pyramid};
pub use synth::{SynthConfig, SynthDataset, SynthScene};
pub use temporal::{ActorState, SceneState, TemporalConfig, VideoStream};
pub use window::{Detection, WINDOW_HEIGHT, WINDOW_WIDTH};
