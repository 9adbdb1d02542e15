//! Detection windows.
//!
//! The standard pedestrian HoG window is 64×128 pixels (8×16 cells of 8×8
//! pixels). Windows slide one cell at a time across every pyramid level;
//! `pcnn_core`'s `Detector::window_grid` enumerates them.

use crate::bbox::BoundingBox;
use serde::{Deserialize, Serialize};

/// Detection window width in pixels.
pub const WINDOW_WIDTH: usize = 64;
/// Detection window height in pixels.
pub const WINDOW_HEIGHT: usize = 128;

/// A scored detection in original-image coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The detection box.
    pub bbox: BoundingBox,
    /// The classifier score (higher = more confident).
    pub score: f32,
}
