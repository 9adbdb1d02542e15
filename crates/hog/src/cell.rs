//! The cell abstraction shared by every extractor variant.
//!
//! HoG divides the image into cells of 8×8 pixels; each cell produces one
//! orientation histogram. Because the centered derivative needs a 1-pixel
//! border, a cell's histogram is computed from a 10×10 pixel patch ("to
//! compute the 8×8 gradient matrix for a cell, 10×10 pixels are fed to
//! HoG" — §4). Every extractor in this workspace — traditional, FPGA,
//! NApprox, and the trained Parrot network — implements [`CellExtractor`],
//! which is what lets the detection pipeline swap them freely.
//!
//! Every producer of cell histograms — the detector's per-level grid,
//! the serving runtime's cell cache, window descriptors for training and
//! mining — asks for many cells of one image in one
//! [`CellExtractor::cell_histograms`] call. By default that crops each
//! cell's padded patch and calls [`CellExtractor::cell_histogram`]; an
//! extractor that can read cells straight from the image overrides it
//! (NApprox does, with its table-driven kernel).

use pcnn_vision::GrayImage;

/// Cell side length in pixels.
pub const CELL_SIZE: usize = 8;
/// Side length of the padded input patch a cell extractor receives.
pub const PATCH_SIZE: usize = 10;

/// A feature extractor that maps one padded 10×10 cell patch to an
/// orientation histogram.
pub trait CellExtractor {
    /// Number of orientation bins the extractor produces.
    fn bins(&self) -> usize;

    /// Computes the histogram of one cell.
    ///
    /// `patch` must be a [`PATCH_SIZE`]×[`PATCH_SIZE`] image whose central
    /// 8×8 region is the cell; the outer ring provides derivative context.
    ///
    /// # Panics
    ///
    /// Implementations panic if `patch` is not 10×10.
    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32>;

    /// Computes the histograms of many cells of one image into one flat
    /// buffer: the cell whose top-left pixel is `origins[i]` fills
    /// `out[i * bins..(i + 1) * bins]`. Derivative neighbours beyond the
    /// image replicate its border, as [`cell_patch`] pads them.
    ///
    /// The provided implementation crops each cell's padded patch with
    /// [`cell_patch`] and calls [`cell_histogram`](Self::cell_histogram).
    /// An override must return exactly those values.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != origins.len() * self.bins()`.
    fn cell_histograms(&self, img: &GrayImage, origins: &[(usize, usize)], out: &mut [f32]) {
        let bins = self.bins();
        check_histograms(bins, origins, out);
        for (&(x, y), hist) in origins.iter().zip(out.chunks_exact_mut(bins)) {
            hist.copy_from_slice(&self.cell_histogram(&cell_patch(img, x, y, 0, 0)));
        }
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

impl<T: CellExtractor + ?Sized> CellExtractor for &T {
    fn bins(&self) -> usize {
        (**self).bins()
    }
    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        (**self).cell_histogram(patch)
    }
    fn cell_histograms(&self, img: &GrayImage, origins: &[(usize, usize)], out: &mut [f32]) {
        (**self).cell_histograms(img, origins, out)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Asserts the [`CellExtractor::cell_histograms`] buffer contract.
///
/// # Panics
///
/// Panics if `out` does not hold one `bins`-value histogram per origin.
pub(crate) fn check_histograms(bins: usize, origins: &[(usize, usize)], out: &[f32]) {
    assert_eq!(out.len(), origins.len() * bins, "one {bins}-bin histogram per cell origin");
}

/// The top-left pixels of a `cells_x × cells_y` grid of cells whose
/// first cell starts at `(x0, y0)`, row-major.
pub fn grid_origins(x0: usize, y0: usize, cells_x: usize, cells_y: usize) -> Vec<(usize, usize)> {
    (0..cells_y)
        .flat_map(|cy| (0..cells_x).map(move |cx| (x0 + cx * CELL_SIZE, y0 + cy * CELL_SIZE)))
        .collect()
}

/// Asserts the patch contract shared by all extractors.
///
/// # Panics
///
/// Panics if `patch` is not [`PATCH_SIZE`]×[`PATCH_SIZE`].
pub fn check_patch(patch: &GrayImage) {
    assert_eq!(
        (patch.width(), patch.height()),
        (PATCH_SIZE, PATCH_SIZE),
        "cell extractors take a {PATCH_SIZE}x{PATCH_SIZE} padded patch"
    );
}

/// Extracts the padded patch for the cell whose top-left pixel (in cell
/// coordinates of the *window*) is `(cell_x, cell_y)`, from a window whose
/// top-left pixel in `img` is `(x0, y0)`. Pixels beyond the image
/// replicate the border.
pub fn cell_patch(
    img: &GrayImage,
    x0: usize,
    y0: usize,
    cell_x: usize,
    cell_y: usize,
) -> GrayImage {
    let px = x0 as isize + (cell_x * CELL_SIZE) as isize - 1;
    let py = y0 as isize + (cell_y * CELL_SIZE) as isize - 1;
    img.crop(px, py, PATCH_SIZE, PATCH_SIZE)
}

/// Computes the per-cell histograms of a whole window in one
/// [`CellExtractor::cell_histograms`] call: a `cells_x × cells_y` grid,
/// returned row-major as `grid[cy][cx]`.
pub fn window_cell_histograms<E: CellExtractor>(
    extractor: &E,
    img: &GrayImage,
    x0: usize,
    y0: usize,
    cells_x: usize,
    cells_y: usize,
) -> Vec<Vec<Vec<f32>>> {
    let bins = extractor.bins();
    let mut flat = vec![0.0; cells_x * cells_y * bins];
    extractor.cell_histograms(img, &grid_origins(x0, y0, cells_x, cells_y), &mut flat);
    nest_grid(&flat, cells_x, cells_y, bins)
}

/// Splits a flat row-major buffer of `cells_x × cells_y` histograms of
/// `bins` values each into `grid[cy][cx]`.
pub fn nest_grid(flat: &[f32], cells_x: usize, cells_y: usize, bins: usize) -> Vec<Vec<Vec<f32>>> {
    (0..cells_y)
        .map(|cy| {
            (0..cells_x).map(|cx| flat[(cy * cells_x + cx) * bins..][..bins].to_vec()).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MeanExtractor;

    impl CellExtractor for MeanExtractor {
        fn bins(&self) -> usize {
            1
        }
        fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
            check_patch(patch);
            vec![patch.mean()]
        }
        fn name(&self) -> &str {
            "mean"
        }
    }

    #[test]
    fn cell_patch_is_padded() {
        let img = GrayImage::from_fn(32, 32, |x, y| (x + y) as f32);
        let p = cell_patch(&img, 8, 8, 0, 0);
        assert_eq!((p.width(), p.height()), (10, 10));
        // Patch pixel (1,1) is window pixel (0,0) = image pixel (8,8).
        assert_eq!(p.get(1, 1), 16.0);
        // Patch pixel (0,0) is image pixel (7,7).
        assert_eq!(p.get(0, 0), 14.0);
    }

    #[test]
    fn window_grid_shape() {
        let img = GrayImage::new(64, 128);
        let grid = window_cell_histograms(&MeanExtractor, &img, 0, 0, 8, 16);
        assert_eq!(grid.len(), 16);
        assert_eq!(grid[0].len(), 8);
        assert_eq!(grid[0][0].len(), 1);
    }

    #[test]
    fn grid_cells_see_right_pixels() {
        // Mark exactly one cell bright; only that grid entry responds.
        let mut img = GrayImage::new(64, 128);
        for y in 0..8 {
            for x in 0..8 {
                img.set(16 + x, 24 + y, 1.0); // cell (2, 3)
            }
        }
        let grid = window_cell_histograms(&MeanExtractor, &img, 0, 0, 8, 16);
        let mut bright = Vec::new();
        for (cy, row) in grid.iter().enumerate() {
            for (cx, h) in row.iter().enumerate() {
                if h[0] > 0.3 {
                    bright.push((cx, cy));
                }
            }
        }
        assert_eq!(bright, vec![(2, 3)]);
    }

    #[test]
    #[should_panic(expected = "padded patch")]
    fn check_patch_rejects_wrong_size() {
        check_patch(&GrayImage::new(8, 8));
    }

    #[test]
    fn trait_object_compatible() {
        let e: &dyn CellExtractor = &MeanExtractor;
        assert_eq!(e.bins(), 1);
        assert_eq!(e.name(), "mean");
    }
}
