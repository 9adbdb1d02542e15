//! Kernel-vs-naive timing for the `pcnn-kernels` compute path, the
//! serving classify stage, the NApprox cell kernel and the pyramid.
//!
//! Times the blocked GEMM, the im2col+GEMM `Conv2d` forward (f32 and
//! the multiply-free trinary inference path), the trinary
//! `GroupedLinear` inference of the Fig. 5 window classifier's first
//! layer at one window and at a 64-window batch, and the
//! SIMD-vs-scalar micro-kernel spread against the golden naive loops in
//! `pcnn_eedn::reference` at Fig. 5 representative shapes, plus the
//! Fig. 4 SVM scoring of one frame's windows from shared block rows
//! against per-window assembly and scoring, and the NApprox cell kernel
//! (full precision and 64-spike) over one frame's cells against the
//! per-pixel loops of `pcnn_hog::napprox::reference`, and the
//! table-driven pyramid resize against the per-pixel loop of
//! `pcnn_vision::pyramid::reference`, after checking that every timed
//! output agrees bit-for-bit with its baseline. Records
//! `results/BENCH_kernels.json` through [`pcnn_bench::harness`], each
//! row tagged with the kernel `backend` it ran on; `--check` fails if a
//! speedup drops below 80% of its committed value.

use pcnn_bench::harness::{time_pair, Gate, Mode, Report};
use pcnn_core::pipeline::{Detector, DetectorConfig, TrainedDetector};
use pcnn_core::{Extractor, WindowClassifier};
use pcnn_eedn::reference::{conv2d_forward, grouped_linear_forward, ConvSpec};
use pcnn_eedn::{Conv2d, GroupedLinear, Layer, Scratch, Tensor};
use pcnn_hog::block::descriptor_len;
use pcnn_hog::cell::{cell_patch, grid_origins, CellExtractor};
use pcnn_hog::{napprox, BlockNorm, NApproxHog, CELL_SIZE};
use pcnn_kernels::{gemm, gemm_with_backend, GemmScratch, SimdBackend};
use pcnn_runtime::RuntimeConfig;
use pcnn_svm::{FeatureScaler, LinearSvm};
use pcnn_vision::pyramid::{self, scale_pyramid};
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset};
use serde::Serialize;
use std::hint::black_box;

/// One timed comparison, as recorded in `results/BENCH_kernels.json`.
#[derive(Serialize)]
struct BenchResult {
    name: String,
    dims: Vec<usize>,
    /// Kernel path and SIMD tier the `kernel_ms` column ran on, e.g.
    /// `"trinary+avx2"`; the baseline column is named in `baseline`.
    backend: String,
    /// What `naive_ms` timed: the reference loops (`"naive"`) or a
    /// slower kernel backend (`"f32+scalar"`).
    baseline: String,
    naive_ms: f64,
    kernel_ms: f64,
    speedup: f64,
}

fn pseudo(data: &mut [f32], seed: u64) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    for v in data.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = (s % 2000) as f32 / 1000.0 - 1.0;
    }
}

/// Images per conv batch.
const BATCH: usize = 4;

/// A row from a baseline/kernel timing pair, in seconds per call.
fn row(
    name: String,
    dims: Vec<usize>,
    backend: String,
    baseline: &str,
    (naive_s, kernel_s): (f64, f64),
) -> BenchResult {
    BenchResult {
        name,
        dims,
        backend,
        baseline: baseline.to_string(),
        naive_ms: naive_s * 1e3,
        kernel_ms: kernel_s * 1e3,
        speedup: naive_s / kernel_s,
    }
}

/// `spec` over a `BATCH` of `side`×`side` maps.
fn bench_conv(case: &str, spec: ConvSpec, side: usize, trinary: bool, reps: usize) -> BenchResult {
    let ConvSpec { in_ch, out_ch, k, stride, pad, groups } = spec;
    let layer = Conv2d::new(in_ch, out_ch, k, stride, pad, groups, trinary, 42);
    let mut data = vec![0.0f32; BATCH * in_ch * side * side];
    pseudo(&mut data, 7);
    let input = Tensor::from_vec(&[BATCH, in_ch, side, side], data);
    let w_eff = layer.effective_weights();
    let (alpha, bias) = (layer.alpha().to_vec(), layer.bias().to_vec());

    // Correctness gate before timing: kernel output must stay bitwise
    // equal to the naive oracle at the benchmarked shape — on the
    // trinary path too, where `infer_with` routes through the bitplane
    // kernels.
    let name = if trinary { format!("{case}_trinary") } else { case.to_string() };
    let mut scratch = Scratch::default();
    let kernel_out = layer.infer_with(&input, &mut scratch);
    let (_, naive_out) = conv2d_forward(&spec, &w_eff, &alpha, &bias, &input);
    assert_bits_eq(&name, kernel_out.data(), naive_out.data());

    let times = time_pair(
        reps,
        || {
            let w = black_box(&w_eff);
            black_box(conv2d_forward(&spec, w, &alpha, &bias, black_box(&input)));
        },
        || {
            black_box(layer.infer_with(black_box(&input), &mut scratch));
        },
    );
    let backend =
        format!("{}+{}", if trinary { "trinary" } else { "f32" }, pcnn_kernels::backend_label());
    // batch, in_ch, out_ch, h, w, k, stride, pad, groups
    let dims = vec![BATCH, in_ch, out_ch, side, side, k, stride, pad, groups];
    row(name, dims, backend, "naive", times)
}

/// The Fig. 5 window classifier's first layer (2304 inputs to 240
/// outputs in 24 crossbar groups, trinary) inferring a `batch` of
/// windows, against the reference loops.
fn bench_linear(batch: usize, reps: usize) -> BenchResult {
    let (in_dim, out_dim, groups) = (2304, 240, 24);
    let layer = GroupedLinear::new(in_dim, out_dim, groups, true, 42);
    let mut data = vec![0.0f32; batch * in_dim];
    pseudo(&mut data, 11);
    let input = Tensor::from_vec(&[batch, in_dim], data);
    let w_eff = layer.effective_weights();
    let (alpha, bias) = (layer.alpha().to_vec(), layer.bias().to_vec());
    let spec = layer.spec();

    // The agreement call also builds the layer's resident packed
    // weights, so the timed calls only stream windows, as serving does.
    let name = format!("fig5_classifier_l1_b{batch}_trinary");
    let mut scratch = Scratch::default();
    let kernel_out = layer.infer_with(&input, &mut scratch);
    let (_, naive_out) = grouped_linear_forward(&spec, &w_eff, &alpha, &bias, &input);
    assert_bits_eq(&name, kernel_out.data(), naive_out.data());

    let times = time_pair(
        reps,
        || {
            let w = black_box(&w_eff);
            black_box(grouped_linear_forward(&spec, w, &alpha, &bias, black_box(&input)));
        },
        || {
            black_box(layer.infer_with(black_box(&input), &mut scratch));
        },
    );
    let backend = format!("trinary+{}", pcnn_kernels::backend_label());
    // batch, in_dim, out_dim, groups
    row(name, vec![batch, in_dim, out_dim, groups], backend, "naive", times)
}

/// One `m`×`k` by `k`×`n` GEMM into a zeroed `c` on `backend`.
fn gemm_on(
    backend: SimdBackend,
    s: &mut GemmScratch,
    mkn: [usize; 3],
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let [m, k, n] = mkn;
    c.fill(0.0);
    gemm_with_backend(backend, s, m, k, n, black_box(a), k, black_box(b), n, c, n);
    black_box(c);
}

/// Seeded `m`×`k` and `k`×`n` operands.
fn operands([m, k, n]: [usize; 3], seed: u64) -> (Vec<f32>, Vec<f32>) {
    let (mut a, mut b) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
    pseudo(&mut a, seed);
    pseudo(&mut b, seed + 1);
    (a, b)
}

fn bench_raw_gemm(mkn: [usize; 3], reps: usize) -> BenchResult {
    let [m, k, n] = mkn;
    let (a, b) = operands(mkn, 1);
    let (mut c_naive, mut c_kernel) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    let mut s = GemmScratch::default();

    let times = time_pair(
        reps,
        || {
            c_naive.fill(0.0);
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p];
                    for j in 0..n {
                        c_naive[i * n + j] += av * b[p * n + j];
                    }
                }
            }
            black_box(&mut c_naive);
        },
        || {
            c_kernel.fill(0.0);
            gemm(&mut s, m, k, n, black_box(&a), k, black_box(&b), n, &mut c_kernel, n);
            black_box(&mut c_kernel);
        },
    );
    let name = format!("gemm_{m}x{k}x{n}");
    assert_bits_eq(&name, &c_kernel, &c_naive);
    row(name, mkn.to_vec(), format!("f32+{}", pcnn_kernels::backend_label()), "naive", times)
}

/// The SIMD micro-kernel against the forced-scalar fallback on the same
/// blocked GEMM — isolates what runtime dispatch buys over safe scalar.
fn bench_simd_vs_scalar(mkn: [usize; 3], reps: usize) -> BenchResult {
    let [m, k, n] = mkn;
    let hw = pcnn_kernels::detect_backend();
    let (a, b) = operands(mkn, 3);
    let (mut c_scalar, mut c_simd) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    let (mut s_scalar, mut s_simd) = (GemmScratch::default(), GemmScratch::default());

    let times = time_pair(
        reps,
        || gemm_on(SimdBackend::Scalar, &mut s_scalar, mkn, &a, &b, &mut c_scalar),
        || gemm_on(hw, &mut s_simd, mkn, &a, &b, &mut c_simd),
    );
    let name = format!("gemm_{m}x{k}x{n}_simd_vs_scalar");
    assert_bits_eq(&name, &c_simd, &c_scalar);
    row(name, mkn.to_vec(), format!("f32+{}", hw.name()), "f32+scalar", times)
}

/// The Fig. 4 classify stage over every window of one 320×240 frame's
/// pyramid levels, on a seeded 18-bin cell grid and a seeded L2-block
/// SVM (scores, not detections, are the point, so nothing is trained):
/// per-window `Detector::assemble_window` + `WindowClassifier::score`,
/// the serial reference, against `Detector::score_windows` over the
/// runtime's default window-row chunks, which normalizes each chunk's
/// blocks once and scores up to 32 adjacent windows per pass.
fn bench_window_scoring(reps: usize) -> BenchResult {
    let (width, height, bins, norm) = (320, 240, 18, BlockNorm::L2);
    let pyramid = scale_pyramid(&GrayImage::new(width, height), DetectorConfig::default().pyramid);
    let levels: Vec<(usize, Vec<Vec<f32>>)> = pyramid
        .levels
        .iter()
        .enumerate()
        .map(|(l, level)| {
            let cells_x = level.image.width() / CELL_SIZE;
            let cells = level.image.height() / CELL_SIZE * cells_x;
            let mut flat = vec![0.0f32; cells * bins];
            pseudo(&mut flat, 20 + l as u64);
            (cells_x, flat.chunks(bins).map(|h| h.iter().map(|v| v.abs()).collect()).collect())
        })
        .collect();
    let dim = descriptor_len(8, 16, bins, norm);
    let examples: Vec<Vec<f32>> = (0..4)
        .map(|i| {
            let mut x = vec![0.0f32; dim];
            pseudo(&mut x, 30 + i);
            x
        })
        .collect();
    let mut weights = vec![0.0f32; dim];
    pseudo(&mut weights, 40);
    let classifier = WindowClassifier::Svm {
        model: LinearSvm::new(weights, 0.5),
        scaler: FeatureScaler::fit(&examples),
    };
    let detector = TrainedDetector { extractor: Extractor::napprox_fp(norm), classifier };
    let chunk_rows = RuntimeConfig::default().chunk_rows;
    let grids: Vec<(usize, usize, usize)> = levels
        .iter()
        .map(|(cells_x, hist)| {
            let (rows, cols) = Detector::window_grid(*cells_x, hist.len() / cells_x);
            (*cells_x, rows, cols)
        })
        .collect();
    let windows: usize = grids.iter().map(|&(_, rows, cols)| rows * cols).sum();

    let (mut per_window, mut shared) = (Vec::with_capacity(windows), vec![0.0f32; windows]);
    let times = time_pair(
        reps,
        || {
            per_window.clear();
            let mut descriptor = Vec::new();
            for ((_, hist), &(cells_x, rows, cols)) in levels.iter().zip(&grids) {
                let cell = |cx: usize, cy: usize| hist[cy * cells_x + cx].as_slice();
                for w in 0..rows * cols {
                    descriptor.clear();
                    let ex = &detector.extractor;
                    Detector::assemble_window(ex, w % cols, w / cols, cell, &mut descriptor);
                    per_window.push(detector.classifier.score(black_box(&descriptor)));
                }
            }
            black_box(&per_window);
        },
        || {
            let mut out = &mut shared[..];
            for ((_, hist), &(cells_x, rows, cols)) in levels.iter().zip(&grids) {
                let cell = |cx: usize, cy: usize| hist[cy * cells_x + cx].as_slice();
                for row in (0..rows).step_by(chunk_rows) {
                    let chunk: Vec<usize> =
                        (row * cols..(row + chunk_rows).min(rows) * cols).collect();
                    let (scores, rest) = out.split_at_mut(chunk.len());
                    Detector::score_windows(&detector, cols, cell, black_box(&chunk), scores);
                    out = rest;
                }
            }
            black_box(&shared);
        },
    );
    let name = "fig4_window_scoring".to_string();
    assert_bits_eq(&name, &shared, &per_window);
    let backend = format!("svm+lanes{}", pcnn_svm::lanes::MAX_LANES);
    // width, height, bins, descriptor dimensions, windows
    row(name, vec![width, height, bins, dim, windows], backend, "per_window", times)
}

/// NApprox cell extraction over every cell of one 320×240 test scene's
/// pyramid levels: the per-pixel `pcnn_hog::napprox::reference` loop on
/// each cell's `cell_patch` crop, the path every cell took before the
/// table-driven kernel, against one `NApproxHog::cell_histograms` call
/// per level.
fn bench_cell_extraction(name: &str, model: NApproxHog, reps: usize) -> BenchResult {
    let scene = SynthDataset::new(SynthConfig::default()).test_scene(0).image;
    let pyramid = scale_pyramid(&scene, DetectorConfig::default().pyramid);
    let levels: Vec<(&GrayImage, Vec<(usize, usize)>)> = pyramid
        .levels
        .iter()
        .map(|level| {
            let (w, h) = (level.image.width(), level.image.height());
            (&level.image, grid_origins(0, 0, w / CELL_SIZE, h / CELL_SIZE))
        })
        .collect();
    let cells: usize = levels.iter().map(|(_, origins)| origins.len()).sum();
    let bins = model.bins;

    let (mut per_pixel, mut kernel) =
        (Vec::with_capacity(cells * bins), vec![0.0f32; cells * bins]);
    let times = time_pair(
        reps,
        || {
            per_pixel.clear();
            for (img, origins) in &levels {
                for &(x, y) in origins {
                    let patch = cell_patch(img, x, y, 0, 0);
                    per_pixel.extend(napprox::reference::cell_histogram(&model, black_box(&patch)));
                }
            }
            black_box(&per_pixel);
        },
        || {
            let mut out = &mut kernel[..];
            for (img, origins) in &levels {
                let (level, rest) = out.split_at_mut(origins.len() * bins);
                model.cell_histograms(black_box(img), origins, level);
                out = rest;
            }
            black_box(&kernel);
        },
    );
    assert_bits_eq(name, &kernel, &per_pixel);
    let spikes = model.quant.map_or(0, |q| q.input.levels() as usize);
    // width, height, bins, input spikes (0: full precision), cells
    let dims = vec![scene.width(), scene.height(), bins, spikes, cells];
    row(name.to_string(), dims, format!("napprox+lanes{CELL_SIZE}"), "reference", times)
}

/// The resampled levels of one 320×240 test scene's pyramid: one
/// `pcnn_vision::pyramid::reference::resize_bilinear` call per level,
/// the per-pixel loop every level took before the column and row taps,
/// against one `pyramid::resize_bilinear` call per level. The first
/// level is the scene itself, cloned, so neither side times it.
fn bench_pyramid(reps: usize) -> BenchResult {
    let scene = SynthDataset::new(SynthConfig::default()).test_scene(0).image;
    let levels = scale_pyramid(&scene, DetectorConfig::default().pyramid).levels;
    let sizes: Vec<(usize, usize)> =
        levels[1..].iter().map(|l| (l.image.width(), l.image.height())).collect();
    let resize_all = |resize: fn(&GrayImage, usize, usize) -> GrayImage| -> Vec<f32> {
        sizes.iter().flat_map(|&(w, h)| resize(&scene, w, h).pixels().to_vec()).collect()
    };
    let name = "fig4_pyramid";
    let table = resize_all(pyramid::resize_bilinear);
    assert_bits_eq(name, &table, &resize_all(pyramid::reference::resize_bilinear));

    let times = time_pair(
        reps,
        || {
            for &(w, h) in &sizes {
                black_box(pyramid::reference::resize_bilinear(black_box(&scene), w, h));
            }
        },
        || {
            for &(w, h) in &sizes {
                black_box(pyramid::resize_bilinear(black_box(&scene), w, h));
            }
        },
    );
    // width, height, levels, resampled pixels
    let dims = vec![scene.width(), scene.height(), levels.len(), table.len()];
    row(name.to_string(), dims, "table".to_string(), "reference", times)
}

/// The agreement gate every timed case passes: the kernel output must
/// equal its baseline's bit for bit.
fn assert_bits_eq(case: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{case}: shape drift");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{case} elem {i}: kernel {a} != baseline {b}");
    }
}

fn main() {
    let mode = Mode::from_args();
    let reps = mode.pick(20, 1);
    let conv =
        |in_ch, out_ch, k, pad, groups| ConvSpec { in_ch, out_ch, k, stride: 1, pad, groups };
    let cases = [
        // Fig. 5 front: 32 -> 64 channels over a 30x30 map, 3x3 taps.
        ("fig5_32to64_30x30_k3", conv(32, 64, 3, 1, 1), 30),
        // Same shape with crossbar-style channel groups.
        ("fig5_grouped_g4", conv(32, 64, 3, 1, 4), 30),
        // 1x1 mixing layer on a pooled map.
        ("mix_64to64_15x15_k1", conv(64, 64, 1, 0, 1), 15),
    ];

    let mut results: Vec<BenchResult> = Vec::new();
    for (name, spec, side) in cases {
        results.push(bench_conv(name, spec, side, false, reps));
        results.push(bench_conv(name, spec, side, true, reps));
    }
    results.push(bench_linear(1, reps));
    results.push(bench_linear(64, reps));
    // The raw GEMM behind the fig5 conv: (out_ch) x (in_ch*k*k) x (ho*wo).
    results.push(bench_raw_gemm([64, 288, 900], reps));
    results.push(bench_simd_vs_scalar([64, 288, 900], reps));
    results.push(bench_window_scoring(reps));
    results.push(bench_cell_extraction("fig4_cell_extraction", NApproxHog::full_precision(), reps));
    results.push(bench_cell_extraction("fig5_cell_extraction", NApproxHog::quantized(64), reps));
    results.push(bench_pyramid(reps));

    Report::new("kernel_gemm", 1, &results).finish(
        mode,
        "BENCH_kernels.json",
        &[Gate::Floor("speedup")],
    );
}
