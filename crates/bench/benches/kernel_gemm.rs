//! Kernel-vs-naive timing for the `pcnn-kernels` compute path.
//!
//! Times the blocked GEMM, the im2col+GEMM `Conv2d` forward (f32 and
//! the multiply-free trinary inference path), and the SIMD-vs-scalar
//! micro-kernel spread against the golden naive loops in
//! `pcnn_eedn::reference` at Fig. 5 representative shapes, after
//! checking that every timed output agrees bit-for-bit with its
//! baseline. Records `results/BENCH_kernels.json` through
//! [`pcnn_bench::harness`], each row tagged with the kernel `backend`
//! it ran on; `--check` fails if a speedup drops below 80% of its
//! committed value.

use pcnn_bench::harness::{time_pair, Gate, Mode, Report};
use pcnn_eedn::reference::{conv2d_forward, ConvSpec};
use pcnn_eedn::{Conv2d, Layer, Scratch, Tensor};
use pcnn_kernels::{gemm, gemm_with_backend, GemmScratch, SimdBackend};
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
    // The raw GEMM behind the fig5 conv: (out_ch) x (in_ch*k*k) x (ho*wo).
    results.push(bench_raw_gemm([64, 288, 900], reps));
    results.push(bench_simd_vs_scalar([64, 288, 900], reps));

    Report::new("kernel_gemm", 1, &results).finish(
        mode,
        "BENCH_kernels.json",
        &[Gate::Floor("speedup")],
    );
}
