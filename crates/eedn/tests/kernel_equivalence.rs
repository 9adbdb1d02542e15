//! Seeded property sweep: the GEMM-backed compute path vs the naive
//! reference oracle in [`pcnn_eedn::reference`].
//!
//! The determinism contract (see DESIGN.md "Compute kernels"):
//!
//! * forward outputs and the conv `gw`/`galpha`/`gbias` gradients are
//!   **bit-identical** to the naive loops;
//! * `GroupedLinear` is bit-identical throughout, including `grad_in`;
//! * only the conv `grad_in` is tolerance-bound
//!   (`|d| <= 1e-5 + 1e-5·|ref|`), because `col2im` reassociates the
//!   scatter over output channels and kernel taps.

use pcnn_eedn::reference::{
    conv2d_backward, conv2d_forward, grouped_linear_backward, grouped_linear_forward,
};
use pcnn_eedn::{Conv2d, GroupedLinear, Layer, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rand_tensor(rng: &mut SmallRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.random_range(-1.0..1.0f32)).collect();
    Tensor::from_vec(shape, data)
}

/// A gradient tensor with ~30% exact zeros, exercising the reference
/// oracle's `dy == 0` skip path against the kernel path (which never
/// skips — the contract relies on `±0.0` terms being exact no-ops).
fn rand_grad(rng: &mut SmallRng, shape: &[usize]) -> Tensor {
    let mut g = rand_tensor(rng, shape);
    for v in g.data_mut() {
        if rng.random_range(0.0..1.0f32) < 0.3 {
            *v = 0.0;
        }
    }
    g
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}[{i}]: kernel {x} != reference {y}");
    }
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        let tol = 1e-5 + 1e-5 * y.abs();
        assert!((x - y).abs() <= tol, "{what}[{i}]: kernel {x} vs reference {y} (tol {tol})");
    }
}

#[test]
fn conv2d_matches_reference_across_shape_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xc0ff_ee00);
    // Non-square input; 8 in/out channels so groups can be 1, 4 or
    // out_ch (depthwise-style icg = ocg = 1).
    let (cin, cout, h, w) = (8usize, 8usize, 9usize, 7usize);
    let mut case = 0u64;
    for k in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            for pad in [0usize, 1] {
                for groups in [1usize, 4, 8] {
                    for trinary in [false, true] {
                        case += 1;
                        let batch = 1 + (case as usize % 3);
                        let tag = format!(
                            "conv k={k} s={stride} p={pad} g={groups} tri={trinary} b={batch}"
                        );
                        let mut layer =
                            Conv2d::new(cin, cout, k, stride, pad, groups, trinary, 1000 + case);
                        let input = rand_tensor(&mut rng, &[batch, cin, h, w]);
                        let w_eff = layer.effective_weights();
                        let spec = layer.spec();
                        let (pre_ref, out_ref) =
                            conv2d_forward(&spec, &w_eff, layer.alpha(), layer.bias(), &input);

                        let out = layer.forward(&input, true);
                        assert_bits_eq(out.data(), out_ref.data(), &format!("{tag}: forward"));
                        let inf = layer.infer(&input);
                        assert_bits_eq(inf.data(), out_ref.data(), &format!("{tag}: infer"));

                        let (ho, wo) = spec.out_size(h, w);
                        let go = rand_grad(&mut rng, &[batch, cout, ho, wo]);
                        let gref =
                            conv2d_backward(&spec, &w_eff, layer.alpha(), &input, &pre_ref, &go);
                        let grad_in = layer.backward(&go);
                        let (gw, ga, gb) = layer.debug_grads();
                        assert_bits_eq(gw, &gref.gw, &format!("{tag}: gw"));
                        assert_bits_eq(ga, &gref.galpha, &format!("{tag}: galpha"));
                        assert_bits_eq(gb, &gref.gbias, &format!("{tag}: gbias"));
                        assert_close(
                            grad_in.data(),
                            gref.grad_in.data(),
                            &format!("{tag}: grad_in"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn grouped_linear_matches_reference_bitwise() {
    let mut rng = SmallRng::seed_from_u64(0xfee1_dead);
    // (in_dim, out_dim, groups): groups 1, interior, out_dim (out_g = 1).
    let cases = [(6usize, 4usize, 2usize), (8, 8, 8), (5, 7, 1), (12, 9, 3), (16, 8, 4), (4, 4, 1)];
    for (case, &(in_dim, out_dim, groups)) in cases.iter().enumerate() {
        for trinary in [false, true] {
            let batch = 1 + case % 3;
            let tag = format!("linear in={in_dim} out={out_dim} g={groups} tri={trinary}");
            let mut layer =
                GroupedLinear::new(in_dim, out_dim, groups, trinary, 2000 + case as u64);
            let input = rand_tensor(&mut rng, &[batch, in_dim]);
            let w_eff = layer.effective_weights();
            let spec = layer.spec();
            let (pre_ref, out_ref) =
                grouped_linear_forward(&spec, &w_eff, layer.alpha(), layer.bias(), &input);

            let out = layer.forward(&input, true);
            assert_bits_eq(out.data(), out_ref.data(), &format!("{tag}: forward"));

            let go = rand_grad(&mut rng, &[batch, out_dim]);
            let gref = grouped_linear_backward(&spec, &w_eff, layer.alpha(), &input, &pre_ref, &go);
            let grad_in = layer.backward(&go);
            let (gw, ga, gb) = layer.debug_grads();
            assert_bits_eq(gw, &gref.gw, &format!("{tag}: gw"));
            assert_bits_eq(ga, &gref.galpha, &format!("{tag}: galpha"));
            assert_bits_eq(gb, &gref.gbias, &format!("{tag}: gbias"));
            // The FC GEMMs keep per-element sequential-k accumulation, so
            // even grad_in is bit-identical here.
            assert_bits_eq(grad_in.data(), gref.grad_in.data(), &format!("{tag}: grad_in"));
        }
    }
}

/// Shadow weights that deploy at an exact target density: `0.0` (all in
/// the dead zone), `0.5` (alternating), or `1.0` (all ±1), with signs
/// alternating among the nonzero slots.
fn shadows_at_density(n: usize, density: f32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let nonzero = if density == 0.0 {
                false
            } else if density == 1.0 {
                true
            } else {
                i % 2 == 0
            };
            if nonzero {
                if i % 4 < 2 {
                    0.9
                } else {
                    -0.9
                }
            } else {
                0.1
            }
        })
        .collect()
}

/// The trinary inference path across dead-zone densities 0%, 50% and
/// 100%: bit-identical to the reference oracle AND to the f32 training
/// forward, at every (k, stride, pad, groups) corner. The 0% case pins
/// the degenerate all-zero bitplanes (output is pure bias), 100% the
/// dense bit walk.
#[test]
fn trinary_density_sweep_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0x7121_0000);
    let (cin, cout, h, w) = (8usize, 8usize, 9usize, 7usize);
    for density in [0.0f32, 0.5, 1.0] {
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1] {
                    for groups in [1usize, 4, 8] {
                        let tag =
                            format!("tri-conv d={density} k={k} s={stride} p={pad} g={groups}");
                        let mut layer = Conv2d::new(cin, cout, k, stride, pad, groups, true, 3000);
                        let n_w = cout * (cin / groups) * k * k;
                        layer.debug_set_shadow_weights(&shadows_at_density(n_w, density));
                        let w_eff = layer.effective_weights();
                        assert_eq!(
                            pcnn_eedn::trinary::density(&w_eff),
                            density,
                            "{tag}: crafted density"
                        );
                        let input = rand_tensor(&mut rng, &[2, cin, h, w]);
                        let (_, out_ref) = conv2d_forward(
                            &layer.spec(),
                            &w_eff,
                            layer.alpha(),
                            layer.bias(),
                            &input,
                        );
                        let inf = layer.infer(&input);
                        assert_bits_eq(inf.data(), out_ref.data(), &format!("{tag}: infer"));
                        let fwd = layer.forward(&input, false);
                        assert_bits_eq(inf.data(), fwd.data(), &format!("{tag}: infer vs f32"));
                    }
                }
            }
        }
        // GroupedLinear through the same densities.
        for &(in_dim, out_dim, groups) in &[(8usize, 8usize, 2usize), (12, 8, 4), (6, 9, 3)] {
            let tag = format!("tri-linear d={density} in={in_dim} out={out_dim} g={groups}");
            let mut layer = GroupedLinear::new(in_dim, out_dim, groups, true, 4000);
            let n_w = groups * (out_dim / groups) * (in_dim / groups);
            layer.debug_set_shadow_weights(&shadows_at_density(n_w, density));
            let w_eff = layer.effective_weights();
            assert_eq!(pcnn_eedn::trinary::density(&w_eff), density, "{tag}: crafted density");
            let input = rand_tensor(&mut rng, &[3, in_dim]);
            let (_, out_ref) =
                grouped_linear_forward(&layer.spec(), &w_eff, layer.alpha(), layer.bias(), &input);
            let inf = layer.infer(&input);
            assert_bits_eq(inf.data(), out_ref.data(), &format!("{tag}: infer"));
            let fwd = layer.forward(&input, false);
            assert_bits_eq(inf.data(), fwd.data(), &format!("{tag}: infer vs f32"));
        }
    }
}

/// Forcing the scalar fallback via `PCNN_KERNEL_BACKEND` must win over
/// hardware detection, and the scalar kernels must agree bit-for-bit
/// with whatever SIMD backend the CPU offers — on both the f32 and the
/// trinary path. (Explicit-backend entry points are used for the
/// comparison because the process-wide selection is cached on first
/// kernel use; `crates/kernels/tests/dispatch_env.rs` covers the cached
/// global in a single-test binary.)
#[test]
fn forced_scalar_dispatch_agrees_with_simd() {
    use pcnn_kernels::SimdBackend;
    std::env::set_var("PCNN_KERNEL_BACKEND", "scalar");
    assert_eq!(pcnn_kernels::detect_backend(), SimdBackend::Scalar, "env override must win");
    std::env::remove_var("PCNN_KERNEL_BACKEND");
    let hw = pcnn_kernels::detect_backend();

    let mut rng = SmallRng::seed_from_u64(0xd15_0e0);
    let (m, k, n) = (13, 97, 29);
    let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0f32)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0f32)).collect();
    let mut s = pcnn_kernels::GemmScratch::default();
    let mut c_scalar = vec![0.0f32; m * n];
    pcnn_kernels::gemm_with_backend(
        SimdBackend::Scalar,
        &mut s,
        m,
        k,
        n,
        &a,
        k,
        &b,
        n,
        &mut c_scalar,
        n,
    );
    let mut c_hw = vec![0.0f32; m * n];
    pcnn_kernels::gemm_with_backend(hw, &mut s, m, k, n, &a, k, &b, n, &mut c_hw, n);
    assert_bits_eq(&c_hw, &c_scalar, "f32 scalar vs simd");

    let wtri: Vec<f32> =
        shadows_at_density(m * k, 0.5).iter().map(|&v| pcnn_eedn::trinary::trinarize(v)).collect();
    let mut tm = pcnn_kernels::TrinaryMatrix::default();
    tm.pack(&wtri, k, m, k);
    let mut t_scalar = vec![0.0f32; m * n];
    pcnn_kernels::gemm_trinary_with_backend(SimdBackend::Scalar, &tm, n, &b, n, &mut t_scalar, n);
    let mut t_hw = vec![0.0f32; m * n];
    pcnn_kernels::gemm_trinary_with_backend(hw, &tm, n, &b, n, &mut t_hw, n);
    assert_bits_eq(&t_hw, &t_scalar, "trinary scalar vs simd");
}

#[test]
fn repeated_backward_accumulates_like_reference() {
    // Gradients accumulate across minibatches until `step`; the kernel
    // path must extend the running sums exactly like the naive loops.
    // Three backward calls on batch-2 inputs add terms in the same order
    // as one naive pass over the concatenated batch-6 input, so the
    // comparison is still bitwise.
    let mut rng = SmallRng::seed_from_u64(7);
    let mut layer = Conv2d::new(4, 6, 3, 1, 1, 2, true, 99);
    let w_eff = layer.effective_weights();
    let spec = layer.spec();
    let mut all_inputs = Vec::new();
    let mut all_grads = Vec::new();
    for _ in 0..3 {
        let input = rand_tensor(&mut rng, &[2, 4, 6, 5]);
        let go = rand_grad(&mut rng, &[2, 6, 6, 5]);
        layer.forward(&input, true);
        layer.backward(&go);
        all_inputs.extend_from_slice(input.data());
        all_grads.extend_from_slice(go.data());
    }
    let big_in = Tensor::from_vec(&[6, 4, 6, 5], all_inputs);
    let big_go = Tensor::from_vec(&[6, 6, 6, 5], all_grads);
    let (big_pre, _) = conv2d_forward(&spec, &w_eff, layer.alpha(), layer.bias(), &big_in);
    let gref = conv2d_backward(&spec, &w_eff, layer.alpha(), &big_in, &big_pre, &big_go);
    let (gw, ga, gb) = layer.debug_grads();
    assert_bits_eq(gw, &gref.gw, "accumulated gw");
    assert_bits_eq(ga, &gref.galpha, "accumulated galpha");
    assert_bits_eq(gb, &gref.gbias, "accumulated gbias");
}

/// One training update with a learning rate large enough that many
/// shadows cross the dead-zone edge, so the deployed weights change.
fn train_once(layer: &mut dyn Layer, input: &Tensor, rng: &mut SmallRng) {
    let out = layer.forward(input, true);
    let go = rand_tensor(rng, out.shape());
    layer.backward(&go);
    layer.step(0.5, 0.9);
}

/// The resident packed weights follow every weight change: after a
/// training step and after `debug_set_shadow_weights`, a layer that has
/// already inferred (and so holds packed weights) infers exactly what
/// the reference computes from its new weights.
#[test]
fn resident_weights_follow_weight_updates() {
    let mut rng = SmallRng::seed_from_u64(0x05e5_1de7);

    let mut linear = GroupedLinear::new(12, 8, 2, true, 5000);
    let x = rand_tensor(&mut rng, &[3, 12]);
    let linear_ref = |l: &GroupedLinear, x: &Tensor| {
        grouped_linear_forward(&l.spec(), &l.effective_weights(), l.alpha(), l.bias(), x).1
    };
    assert_bits_eq(linear.infer(&x).data(), linear_ref(&linear, &x).data(), "linear: first");
    let before = linear.effective_weights();
    train_once(&mut linear, &x, &mut rng);
    assert_ne!(linear.effective_weights(), before, "the step must move deployed weights");
    assert_bits_eq(linear.infer(&x).data(), linear_ref(&linear, &x).data(), "linear: step");
    let n_w = before.len();
    linear.debug_set_shadow_weights(&shadows_at_density(n_w, 0.5));
    assert_bits_eq(linear.infer(&x).data(), linear_ref(&linear, &x).data(), "linear: set");

    let mut conv = Conv2d::new(4, 6, 3, 1, 1, 2, true, 5001);
    let x = rand_tensor(&mut rng, &[2, 4, 6, 5]);
    let conv_ref = |c: &Conv2d, x: &Tensor| {
        conv2d_forward(&c.spec(), &c.effective_weights(), c.alpha(), c.bias(), x).1
    };
    assert_bits_eq(conv.infer(&x).data(), conv_ref(&conv, &x).data(), "conv: first");
    let before = conv.effective_weights();
    train_once(&mut conv, &x, &mut rng);
    assert_ne!(conv.effective_weights(), before, "the step must move deployed weights");
    assert_bits_eq(conv.infer(&x).data(), conv_ref(&conv, &x).data(), "conv: step");
    conv.debug_set_shadow_weights(&shadows_at_density(before.len(), 1.0));
    assert_bits_eq(conv.infer(&x).data(), conv_ref(&conv, &x).data(), "conv: set");
}

/// A layer that already holds packed weights clones and round-trips
/// through serde to a layer that infers the same bits — and the packed
/// weights never reach the serialized form.
#[test]
fn clone_and_serde_of_an_inferred_layer_infer_identically() {
    let mut rng = SmallRng::seed_from_u64(0x00c1_04e0);
    let linear = GroupedLinear::new(12, 8, 2, true, 6000);
    let x = rand_tensor(&mut rng, &[4, 12]);
    let fresh = serde_json::to_string(&linear).unwrap();
    let want = linear.infer(&x);
    let bytes = serde_json::to_string(&linear).unwrap();
    assert_eq!(bytes, fresh, "inference must not change the serialized layer");
    let restored: GroupedLinear = serde_json::from_str(&bytes).unwrap();
    assert_bits_eq(restored.infer(&x).data(), want.data(), "linear: serde round trip");
    assert_bits_eq(linear.clone().infer(&x).data(), want.data(), "linear: clone");

    let conv = Conv2d::new(4, 4, 3, 1, 1, 2, true, 6001);
    let x = rand_tensor(&mut rng, &[2, 4, 5, 5]);
    let want = conv.infer(&x);
    assert_bits_eq(conv.clone().infer(&x).data(), want.data(), "conv: clone");
}

/// Trinary `GroupedLinear::infer` against the reference at batch sizes
/// that hit each column path of the trinary kernel: scalar tails, the
/// 8-wide loop, the full 64-column register tile and the 256-column
/// cache tile. The 130-input groups also span three bitplane words.
#[test]
fn trinary_linear_matches_reference_across_batch_sizes() {
    let mut rng = SmallRng::seed_from_u64(0x0ba7_c4e5);
    let layer = GroupedLinear::new(260, 12, 2, true, 7000);
    let w_eff = layer.effective_weights();
    for batch in [1usize, 7, 8, 9, 63, 64, 65, 257] {
        let x = rand_tensor(&mut rng, &[batch, 260]);
        let (_, want) =
            grouped_linear_forward(&layer.spec(), &w_eff, layer.alpha(), layer.bias(), &x);
        assert_bits_eq(layer.infer(&x).data(), want.data(), &format!("batch {batch}"));
    }
}
