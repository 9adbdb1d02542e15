//! Grouped 2-D convolution with optional trinary weights.
//!
//! Output channel `o` in group `g` sees only input channels of group `g`
//! — Eedn's partitioning of "layers and the corresponding filters into
//! multiple groups to ensure the filters are sized such that they can be
//! implemented using the 256×256 TrueNorth core crossbars". A per-channel
//! scale `α` and bias follow the convolution, exactly as in
//! [`GroupedLinear`](crate::fc::GroupedLinear).
//!
//! The compute path is `im2col` + blocked GEMM from `pcnn-kernels`. Per
//! the determinism contract (see [`crate::reference`]): forward outputs
//! and the `gw`/`galpha`/`gbias` gradients are bit-identical to the
//! naive loops; only `grad_in` is tolerance-bound, because `col2im`
//! reassociates its scatter sums.
//!
//! When the layer is trinary, [`Layer::infer_with`] routes through the
//! multiply-free `gemm_trinary` over bitplane-packed weights instead of
//! the f32 GEMM — bit-identical output (see `pcnn_kernels::trinary`),
//! and `ops` instead of `flops` in traces. The packed weights stay
//! resident in the layer, one matrix per group, built on first
//! inference and rebuilt after every weight change. Training
//! (`forward_with` / `backward_with`) stays on the f32 path, which
//! needs the projected weights in float form anyway.

use crate::init::trinary_uniform;
use crate::layer::Layer;
use crate::optimizer::adam_update;
use crate::reference::ConvSpec;
use crate::tensor::Tensor;
use crate::trinary::{clip_shadow, trinarize_into, ResidentWeights};
use pcnn_kernels::{
    col2im, gemm_abt, gemm_atb, gemm_prepacked, gemm_trinary, im2col, take_resized, take_zeroed,
    ConvGeom, Scratch,
};

/// A grouped 2-D convolution layer over `(batch, channels, h, w)` tensors.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    trinary: bool,
    /// Shadow weights `[out_ch][in_ch/groups][k][k]`, flattened.
    w: Vec<f32>,
    alpha: Vec<f32>,
    bias: Vec<f32>,
    gw: Vec<f32>,
    galpha: Vec<f32>,
    gbias: Vec<f32>,
    vw: Vec<f32>,
    valpha: Vec<f32>,
    vbias: Vec<f32>,
    sw: Vec<f32>,
    salpha: Vec<f32>,
    sbias: Vec<f32>,
    steps: u64,
    cached_input: Option<Tensor>,
    cached_pre: Option<Tensor>,
    /// The deployed weights packed for inference (trinary layers only).
    packed: ResidentWeights,
}

impl Conv2d {
    /// A new convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts, or any
    /// dimension is zero.
    #[allow(clippy::too_many_arguments)] // mirrors the conv hyperparameter tuple
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        trinary: bool,
        seed: u64,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0 && groups > 0);
        assert_eq!(in_ch % groups, 0, "groups must divide in_ch");
        assert_eq!(out_ch % groups, 0, "groups must divide out_ch");
        let icg = in_ch / groups;
        let n_w = out_ch * icg * k * k;
        let fan_in = icg * k * k;
        let w = if trinary {
            trinary_uniform(n_w, seed)
        } else {
            crate::init::he_uniform(n_w, fan_in, seed)
        };
        let alpha0 = if trinary { 1.0 / (fan_in as f32).sqrt() } else { 1.0 };
        Conv2d {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            groups,
            trinary,
            w,
            alpha: vec![alpha0; out_ch],
            bias: vec![0.0; out_ch],
            gw: vec![0.0; n_w],
            galpha: vec![0.0; out_ch],
            gbias: vec![0.0; out_ch],
            vw: vec![0.0; n_w],
            valpha: vec![0.0; out_ch],
            vbias: vec![0.0; out_ch],
            sw: vec![0.0; n_w],
            salpha: vec![0.0; out_ch],
            sbias: vec![0.0; out_ch],
            steps: 0,
            cached_input: None,
            cached_pre: None,
            packed: ResidentWeights::default(),
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec().out_size(h, w)
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Stride in both dimensions.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding in both dimensions.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Whether weights deploy as trinary.
    pub fn is_trinary(&self) -> bool {
        self.trinary
    }

    /// The per-channel scale vector `α`.
    pub fn alpha(&self) -> &[f32] {
        &self.alpha
    }

    /// The per-channel bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// This layer's hyperparameters as a [`ConvSpec`] for the reference
    /// oracle.
    pub fn spec(&self) -> ConvSpec {
        ConvSpec {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            k: self.k,
            stride: self.stride,
            pad: self.pad,
            groups: self.groups,
        }
    }

    /// The weights the layer actually computes with — trinary-projected
    /// when the layer is trinary, the raw shadows otherwise.
    pub fn effective_weights(&self) -> Vec<f32> {
        if self.trinary {
            let mut out = vec![0.0f32; self.w.len()];
            trinarize_into(&self.w, &mut out);
            out
        } else {
            self.w.clone()
        }
    }

    /// Accumulated `(gw, galpha, gbias)` gradients, exposed for the
    /// kernel-equivalence tests.
    #[doc(hidden)]
    pub fn debug_grads(&self) -> (&[f32], &[f32], &[f32]) {
        (&self.gw, &self.galpha, &self.gbias)
    }

    /// Replaces the shadow weights, so the equivalence tests can force
    /// specific deployed densities.
    ///
    /// # Panics
    ///
    /// Panics if the length doesn't match the layer's weight count.
    #[doc(hidden)]
    pub fn debug_set_shadow_weights(&mut self, w: &[f32]) {
        assert_eq!(w.len(), self.w.len(), "weight count mismatch");
        self.w.copy_from_slice(w);
        self.packed.invalidate();
    }

    /// Packing geometry for one group over an `(h, w)` input.
    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            channels: self.in_ch / self.groups,
            h,
            w,
            k: self.k,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// The pure forward computation: `(pre-scale, output)`.
    ///
    /// Per (group, sample): pack the group's weight matrix once, im2col
    /// the sample's group channels, then one GEMM
    /// `pre_g = W_g [ocg × icg·k²] · col [icg·k² × ho·wo]`.
    fn apply_with(&self, input: &Tensor, s: &mut Scratch) -> (Tensor, Tensor) {
        assert_eq!(input.shape().len(), 4, "Conv2d takes (batch, channels, h, w)");
        let (batch, cin, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(cin, self.in_ch, "input channel mismatch");
        let (ho, wo) = self.out_size(h, w);
        let icg = self.in_ch / self.groups;
        let ocg = self.out_ch / self.groups;
        let geom = self.geom(h, w);
        let krows = icg * self.k * self.k;
        let cols = ho * wo;
        let mut pre = Tensor::zeros(&[batch, self.out_ch, ho, wo]);
        let Scratch { gemm, col, wbuf, wpack, .. } = s;
        let w_eff: &[f32] = if self.trinary {
            let wb = take_zeroed(wbuf, self.w.len());
            trinarize_into(&self.w, wb);
            wb
        } else {
            &self.w
        };
        for g in 0..self.groups {
            wpack.pack(&w_eff[g * ocg * krows..], krows, ocg, krows);
            for n in 0..batch {
                im2col(&geom, input.channels(n, g * icg, icg), take_zeroed(col, krows * cols));
                let cslice =
                    &mut pre.data_mut()[(n * self.out_ch + g * ocg) * cols..][..ocg * cols];
                gemm_prepacked(gemm, wpack, cols, col, cols, cslice, cols);
            }
        }
        let out = self.scale_pre(&pre, batch, cols);
        (pre, out)
    }

    /// Applies the per-channel `α`/bias affine to a pre-scale tensor.
    fn scale_pre(&self, pre: &Tensor, batch: usize, cols: usize) -> Tensor {
        let mut out = Tensor::zeros(pre.shape());
        for n in 0..batch {
            for o in 0..self.out_ch {
                let base = (n * self.out_ch + o) * cols;
                let (a, b) = (self.alpha[o], self.bias[o]);
                let prow = &pre.data()[base..base + cols];
                let orow = &mut out.data_mut()[base..base + cols];
                for (ov, pv) in orow.iter_mut().zip(prow) {
                    *ov = a * pv + b;
                }
            }
        }
        out
    }

    /// [`Self::scale_pre`] applied in place, for inference where the
    /// unscaled pre-activation is not kept. Same arithmetic per
    /// element, so bit-identical to the copying form.
    fn scale_pre_in_place(&self, pre: &mut Tensor, batch: usize, cols: usize) {
        for n in 0..batch {
            for o in 0..self.out_ch {
                let base = (n * self.out_ch + o) * cols;
                let (a, b) = (self.alpha[o], self.bias[o]);
                for v in &mut pre.data_mut()[base..base + cols] {
                    *v = a * *v + b;
                }
            }
        }
    }

    /// The multiply-free inference path: each sample's column matrix
    /// consumed by `gemm_trinary` against the group's resident packed
    /// weights. Bit-identical to [`Self::apply_with`] on a trinary
    /// layer (the ascending-column bit walk reproduces the im2col row
    /// order the f32 GEMM accumulates in).
    fn infer_trinary_with(&self, input: &Tensor, s: &mut Scratch) -> Tensor {
        assert!(self.trinary, "trinary path on a float layer");
        assert_eq!(input.shape().len(), 4, "Conv2d takes (batch, channels, h, w)");
        let (batch, cin, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(cin, self.in_ch, "input channel mismatch");
        let (ho, wo) = self.out_size(h, w);
        let icg = self.in_ch / self.groups;
        let ocg = self.out_ch / self.groups;
        let geom = self.geom(h, w);
        let krows = icg * self.k * self.k;
        let cols = ho * wo;
        let packed = self.packed.get(&self.w, self.groups, ocg, krows);
        let mut pre = Tensor::zeros(&[batch, self.out_ch, ho, wo]);
        // im2col writes every element of its target, so a plain resize
        // avoids a wasted zeroing pass per call.
        let Scratch { col, .. } = s;
        for (g, wg) in packed.iter().enumerate() {
            for n in 0..batch {
                im2col(&geom, input.channels(n, g * icg, icg), take_resized(col, krows * cols));
                let cslice =
                    &mut pre.data_mut()[(n * self.out_ch + g * ocg) * cols..][..ocg * cols];
                gemm_trinary(wg, cols, col, cols, cslice, cols);
            }
        }
        self.scale_pre_in_place(&mut pre, batch, cols);
        pre
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut s = Scratch::default();
        self.forward_with(input, train, &mut s)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut s = Scratch::default();
        self.infer_with(input, &mut s)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut s = Scratch::default();
        self.backward_with(grad_out, &mut s)
    }

    fn forward_with(&mut self, input: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let (pre, out) = self.apply_with(input, scratch);
        if train {
            self.cached_input = Some(input.clone());
            self.cached_pre = Some(pre);
        }
        out
    }

    fn infer_with(&self, input: &Tensor, scratch: &mut Scratch) -> Tensor {
        if self.trinary {
            self.infer_trinary_with(input, scratch)
        } else {
            self.apply_with(input, scratch).1
        }
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward without training forward");
        let pre = self.cached_pre.as_ref().expect("missing pre cache");
        let (batch, _, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (ho, wo) = (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        );
        assert_eq!(grad_out.shape(), &[batch, self.out_ch, ho, wo], "grad shape mismatch");
        let icg = self.in_ch / self.groups;
        let ocg = self.out_ch / self.groups;
        let geom = ConvGeom { channels: icg, h, w, k: self.k, stride: self.stride, pad: self.pad };
        let krows = icg * self.k * self.k;
        let cols = ho * wo;
        let mut grad_in = Tensor::zeros(input.shape());
        let Scratch { gemm, col, dcol, wbuf, dbuf, .. } = scratch;
        let w_eff: &[f32] = if self.trinary {
            let wb = take_zeroed(wbuf, self.w.len());
            trinarize_into(&self.w, wb);
            wb
        } else {
            &self.w
        };
        for g in 0..self.groups {
            let wg = &w_eff[g * ocg * krows..][..ocg * krows];
            for n in 0..batch {
                // dα/db accumulate element-by-element in the naive
                // (oy, ox) order — running sums stay bit-identical —
                // while dbuf collects dy·α for the GEMMs below.
                let db = take_zeroed(dbuf, ocg * cols);
                for ol in 0..ocg {
                    let o = g * ocg + ol;
                    let base = (n * self.out_ch + o) * cols;
                    let grow = &grad_out.data()[base..base + cols];
                    let prow = &pre.data()[base..base + cols];
                    let a = self.alpha[o];
                    let mut ga = self.galpha[o];
                    let mut gb = self.gbias[o];
                    let drow = &mut db[ol * cols..][..cols];
                    for c in 0..cols {
                        let dy = grow[c];
                        ga += dy * prow[c];
                        gb += dy;
                        drow[c] = dy * a;
                    }
                    self.galpha[o] = ga;
                    self.gbias[o] = gb;
                }
                im2col(&geom, input.channels(n, g * icg, icg), take_zeroed(col, krows * cols));
                // gw_g += dbuf · colᵀ, running sums extended across the
                // batch in sample order (bit-identical to naive).
                let gwg = &mut self.gw[g * ocg * krows..][..ocg * krows];
                gemm_abt(gemm, ocg, cols, krows, db, cols, col, cols, gwg, krows);
                // dcol = W_gᵀ · dbuf, scattered back by col2im. This is
                // the one reassociated sum — grad_in is tolerance-bound.
                let dc = take_zeroed(dcol, krows * cols);
                gemm_atb(gemm, krows, ocg, cols, wg, krows, db, cols, dc, cols);
                col2im(&geom, dc, grad_in.channels_mut(n, g * icg, icg));
            }
        }
        grad_in
    }

    fn step(&mut self, lr: f32, momentum: f32) {
        // Adam (`momentum` = beta1) — see GroupedLinear::step for why.
        self.steps += 1;
        let t = self.steps;
        adam_update(&mut self.w, &mut self.gw, &mut self.vw, &mut self.sw, lr, momentum, t);
        if self.trinary {
            for w in &mut self.w {
                *w = clip_shadow(*w);
            }
        }
        self.packed.invalidate();
        adam_update(
            &mut self.alpha,
            &mut self.galpha,
            &mut self.valpha,
            &mut self.salpha,
            lr,
            momentum,
            t,
        );
        adam_update(
            &mut self.bias,
            &mut self.gbias,
            &mut self.vbias,
            &mut self.sbias,
            lr,
            momentum,
            t,
        );
    }

    fn name(&self) -> &str {
        if self.trinary {
            "conv2d-trinary"
        } else {
            "conv2d"
        }
    }

    fn span_label(&self) -> &'static str {
        "eedn.conv"
    }

    fn parameter_count(&self) -> usize {
        self.w.len() + self.alpha.len() + self.bias.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 1, false, 1);
        conv.w = vec![1.0];
        conv.alpha = vec![1.0];
        conv.bias = vec![0.0];
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn out_size_math() {
        let conv = Conv2d::new(1, 1, 3, 2, 1, 1, false, 1);
        assert_eq!(conv.out_size(8, 8), (4, 4));
        let conv = Conv2d::new(1, 1, 3, 1, 0, 1, false, 1);
        assert_eq!(conv.out_size(8, 8), (6, 6));
    }

    #[test]
    fn box_filter_sums_window() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 1, false, 2);
        conv.w = vec![1.0; 4];
        conv.alpha = vec![1.0];
        conv.bias = vec![0.0];
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 10.0);
    }

    #[test]
    fn padding_extends_with_zeros() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 1, false, 3);
        conv.w = vec![1.0; 9];
        conv.alpha = vec![1.0];
        conv.bias = vec![0.0];
        let x = Tensor::from_vec(&[1, 1, 1, 1], vec![5.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 5.0, "zero padding contributes nothing");
    }

    #[test]
    fn groups_do_not_mix_channels() {
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, 2, false, 4);
        conv.w = vec![1.0, 1.0];
        conv.alpha = vec![1.0, 1.0];
        conv.bias = vec![0.0, 0.0];
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![3.0, 7.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[3.0, 7.0]);
    }

    #[test]
    fn gradient_check_float() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 1, false, 5);
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| (i as f32 * 0.13).sin()).collect());
        let y = conv.forward(&x, true);
        let grad_out = y.clone();
        let grad_in = conv.backward(&grad_out);
        let loss = |c: &mut Conv2d, x: &Tensor| -> f32 {
            let y = c.forward(x, false);
            y.data().iter().map(|v| v * v).sum::<f32>() * 0.5
        };
        let eps = 1e-3;
        for j in [0usize, 5, 9, 15] {
            let mut xp = x.clone();
            xp.data_mut()[j] += eps;
            let mut xm = x.clone();
            xm.data_mut()[j] -= eps;
            let num = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[j];
            assert!((num - ana).abs() < 1e-2, "pixel {j}: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn trinary_conv_training_converges() {
        // Trinary conv regression: fit a fixed random target map. Tests
        // that STE shadow gradients plus the alpha/bias path actually
        // optimize under the {-1,0,1} constraint.
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 1, true, 6);
        let x = Tensor::from_vec(
            &[1, 1, 6, 6],
            (0..36).map(|i| ((i as f32) * 0.37).sin() * 0.5 + 0.5).collect(),
        );
        let target = Tensor::from_vec(
            &[1, 2, 6, 6],
            (0..72).map(|i| ((i as f32) * 0.11).cos() * 0.3).collect(),
        );
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            let y = conv.forward(&x, true);
            let (loss, grad) = crate::loss::mse_loss(&y, &target);
            conv.backward(&grad);
            conv.step(0.05, 0.9);
            first.get_or_insert(loss);
            last = loss;
        }
        // The {-1,0,1} constraint leaves a representational floor; halving
        // the initial loss shows the optimizer is working.
        assert!(last < first.unwrap() * 0.6, "trinary conv loss {:?} -> {last}", first);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // The same layer driven through one reused Scratch and through
        // fresh ones must produce identical bits.
        let conv = Conv2d::new(4, 4, 3, 1, 1, 2, true, 7);
        let x =
            Tensor::from_vec(&[2, 4, 5, 5], (0..200).map(|i| ((i as f32) * 0.17).sin()).collect());
        let mut s = Scratch::default();
        for _ in 0..3 {
            let with = conv.infer_with(&x, &mut s);
            let plain = conv.infer(&x);
            assert_eq!(with, plain);
        }
    }
}
