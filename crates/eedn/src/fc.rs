//! Grouped fully-connected layers with optional trinary weights.
//!
//! A grouped linear layer splits its inputs and outputs into `groups`
//! contiguous blocks and connects them block-diagonally, so each output
//! only sees `in_dim / groups` inputs — the Eedn trick that makes every
//! block fit a 256×256 crossbar. A per-output scale `α` (folded into the
//! hardware neuron threshold at deployment) and bias restore dynamic
//! range lost to the `{-1, 0, 1}` weight constraint:
//!
//! ```text
//! y = α ⊙ (W⟨tri⟩ · x)_groupwise + b
//! ```
//!
//! Gradients reach the shadow weights straight-through (the projection is
//! treated as identity in the backward pass).
//!
//! Forward, backward and every gradient run as blocked GEMM calls from
//! `pcnn-kernels`; all of them are bit-identical to the naive loops kept
//! in [`crate::reference`] (each output element stays one sequential
//! dot product — nothing reassociates).
//!
//! When the layer is trinary, [`Layer::infer_with`] routes through the
//! multiply-free `gemm_trinary`: the group's input block is transposed
//! into scratch (`in_g × batch`), multiplied against the group's
//! bitplane-packed weights, and transposed back — each output element
//! still accumulates its inputs in ascending order, so the result is
//! bit-identical to the f32 path. The packed weights stay resident in
//! the layer (built on first inference, rebuilt after every weight
//! change), so a call only streams its batch through them. Training
//! stays on the f32 GEMMs.

use crate::init::trinary_uniform;
use crate::layer::Layer;
use crate::optimizer::adam_update;
use crate::reference::LinearSpec;
use crate::tensor::Tensor;
use crate::trinary::{clip_shadow, trinarize, trinarize_into, ResidentWeights};
use pcnn_kernels::{gemm, gemm_abt, gemm_atb, gemm_trinary, take_resized, take_zeroed, Scratch};
use serde::{Deserialize, Serialize};

/// A grouped, optionally trinary, fully-connected layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupedLinear {
    in_dim: usize,
    out_dim: usize,
    groups: usize,
    trinary: bool,
    /// Shadow weights, `[group][out_local][in_local]` flattened.
    w: Vec<f32>,
    alpha: Vec<f32>,
    bias: Vec<f32>,
    // Gradient accumulators and Adam moment buffers.
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
    // Training caches (not persisted).
    #[serde(skip)]
    cached_input: Option<Tensor>,
    #[serde(skip)]
    cached_pre_scale: Option<Tensor>,
    /// The deployed weights packed for inference (trinary layers only).
    #[serde(skip)]
    packed: ResidentWeights,
}

impl GroupedLinear {
    /// A new layer.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both `in_dim` and `out_dim`, or
    /// any dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, groups: usize, trinary: bool, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0 && groups > 0, "dimensions must be positive");
        assert_eq!(in_dim % groups, 0, "groups must divide in_dim");
        assert_eq!(out_dim % groups, 0, "groups must divide out_dim");
        let in_g = in_dim / groups;
        let n_w = groups * (out_dim / groups) * in_g;
        let w = if trinary {
            trinary_uniform(n_w, seed)
        } else {
            crate::init::he_uniform(n_w, in_g, seed)
        };
        // Alpha starts at 1/fan_in-ish so trinary sums land in O(1) range.
        let alpha0 = if trinary { 1.0 / (in_g as f32).sqrt() } else { 1.0 };
        GroupedLinear {
            in_dim,
            out_dim,
            groups,
            trinary,
            w,
            alpha: vec![alpha0; out_dim],
            bias: vec![0.0; out_dim],
            gw: vec![0.0; n_w],
            galpha: vec![0.0; out_dim],
            gbias: vec![0.0; out_dim],
            vw: vec![0.0; n_w],
            valpha: vec![0.0; out_dim],
            vbias: vec![0.0; out_dim],
            sw: vec![0.0; n_w],
            salpha: vec![0.0; out_dim],
            sbias: vec![0.0; out_dim],
            steps: 0,
            cached_input: None,
            cached_pre_scale: None,
            packed: ResidentWeights::default(),
        }
    }

    /// Sets every bias to `value` (builder style). Useful before
    /// hard-sigmoid activations: a positive initial bias centers the
    /// pre-activations inside the non-saturated band, where gradients
    /// flow.
    pub fn with_bias_init(mut self, value: f32) -> Self {
        for b in &mut self.bias {
            *b = value;
        }
        self
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Whether weights deploy as trinary.
    pub fn is_trinary(&self) -> bool {
        self.trinary
    }

    /// The deployed weight for `(group, out_local, in_local)` — trinary
    /// projected when the layer is trinary.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn deployed_weight(&self, group: usize, out_local: usize, in_local: usize) -> f32 {
        let (in_g, out_g) = (self.in_dim / self.groups, self.out_dim / self.groups);
        assert!(group < self.groups && out_local < out_g && in_local < in_g);
        let raw = self.w[(group * out_g + out_local) * in_g + in_local];
        if self.trinary {
            trinarize(raw)
        } else {
            raw
        }
    }

    /// The per-output scale vector `α`.
    pub fn alpha(&self) -> &[f32] {
        &self.alpha
    }

    /// The per-output bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// This layer's hyperparameters as a [`LinearSpec`] for the
    /// reference oracle.
    pub fn spec(&self) -> LinearSpec {
        LinearSpec { in_dim: self.in_dim, out_dim: self.out_dim, groups: self.groups }
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

    /// The pure forward computation: `(pre-scale, output)`.
    ///
    /// Per group: `pre_g [batch × out_g] = X_g [batch × in_g] · W_gᵀ`,
    /// one strided GEMM straight into the `pre` tensor.
    fn apply_with(&self, input: &Tensor, s: &mut Scratch) -> (Tensor, Tensor) {
        assert_eq!(input.shape().len(), 2, "GroupedLinear takes (batch, features)");
        assert_eq!(input.shape()[1], self.in_dim, "input dim mismatch");
        let batch = input.shape()[0];
        let (in_g, out_g) = (self.in_dim / self.groups, self.out_dim / self.groups);
        let mut pre = Tensor::zeros(&[batch, self.out_dim]);
        let Scratch { gemm: gs, wbuf, .. } = s;
        let w_eff: &[f32] = if self.trinary {
            let wb = take_zeroed(wbuf, self.w.len());
            trinarize_into(&self.w, wb);
            wb
        } else {
            &self.w
        };
        for g in 0..self.groups {
            let xg = &input.data()[g * in_g..];
            let wg = &w_eff[g * out_g * in_g..][..out_g * in_g];
            let cg = &mut pre.data_mut()[g * out_g..];
            gemm_abt(gs, batch, in_g, out_g, xg, self.in_dim, wg, in_g, cg, self.out_dim);
        }
        let out = self.scale_pre(&pre, batch);
        (pre, out)
    }

    /// Applies the per-output `α`/bias affine to a pre-scale tensor.
    fn scale_pre(&self, pre: &Tensor, batch: usize) -> Tensor {
        let mut out = Tensor::zeros(&[batch, self.out_dim]);
        for n in 0..batch {
            for o in 0..self.out_dim {
                *out.at2_mut(n, o) = self.alpha[o] * pre.at2(n, o) + self.bias[o];
            }
        }
        out
    }

    /// [`Self::scale_pre`] applied in place, for inference where the
    /// unscaled pre-activation is not kept. Same arithmetic per
    /// element, so bit-identical to the copying form.
    fn scale_pre_in_place(&self, pre: &mut Tensor, batch: usize) {
        for n in 0..batch {
            for o in 0..self.out_dim {
                let v = pre.at2_mut(n, o);
                *v = self.alpha[o] * *v + self.bias[o];
            }
        }
    }

    /// The multiply-free inference path. `pre_gᵀ [out_g × batch] =
    /// W⟨tri⟩_g · X_gᵀ [in_g × batch]`: each output element is one
    /// ascending-input bit walk over the resident packed weight row, the
    /// same accumulation order as the f32 `gemm_abt` — so bit-identical.
    fn infer_trinary_with(&self, input: &Tensor, s: &mut Scratch) -> Tensor {
        assert!(self.trinary, "trinary path on a float layer");
        assert_eq!(input.shape().len(), 2, "GroupedLinear takes (batch, features)");
        assert_eq!(input.shape()[1], self.in_dim, "input dim mismatch");
        let batch = input.shape()[0];
        let (in_g, out_g) = (self.in_dim / self.groups, self.out_dim / self.groups);
        let packed = self.packed.get(&self.w, self.groups, out_g, in_g);
        let mut pre = Tensor::zeros(&[batch, self.out_dim]);
        let Scratch { bt, ct, .. } = s;
        // The transpose pack overwrites every element of its target, so
        // a plain resize avoids a wasted zeroing pass; `ct` stays zeroed
        // — the GEMM accumulates.
        for (g, wg) in packed.iter().enumerate() {
            let btb = take_resized(bt, in_g * batch);
            for n in 0..batch {
                for (i, row) in btb.chunks_exact_mut(batch).enumerate() {
                    row[n] = input.data()[n * self.in_dim + g * in_g + i];
                }
            }
            let ctb = take_zeroed(ct, out_g * batch);
            gemm_trinary(wg, batch, btb, batch, ctb, batch);
            for n in 0..batch {
                let prow = &mut pre.data_mut()[n * self.out_dim + g * out_g..][..out_g];
                for (ol, pv) in prow.iter_mut().enumerate() {
                    *pv = ctb[ol * batch + n];
                }
            }
        }
        self.scale_pre_in_place(&mut pre, batch);
        pre
    }
}

impl Layer for GroupedLinear {
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
            self.cached_pre_scale = Some(pre);
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
        let pre = self.cached_pre_scale.as_ref().expect("missing pre-scale cache");
        let batch = input.shape()[0];
        assert_eq!(grad_out.shape(), &[batch, self.out_dim], "grad shape mismatch");
        let (in_g, out_g) = (self.in_dim / self.groups, self.out_dim / self.groups);
        let mut grad_in = Tensor::zeros(&[batch, self.in_dim]);
        let Scratch { gemm: gs, wbuf, dbuf, .. } = scratch;
        let w_eff: &[f32] = if self.trinary {
            let wb = take_zeroed(wbuf, self.w.len());
            trinarize_into(&self.w, wb);
            wb
        } else {
            &self.w
        };
        for g in 0..self.groups {
            // dα/db accumulate element-by-element in the naive
            // (sample, output) order; dbuf collects dy·α for the GEMMs.
            let db = take_zeroed(dbuf, batch * out_g);
            for n in 0..batch {
                let grow = &grad_out.data()[n * self.out_dim + g * out_g..][..out_g];
                let prow = &pre.data()[n * self.out_dim + g * out_g..][..out_g];
                let drow = &mut db[n * out_g..][..out_g];
                for ol in 0..out_g {
                    let o = g * out_g + ol;
                    let dy = grow[ol];
                    self.galpha[o] += dy * prow[ol];
                    self.gbias[o] += dy;
                    drow[ol] = dy * self.alpha[o];
                }
            }
            let wg = &w_eff[g * out_g * in_g..][..out_g * in_g];
            let xg = &input.data()[g * in_g..];
            // gw_g [out_g × in_g] += dbufᵀ · X_g — per weight this is the
            // same sequential sum over samples the naive loops produce.
            let gwg = &mut self.gw[g * out_g * in_g..][..out_g * in_g];
            gemm_atb(gs, out_g, batch, in_g, db, out_g, xg, self.in_dim, gwg, in_g);
            // grad_in_g [batch × in_g] = dbuf · W_g — sequential over
            // outputs, so this too is bit-identical.
            let gig = &mut grad_in.data_mut()[g * in_g..];
            gemm(gs, batch, out_g, in_g, db, out_g, wg, in_g, gig, self.in_dim);
        }
        grad_in
    }

    fn step(&mut self, lr: f32, momentum: f32) {
        // Adam: `momentum` plays beta1; beta2/eps fixed. Per-parameter
        // normalization is what lets shadow weights (whose raw gradients
        // carry an O(alpha) factor), alpha and bias all train at the same
        // effective rate.
        self.steps += 1;
        let t = self.steps;
        let trinary = self.trinary;
        adam_update(&mut self.w, &mut self.gw, &mut self.vw, &mut self.sw, lr, momentum, t);
        if trinary {
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
            "grouped-linear-trinary"
        } else {
            "grouped-linear"
        }
    }

    fn span_label(&self) -> &'static str {
        "eedn.linear"
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

    fn finite_diff_check(trinary: bool) {
        // Numeric gradient check on the float path; the trinary path uses
        // STE so its analytic gradient intentionally differs from the true
        // (zero a.e.) derivative — check only float here.
        let mut layer = GroupedLinear::new(4, 2, 1, trinary, 3);
        let x = Tensor::from_rows(&[vec![0.3, -0.2, 0.5, 0.1]]);
        let loss = |l: &mut GroupedLinear, x: &Tensor| -> f32 {
            let y = l.forward(x, false);
            y.data().iter().map(|v| v * v).sum::<f32>() * 0.5
        };
        let y = layer.forward(&x, true);
        let grad_out = y.clone(); // dL/dy = y for L = 0.5*||y||^2
        let grad_in = layer.backward(&grad_out);

        // Finite difference on the input.
        let eps = 1e-3;
        for j in 0..4 {
            let mut xp = x.clone();
            *xp.at2_mut(0, j) += eps;
            let mut xm = x.clone();
            *xm.at2_mut(0, j) -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            let ana = grad_in.at2(0, j);
            assert!((num - ana).abs() < 1e-2, "input grad {j}: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn gradient_check_float() {
        finite_diff_check(false);
    }

    #[test]
    fn trinary_forward_uses_projected_weights() {
        let mut layer = GroupedLinear::new(2, 1, 1, true, 1);
        // Force known shadows.
        layer.w = vec![0.9, 0.1]; // deploys as [1, 0]
        layer.alpha = vec![1.0];
        layer.bias = vec![0.0];
        let y = layer.forward(&Tensor::from_rows(&[vec![2.0, 100.0]]), false);
        assert_eq!(y.at2(0, 0), 2.0, "the 0.1 shadow must deploy as 0");
        assert_eq!(layer.deployed_weight(0, 0, 0), 1.0);
        assert_eq!(layer.deployed_weight(0, 0, 1), 0.0);
    }

    #[test]
    fn grouping_is_block_diagonal() {
        let mut layer = GroupedLinear::new(4, 2, 2, false, 5);
        // Group 0: inputs 0..2 -> output 0; group 1: inputs 2..4 -> output 1.
        let y_a = layer.forward(&Tensor::from_rows(&[vec![1.0, 1.0, 0.0, 0.0]]), false);
        let y_b = layer.forward(&Tensor::from_rows(&[vec![1.0, 1.0, 9.0, -9.0]]), false);
        assert!((y_a.at2(0, 0) - y_b.at2(0, 0)).abs() < 1e-6, "output 0 ignores group 1 inputs");
        assert_ne!(y_a.at2(0, 1), y_b.at2(0, 1));
    }

    #[test]
    fn learns_xor_like_float_task() {
        // Two-layer float network reduces loss on a linearly separable task
        // via this layer's gradients alone.
        let mut l1 = GroupedLinear::new(2, 8, 1, false, 7);
        let mut l2 = GroupedLinear::new(8, 1, 1, false, 8);
        let xs =
            Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0], vec![0.0, -1.0]]);
        let ys = [1.0f32, 1.0, -1.0, -1.0];
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            let h = l1.forward(&xs, true);
            let mut hr = h.clone();
            hr.map_in_place(|v| v.max(0.0));
            let out = l2.forward(&hr, true);
            let mut grad = Tensor::zeros(&[4, 1]);
            let mut loss = 0.0;
            for (n, &target) in ys.iter().enumerate() {
                let d = out.at2(n, 0) - target;
                loss += 0.5 * d * d;
                *grad.at2_mut(n, 0) = d;
            }
            let gh = l2.backward(&grad);
            let mut ghr = gh.clone();
            for n in 0..4 {
                for j in 0..8 {
                    if h.at2(n, j) <= 0.0 {
                        *ghr.at2_mut(n, j) = 0.0;
                    }
                }
            }
            l1.backward(&ghr);
            l1.step(0.05, 0.9);
            l2.step(0.05, 0.9);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.05, "loss {first_loss:?} -> {last_loss}");
    }

    #[test]
    fn trinary_layer_trains_on_sign_task() {
        // Even with trinary weights, alpha/bias plus STE shadows learn to
        // separate a simple pattern.
        let mut l = GroupedLinear::new(4, 1, 1, true, 9);
        let xs = Tensor::from_rows(&[vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 0.0, 1.0, 1.0]]);
        let ys = [1.0f32, -1.0];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let out = l.forward(&xs, true);
            let mut grad = Tensor::zeros(&[2, 1]);
            let mut loss = 0.0;
            for (n, &target) in ys.iter().enumerate() {
                let d = out.at2(n, 0) - target;
                loss += 0.5 * d * d;
                *grad.at2_mut(n, 0) = d;
            }
            l.backward(&grad);
            l.step(0.02, 0.9);
            last = loss;
        }
        assert!(last < 0.05, "trinary loss {last}");
        // Deployed weights are exactly in {-1, 0, 1}.
        for il in 0..4 {
            let w = l.deployed_weight(0, 0, il);
            assert!(w == -1.0 || w == 0.0 || w == 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "groups must divide")]
    fn bad_grouping_rejected() {
        GroupedLinear::new(5, 2, 2, false, 0);
    }

    #[test]
    fn step_clears_gradients() {
        let mut l = GroupedLinear::new(2, 2, 1, false, 11);
        let x = Tensor::from_rows(&[vec![1.0, 2.0]]);
        let y = l.forward(&x, true);
        l.backward(&y);
        l.step(0.1, 0.0);
        assert!(l.gw.iter().all(|&g| g == 0.0));
        assert!(l.gbias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let l = GroupedLinear::new(8, 6, 2, true, 13);
        let x = Tensor::from_rows(&[
            (0..8).map(|i| (i as f32 * 0.3).sin()).collect(),
            (0..8).map(|i| (i as f32 * 0.7).cos()).collect(),
        ]);
        let mut s = Scratch::default();
        for _ in 0..3 {
            assert_eq!(l.infer_with(&x, &mut s), l.infer(&x));
        }
    }
}
