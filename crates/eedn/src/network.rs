//! Sequential network composition and training loops.

use crate::layer::Layer;
use crate::loss::softmax_cross_entropy;
use crate::tensor::Tensor;
use pcnn_kernels::Scratch;

/// A stack of layers trained end to end.
///
/// The network owns one [`Scratch`] that every training-mode pass
/// threads through its layers, so steady-state training reuses packing
/// and column buffers instead of allocating per call.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    scratch: Scratch,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.iter().map(|l| l.name().to_owned()).collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// An empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new(), scratch: Scratch::default() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Shared access to the layer at `index`, for diagnostics and
    /// checkpointing (downcast via [`Layer::as_any`]).
    pub fn layer(&self, index: usize) -> Option<&dyn Layer> {
        self.layers.get(index).map(|l| l.as_ref())
    }

    /// The layer at `index` downcast to its concrete type, or `None` if
    /// the index is out of range or the layer is a different type.
    pub fn layer_as<T: 'static>(&self, index: usize) -> Option<&T> {
        self.layers.get(index).and_then(|l| l.as_any().downcast_ref::<T>())
    }

    /// Runs inference through shared references only, so a trained
    /// network can serve many threads at once. Bit-identical to the
    /// inference-mode forward pass.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut scratch = Scratch::default();
        self.infer_with(input, &mut scratch)
    }

    /// [`infer`](Sequential::infer) reusing caller-owned scratch buffers
    /// — the entry point for serving loops that process many inputs
    /// (each worker thread keeps its own `Scratch`). Bit-identical to
    /// [`infer`](Sequential::infer).
    pub fn infer_with(&self, input: &Tensor, scratch: &mut Scratch) -> Tensor {
        let pass = pcnn_trace::span(pcnn_trace::stages::EEDN_INFER);
        // The first layer reads the caller's tensor; only an empty
        // network copies it.
        let mut x: Option<Tensor> = None;
        for layer in &self.layers {
            let _layer_span = pass.is_recording().then(|| pcnn_trace::span(layer.span_label()));
            x = Some(layer.infer_with(x.as_ref().unwrap_or(input), scratch));
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Runs inference.
    pub fn predict(&self, input: &Tensor) -> Tensor {
        self.infer(input)
    }

    /// Forward in training mode (caches enabled).
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let pass = pcnn_trace::span(pcnn_trace::stages::EEDN_FORWARD);
        let mut x = input.clone();
        for layer in &mut self.layers {
            let _layer_span = pass.is_recording().then(|| pcnn_trace::span(layer.span_label()));
            x = layer.forward_with(&x, true, &mut self.scratch);
        }
        x
    }

    /// Backpropagates a loss gradient through the whole stack.
    pub fn backward(&mut self, grad: &Tensor) {
        let pass = pcnn_trace::span(pcnn_trace::stages::EEDN_BACKWARD);
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            let _layer_span = pass.is_recording().then(|| pcnn_trace::span(layer.span_label()));
            g = layer.backward_with(&g, &mut self.scratch);
        }
    }

    /// Applies one optimizer step everywhere.
    pub fn step(&mut self, lr: f32, momentum: f32) {
        for layer in &mut self.layers {
            layer.step(lr, momentum);
        }
    }

    /// One classification training step; returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics on shape/label errors (see
    /// [`softmax_cross_entropy`]).
    pub fn train_step_classify(
        &mut self,
        input: &Tensor,
        labels: &[usize],
        lr: f32,
        momentum: f32,
    ) -> f32 {
        let logits = self.forward_train(input);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.backward(&grad);
        self.step(lr, momentum);
        loss
    }

    /// Classification accuracy over a rank-2 batch.
    pub fn accuracy(&self, input: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.predict(input);
        let batch = logits.shape()[0];
        let mut correct = 0;
        for (n, &label) in labels.iter().enumerate().take(batch) {
            let row = logits.row(n);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == label {
                correct += 1;
            }
        }
        correct as f32 / batch as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{HardSigmoid, Threshold};
    use crate::fc::GroupedLinear;
    use crate::permute::Permute;

    /// Two Gaussian blobs in 8 dimensions.
    fn blob_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let class = rng.random_bool(0.5) as usize;
            let center = if class == 1 { 0.8 } else { 0.2 };
            rows.push((0..8).map(|_| center + rng.random_range(-0.15..0.15)).collect());
            labels.push(class);
        }
        (Tensor::from_rows(&rows), labels)
    }

    #[test]
    fn float_mlp_learns_blobs() {
        let mut net = Sequential::new()
            .push(GroupedLinear::new(8, 16, 1, false, 1))
            .push(crate::activation::Relu::new())
            .push(GroupedLinear::new(16, 2, 1, false, 2));
        let (x, y) = blob_data(128, 10);
        for _ in 0..150 {
            net.train_step_classify(&x, &y, 0.1, 0.9);
        }
        assert!(net.accuracy(&x, &y) > 0.98);
    }

    #[test]
    fn trinary_threshold_net_learns_blobs() {
        // The full Eedn constraint stack: trinary weights + binary spiking
        // activation (STE surrogate) still learns an easy task.
        let mut net = Sequential::new()
            .push(GroupedLinear::new(8, 32, 1, true, 3))
            .push(Threshold::new())
            .push(GroupedLinear::new(32, 2, 1, true, 4));
        let (x, y) = blob_data(128, 11);
        for _ in 0..300 {
            net.train_step_classify(&x, &y, 0.02, 0.9);
        }
        let acc = net.accuracy(&x, &y);
        assert!(acc > 0.9, "trinary threshold accuracy {acc}");
    }

    #[test]
    fn grouped_net_with_permute_learns() {
        let mut net = Sequential::new()
            .push(GroupedLinear::new(8, 32, 4, true, 5))
            .push(HardSigmoid::new())
            .push(Permute::random(32, 6))
            .push(GroupedLinear::new(32, 2, 2, true, 7));
        let (x, y) = blob_data(128, 12);
        for _ in 0..300 {
            net.train_step_classify(&x, &y, 0.02, 0.9);
        }
        let acc = net.accuracy(&x, &y);
        assert!(acc > 0.9, "grouped accuracy {acc}");
    }

    #[test]
    fn parameter_count_sums_layers() {
        let net = Sequential::new()
            .push(GroupedLinear::new(4, 4, 1, false, 1))
            .push(GroupedLinear::new(4, 2, 1, false, 2));
        // 4*4 + 4 + 4 weights/alpha/bias, then 4*2 + 2 + 2.
        assert_eq!(net.parameter_count(), (16 + 4 + 4) + (8 + 2 + 2));
    }

    #[test]
    fn predict_is_stateless_wrt_training() {
        let net = Sequential::new().push(GroupedLinear::new(4, 2, 1, false, 9));
        let x = Tensor::from_rows(&[vec![1.0, 0.0, -1.0, 0.5]]);
        let a = net.predict(&x);
        let b = net.predict(&x);
        assert_eq!(a, b);
    }
}
