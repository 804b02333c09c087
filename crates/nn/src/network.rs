//! Sequential network container.

use crate::layers::Layer;
use crate::Tensor;
use std::fmt;

/// A sequential stack of [`Layer`]s.
///
/// # Examples
///
/// Forward and backward passes run through a planned
/// [`crate::engine::Executor`]:
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::{Dense, Relu};
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, 0));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, 1));
/// let logits = Executor::new().infer(&net, &Tensor::zeros(vec![4])).to_vec();
/// assert_eq!(logits.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Shared view of the layer stack for the execution planner.
    pub(crate) fn layers_ref(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable view of the layer stack for planned training passes.
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Full forward pass in inference mode without mutating any layer
    /// state, one allocating [`Layer::forward_inference`] per layer.
    ///
    /// The unplanned oracle, on no production path: gradcheck, the
    /// property tests and the unit tests compare planned execution
    /// ([`crate::engine::Executor::infer`],
    /// [`crate::engine::BatchScorer::infer_ragged`]) against it, and it is
    /// bit-identical to both. Score through the engine instead.
    pub fn forward_inference(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward_inference(&x);
        }
        x
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Applies one vanilla gradient-descent step: `w -= lr * g`.
    ///
    /// Callers accumulating over an `m`-sample mini-batch pass
    /// `lr / m` to average (paper Algorithm 1 line 9).
    pub fn apply_gradients(&mut self, lr: f32) {
        self.visit_params(&mut |w, g| {
            for (wi, gi) in w.iter_mut().zip(g.iter()) {
                *wi -= lr * gi;
            }
        });
    }

    /// Visits every (parameters, gradients) pair in layer order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    /// RNG states of every stochastic layer, in layer order (deterministic
    /// layers are skipped). Together with the parameters this makes a
    /// training state fully resumable: see [`Network::restore_rng_states`].
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.layers.iter().filter_map(|l| l.rng_state()).collect()
    }

    /// Restores RNG states captured by [`Network::rng_states`] into this
    /// network's stochastic layers, in the same layer order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::Format`] when `states` does not hold
    /// exactly one entry per stochastic layer — the checkpoint was produced
    /// by a differently-shaped network.
    pub fn restore_rng_states(&mut self, states: &[[u64; 4]]) -> Result<(), crate::NnError> {
        let expected = self
            .layers
            .iter()
            .filter(|l| l.rng_state().is_some())
            .count();
        if states.len() != expected {
            return Err(crate::NnError::Format(format!(
                "checkpoint holds {} RNG states but the network has {expected} stochastic layers",
                states.len()
            )));
        }
        let mut it = states.iter();
        for layer in &mut self.layers {
            if layer.rng_state().is_some() {
                // `it` yields exactly `expected` items and we just checked
                // the count, so `next()` cannot fail here.
                if let Some(&s) = it.next() {
                    layer.set_rng_state(s);
                }
            }
        }
        Ok(())
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |w, _| count += w.len());
        count
    }

    /// Largest-magnitude accumulated gradient (for debugging/telemetry).
    pub fn grad_abs_max(&mut self) -> f32 {
        let mut m = 0.0f32;
        self.visit_params(&mut |_, g| {
            for &v in g.iter() {
                m = m.max(v.abs());
            }
        });
        m
    }

    /// Architecture summary rows: `(name, output shape)` for the given
    /// input shape — regenerates the paper's Table 1.
    pub fn summary(&self, input_shape: &[usize]) -> Vec<(String, Vec<usize>)> {
        let mut rows = Vec::with_capacity(self.layers.len());
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.out_shape(&shape);
            rows.push((layer.name().to_string(), shape.clone()));
        }
        rows
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network[{} layers]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::layers::{Dense, Flatten, MaxPool2, Relu};
    use crate::loss;

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(3, 4, 0));
        net.push(Relu::new());
        net.push(Dense::new(4, 2, 1));
        net
    }

    #[test]
    fn forward_shape() {
        let y = tiny_net().forward_inference(&Tensor::zeros(vec![3]));
        assert_eq!(y.shape(), &[2]);
    }

    #[test]
    fn parameter_count_sums_layers() {
        let mut net = tiny_net();
        assert_eq!(net.parameter_count(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut net = tiny_net();
        let mut ex = Executor::new();
        let x = Tensor::from_vec(vec![3], vec![0.5, -0.2, 0.8]);
        let target = [0.0f32, 1.0];
        let mut g = [0.0f32; 2];
        net.zero_grads();
        let l0 = loss::softmax_cross_entropy_into(ex.forward_train(&mut net, &x), &target, &mut g);
        ex.backward(&mut net, &g);
        net.apply_gradients(0.1);
        let (l1, _) = loss::softmax_cross_entropy(&net.forward_inference(&x), &target);
        assert!(l1 < l0, "loss should decrease: {l0} -> {l1}");
    }

    #[test]
    fn summary_tracks_shapes() {
        let mut net = Network::new();
        net.push(MaxPool2::new());
        net.push(Flatten::new());
        net.push(Dense::new(4, 2, 0));
        let rows = net.summary(&[1, 4, 4]);
        assert_eq!(rows[0], ("maxpool".to_string(), vec![1, 2, 2]));
        assert_eq!(rows[1], ("flatten".to_string(), vec![4]));
        assert_eq!(rows[2], ("fc".to_string(), vec![2]));
    }

    #[test]
    fn forward_inference_is_bit_identical_to_planned_inference() {
        use crate::layers::{Conv2d, Dropout, Flatten, MaxPool2};
        // Cover every layer kind that appears in the paper architecture,
        // dropout included (identity at inference, no RNG draw).
        let mut net = Network::new();
        net.push(Conv2d::new(2, 3, 3, 1, 5));
        net.push(Relu::new());
        net.push(MaxPool2::new());
        net.push(Flatten::new());
        net.push(Dense::new(3 * 3 * 3, 8, 6));
        net.push(Dropout::new(0.5, 7));
        net.push(Dense::new(8, 2, 8));
        let x = Tensor::from_vec(
            vec![2, 6, 6],
            (0..72).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let rng_before = net.rng_states();
        let inferred = net.forward_inference(&x);
        assert_eq!(net.rng_states(), rng_before, "inference must not draw RNG");
        let planned = Executor::new().infer(&net, &x).to_vec();
        assert_eq!(inferred.as_slice(), planned.as_slice());
    }

    #[test]
    fn rng_states_roundtrip_resumes_dropout_stream() {
        use crate::layers::Dropout;
        let mut net = Network::new();
        net.push(Dense::new(8, 8, 0));
        net.push(Dropout::new(0.5, 7));
        net.push(Dense::new(8, 2, 1));
        net.push(Dropout::new(0.3, 9));
        let x = Tensor::from_vec(vec![8], vec![0.25; 8]);
        let mut ex = Executor::new();
        // Advance the streams, snapshot, advance further.
        let _ = ex.forward_train(&mut net, &x);
        let states = net.rng_states();
        assert_eq!(states.len(), 2);
        let after: Vec<Vec<f32>> = (0..3)
            .map(|_| ex.forward_train(&mut net, &x).to_vec())
            .collect();
        // Rewind and replay: identical mask sequence.
        net.restore_rng_states(&states).unwrap();
        let replay: Vec<Vec<f32>> = (0..3)
            .map(|_| ex.forward_train(&mut net, &x).to_vec())
            .collect();
        assert_eq!(after, replay);
        // Wrong cardinality is rejected.
        assert!(net.restore_rng_states(&states[..1]).is_err());
        assert!(tiny_net().restore_rng_states(&states).is_err());
    }

    #[test]
    fn zero_grads_clears() {
        let mut net = tiny_net();
        let mut ex = Executor::new();
        let mut g = [0.0f32; 2];
        let y = ex.forward_train(&mut net, &Tensor::zeros(vec![3]));
        let _ = loss::softmax_cross_entropy_into(y, &[1.0, 0.0], &mut g);
        ex.backward(&mut net, &g);
        assert!(net.grad_abs_max() > 0.0);
        net.zero_grads();
        assert_eq!(net.grad_abs_max(), 0.0);
    }
}
