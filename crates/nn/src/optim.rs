//! Optimisers: plain SGD and the paper's mini-batch gradient descent.

use crate::{loss, Network, Tensor};
use serde::{Deserialize, Serialize};

/// A labelled training instance: input tensor plus a (possibly soft)
/// two-class probability target.
pub type Instance = (Tensor, [f32; 2]);

/// Runs one gradient step on a single instance (stochastic gradient
/// descent), returning the instance loss. Equivalent to a one-element
/// [`minibatch_step`] and shares its planned execution path.
pub fn sgd_step(net: &mut Network, instance: &Instance, lr: f32) -> f32 {
    minibatch_step(net, std::iter::once(instance), lr)
}

/// Runs one averaged gradient step over a mini-batch (paper Algorithm 1
/// lines 5–10), returning the mean batch loss.
///
/// Each sample runs through a shape-planned [`crate::engine::Executor`],
/// so after the first sample warms the workspace the whole batch performs
/// no per-sample allocation.
///
/// # Panics
///
/// Panics on an empty batch.
pub fn minibatch_step<'a, I>(net: &mut Network, batch: I, lr: f32) -> f32
where
    I: IntoIterator<Item = &'a Instance>,
{
    net.zero_grads();
    let mut ex = crate::engine::Executor::new();
    let mut grad = Vec::new();
    let mut total = 0.0f32;
    let mut count = 0usize;
    for (x, t) in batch {
        let l = {
            let logits = ex.forward_train(net, x);
            grad.resize(logits.len(), 0.0);
            loss::softmax_cross_entropy_into(logits, t, &mut grad)
        };
        ex.backward(net, &grad);
        total += l;
        count += 1;
    }
    assert!(count > 0, "empty mini-batch");
    net.apply_gradients(lr / count as f32);
    total / count as f32
}

/// Step-decay learning-rate schedule: `λ ← α·λ` every `decay_step`
/// iterations (paper Algorithm 1 lines 11–13).
///
/// # Examples
///
/// ```
/// use hotspot_nn::optim::LrSchedule;
///
/// let mut sched = LrSchedule::new(1e-3, 0.5, 2);
/// assert_eq!(sched.current(), 1e-3);
/// sched.tick();
/// sched.tick(); // second tick triggers decay
/// assert_eq!(sched.current(), 5e-4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LrSchedule {
    lr: f32,
    alpha: f32,
    decay_step: usize,
    counter: usize,
}

impl LrSchedule {
    /// Creates a schedule with initial rate `lr`, decay factor
    /// `alpha ∈ (0, 1]` and decay period `decay_step`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive `lr`, `alpha` outside `(0, 1]`, or a zero
    /// `decay_step`.
    pub fn new(lr: f32, alpha: f32, decay_step: usize) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "decay factor must be in (0, 1]"
        );
        assert!(decay_step > 0, "decay step must be nonzero");
        LrSchedule {
            lr,
            alpha,
            decay_step,
            counter: 0,
        }
    }

    /// The current learning rate.
    #[inline]
    pub fn current(&self) -> f32 {
        self.lr
    }

    /// Iterations elapsed since the last decay (checkpointed alongside the
    /// current rate so a resumed schedule decays at the original step).
    #[inline]
    pub fn counter(&self) -> usize {
        self.counter
    }

    /// Rebuilds a schedule mid-stream from checkpointed state: the
    /// *current* (already-decayed) rate and the in-period iteration
    /// counter, plus the original `alpha`/`decay_step` configuration.
    ///
    /// # Panics
    ///
    /// Panics under the same validity rules as [`LrSchedule::new`], or when
    /// `counter >= decay_step` (a tick would already have decayed).
    pub fn resume(lr: f32, alpha: f32, decay_step: usize, counter: usize) -> Self {
        let mut sched = LrSchedule::new(lr, alpha, decay_step);
        assert!(
            counter < decay_step,
            "resume counter {counter} must be below decay step {decay_step}"
        );
        sched.counter = counter;
        sched
    }

    /// Advances one iteration; decays the rate when the period elapses
    /// (and resets the iteration counter, as Algorithm 1 line 12 does).
    pub fn tick(&mut self) {
        self.counter += 1;
        if self.counter.is_multiple_of(self.decay_step) {
            self.lr *= self.alpha;
            self.counter = 0;
        }
    }
}

/// Classical-momentum gradient descent: `v ← μ·v + g; w ← w − λ·v`.
///
/// Not used by the paper (its Algorithm 1 is plain MGD) but provided as a
/// drop-in alternative update rule; the velocity buffer is laid out flat in
/// parameter-visit order.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::Dense;
/// use hotspot_nn::optim::Momentum;
/// use hotspot_nn::{loss, Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(2, 2, 0));
/// let mut ex = Executor::new();
/// let mut optim = Momentum::new(0.9);
/// let x = Tensor::from_vec(vec![2], vec![1.0, -1.0]);
/// let mut grad = [0.0f32; 2];
/// for _ in 0..20 {
///     net.zero_grads();
///     loss::softmax_cross_entropy_into(ex.forward_train(&mut net, &x), &[0.0, 1.0], &mut grad);
///     ex.backward(&mut net, &grad);
///     optim.step(&mut net, 0.1);
/// }
/// let p = loss::softmax(ex.infer(&net, &x));
/// assert!(p[1] > 0.9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Momentum {
    mu: f32,
    velocity: Vec<f32>,
}

impl Momentum {
    /// Creates a momentum optimiser with coefficient `mu ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `mu` is outside `[0, 1)`.
    pub fn new(mu: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&mu),
            "momentum must be in [0, 1), got {mu}"
        );
        Momentum {
            mu,
            velocity: Vec::new(),
        }
    }

    /// Applies one update using the gradients currently accumulated in
    /// `net`. The velocity buffer is lazily sized on first use.
    ///
    /// # Panics
    ///
    /// Panics if the network's parameter count changes between steps.
    pub fn step(&mut self, net: &mut Network, lr: f32) {
        if self.velocity.is_empty() {
            let mut count = 0usize;
            net.visit_params(&mut |w, _| count += w.len());
            self.velocity = vec![0.0; count];
        }
        let mu = self.mu;
        let mut offset = 0usize;
        let velocity = &mut self.velocity;
        net.visit_params(&mut |w, g| {
            let len = w.len();
            assert!(
                offset + len <= velocity.len(),
                "network parameter count changed between momentum steps"
            );
            let v = &mut velocity[offset..offset + len];
            for ((wi, gi), vi) in w.iter_mut().zip(g.iter()).zip(v.iter_mut()) {
                *vi = mu * *vi + *gi;
                *wi -= lr * *vi;
            }
            offset += len;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::layers::{Dense, Relu};

    fn net() -> Network {
        let mut n = Network::new();
        n.push(Dense::new(2, 8, 5));
        n.push(Relu::new());
        n.push(Dense::new(8, 2, 6));
        n
    }

    fn instance(x: [f32; 2], t: [f32; 2]) -> Instance {
        (Tensor::from_vec(vec![2], x.to_vec()), t)
    }

    #[test]
    fn sgd_reduces_loss_on_repeated_instance() {
        let mut n = net();
        let inst = instance([1.0, -1.0], [0.0, 1.0]);
        let first = sgd_step(&mut n, &inst, 0.1);
        let mut last = first;
        for _ in 0..20 {
            last = sgd_step(&mut n, &inst, 0.1);
        }
        assert!(last < first);
    }

    #[test]
    fn minibatch_learns_linearly_separable_data() {
        let mut n = net();
        let data = vec![
            instance([1.0, 1.0], [1.0, 0.0]),
            instance([-1.0, -1.0], [0.0, 1.0]),
            instance([0.8, 1.2], [1.0, 0.0]),
            instance([-1.2, -0.8], [0.0, 1.0]),
        ];
        for _ in 0..200 {
            let _ = minibatch_step(&mut n, &data, 0.2);
        }
        for (x, t) in &data {
            let p = loss::softmax(n.forward_inference(x).as_slice());
            assert_eq!(p[1] > 0.5, t[1] > 0.5);
        }
    }

    #[test]
    fn minibatch_averages_gradients() {
        // A batch of k identical instances must produce the same update as
        // a single instance.
        let mut a = net();
        let mut b = net();
        let inst = instance([0.3, 0.7], [0.0, 1.0]);
        let batch: Vec<Instance> = (0..4).map(|_| inst.clone()).collect();
        let _ = sgd_step(&mut a, &inst, 0.1);
        let _ = minibatch_step(&mut b, &batch, 0.1);
        let mut wa = Vec::new();
        a.visit_params(&mut |w, _| wa.extend_from_slice(w));
        let mut wb = Vec::new();
        b.visit_params(&mut |w, _| wb.extend_from_slice(w));
        for (x, y) in wa.iter().zip(wb.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "empty mini-batch")]
    fn empty_batch_panics() {
        let mut n = net();
        let empty: Vec<Instance> = Vec::new();
        let _ = minibatch_step(&mut n, &empty, 0.1);
    }

    #[test]
    fn schedule_decays_every_k() {
        let mut s = LrSchedule::new(1.0, 0.5, 3);
        for _ in 0..3 {
            s.tick();
        }
        assert_eq!(s.current(), 0.5);
        for _ in 0..3 {
            s.tick();
        }
        assert_eq!(s.current(), 0.25);
    }

    #[test]
    fn schedule_resume_continues_mid_period() {
        let mut live = LrSchedule::new(1.0, 0.5, 3);
        for _ in 0..4 {
            live.tick();
        }
        // Snapshot after 4 ticks (decayed once, 1 into the next period).
        let mut resumed = LrSchedule::resume(live.current(), 0.5, 3, live.counter());
        for _ in 0..2 {
            live.tick();
            resumed.tick();
        }
        assert_eq!(live.current(), resumed.current());
        assert_eq!(live.counter(), resumed.counter());
    }

    #[test]
    #[should_panic(expected = "resume counter")]
    fn schedule_resume_rejects_overlong_counter() {
        let _ = LrSchedule::resume(0.5, 0.5, 3, 3);
    }

    #[test]
    fn momentum_accelerates_on_consistent_gradients() {
        // On a fixed instance, momentum should reach low loss in fewer
        // steps than plain GD at the same rate.
        let inst = instance([1.0, -0.5], [0.0, 1.0]);
        let loss_after = |steps: usize, mu: f32| {
            let mut n = net();
            let mut ex = Executor::new();
            let mut optim = Momentum::new(mu);
            let mut g = [0.0f32; 2];
            for _ in 0..steps {
                n.zero_grads();
                let _ = loss::softmax_cross_entropy_into(
                    ex.forward_train(&mut n, &inst.0),
                    &inst.1,
                    &mut g,
                );
                ex.backward(&mut n, &g);
                optim.step(&mut n, 0.02);
            }
            let (l, _) = loss::softmax_cross_entropy(&n.forward_inference(&inst.0), &inst.1);
            l
        };
        let plain = loss_after(40, 0.0);
        let momentum = loss_after(40, 0.9);
        assert!(momentum < plain, "momentum {momentum} vs plain {plain}");
    }

    #[test]
    fn momentum_zero_matches_plain_gd() {
        let inst = instance([0.4, 0.2], [1.0, 0.0]);
        let mut a = net();
        let mut b = net();
        let mut ex = Executor::new();
        let mut optim = Momentum::new(0.0);
        let mut g = [0.0f32; 2];
        for _ in 0..5 {
            let _ = sgd_step(&mut a, &inst, 0.05);
            b.zero_grads();
            let _ = loss::softmax_cross_entropy_into(
                ex.forward_train(&mut b, &inst.0),
                &inst.1,
                &mut g,
            );
            ex.backward(&mut b, &g);
            optim.step(&mut b, 0.05);
        }
        assert_eq!(a.forward_inference(&inst.0), b.forward_inference(&inst.0));
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn momentum_coefficient_validated() {
        let _ = Momentum::new(1.0);
    }

    #[test]
    fn schedule_validates() {
        assert!(std::panic::catch_unwind(|| LrSchedule::new(0.0, 0.5, 1)).is_err());
        assert!(std::panic::catch_unwind(|| LrSchedule::new(0.1, 1.5, 1)).is_err());
        assert!(std::panic::catch_unwind(|| LrSchedule::new(0.1, 0.5, 0)).is_err());
    }
}
