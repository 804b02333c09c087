//! Threshold-sweep (ROC-style) analysis of a trained network.
//!
//! The paper's Figure 4 compares operating points; this module exposes the
//! full trade-off curve so any operating point can be read off without
//! re-scoring the test set.

use crate::mgd::hotspot_probs;
use crate::Parallelism;
use hotspot_nn::{Network, Tensor};
use serde::{Deserialize, Serialize};

/// One operating point of the recall / false-alarm trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Decision threshold on the hotspot probability.
    pub threshold: f32,
    /// Hotspot recall (the contest "accuracy") at this threshold.
    pub recall: f64,
    /// False alarms at this threshold.
    pub false_alarms: usize,
}

/// Scores a labelled feature set once and sweeps `steps + 1` equally-spaced
/// thresholds over `[0, 1]`, returning the trade-off curve sorted by
/// descending threshold (ascending recall).
///
/// # Panics
///
/// Panics if `features` and `labels` differ in length or `steps == 0`.
pub fn sweep(net: &Network, features: &[Tensor], labels: &[bool], steps: usize) -> Vec<RocPoint> {
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    assert!(steps > 0, "steps must be nonzero");
    let probs = hotspot_probs(net, features, Parallelism::serial());
    let hotspot_total = labels.iter().filter(|&&l| l).count().max(1);
    let mut curve = Vec::with_capacity(steps + 1);
    for s in (0..=steps).rev() {
        let threshold = s as f32 / steps as f32;
        let mut hits = 0usize;
        let mut fas = 0usize;
        for (&p, &l) in probs.iter().zip(labels.iter()) {
            if p > threshold {
                if l {
                    hits += 1;
                } else {
                    fas += 1;
                }
            }
        }
        curve.push(RocPoint {
            threshold,
            recall: hits as f64 / hotspot_total as f64,
            false_alarms: fas,
        });
    }
    curve
}

/// Area under the recall-vs-false-alarm-rate curve (trapezoidal), a single
/// threshold-free quality number in `[0, 1]`.
///
/// The sweep is anchored at the theoretical ROC endpoints `(0, 0)` and
/// `(1, 1)` before integrating. The anchors matter: the sweep's strict
/// `p > threshold` rule means samples whose predicted probability
/// saturates to exactly `0.0` (f32 softmax underflow) are never flagged
/// even at threshold 0, so the raw curve can stop short of `(1, 1)` — and
/// the area of that missing tail used to be silently dropped, scoring a
/// perfect separator as low as 0.
pub fn auc(net: &Network, features: &[Tensor], labels: &[bool], steps: usize) -> f64 {
    let non_hotspots = labels.iter().filter(|&&l| !l).count().max(1) as f64;
    let curve = sweep(net, features, labels, steps);
    let mut area = 0.0f64;
    let (mut prev_x, mut prev_y) = (0.0f64, 0.0f64);
    for p in &curve {
        let x = p.false_alarms as f64 / non_hotspots;
        area += (x - prev_x) * (p.recall + prev_y) / 2.0;
        (prev_x, prev_y) = (x, p.recall);
    }
    // Close the curve with the segment a threshold below 0 would produce
    // (flag everything: recall 1, false-alarm rate 1).
    area + (1.0 - prev_x) * (1.0 + prev_y) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::{Dense, Layer};

    /// Network scoring hotspot logit = 4x over a single input feature.
    fn scoring_net(weight: f32) -> Network {
        let mut net = Network::new();
        let mut d = Dense::new(1, 2, 0);
        let mut call = 0;
        d.visit_params(&mut |w, _| {
            if call == 0 {
                w.copy_from_slice(&[0.0, weight]);
            } else {
                w.copy_from_slice(&[0.0, 0.0]);
            }
            call += 1;
        });
        net.push(d);
        net
    }

    fn data() -> (Vec<Tensor>, Vec<bool>) {
        let xs = [-2.0f32, -1.0, -0.5, 0.5, 1.0, 2.0];
        let labels = vec![false, false, false, true, true, true];
        (
            xs.iter()
                .map(|&x| Tensor::from_vec(vec![1], vec![x]))
                .collect(),
            labels,
        )
    }

    #[test]
    fn curve_is_monotone_in_recall_and_fa() {
        let (x, y) = data();
        let net = scoring_net(4.0);
        let curve = sweep(&net, &x, &y, 50);
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall);
            assert!(w[1].false_alarms >= w[0].false_alarms);
            assert!(w[1].threshold <= w[0].threshold);
        }
        // Extremes: threshold 1 flags nothing; threshold 0 flags all.
        assert_eq!(curve.first().unwrap().recall, 0.0);
        assert_eq!(curve.last().unwrap().recall, 1.0);
        assert_eq!(curve.last().unwrap().false_alarms, 3);
    }

    #[test]
    fn perfect_separator_has_unit_auc() {
        let (x, y) = data();
        let net = scoring_net(8.0);
        let a = auc(&net, &x, &y, 200);
        assert!(a > 0.99, "auc {a}");
    }

    #[test]
    fn inverted_scorer_has_low_auc() {
        let (x, y) = data();
        let net = scoring_net(-8.0);
        let a = auc(&net, &x, &y, 200);
        assert!(a < 0.1, "auc {a}");
    }

    #[test]
    fn saturated_probabilities_keep_unit_auc() {
        // A large logit gap saturates the f32 softmax: hotspots score
        // exactly 1.0 and non-hotspots exactly 0.0. The strict `p > t`
        // sweep then never flags the non-hotspots at any threshold in
        // [0, 1], so without the (1, 1) anchor every curve point sits at
        // false-alarm rate 0 and this *perfect* separator scored AUC 0.
        let (x, y) = data();
        let net = scoring_net(300.0);
        let a = auc(&net, &x, &y, 200);
        assert!(a > 0.99, "auc {a}");
    }

    #[test]
    #[should_panic(expected = "steps must be nonzero")]
    fn zero_steps_panics() {
        let (x, y) = data();
        let net = scoring_net(1.0);
        let _ = sweep(&net, &x, &y, 0);
    }
}
