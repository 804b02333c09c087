//! 2×2 average pooling.

use super::{BackwardCtx, Epilogue, Layer};
#[cfg(test)]
use crate::Tensor;

/// 2×2 average pooling with stride 2 on CHW tensors — the smooth
/// alternative to [`super::MaxPool2`] used in pooling-choice ablations.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::AvgPool2;
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(AvgPool2::new());
/// let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 5.0, 3.0, 3.0]);
/// assert_eq!(Executor::new().infer(&net, &x), &[3.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AvgPool2;

impl AvgPool2 {
    /// Creates a 2×2/stride-2 average-pooling layer.
    pub fn new() -> Self {
        AvgPool2
    }

    fn check_input(in_shape: &[usize]) -> (usize, usize, usize) {
        assert_eq!(in_shape.len(), 3, "avgpool input must be CHW");
        let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
        assert!(h >= 2 && w >= 2, "avgpool needs at least 2x2 spatial input");
        (c, h, w)
    }
}

impl Layer for AvgPool2 {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let (c, h, w) = Self::check_input(in_shape);
        vec![c, h / 2, w / 2]
    }

    fn forward_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        _scratch: &mut [f32],
        _idx: &mut [usize],
        _epilogue: Option<Epilogue>,
    ) {
        let (c, h, w) = Self::check_input(in_shape);
        let (oh, ow) = (h / 2, w / 2);
        assert_eq!(y.len(), c * oh * ow, "avgpool output length");
        let at = |ch: usize, iy: usize, ix: usize| x[(ch * h + iy) * w + ix];
        let mut o = 0usize;
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    // Fixed summation order (0,0)+(0,1)+(1,0)+(1,1) keeps
                    // the result bit-identical across paths.
                    let sum = at(ch, oy * 2, ox * 2)
                        + at(ch, oy * 2, ox * 2 + 1)
                        + at(ch, oy * 2 + 1, ox * 2)
                        + at(ch, oy * 2 + 1, ox * 2 + 1);
                    y[o] = sum * 0.25;
                    o += 1;
                }
            }
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: &mut [f32]) {
        let (c, h, w) = Self::check_input(ctx.in_shape);
        let (oh, ow) = (h / 2, w / 2);
        assert_eq!(ctx.grad.len(), c * oh * ow, "avgpool grad shape");
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = ctx.grad[(ch * oh + oy) * ow + ox] * 0.25;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            grad_in[(ch * h + oy * 2 + dy) * w + ox * 2 + dx] += g;
                        }
                    }
                }
            }
        }
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "avgpool"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::Network;

    /// ∂loss/∂input of a planned training pass through a lone 2×2 pool
    /// over a 1×2×2 input whose single output receives gradient `g`.
    fn pool_backward(x: Vec<f32>, g: f32) -> Vec<f32> {
        let mut net = Network::new();
        net.push(AvgPool2::new());
        let mut ex = Executor::new();
        let _ = ex.forward_train(&mut net, &Tensor::from_vec(vec![1, 2, 2], x));
        ex.backward(&mut net, &[g]).to_vec()
    }

    #[test]
    fn averages_windows() {
        let x = Tensor::from_vec(vec![1, 4, 4], (1..=16).map(|v| v as f32).collect());
        let y = AvgPool2::new().forward_inference(&x);
        // Window (0,0): mean of 1,2,5,6 = 3.5.
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn backward_distributes_uniformly() {
        let g = pool_backward(vec![0.0; 4], 4.0);
        assert_eq!(g, &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn mean_is_preserved_for_even_inputs() {
        let x = Tensor::from_vec(vec![2, 4, 4], (0..32).map(|v| v as f32).collect());
        let y = AvgPool2::new().forward_inference(&x);
        let in_mean: f32 = x.as_slice().iter().sum::<f32>() / 32.0;
        let out_mean: f32 = y.as_slice().iter().sum::<f32>() / 8.0;
        assert!((in_mean - out_mean).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Check dL/dx for L = sum(avgpool(x) * c).
        let g = pool_backward(vec![0.3, -0.7, 0.9, 0.1], 2.0);
        // Analytic: each input contributes 2.0 * 0.25 = 0.5.
        assert!(g.iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }
}
