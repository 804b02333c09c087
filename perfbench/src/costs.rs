//! CNN cost per window, computed (not measured) from the network's layer
//! shapes: floating-point operations and bytes moved by one inference.
//!
//! Conv and dense layers count 2 FLOPs per multiply-add plus one per
//! bias; ReLU and max-pool (the paper network's other layers) count one
//! operation per element they read.
//! Bytes count each layer's f32 input, output and parameters once.
//! Flatten and dropout are free at inference.

use hotspot_nn::Network;

#[derive(Debug, Clone, Copy, Default)]
pub struct CnnCost {
    pub flops: f64,
    pub bytes: f64,
}

pub fn per_window(net: &mut Network, in_shape: &[usize]) -> CnnCost {
    // Weight and bias lengths of the parametric layers, in layer order.
    let mut params: Vec<usize> = Vec::new();
    net.visit_params(&mut |p: &mut [f32], _g: &mut [f32]| params.push(p.len()));
    let mut params = params.chunks(2);
    let mut cost = CnnCost::default();
    let mut shape = in_shape.to_vec();
    for (name, out) in net.summary(in_shape) {
        let in_len: usize = shape.iter().product();
        let out_len: usize = out.iter().product();
        let io_bytes = 4.0 * (in_len + out_len) as f64;
        match name.as_str() {
            "conv" => {
                let pair = params.next().unwrap_or(&[0, 0]);
                // Each output element reads weights/out_c taps.
                let taps = pair[0] / out[0].max(1);
                cost.flops += (2 * taps + 1) as f64 * out_len as f64;
                cost.bytes += io_bytes + 4.0 * (pair[0] + pair[1]) as f64;
            }
            "fc" => {
                let pair = params.next().unwrap_or(&[0, 0]);
                cost.flops += (2 * in_len + 1) as f64 * out_len as f64;
                cost.bytes += io_bytes + 4.0 * (pair[0] + pair[1]) as f64;
            }
            "relu" => {
                cost.flops += out_len as f64;
                cost.bytes += io_bytes;
            }
            "maxpool" => {
                cost.flops += in_len as f64;
                cost.bytes += io_bytes;
            }
            _ => {}
        }
        shape = out;
    }
    cost
}
