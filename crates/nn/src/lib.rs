//! From-scratch CPU neural-network substrate.
//!
//! The paper trains its CNN in TensorFlow; this crate reimplements the
//! required subset natively in Rust, with no external ML dependencies:
//!
//! - [`Tensor`]: a dense CHW tensor (channels × height × width).
//! - [`layers`]: convolution (arbitrary kernel/padding), ReLU, 2×2 max
//!   pooling, dense, flatten, and inverted dropout — each implementing
//!   [`Layer`] with exact analytic gradients (validated by
//!   finite-difference tests).
//! - [`gemm`]: the matrix-multiply kernels convolution (via im2col) and
//!   dense layers lower onto — runtime-dispatched between AVX-512, AVX2,
//!   and portable scalar backends, with the scalar kernels kept as the
//!   bit-identity oracle (see [`ulp`] for the SIMD comparison contract).
//! - [`loss`]: softmax cross-entropy with **soft targets**, the ingredient
//!   biased learning needs (`y*_n = [1-ε, ε]`).
//! - [`Network`]: a sequential layer container with parameter visitation.
//! - [`engine`]: shape-planned execution, the one path every training
//!   forward/backward pass and every batch of scores (`BatchScorer`) runs
//!   through — a `ShapePlan`/`Workspace` pair that preallocates every
//!   intermediate buffer in one arena and fuses activation epilogues into
//!   the GEMM layers, so steady-state inference and training do zero
//!   allocations.
//! - [`optim`]: plain SGD and the paper's mini-batch gradient descent
//!   (Algorithm 1) with step-decayed learning rate.
//! - [`parallel`]: deterministic multi-threaded mini-batch gradients
//!   (the "MGD is compatible with parallel computing" point of §5).
//! - [`data`]: seeded mini-batch sampling.
//! - [`serialize`]: flat parameter export/import for model persistence,
//!   and the CRC, framing, field parsing, atomic write and corruption
//!   harness every persisted format in the suite shares.
//!
//! Determinism: all stochastic pieces (init, dropout, batch sampling) take
//! explicit seeds.
//!
//! # Examples
//!
//! Train a tiny MLP on XOR:
//!
//! ```
//! use hotspot_nn::engine::Executor;
//! use hotspot_nn::layers::{Dense, Relu};
//! use hotspot_nn::{loss, Network, Tensor};
//!
//! let mut net = Network::new();
//! net.push(Dense::new(2, 8, 1));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, 2));
//!
//! let data = [
//!     ([0.0f32, 0.0], [1.0f32, 0.0]),
//!     ([0.0, 1.0], [0.0, 1.0]),
//!     ([1.0, 0.0], [0.0, 1.0]),
//!     ([1.0, 1.0], [1.0, 0.0]),
//! ];
//! let mut ex = Executor::new();
//! let mut grad = [0.0f32; 2];
//! for _ in 0..600 {
//!     net.zero_grads();
//!     for (x, t) in &data {
//!         let input = Tensor::from_vec(vec![2], x.to_vec());
//!         loss::softmax_cross_entropy_into(ex.forward_train(&mut net, &input), t, &mut grad);
//!         ex.backward(&mut net, &grad);
//!     }
//!     net.apply_gradients(0.5 / data.len() as f32);
//! }
//! for (x, t) in &data {
//!     let input = Tensor::from_vec(vec![2], x.to_vec());
//!     let p = loss::softmax(ex.infer(&net, &input));
//!     let predicted = if p[1] > 0.5 { 1 } else { 0 };
//!     let expected = if t[1] > 0.5 { 1 } else { 0 };
//!     assert_eq!(predicted, expected);
//! }
//! ```

pub mod data;
pub mod engine;
pub mod gemm;
pub mod init;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod parallel;
pub mod serialize;
pub mod tensor;
pub mod ulp;

pub use layers::Layer;
pub use network::Network;
pub use tensor::Tensor;

use std::error::Error;
use std::fmt;

/// Errors from network construction and serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A layer was given an input of the wrong shape.
    ShapeMismatch {
        /// What the layer expected.
        expected: String,
        /// What it received.
        actual: String,
    },
    /// A serialised parameter blob does not match the network.
    ParameterCountMismatch {
        /// Parameters the network holds.
        expected: usize,
        /// Parameters the blob holds.
        actual: usize,
    },
    /// A serialised buffer is malformed (bad magic, unsupported version,
    /// truncation, length/checksum mismatch).
    Format(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            NnError::ParameterCountMismatch { expected, actual } => {
                write!(
                    f,
                    "parameter count mismatch: network has {expected}, blob has {actual}"
                )
            }
            NnError::Format(why) => write!(f, "malformed parameter data: {why}"),
        }
    }
}

impl Error for NnError {}
