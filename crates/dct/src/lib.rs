//! Spectral substrate: DCT transforms and the DAC'17 *feature tensor*.
//!
//! The paper's feature tensor (Section 3) converts a rasterised layout clip
//! into a compact `n × n × k` hyper-image:
//!
//! 1. divide the clip image into `n × n` blocks ([`blocks`]);
//! 2. apply a 2-D DCT to each block ([`dct2d`]);
//! 3. zig-zag scan the coefficients ([`zigzag`]);
//! 4. keep only the first `k` coefficients per block ([`tensor`]).
//!
//! Extraction fuses steps 2–4 into one truncated, allocation-free block
//! kernel ([`BlockDctPlan::coefficients_at`]) that computes only the kept
//! coefficients and is bit-identical to [`Dct2d::forward`] followed by the
//! zig-zag gather.
//!
//! Because the DCT concentrates Manhattan-layout energy in the low
//! frequencies, truncation loses little information, and the blockwise
//! arrangement preserves the spatial relationship between sub-regions — the
//! property that makes the representation compatible with a CNN.
//!
//! This crate uses the *orthonormal* DCT-II/DCT-III pair (the paper's
//! Eq. (1) is the unnormalised DCT-II; orthonormal scaling changes
//! coefficients by a constant per-row factor only and keeps the transform an
//! exact isometry, which is numerically kinder to network training).
//!
//! # Examples
//!
//! ```
//! use hotspot_dct::{FeatureTensorSpec, extract_feature_tensor, reconstruct_image};
//! use hotspot_geometry::Grid;
//!
//! # fn main() -> Result<(), hotspot_dct::DctError> {
//! // A 24×24 image split into a 12×12 grid of 2×2 blocks, keeping all 4
//! // coefficients per block: reconstruction is exact.
//! let img = Grid::from_vec(24, 24, (0..24 * 24).map(|v| (v % 7) as f32).collect());
//! let spec = FeatureTensorSpec::new(12, 4)?;
//! let tensor = extract_feature_tensor(&img, &spec)?;
//! let back = reconstruct_image(&tensor, 2)?;
//! for (a, b) in img.iter().zip(back.iter()) {
//!     assert!((a - b).abs() < 1e-4);
//! }
//! # Ok(())
//! # }
//! ```

pub mod blocks;
pub mod dct1d;
pub mod dct2d;
pub mod tensor;
pub mod zigzag;

pub use dct2d::Dct2d;
pub use tensor::{
    extract_feature_tensor, reconstruct_image, reconstruction_rmse, BlockDctPlan, FeatureTensor,
    FeatureTensorSpec,
};
pub use zigzag::{zigzag_indices, zigzag_scan, zigzag_unscan};

use std::error::Error;
use std::fmt;

/// Errors from DCT and feature-tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DctError {
    /// A transform or spec dimension was zero.
    ZeroDimension,
    /// An image's dimensions are incompatible with the requested block grid.
    BlockMismatch {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// Requested blocks per axis.
        grid_dim: usize,
    },
    /// More coefficients were requested than a block contains.
    TooManyCoefficients {
        /// Requested coefficient count `k`.
        requested: usize,
        /// Block capacity `B × B`.
        available: usize,
    },
}

impl fmt::Display for DctError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DctError::ZeroDimension => write!(f, "transform dimension must be nonzero"),
            DctError::BlockMismatch {
                width,
                height,
                grid_dim,
            } => write!(
                f,
                "image {width}x{height} cannot be split into a {grid_dim}x{grid_dim} block grid"
            ),
            DctError::TooManyCoefficients {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} coefficients but block holds only {available}"
            ),
        }
    }
}

impl Error for DctError {}
