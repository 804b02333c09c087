//! Feature-tensor extraction and reconstruction (the paper's Section 3).

use crate::{blocks, zigzag, Dct2d, DctError};
use hotspot_geometry::Grid;
use serde::{Deserialize, Serialize};

/// Parameters of feature-tensor extraction: an `n × n` block grid with the
/// first `k` zig-zag DCT coefficients kept per block.
///
/// The paper's reference configuration is `n = 12` (1200×1200 nm clip, 100 nm
/// blocks) with `k ≪ B×B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureTensorSpec {
    grid_dim: usize,
    coefficients: usize,
}

impl FeatureTensorSpec {
    /// Creates a spec with `grid_dim` blocks per axis keeping `coefficients`
    /// values per block.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::ZeroDimension`] if either parameter is zero.
    pub fn new(grid_dim: usize, coefficients: usize) -> Result<Self, DctError> {
        if grid_dim == 0 || coefficients == 0 {
            return Err(DctError::ZeroDimension);
        }
        Ok(FeatureTensorSpec {
            grid_dim,
            coefficients,
        })
    }

    /// Blocks per axis (`n`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Kept coefficients per block (`k`).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }
}

/// The paper's compressed hyper-image: `k` channels of `n × n` spatial cells.
///
/// `data` is channel-major (`[c][j][i]`, row-major within a channel), the
/// layout the CNN consumes directly; element `(i, j, c)` is the `c`-th
/// zig-zag DCT coefficient of block `(i, j)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureTensor {
    grid_dim: usize,
    coefficients: usize,
    block_size: usize,
    data: Vec<f32>,
}

impl FeatureTensor {
    /// Blocks per axis (`n`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Channels (`k`).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// Pixel side length `B` of the source blocks (needed for
    /// reconstruction).
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Channel-major backing buffer of length `k * n * n`.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the tensor, returning the channel-major buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Coefficient `c` of block `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    #[inline]
    pub fn coefficient(&self, i: usize, j: usize, c: usize) -> f32 {
        assert!(i < self.grid_dim && j < self.grid_dim && c < self.coefficients);
        self.data[(c * self.grid_dim + j) * self.grid_dim + i]
    }

    /// One channel as an `n × n` grid (e.g. channel 0 is the per-block DC
    /// map — a density-like thumbnail of the clip).
    ///
    /// # Panics
    ///
    /// Panics if `c >= coefficients`.
    pub fn channel(&self, c: usize) -> Grid<f32> {
        assert!(c < self.coefficients, "channel {c} out of range");
        let n = self.grid_dim;
        Grid::from_vec(n, n, self.data[c * n * n..(c + 1) * n * n].to_vec())
    }
}

/// Accumulator width of the truncated block kernel: one lane per output
/// column, eight columns per group.
const LANES: usize = 8;

/// Column-pass output rows accumulated at once on the stack. Plans keeping
/// more vertical frequencies (only blocks wider than 16 px can) recompute
/// the row pass once per chunk instead of allocating.
const ROW_CHUNK: usize = 16;

/// Marks a column-pass output that no kept zig-zag coefficient reads.
const UNKEPT: usize = usize::MAX;

/// A reusable one-block DCT → zig-zag truncation plan.
///
/// The plan's kernel, [`BlockDctPlan::coefficients_at`], reads one `B × B`
/// block straight out of a larger raster and writes only the first `k`
/// zig-zag coefficients into a caller slice, with no allocation and no
/// crop copy. Whole-image extraction ([`extract_feature_tensor`]), the
/// full-layout scan in `hotspot-core` (cached, lattice-aligned blocks and
/// direct, unaligned ones alike) and [`BlockDctPlan::coefficients_for`] all
/// run this one kernel.
///
/// # Truncation
///
/// The kept zig-zag pairs `(m, n)` (horizontal, vertical frequency) span
/// horizontal frequencies `0..=max m` and vertical frequencies
/// `0..=max n`. The row pass computes only those columns of `X · Cᵀ`, and
/// the column pass only those rows of `C · (X · Cᵀ)`. At the paper's
/// `B = 10`, `k = 32` that is one 8-lane group of columns and 8 of 10
/// rows, instead of all 100 coefficients.
///
/// # Bit-identity
///
/// The output is **bit-identical** to [`Dct2d::forward`] followed by the
/// zig-zag gather, because every kept coefficient is computed by exactly
/// the same sequence of `f32` operations:
///
/// - **Row pass.** `t[r][m] = Σ_x X[r][x] · C[m][x]`, summed from `0.0`
///   over `x = 0..B` in order. The kernel vectorises across output columns
///   `m` (fixed `[f32; 8]` accumulators over a transposed basis), so each
///   lane still runs its own in-order sum; lanes past the last kept column
///   multiply zero basis columns and are never read.
/// - **Column pass.** `D[n][m] = Σ_r C[n][r] · t[r][m]`, summed from `0.0`
///   over `r = 0..B` in order, skipping terms whose weight is `== 0.0`
///   exactly as the reference does.
/// - **No fused multiply-add.** Each product is rounded before its add.
///   Rust never contracts `a * b + c` into an FMA on its own, and the
///   kernel calls no `mul_add`: a fused operation rounds once and would
///   change the low bits.
///
/// The plan's basis is [`Dct2d`]'s own `f32` basis, so both transforms
/// multiply by the same values.
#[derive(Debug, Clone)]
pub struct BlockDctPlan {
    block_size: usize,
    coefficients: usize,
    /// Column-pass output rows: vertical frequencies `0..=max n` kept.
    rows: usize,
    /// Groups of [`LANES`] row-pass columns covering `0..=max m` kept.
    groups: usize,
    /// Transposed, lane-padded row-pass basis:
    /// `row_basis[g * B + x][l] = C[g * LANES + l][x]`, or `0.0` for a lane
    /// past the last kept column.
    row_basis: Vec<[f32; LANES]>,
    /// Column-pass basis rows `0..rows`: `col_basis[n * B + r] = C[n][r]`.
    col_basis: Vec<f32>,
    /// `slots[(g * rows + n) * LANES + l]`: the zig-zag index of output
    /// `(m = g * LANES + l, n)`, or [`UNKEPT`].
    slots: Vec<usize>,
}

impl BlockDctPlan {
    /// Creates a plan for `B × B` blocks keeping the first `coefficients`
    /// zig-zag values.
    ///
    /// # Errors
    ///
    /// - [`DctError::ZeroDimension`] if either parameter is zero.
    /// - [`DctError::TooManyCoefficients`] if `coefficients > B × B`.
    pub fn new(block_size: usize, coefficients: usize) -> Result<Self, DctError> {
        if block_size == 0 || coefficients == 0 {
            return Err(DctError::ZeroDimension);
        }
        if coefficients > block_size * block_size {
            return Err(DctError::TooManyCoefficients {
                requested: coefficients,
                available: block_size * block_size,
            });
        }
        let b = block_size;
        let order = &zigzag::zigzag_indices(b)[..coefficients];
        let cols = order.iter().map(|&(m, _)| m).max().unwrap_or(0) + 1;
        let rows = order.iter().map(|&(_, n)| n).max().unwrap_or(0) + 1;
        let groups = cols.div_ceil(LANES);
        let dct = Dct2d::new(b)?;
        let basis = dct.basis();
        let mut row_basis = vec![[0.0f32; LANES]; groups * b];
        for m in 0..cols {
            let (g, l) = (m / LANES, m % LANES);
            for x in 0..b {
                row_basis[g * b + x][l] = basis[m * b + x];
            }
        }
        let mut slots = vec![UNKEPT; groups * rows * LANES];
        for (c, &(m, n)) in order.iter().enumerate() {
            slots[((m / LANES) * rows + n) * LANES + m % LANES] = c;
        }
        Ok(BlockDctPlan {
            block_size,
            coefficients,
            rows,
            groups,
            row_basis,
            col_basis: basis[..rows * b].to_vec(),
            slots,
        })
    }

    /// Pixel side length `B` of the blocks this plan transforms.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Kept coefficients per block (`k`).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// The first `k` zig-zag DCT coefficients of the `B × B` block of
    /// `raster` whose low corner is cell `(x0, y0)`, written to `out`.
    ///
    /// Reads the block in place (no crop copy) and allocates nothing; see
    /// the type docs for why the result is bit-identical to
    /// [`Dct2d::forward`] of the cropped block followed by the zig-zag
    /// gather.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::BlockMismatch`] if the block overruns `raster`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`BlockDctPlan::coefficients`].
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspot_dct::BlockDctPlan;
    /// use hotspot_geometry::Grid;
    ///
    /// # fn main() -> Result<(), hotspot_dct::DctError> {
    /// let raster = Grid::from_vec(12, 9, (0..108).map(|v| (v % 5) as f32).collect());
    /// let plan = BlockDctPlan::new(4, 6)?;
    /// let mut out = [0.0f32; 6];
    /// plan.coefficients_at(&raster, 7, 3, &mut out)?;
    /// let crop = raster.window(7, 3, 4, 4);
    /// assert_eq!(out.to_vec(), plan.coefficients_for(&crop)?);
    /// assert!(plan.coefficients_at(&raster, 9, 3, &mut out).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn coefficients_at(
        &self,
        raster: &Grid<f32>,
        x0: usize,
        y0: usize,
        out: &mut [f32],
    ) -> Result<(), DctError> {
        let b = self.block_size;
        assert_eq!(
            out.len(),
            self.coefficients,
            "output slice must hold exactly k coefficients"
        );
        let fits =
            |origin: usize, extent: usize| origin.checked_add(b).is_some_and(|end| end <= extent);
        if !fits(x0, raster.width()) || !fits(y0, raster.height()) {
            return Err(DctError::BlockMismatch {
                width: raster.width(),
                height: raster.height(),
                grid_dim: b,
            });
        }
        let stride = raster.width();
        let pixels = raster.as_slice();
        for g in 0..self.groups {
            let basis_g = &self.row_basis[g * b..(g + 1) * b];
            let slots_g = &self.slots[g * self.rows * LANES..(g + 1) * self.rows * LANES];
            for n0 in (0..self.rows).step_by(ROW_CHUNK) {
                let chunk = (self.rows - n0).min(ROW_CHUNK);
                let mut acc = [[0.0f32; LANES]; ROW_CHUNK];
                for r in 0..b {
                    // Row pass: lane l of `t` is column g·8 + l of X · Cᵀ.
                    let start = (y0 + r) * stride + x0;
                    let row = &pixels[start..start + b];
                    let mut t = [0.0f32; LANES];
                    for (&v, basis_x) in row.iter().zip(basis_g) {
                        for (t_l, &c) in t.iter_mut().zip(basis_x) {
                            *t_l += v * c;
                        }
                    }
                    // Column pass: fold row r into every output row of the
                    // chunk, in the reference's order and with its skip.
                    for (dn, acc_n) in acc[..chunk].iter_mut().enumerate() {
                        let w = self.col_basis[(n0 + dn) * b + r];
                        if w == 0.0 {
                            continue;
                        }
                        for (a, &t_l) in acc_n.iter_mut().zip(&t) {
                            *a += w * t_l;
                        }
                    }
                }
                for (dn, acc_n) in acc[..chunk].iter().enumerate() {
                    let slots_n = &slots_g[(n0 + dn) * LANES..(n0 + dn + 1) * LANES];
                    for (&slot, &v) in slots_n.iter().zip(acc_n) {
                        if slot != UNKEPT {
                            out[slot] = v;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The first `k` zig-zag DCT coefficients of one `B × B` block: a thin
    /// allocating wrapper over [`BlockDctPlan::coefficients_at`].
    ///
    /// # Errors
    ///
    /// Returns [`DctError::BlockMismatch`] if `block` is not `B × B`.
    pub fn coefficients_for(&self, block: &Grid<f32>) -> Result<Vec<f32>, DctError> {
        if block.width() != self.block_size || block.height() != self.block_size {
            return Err(DctError::BlockMismatch {
                width: block.width(),
                height: block.height(),
                grid_dim: self.block_size,
            });
        }
        let mut out = vec![0.0f32; self.coefficients];
        self.coefficients_at(block, 0, 0, &mut out)?;
        Ok(out)
    }
}

/// Extracts the feature tensor of a rasterised clip image.
///
/// Implements paper Steps 1–4: block division, per-block 2-D DCT, zig-zag
/// flattening, truncation to the first `k` coefficients, reassembled with
/// spatial relationships unchanged. Each block runs the truncated kernel
/// [`BlockDctPlan::coefficients_at`] in place on `image`.
///
/// # Errors
///
/// - [`DctError::BlockMismatch`] if the image is not square or not divisible
///   by the grid dimension.
/// - [`DctError::TooManyCoefficients`] if `k > B × B`.
///
/// # Examples
///
/// ```
/// use hotspot_dct::{extract_feature_tensor, FeatureTensorSpec};
/// use hotspot_geometry::Grid;
///
/// # fn main() -> Result<(), hotspot_dct::DctError> {
/// let img = Grid::filled(120, 120, 0.25f32);
/// let spec = FeatureTensorSpec::new(12, 16)?;
/// let t = extract_feature_tensor(&img, &spec)?;
/// assert_eq!((t.grid_dim(), t.coefficients(), t.block_size()), (12, 16, 10));
/// // Constant image: every block has only a DC component.
/// assert!((t.coefficient(3, 7, 0) - 0.25 * 10.0).abs() < 1e-4);
/// assert!(t.coefficient(3, 7, 1).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn extract_feature_tensor(
    image: &Grid<f32>,
    spec: &FeatureTensorSpec,
) -> Result<FeatureTensor, DctError> {
    let n = spec.grid_dim;
    let k = spec.coefficients;
    let b = blocks::block_size(image, n)?;
    let plan = BlockDctPlan::new(b, k)?;
    let mut coeffs = vec![0.0f32; k];
    let mut data = vec![0.0f32; k * n * n];
    for j in 0..n {
        for i in 0..n {
            plan.coefficients_at(image, i * b, j * b, &mut coeffs)?;
            for (c, &v) in coeffs.iter().enumerate() {
                data[(c * n + j) * n + i] = v;
            }
        }
    }
    Ok(FeatureTensor {
        grid_dim: n,
        coefficients: k,
        block_size: b,
        data,
    })
}

/// Recovers an approximation of the original clip image from a feature
/// tensor (the paper's "reversing above procedure").
///
/// Dropped high-frequency coefficients are zero-filled, so the result is the
/// best `k`-term zig-zag approximation per block.
///
/// # Errors
///
/// Returns [`DctError::BlockMismatch`] if `block_size` disagrees with the
/// tensor's recorded block size, and [`DctError::ZeroDimension`] if zero.
pub fn reconstruct_image(tensor: &FeatureTensor, block_size: usize) -> Result<Grid<f32>, DctError> {
    if block_size == 0 {
        return Err(DctError::ZeroDimension);
    }
    if block_size != tensor.block_size {
        return Err(DctError::BlockMismatch {
            width: block_size,
            height: block_size,
            grid_dim: tensor.grid_dim,
        });
    }
    let n = tensor.grid_dim;
    let k = tensor.coefficients;
    let b = block_size;
    let plan = Dct2d::new(b)?;
    let mut block_images = Vec::with_capacity(n * n);
    let mut scan = vec![0.0f32; k];
    for j in 0..n {
        for i in 0..n {
            for (c, slot) in scan.iter_mut().enumerate() {
                *slot = tensor.data[(c * n + j) * n + i];
            }
            let coeffs = zigzag::zigzag_unscan(&scan, b);
            block_images.push(plan.inverse(&coeffs)?);
        }
    }
    blocks::join_blocks(&block_images, n)
}

/// Root-mean-square pixel error between an image and its feature-tensor
/// round trip — the information-loss metric reported by the `fig1` bench.
///
/// # Errors
///
/// Propagates extraction/reconstruction errors.
pub fn reconstruction_rmse(image: &Grid<f32>, spec: &FeatureTensorSpec) -> Result<f64, DctError> {
    let tensor = extract_feature_tensor(image, spec)?;
    let back = reconstruct_image(&tensor, tensor.block_size())?;
    let mut acc = 0.0f64;
    for (a, b) in image.iter().zip(back.iter()) {
        let d = (*a - *b) as f64;
        acc += d * d;
    }
    Ok((acc / image.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes(side: usize, period: usize) -> Grid<f32> {
        let mut g = Grid::filled(side, side, 0.0f32);
        for y in 0..side {
            for x in 0..side {
                if (x / period).is_multiple_of(2) {
                    g[(x, y)] = 1.0;
                }
            }
        }
        g
    }

    #[test]
    fn spec_validates() {
        assert!(FeatureTensorSpec::new(0, 4).is_err());
        assert!(FeatureTensorSpec::new(12, 0).is_err());
        let s = FeatureTensorSpec::new(12, 32).unwrap();
        assert_eq!((s.grid_dim(), s.coefficients()), (12, 32));
    }

    #[test]
    fn rejects_too_many_coefficients() {
        let img = Grid::filled(24, 24, 0.0f32);
        let spec = FeatureTensorSpec::new(12, 5).unwrap(); // blocks are 2x2 = 4
        assert!(matches!(
            extract_feature_tensor(&img, &spec),
            Err(DctError::TooManyCoefficients {
                requested: 5,
                available: 4
            })
        ));
    }

    #[test]
    fn full_coefficients_reconstruct_exactly() {
        let img = stripes(24, 3);
        let spec = FeatureTensorSpec::new(6, 16).unwrap(); // 4x4 blocks, keep all
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let back = reconstruct_image(&t, 4).unwrap();
        for (a, b) in img.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(reconstruction_rmse(&img, &spec).unwrap() < 1e-4);
    }

    #[test]
    fn rmse_decreases_with_more_coefficients() {
        let img = stripes(48, 5);
        let mut last = f64::INFINITY;
        for k in [1usize, 4, 16, 36, 64] {
            let spec = FeatureTensorSpec::new(6, k).unwrap(); // 8x8 blocks
            let rmse = reconstruction_rmse(&img, &spec).unwrap();
            assert!(
                rmse <= last + 1e-9,
                "rmse should be monotone nonincreasing: k={k} rmse={rmse} last={last}"
            );
            last = rmse;
        }
        assert!(last < 1e-4, "full coefficient set must be lossless");
    }

    #[test]
    fn channel_zero_is_block_dc() {
        let img = stripes(24, 24); // left half 1, right half 0... (period 24: all 1)
        let spec = FeatureTensorSpec::new(4, 2).unwrap(); // 6x6 blocks
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let dc = t.channel(0);
        // All-ones image: DC per orthonormal 2-D DCT = mean * B = 6.
        for &v in dc.iter() {
            assert!((v - 6.0).abs() < 1e-4);
        }
    }

    #[test]
    fn tensor_layout_is_channel_major() {
        let img = stripes(8, 2);
        let spec = FeatureTensorSpec::new(2, 3).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        assert_eq!(t.as_slice().len(), 3 * 2 * 2);
        assert_eq!(t.coefficient(1, 0, 2), t.as_slice()[(2 * 2) * 2 + 1]);
    }

    #[test]
    fn reconstruct_checks_block_size() {
        let img = stripes(24, 3);
        let spec = FeatureTensorSpec::new(6, 4).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        assert!(reconstruct_image(&t, 5).is_err());
        assert!(reconstruct_image(&t, 0).is_err());
        assert!(reconstruct_image(&t, 4).is_ok());
    }

    #[test]
    fn block_plan_validates() {
        assert!(BlockDctPlan::new(0, 4).is_err());
        assert!(BlockDctPlan::new(4, 0).is_err());
        assert!(matches!(
            BlockDctPlan::new(2, 5),
            Err(DctError::TooManyCoefficients {
                requested: 5,
                available: 4
            })
        ));
        let p = BlockDctPlan::new(4, 6).unwrap();
        assert_eq!((p.block_size(), p.coefficients()), (4, 6));
        // Wrong block shape is rejected.
        assert!(p.coefficients_for(&Grid::filled(3, 4, 0.0f32)).is_err());
    }

    #[test]
    fn block_plan_is_bit_identical_to_whole_image_extraction() {
        let img = stripes(24, 3);
        let spec = FeatureTensorSpec::new(6, 9).unwrap(); // 4x4 blocks
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let plan = BlockDctPlan::new(4, 9).unwrap();
        for j in 0..6 {
            for i in 0..6 {
                let block = img.window(i * 4, j * 4, 4, 4);
                let v = plan.coefficients_for(&block).unwrap();
                for (c, &coeff) in v.iter().enumerate() {
                    assert_eq!(
                        coeff.to_bits(),
                        t.coefficient(i, j, c).to_bits(),
                        "block ({i},{j}) channel {c}"
                    );
                }
            }
        }
    }

    /// Blocks wider than 16 px can keep more than one stack chunk of
    /// column-pass rows; the chunked kernel must still match
    /// `Dct2d::forward` + zig-zag by bits.
    #[test]
    fn tall_plans_stay_bit_identical_across_row_chunks() {
        for b in [17usize, 20, 33] {
            let img = stripes(b + 3, 4);
            let coeffs = Dct2d::new(b)
                .unwrap()
                .forward(&img.window(2, 1, b, b))
                .unwrap();
            let full: Vec<u32> = zigzag::zigzag_indices(b)
                .into_iter()
                .map(|(x, y)| coeffs[(x, y)].to_bits())
                .collect();
            for k in [b * b / 2, b * b - 1, b * b] {
                let plan = BlockDctPlan::new(b, k).unwrap();
                assert!(plan.rows > ROW_CHUNK, "b={b} k={k} rows {}", plan.rows);
                let mut out = vec![0.0f32; k];
                plan.coefficients_at(&img, 2, 1, &mut out).unwrap();
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, full[..k], "b={b} k={k}");
            }
        }
    }

    #[test]
    fn spatial_information_is_preserved() {
        // A feature the flattened baselines lose: two clips with identical
        // global density but different spatial arrangement must produce
        // different DC channels.
        let mut left = Grid::filled(24, 24, 0.0f32);
        let mut right = Grid::filled(24, 24, 0.0f32);
        for y in 0..24 {
            for x in 0..12 {
                left[(x, y)] = 1.0;
                right[(x + 12, y)] = 1.0;
            }
        }
        let spec = FeatureTensorSpec::new(4, 1).unwrap();
        let tl = extract_feature_tensor(&left, &spec).unwrap();
        let tr = extract_feature_tensor(&right, &spec).unwrap();
        assert_ne!(tl.channel(0), tr.channel(0));
        // But total DC energy (global density) matches.
        let sl: f32 = tl.channel(0).iter().sum();
        let sr: f32 = tr.channel(0).iter().sum();
        assert!((sl - sr).abs() < 1e-4);
    }
}
