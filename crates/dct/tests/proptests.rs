//! Property-based tests for the spectral substrate.

use hotspot_dct::{
    blocks, dct1d, extract_feature_tensor, reconstruct_image, zigzag_indices, zigzag_scan,
    zigzag_unscan, BlockDctPlan, Dct2d, DctError, FeatureTensorSpec,
};
use hotspot_geometry::Grid;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// A `width × height` raster of one of three pixel kinds, drawn from
/// `seed`: random reals, 0/1 coverage, or a mix of `±0.0`, `1.0` and reals
/// (so signed zeros reach every sum).
fn raster(kind: u8, width: usize, height: usize, seed: u64) -> Grid<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let values = (0..width * height)
        .map(|_| match (kind, rng.gen_range(0u8..4)) {
            (1, pick) => f32::from(pick % 2),
            (2, 0) => -0.0,
            (2, 1) => 0.0,
            (2, 2) => 1.0,
            _ => rng.gen_range(-10.0f32..10.0),
        })
        .collect();
    Grid::from_vec(width, height, values)
}

/// The oracle: [`Dct2d::forward`] of the cropped block, then the zig-zag
/// gather of every coefficient.
fn reference_zigzag(image: &Grid<f32>, x0: usize, y0: usize, b: usize) -> Vec<f32> {
    let coeffs = Dct2d::new(b)
        .unwrap()
        .forward(&image.window(x0, y0, b, b))
        .unwrap();
    zigzag_indices(b)
        .into_iter()
        .map(|(x, y)| coeffs[(x, y)])
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dct1d_roundtrip(v in (1usize..32).prop_flat_map(arb_signal)) {
        let back = dct1d::dct3(&dct1d::dct2(&v).unwrap()).unwrap();
        for (a, b) in v.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn dct1d_preserves_energy(v in (1usize..32).prop_flat_map(arb_signal)) {
        let c = dct1d::dct2(&v).unwrap();
        let ev: f64 = v.iter().map(|&x| (x as f64).powi(2)).sum();
        let ec: f64 = c.iter().map(|&x| (x as f64).powi(2)).sum();
        prop_assert!((ev - ec).abs() <= 1e-4 * ev.max(1.0));
    }

    #[test]
    fn dct2d_roundtrip(
        (b, v) in (1usize..14).prop_flat_map(|b| (Just(b), arb_signal(b * b)))
    ) {
        let plan = Dct2d::new(b).unwrap();
        let img = Grid::from_vec(b, b, v);
        let back = plan.inverse(&plan.forward(&img).unwrap()).unwrap();
        for (a, c) in img.iter().zip(back.iter()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    #[test]
    fn fast_dct_matches_naive(
        (b, v) in (1usize..10).prop_flat_map(|b| (Just(b), arb_signal(b * b)))
    ) {
        let plan = Dct2d::new(b).unwrap();
        let img = Grid::from_vec(b, b, v);
        let fast = plan.forward(&img).unwrap();
        let slow = plan.forward_naive(&img).unwrap();
        for (a, c) in fast.iter().zip(slow.iter()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    #[test]
    fn zigzag_is_permutation(n in 1usize..20) {
        let idx = zigzag_indices(n);
        prop_assert_eq!(idx.len(), n * n);
        let mut seen = vec![false; n * n];
        for (x, y) in idx {
            prop_assert!(!seen[y * n + x]);
            seen[y * n + x] = true;
        }
    }

    #[test]
    fn zigzag_roundtrip(
        (n, v) in (1usize..12).prop_flat_map(|n| (Just(n), arb_signal(n * n)))
    ) {
        let g = Grid::from_vec(n, n, v);
        prop_assert_eq!(zigzag_unscan(&zigzag_scan(&g), n), g);
    }

    #[test]
    fn split_join_roundtrip(
        (n, b, v) in (1usize..5, 1usize..5).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), arb_signal(n * n * b * b))
        })
    ) {
        let img = Grid::from_vec(n * b, n * b, v);
        let bs = blocks::split_blocks(&img, n).unwrap();
        prop_assert_eq!(blocks::join_blocks(&bs, n).unwrap(), img);
    }

    #[test]
    fn full_tensor_reconstruction_is_lossless(
        (n, b, v) in (1usize..4, 2usize..5).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), proptest::collection::vec(0.0f32..1.0, n * n * b * b))
        })
    ) {
        let img = Grid::from_vec(n * b, n * b, v);
        let spec = FeatureTensorSpec::new(n, b * b).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let back = reconstruct_image(&t, b).unwrap();
        for (a, c) in img.iter().zip(back.iter()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    #[test]
    fn truncation_never_increases_energy(
        (n, b, v) in (1usize..3, 2usize..5).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), proptest::collection::vec(0.0f32..1.0, n * n * b * b))
        })
    ) {
        // Energy of the kept coefficients is bounded by total image energy
        // (Parseval + truncation).
        let img = Grid::from_vec(n * b, n * b, v);
        let spec = FeatureTensorSpec::new(n, (b * b).min(3)).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let kept: f64 = t.as_slice().iter().map(|&x| (x as f64).powi(2)).sum();
        let total: f64 = img.iter().map(|&x| (x as f64).powi(2)).sum();
        prop_assert!(kept <= total + 1e-3);
    }

    /// The in-place truncated kernel equals `Dct2d::forward` + zig-zag by
    /// bits for every block size `B` in 1..=16 and every `k` in 1..=B²,
    /// reading the block at an arbitrary offset inside a wider, taller
    /// raster (so the row stride differs from `B`).
    #[test]
    fn block_kernel_is_bit_identical_to_dct2d_forward(
        kind in 0u8..3,
        x0 in 0usize..6,
        y0 in 0usize..6,
        pad_w in 0usize..5,
        pad_h in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        for b in 1usize..=16 {
            let image = raster(kind, x0 + b + pad_w, y0 + b + pad_h, seed ^ b as u64);
            let expect = bits(&reference_zigzag(&image, x0, y0, b));
            for k in 1..=b * b {
                let plan = BlockDctPlan::new(b, k).unwrap();
                let mut out = vec![f32::NAN; k];
                plan.coefficients_at(&image, x0, y0, &mut out).unwrap();
                prop_assert_eq!(bits(&out), &expect[..k], "B={} k={}", b, k);
            }
        }
    }

    /// A block that overruns the raster on either axis (including origins
    /// whose end overflows `usize`) is an error, never a panic.
    #[test]
    fn block_kernel_rejects_out_of_bounds_origins(
        b in 1usize..12,
        width in 1usize..30,
        height in 1usize..30,
        over in 1usize..8,
    ) {
        let image = raster(0, width, height, 7);
        let plan = BlockDctPlan::new(b, 1).unwrap();
        let mut out = [0.0f32];
        let x_bad = (width + over).saturating_sub(b);
        let y_bad = (height + over).saturating_sub(b);
        for (x0, y0) in [(x_bad, 0), (0, y_bad), (x_bad, y_bad), (usize::MAX, 0), (0, usize::MAX)] {
            let is_mismatch = matches!(
                plan.coefficients_at(&image, x0, y0, &mut out),
                Err(DctError::BlockMismatch { .. })
            );
            prop_assert!(is_mismatch, "origin ({}, {})", x0, y0);
        }
    }

    /// Whole-image extraction, which runs the kernel in place per block,
    /// equals a tensor assembled block by block from `Dct2d::forward`.
    #[test]
    fn feature_tensor_matches_dct2d_reference(
        (n, b, k) in (1usize..5, 1usize..13).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), 1usize..=b * b)
        }),
        kind in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let image = raster(kind, n * b, n * b, seed);
        let tensor = extract_feature_tensor(&image, &FeatureTensorSpec::new(n, k).unwrap()).unwrap();
        let mut expect = vec![0u32; k * n * n];
        for j in 0..n {
            for i in 0..n {
                let zz = reference_zigzag(&image, i * b, j * b, b);
                for c in 0..k {
                    expect[(c * n + j) * n + i] = zz[c].to_bits();
                }
            }
        }
        prop_assert_eq!(bits(tensor.as_slice()), expect);
    }
}
