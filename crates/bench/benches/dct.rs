//! Criterion bench: separable (mat-mul) 2-D DCT vs the naive O(B⁴)
//! transform — the design choice that keeps feature extraction tractable
//! over full benchmarks — and the truncated in-place block kernel that
//! feature extraction and the scan run, against the full transform plus
//! zig-zag gather it reproduces bit-for-bit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotspot_dct::{zigzag_indices, BlockDctPlan, Dct2d};
use hotspot_geometry::Grid;

fn block(b: usize) -> Grid<f32> {
    Grid::from_vec(
        b,
        b,
        (0..b * b).map(|v| ((v * 31 + 7) % 13) as f32).collect(),
    )
}

fn bench_dct(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct2d");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for b in [10usize, 20, 50] {
        let plan = Dct2d::new(b).expect("valid size");
        let x = block(b);
        group.bench_with_input(BenchmarkId::new("separable", b), &b, |bench, _| {
            bench.iter(|| plan.forward(std::hint::black_box(&x)).expect("valid block"));
        });
        group.bench_with_input(BenchmarkId::new("naive", b), &b, |bench, _| {
            bench.iter(|| {
                plan.forward_naive(std::hint::black_box(&x))
                    .expect("valid block")
            });
        });
    }
    group.finish();
}

fn bench_inverse(c: &mut Criterion) {
    let plan = Dct2d::new(10).expect("valid size");
    let coeffs = plan.forward(&block(10)).expect("valid block");
    let mut group = c.benchmark_group("dct2d_inverse");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("inverse-10", |bench| {
        bench.iter(|| {
            plan.inverse(std::hint::black_box(&coeffs))
                .expect("valid block")
        });
    });
    group.finish();
}

/// The paper's block (B = 10) keeping k = 32 coefficients, read in place
/// from a raster wider than the block.
fn bench_block_plan(c: &mut Criterion) {
    let (b, k) = (10usize, 32usize);
    let raster = block(3 * b);
    let (x0, y0) = (b + 3, b - 4);
    let plan = BlockDctPlan::new(b, k).expect("valid plan");
    let full = Dct2d::new(b).expect("valid size");
    let order = zigzag_indices(b);
    let mut group = c.benchmark_group("block_plan");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let mut out = vec![0.0f32; k];
    group.bench_function("in-place-10-k32", |bench| {
        bench.iter(|| {
            plan.coefficients_at(std::hint::black_box(&raster), x0, y0, &mut out)
                .expect("block fits");
            std::hint::black_box(&out);
        });
    });
    group.bench_function("forward-zigzag-10-k32", |bench| {
        bench.iter(|| {
            let crop = std::hint::black_box(&raster).window(x0, y0, b, b);
            let coeffs = full.forward(&crop).expect("valid block");
            order[..k]
                .iter()
                .map(|&(x, y)| coeffs[(x, y)])
                .collect::<Vec<f32>>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_dct, bench_inverse, bench_block_plan);
criterion_main!(benches);
