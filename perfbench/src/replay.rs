//! Traced replay of a serial `HotspotDetector::scan` through the public
//! calls of each layer.
//!
//! The replay walks the same steps as the scan's single band: rasterise
//! the layout strip (`Clip::extract_window`, `raster::rasterize_clip`),
//! run the cascade prefilter on every window's raster crop
//! (`density_feature`, `prefilter_features`, `CascadePrefilter::try_margin`),
//! then score the survivors in blocks: fetch per-block DCT coefficients
//! (`BlockDctPlan::coefficients_for`) through its own lattice cache,
//! assemble the window tensors, and run `Network::forward_batch_with` +
//! `loss::softmax_into`. Each score block is split into a DCT span and an
//! assembly span, so both layers get their own time.
//!
//! The replay must reproduce the scan's scores, flags and `CacheStats`
//! bit-for-bit; the caller checks that, because otherwise its numbers
//! would describe a different program.

use crate::trace::Tracer;
use hotspot_core::cascade::prefilter_features;
use hotspot_core::{CacheStats, CoreError, HotspotDetector, ScanConfig};
use hotspot_dct::BlockDctPlan;
use hotspot_features::density_feature;
use hotspot_geometry::{raster, Clip, Point, Rect};
use hotspot_nn::engine::Workspace;
use hotspot_nn::{gemm, loss};
use std::collections::HashMap;

/// What the replay produced, in the scan's row-major window order.
pub struct Replay {
    pub scores: Vec<f32>,
    pub cnn: Vec<bool>,
    pub margins: Vec<f32>,
    pub cache: CacheStats,
    pub raster_px: u64,
    pub cnn_windows: usize,
    pub gemm_calls: u64,
    pub batch: usize,
}

/// Window low-corner offsets along one axis, as the scan places them:
/// stride multiples while the window fits, plus a flush-to-edge window.
pub fn axis_positions(extent_nm: i64, window_nm: i64, stride_nm: i64) -> Vec<i64> {
    let mut xs = Vec::new();
    let mut x = 0;
    while x + window_nm <= extent_nm {
        xs.push(x);
        x += stride_nm;
    }
    let flush = extent_nm - window_nm;
    if xs.last() != Some(&flush) {
        xs.push(flush);
    }
    xs
}

pub fn replay_scan(
    detector: &HotspotDetector,
    layout: &Clip,
    config: &ScanConfig,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Replay, CoreError> {
    let pipeline = detector.pipeline();
    let res = i64::from(pipeline.resolution_nm());
    let n = pipeline.grid_dim();
    let k = pipeline.coefficients();
    let width_nm = layout.window().width();
    let height_nm = layout.window().height();
    let window_nm = config.window_nm();
    let window_px = (window_nm / res) as usize;
    let block_px = window_px / n;
    let plan = BlockDctPlan::new(block_px, k)?;
    let scale = 1.0 / block_px as f32;
    let normalized = layout.normalized();
    let xs = axis_positions(width_nm, window_nm, config.stride_nm());
    let ys = axis_positions(height_nm, window_nm, config.stride_nm());
    let cols = xs.len();
    let total = cols * ys.len();
    let net = detector.network();
    let in_shape = [k, n, n];
    let feat_len = k * n * n;
    let probe = net.plan(&in_shape);
    let out_len = probe.out_len();
    let block = config
        .score_block()
        .unwrap_or_else(|| probe.suggested_batch())
        .min(total)
        .max(1);
    let block_plan = net.plan_batch(&in_shape, block);

    let band = tracer.begin("scan.band", id);

    // Geometry: the band's raster strip (one band spans the whole layout
    // in a serial scan).
    let span = tracer.begin("geometry.raster", id);
    let y_lo = ys[0];
    let y_hi = ys[ys.len() - 1] + window_nm;
    let strip_rect = Rect::from_size(Point::new(0, y_lo), width_nm, y_hi - y_lo)
        .map_err(|_| CoreError::InvalidConfig("scan band strip extent must be positive"))?;
    let strip = normalized.extract_window(strip_rect);
    let strip_raster = raster::rasterize_clip(&strip, pipeline.resolution_nm());
    tracer.end(span);
    let raster_px = (strip_raster.width() * strip_raster.height()) as u64;
    let y0_px = (y_lo / res) as usize;

    // Cascade: margin of every window's raster crop, one span per window
    // row.
    let mut margins = vec![f32::NAN; total];
    let mut cnn = vec![true; total];
    if let Some(prefilter) = config.cascade() {
        let grid = prefilter.grid_dim();
        for (row, &y) in ys.iter().enumerate() {
            let span = tracer.begin("cascade.prefilter", row as u64);
            for (col, &x) in xs.iter().enumerate() {
                let idx = row * cols + col;
                let crop = strip_raster.window(
                    (x / res) as usize,
                    (y / res) as usize - y0_px,
                    window_px,
                    window_px,
                );
                let features = prefilter_features(density_feature(&crop, grid)?);
                let margin = prefilter.try_margin(&features)?;
                margins[idx] = margin;
                cnn[idx] = prefilter.passes(margin);
            }
            tracer.end(span);
        }
    }
    let survivors: Vec<usize> = (0..total).filter(|&i| cnn[i]).collect();

    // DCT, tensor assembly and CNN, one score block at a time. Cached
    // coefficients live in `arena` (k floats per lattice block, indexed
    // through `cache`); an unaligned window's blocks go to `direct`, which
    // holds one score block's worth. `refs` records, per window block,
    // where assembly reads its coefficients from.
    let mut cache: HashMap<(usize, usize), usize> = HashMap::new();
    let mut arena: Vec<f32> = Vec::new();
    let mut direct: Vec<f32> = Vec::new();
    let mut refs: Vec<(bool, usize)> = Vec::with_capacity(block * n * n);
    let mut stats = CacheStats::default();
    let mut ws = Workspace::new();
    let mut soft = vec![0.0f32; out_len];
    let mut tail_plan = None;
    let mut feats = vec![0.0f32; block * feat_len];
    let mut scores = vec![0.0f32; total];
    let mut gemm_calls = 0u64;
    for (b_idx, chunk) in survivors.chunks(block).enumerate() {
        let b_id = b_idx as u64;
        let span = tracer.begin("dct.transform", b_id);
        refs.clear();
        direct.clear();
        for &idx in chunk {
            let x_px = (xs[idx % cols] / res) as usize;
            let y_px = (ys[idx / cols] / res) as usize;
            let aligned = x_px.is_multiple_of(block_px) && y_px.is_multiple_of(block_px);
            for j in 0..n {
                for i in 0..n {
                    if aligned {
                        let key = (x_px / block_px + i, y_px / block_px + j);
                        let at = match cache.get(&key) {
                            Some(&at) => {
                                stats.hits += 1;
                                at
                            }
                            None => {
                                let crop = strip_raster.window(
                                    key.0 * block_px,
                                    key.1 * block_px - y0_px,
                                    block_px,
                                    block_px,
                                );
                                let at = arena.len();
                                arena.extend(
                                    plan.coefficients_for(&crop)?.iter().map(|c| c * scale),
                                );
                                stats.computed += 1;
                                cache.insert(key, at);
                                at
                            }
                        };
                        refs.push((true, at));
                    } else {
                        let crop = strip_raster.window(
                            x_px + i * block_px,
                            y_px + j * block_px - y0_px,
                            block_px,
                            block_px,
                        );
                        refs.push((false, direct.len()));
                        direct.extend(plan.coefficients_for(&crop)?.iter().map(|c| c * scale));
                        stats.computed += 1;
                    }
                }
            }
        }
        tracer.end(span);

        let span = tracer.begin("feature.assemble", b_id);
        for (w, data) in feats
            .chunks_exact_mut(feat_len)
            .take(chunk.len())
            .enumerate()
        {
            for j in 0..n {
                for i in 0..n {
                    let (cached, at) = refs[(w * n + j) * n + i];
                    let coeffs = if cached {
                        &arena[at..at + k]
                    } else {
                        &direct[at..at + k]
                    };
                    for c in 0..k {
                        data[(c * n + j) * n + i] = coeffs[c];
                    }
                }
            }
        }
        tracer.end(span);

        let span = tracer.begin("nn.infer", b_id);
        let b = chunk.len();
        let plan = if b == block {
            &block_plan
        } else {
            tail_plan.get_or_insert_with(|| net.plan_batch(&in_shape, b))
        };
        let g0 = gemm::gemm_call_count();
        let logits = net.forward_batch_with(plan, &mut ws, &feats[..b * feat_len]);
        for (logit, &idx) in logits.chunks_exact(out_len).zip(chunk) {
            loss::softmax_into(logit, &mut soft);
            scores[idx] = soft[1];
        }
        gemm_calls += gemm::gemm_call_count() - g0;
        tracer.end(span);
    }
    tracer.end(band);
    Ok(Replay {
        scores,
        cnn,
        margins,
        cache: stats,
        raster_px,
        cnn_windows: survivors.len(),
        gemm_calls,
        batch: block,
    })
}
