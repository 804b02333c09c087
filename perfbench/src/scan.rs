//! The two scan workloads: `HotspotDetector::scan` over a seeded chip.
//!
//! * `scan-dense-aligned`: the dense chip at block-aligned stride 600 nm,
//!   so the DCT cache serves most blocks and nearly every window is
//!   flagged (the region merge is fully loaded).
//! * `scan-dense-unaligned`: the same chip at stride 550 nm, which bypasses
//!   the DCT cache.
//!
//! The untraced run times whole one-thread scans after a warm-up scan.
//! The traced run times serial and parallel scans and replays the serial
//! scan through the layers' public calls (see [`crate::replay`]); on the
//! aligned workload it also scans the chip's tiles kept on a sparse
//! lattice with the calibrated cascade prefilter, for the cascade layer.

use crate::costs;
use crate::layers::Layers;
use crate::replay::{replay_scan, Replay};
use crate::report::{copies, fastest, median, peak_rss_mb, timed_rounds, Checks, Outcome, Sampler};
use crate::setup::{self, stage_median, ScanSetup, Seeds};
use crate::trace::Tracer;
use hotspot_core::{
    HotspotDetector, HotspotRegion, Parallelism, ScanConfig, ScanReport, ScanStage,
};
use hotspot_geometry::{Clip, Point, Rect};
use hotspot_nn::ulp::ulp_close;
use std::path::Path;
use std::time::Instant;

/// Windows re-scored through the per-window oracle in every run.
const ORACLE_SAMPLE: usize = 64;
/// Score envelope against the per-window oracle: the ULP bound the repo
/// pins for batched window scores against a reference path.
const ORACLE_MAX_ULP: u64 = 64;
const ORACLE_MAX_ABS: f32 = 1e-5;
/// Side of the chip, in 1200 nm tiles: 961 windows at stride 600 nm and
/// 1,089 at 550 nm, so that one scan on one thread is short (60–150 ms
/// on an undisturbed 2-vCPU AVX-512 host) and a run holds hundreds.
const CHIP_TILES: usize = 16;
/// Scans in each timed group of the traced run.
const TRACED_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    DenseAligned,
    DenseUnaligned,
}

impl ScanKind {
    fn stride_nm(self) -> i64 {
        match self {
            ScanKind::DenseUnaligned => 550,
            _ => 600,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ScanKind::DenseAligned => "scan-dense-aligned",
            ScanKind::DenseUnaligned => "scan-dense-unaligned",
        }
    }
}

/// The scan workloads' set-up, repeated and timed.
fn timed_setup(seeds: &Seeds, checks: &mut Checks) -> (ScanSetup, f64, Layers) {
    let (setup, setup_s, all) = setup::repeat(
        checks,
        || setup::scan_setup(seeds, CHIP_TILES),
        |s| s.times,
        |a, b| {
            a.layout == b.layout
                && a.prefilter.crc() == b.prefilter.crc()
                && setup::weights_fingerprint(&mut a.detector)
                    == setup::weights_fingerprint(&mut b.detector)
        },
    );
    let mut layers = Layers::default();
    let datagen_s = stage_median(&all, |t| t.datagen_s);
    layers.set("datagen.build_s", datagen_s);
    layers.set("datagen.clips_per_s", all[0].clips as f64 / datagen_s);
    layers.set("layout.build_s", stage_median(&all, |t| t.layout_s));
    (setup, setup_s, layers)
}

pub fn run(kind: ScanKind, seeds: &Seeds, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, setup_s, mut layers) = timed_setup(seeds, &mut out.checks);
    let config = ScanConfig::new(kind.stride_nm()).expect("positive stride");
    // Timed scans run on one thread: on a shared host a scan split into
    // bands waits for its slowest band, so any interference on any core
    // slows it. `scan.parallel_speedup` in the traced run covers bands.
    setup.detector.set_parallelism(Parallelism::serial());
    let oracle_windows = sample_windows(&setup.layout, &config, seeds.sample);
    out.header("scan_stride_nm", kind.stride_nm());
    out.header("chip_tiles", CHIP_TILES);
    if trace {
        traced(
            kind,
            &mut setup,
            &config,
            &oracle_windows,
            &mut layers,
            &mut out,
        );
        layers.emit(&mut out);
        return out;
    }

    let warm = setup
        .detector
        .scan(&setup.layout, &config)
        .expect("chip scans");
    out.header("scan_threads", warm.threads);
    check_report(
        &setup.detector,
        &setup.layout,
        &warm,
        &oracle_windows,
        &mut out.checks,
    );
    let mut walls = Vec::new();
    timed_rounds(
        copies(),
        seconds,
        || setup.detector.scan(&setup.layout, &config),
        |wall, report| {
            walls.push(wall);
            let i = walls.len();
            out.checks
                .check(report.is_ok_and(|r| same_scan(&r, &warm)), || {
                    format!("scan {i} differs from the warm-up scan")
                });
        },
    );
    out.header("copies", copies());
    out.header("samples", walls.len());
    out.header("latency_p50_ms", median(&walls) * 1e3);
    let best = fastest(&walls);
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("throughput_per_s", warm.windows.len() as f64 / best, "1/s");
    out.metric("latency_ms", best * 1e3, "ms");
    out
}

/// A seeded sample of window positions (layout frame, nm).
fn sample_windows(layout: &Clip, config: &ScanConfig, seed: u64) -> Vec<(i64, i64)> {
    let w = config.window_nm();
    let xs = crate::replay::axis_positions(layout.window().width(), w, config.stride_nm());
    let ys = crate::replay::axis_positions(layout.window().height(), w, config.stride_nm());
    let lo = layout.window().lo();
    let mut sampler = Sampler::new(seed);
    (0..ORACLE_SAMPLE)
        .map(|_| {
            (
                lo.x + xs[sampler.below(xs.len())],
                lo.y + ys[sampler.below(ys.len())],
            )
        })
        .collect()
}

fn window_clip(layout: &Clip, (x, y): (i64, i64), window_nm: i64) -> Clip {
    layout.extract_window(
        Rect::from_size(Point::new(x, y), window_nm, window_nm).expect("window inside the layout"),
    )
}

/// Re-scores the sampled windows through the per-window oracle
/// (`Clip::extract_window` → `HotspotDetector::predict_batch`): a window
/// fails when its flag differs or its score leaves the ULP envelope.
/// Cascade-cleared windows are checked only for being unflagged.
fn check_report(
    detector: &HotspotDetector,
    layout: &Clip,
    report: &ScanReport,
    sample: &[(i64, i64)],
    checks: &mut Checks,
) {
    let clips: Vec<Clip> = sample
        .iter()
        .map(|&p| window_clip(layout, p, report.window_nm))
        .collect();
    let oracle = match detector.predict_batch(&clips) {
        Ok(scores) => scores,
        Err(e) => {
            checks.check(false, || format!("oracle scoring failed: {e}"));
            return;
        }
    };
    for (&(x, y), &want) in sample.iter().zip(&oracle) {
        let got = report.windows.iter().find(|w| w.x_nm == x && w.y_nm == y);
        checks.check(
            got.is_some_and(|w| match w.stage {
                ScanStage::Cnn => {
                    w.hotspot == (want > report.threshold)
                        && ulp_close(w.score, want, ORACLE_MAX_ULP, ORACLE_MAX_ABS)
                }
                ScanStage::Prefilter => !w.hotspot && w.score == 0.0,
            }),
            || format!("window ({x}, {y}): scan {got:?}, oracle score {want}"),
        );
    }
}

/// Cascade survivors must score exactly as the full scan, and cleared
/// windows must be unflagged with score 0.
fn check_cascade(full: &ScanReport, cascade: &ScanReport, checks: &mut Checks) {
    checks.check(full.windows.len() == cascade.windows.len(), || {
        "cascade and full scan disagree on the window grid".into()
    });
    for (f, c) in full.windows.iter().zip(&cascade.windows) {
        let ok = match c.stage {
            ScanStage::Cnn => c.score.to_bits() == f.score.to_bits() && c.hotspot == f.hotspot,
            ScanStage::Prefilter => c.score == 0.0 && !c.hotspot,
        };
        checks.check(ok, || {
            format!(
                "cascade window ({}, {}) {:?} vs full {:?}",
                c.x_nm, c.y_nm, c, f
            )
        });
    }
}

/// Full-scan regions that no cascade region overlaps.
fn missed_regions(full: &ScanReport, cascade: &ScanReport) -> usize {
    full.regions
        .iter()
        .filter(|f| {
            !cascade.regions.iter().any(|c| {
                f.x0_nm < c.x1_nm && c.x0_nm < f.x1_nm && f.y0_nm < c.y1_nm && c.y0_nm < f.y1_nm
            })
        })
        .count()
}

/// Two scans agree when their cache accounting, window scores and flags
/// are identical and they found the same regions. The report sorts
/// regions by their low corner only, and regions sharing a low corner
/// come out in a different order from run to run, so regions are
/// compared as sets.
fn same_scan(a: &ScanReport, b: &ScanReport) -> bool {
    let key = |r: &HotspotRegion| (r.y0_nm, r.x0_nm, r.y1_nm, r.x1_nm, r.windows);
    let regions = |r: &ScanReport| {
        let mut v = r.regions.clone();
        v.sort_by_key(key);
        v
    };
    a.cache == b.cache
        && regions(a) == regions(b)
        && a.windows.len() == b.windows.len()
        && a.windows
            .iter()
            .zip(&b.windows)
            .all(|(x, y)| x.score.to_bits() == y.score.to_bits() && x.hotspot == y.hotspot)
}

/// The replay must reproduce the serial scan bit-for-bit: one check per
/// window plus one for the cache accounting.
fn check_replay(replay: &Replay, report: &ScanReport, checks: &mut Checks) {
    checks.check(replay.cache == report.cache, || {
        format!("replay cache {:?} vs scan {:?}", replay.cache, report.cache)
    });
    checks.check(replay.scores.len() == report.windows.len(), || {
        "replay window count differs from the scan".into()
    });
    let cascaded = report.cascade.is_some();
    for (i, w) in report.windows.iter().enumerate().take(replay.scores.len()) {
        let cnn = replay.cnn[i];
        let ok = w.score.to_bits() == replay.scores[i].to_bits()
            && w.hotspot == (cnn && replay.scores[i] > report.threshold)
            && (w.stage == ScanStage::Cnn) == cnn
            && (!cascaded || w.margin.map(f32::to_bits) == Some(replay.margins[i].to_bits()));
        checks.check(ok, || format!("replay window {i} differs: scan {w:?}"));
    }
}

/// Times [`TRACED_REPS`] scans; returns the median wall time and every
/// report.
fn timed_scans(
    detector: &HotspotDetector,
    layout: &Clip,
    config: &ScanConfig,
) -> (f64, Vec<ScanReport>) {
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..TRACED_REPS {
        let t = Instant::now();
        reports.push(detector.scan(layout, config).expect("chip scans"));
        walls.push(t.elapsed().as_secs_f64());
    }
    (median(&walls), reports)
}

/// Per-layer numbers for one scan configuration, from real serial and
/// parallel scans plus an untraced and a traced replay.
fn trace_scan(
    detector: &mut HotspotDetector,
    layout: &Clip,
    config: &ScanConfig,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) -> ScanReport {
    detector.set_parallelism(Parallelism::serial());
    let (serial_wall, serial) = timed_scans(detector, layout, config);
    detector.set_parallelism(Parallelism::auto());
    let (parallel_wall, parallel) = timed_scans(detector, layout, config);
    let report = serial.last().expect("timed scans ran").clone();
    for p in &parallel {
        checks.check(same_scan(p, &report), || {
            "parallel scan differs from the serial scan".into()
        });
    }

    let t = Instant::now();
    let plain = replay_scan(detector, layout, config, &mut Tracer::new(false), 0);
    let plain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let traced = replay_scan(detector, layout, config, tracer, 0);
    let traced_s = t.elapsed().as_secs_f64();
    let replay = match (plain, traced) {
        (Ok(_), Ok(r)) => r,
        (Err(e), _) | (_, Err(e)) => {
            checks.check(false, || format!("replay failed: {e}"));
            return report;
        }
    };
    check_replay(&replay, &report, checks);

    let windows = report.windows.len() as f64;
    let raster_s = tracer.total_s("geometry.raster");
    let prefilter_s = tracer.total_s("cascade.prefilter");
    let dct_s = tracer.total_s("dct.transform");
    let assemble_s = tracer.total_s("feature.assemble");
    let infer_s = tracer.total_s("nn.infer");
    let med = |f: fn(&ScanReport) -> f64| median(&serial.iter().map(f).collect::<Vec<_>>());
    let prepare_s = med(|r| r.prepare_s);
    let merge_s = med(|r| r.merge_s);
    layers.set("geometry.raster_s", raster_s);
    layers.set("geometry.raster_mpx", replay.raster_px as f64 * 1e-6);
    layers.set("dct.transform_s", dct_s);
    layers.set("dct.blocks", replay.cache.computed as f64);
    if replay.cache.computed > 0 {
        layers.set(
            "dct.ns_per_block",
            dct_s * 1e9 / replay.cache.computed as f64,
        );
    }
    layers.set("scan.prepare_s", prepare_s);
    layers.set("scan.band_s", tracer.total_s("scan.band"));
    layers.set("scan.merge_s", merge_s);
    layers.set("scan.cache_hit_rate", report.cache.hit_rate());
    layers.set("scan.blocks_computed", report.cache.computed as f64);
    layers.set("scan.positives", report.positives() as f64);
    layers.set("scan.regions", report.regions.len() as f64);
    layers.set("scan.threads", parallel[0].threads as f64);
    layers.set("scan.serial_windows_per_s", windows / serial_wall);
    layers.set("scan.parallel_speedup", serial_wall / parallel_wall);
    layers.set(
        "scan.unaccounted_s",
        serial_wall - prepare_s - merge_s - raster_s - prefilter_s - dct_s - assemble_s - infer_s,
    );
    layers.set("feature.assemble_s", assemble_s);
    layers.set("cascade.prefilter_s", prefilter_s);
    if report.cascade.is_some() {
        layers.set("cascade.cleared_share", 1.0 - report.cnn_evals_per_window());
        layers.set(
            "cascade.cnn_evals_per_window",
            report.cnn_evals_per_window(),
        );
    }
    layers.set("nn.infer_s", infer_s);
    layers.set("nn.cnn_windows_per_s", replay.cnn_windows as f64 / infer_s);
    layers.set("nn.batch", replay.batch as f64);
    if replay.cnn_windows > 0 {
        layers.set(
            "nn.gemm_calls_per_window",
            replay.gemm_calls as f64 / replay.cnn_windows as f64,
        );
    }
    let pipeline = detector.pipeline();
    let in_shape = pipeline.input_shape();
    let cost = costs::per_window(detector.network_mut(), &in_shape);
    layers.set("nn.mflop_per_window", cost.flops * 1e-6);
    layers.set("nn.kbyte_per_window", cost.bytes / 1024.0);
    layers.set(
        "nn.gflops",
        cost.flops * replay.cnn_windows as f64 / infer_s * 1e-9,
    );
    layers.set("trace.overhead_share", traced_s / plain_s - 1.0);
    report
}

/// Median `FeaturePipeline::extract` time per clip, µs.
pub fn extract_us_per_clip(detector: &HotspotDetector, clips: &[Clip]) -> f64 {
    let mut per = Vec::with_capacity(clips.len());
    for clip in clips {
        let t = Instant::now();
        let tensor = detector.pipeline().extract(clip);
        per.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(tensor.is_ok());
    }
    median(&per)
}

fn traced(
    kind: ScanKind,
    setup: &mut ScanSetup,
    config: &ScanConfig,
    oracle_windows: &[(i64, i64)],
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new(true);
    let report = trace_scan(
        &mut setup.detector,
        &setup.layout,
        config,
        &mut tracer,
        layers,
        &mut out.checks,
    );
    out.header("scan_threads", setup.detector.parallelism().workers());
    check_report(
        &setup.detector,
        &setup.layout,
        &report,
        oracle_windows,
        &mut out.checks,
    );
    let clips: Vec<Clip> = oracle_windows
        .iter()
        .map(|&p| window_clip(&setup.layout, p, config.window_nm()))
        .collect();
    layers.set(
        "feature.extract_us_per_clip",
        extract_us_per_clip(&setup.detector, &clips),
    );
    write_trace(&tracer, kind.name(), "trace_file", out);
    if kind == ScanKind::DenseAligned {
        trace_cascade(setup, out, layers);
    }
}

/// The cascade layer's numbers: the chip's tiles kept on a 1-in-9
/// lattice (mostly quiet area, as on a real chip) scanned at stride
/// 600 nm with the calibrated prefilter, traced like the main scan and
/// checked against a full scan of the same chip.
fn trace_cascade(setup: &mut ScanSetup, out: &mut Outcome, layers: &mut Layers) {
    let sparse = setup::sparse_lattice(&setup.layout);
    let plain = ScanConfig::new(ScanKind::DenseAligned.stride_nm()).expect("positive stride");
    let cascaded = plain.clone().with_cascade(setup.prefilter.clone());
    setup.detector.set_parallelism(Parallelism::serial());
    let full = setup.detector.scan(&sparse, &plain).expect("chip scans");
    let mut tracer = Tracer::new(true);
    // The sparse chip's other layer numbers would overwrite the main
    // scan's, so only the cascade's are kept.
    let report = trace_scan(
        &mut setup.detector,
        &sparse,
        &cascaded,
        &mut tracer,
        &mut Layers::default(),
        &mut out.checks,
    );
    check_cascade(&full, &report, &mut out.checks);
    layers.set("cascade.prefilter_s", tracer.total_s("cascade.prefilter"));
    layers.set("cascade.cleared_share", 1.0 - report.cnn_evals_per_window());
    layers.set(
        "cascade.cnn_evals_per_window",
        report.cnn_evals_per_window(),
    );
    layers.set(
        "cascade.missed_regions",
        missed_regions(&full, &report) as f64,
    );
    write_trace(&tracer, "cascade", "cascade_trace_file", out);
}

/// Writes the run's spans under `.perfbench/` and names the file in the
/// run header under `key`.
pub fn write_trace(tracer: &Tracer, name: &str, key: &'static str, out: &mut Outcome) {
    let path = Path::new(".perfbench").join(format!("trace-{name}-{}.jsonl", std::process::id()));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.header(key, crate::report::json_str(&path.display().to_string())),
        Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
    }
}
