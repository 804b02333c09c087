//! The per-layer metrics of a traced run.
//!
//! Every traced run prints every metric below, in this order. A layer a
//! workload does not exercise reports 0 (for example the prefilter on the
//! dense scans, or the server on the training workload); which layer
//! should move which end-to-end metric on which workload is recorded in
//! `perfbench/README.md`.

use crate::report::Outcome;
use std::collections::HashMap;

/// (name, unit, better) of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("geometry.raster_s", "s", "lower"),
    ("geometry.raster_mpx", "Mpx", "lower"),
    ("dct.transform_s", "s", "lower"),
    ("dct.blocks", "count", "lower"),
    ("dct.ns_per_block", "ns", "lower"),
    ("scan.prepare_s", "s", "lower"),
    ("scan.band_s", "s", "lower"),
    ("scan.merge_s", "s", "lower"),
    ("scan.cache_hit_rate", "share", "higher"),
    ("scan.blocks_computed", "count", "lower"),
    ("scan.positives", "count", "lower"),
    ("scan.regions", "count", "lower"),
    ("scan.threads", "count", "higher"),
    ("scan.serial_windows_per_s", "1/s", "higher"),
    ("scan.parallel_speedup", "x", "higher"),
    ("scan.unaccounted_s", "s", "lower"),
    ("feature.assemble_s", "s", "lower"),
    ("feature.extract_us_per_clip", "us", "lower"),
    ("cascade.prefilter_s", "s", "lower"),
    ("cascade.cleared_share", "share", "higher"),
    ("cascade.cnn_evals_per_window", "share", "lower"),
    ("cascade.missed_regions", "count", "lower"),
    ("nn.infer_s", "s", "lower"),
    ("nn.cnn_windows_per_s", "1/s", "higher"),
    ("nn.batch", "count", "higher"),
    ("nn.gemm_calls_per_window", "count", "lower"),
    ("nn.mflop_per_window", "MFLOP", "lower"),
    ("nn.kbyte_per_window", "KB", "lower"),
    ("nn.gflops", "GFLOP/s", "higher"),
    ("api.parse_us", "us", "lower"),
    ("api.render_us", "us", "lower"),
    ("server.batches", "count", "lower"),
    ("server.clips_per_batch", "count", "higher"),
    ("server.max_batch", "count", "higher"),
    ("server.rejected_busy", "count", "lower"),
    ("server.queue_depth_max", "count", "lower"),
    ("server.service_ms", "ms", "lower"),
    ("server.wait_ms", "ms", "lower"),
    ("server.generator_late_ms", "ms", "lower"),
    ("serve.r200.sent", "count", "higher"),
    ("serve.r200.ok", "count", "higher"),
    ("serve.r200.failed", "count", "lower"),
    ("serve.r200.p99_ms", "ms", "lower"),
    ("serve.r400.sent", "count", "higher"),
    ("serve.r400.ok", "count", "higher"),
    ("serve.r400.failed", "count", "lower"),
    ("serve.r400.p99_ms", "ms", "lower"),
    ("serve.r600.sent", "count", "higher"),
    ("serve.r600.ok", "count", "higher"),
    ("serve.r600.failed", "count", "lower"),
    ("serve.r600.p99_ms", "ms", "lower"),
    ("serve.r800.sent", "count", "higher"),
    ("serve.r800.ok", "count", "higher"),
    ("serve.r800.failed", "count", "lower"),
    ("serve.r800.p99_ms", "ms", "lower"),
    ("serve.predict_p50_ms", "ms", "lower"),
    ("serve.scan_op_p50_ms", "ms", "lower"),
    ("serve.saturation_rps", "1/s", "higher"),
    ("serve.max_rate_rps", "1/s", "higher"),
    ("train.steps", "count", "lower"),
    ("train.step_ms", "ms", "lower"),
    ("train.rounds", "count", "lower"),
    ("train.extract_s", "s", "lower"),
    ("train.eval_s", "s", "lower"),
    ("train.accuracy", "share", "higher"),
    ("train.false_alarms", "count", "lower"),
    ("corners.fit_s", "s", "lower"),
    ("datagen.build_s", "s", "lower"),
    ("datagen.clips_per_s", "1/s", "higher"),
    ("layout.build_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
];

/// Per-layer values measured by one traced run.
#[derive(Debug, Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Pushes every per-layer metric onto the outcome, 0 where unset, and
    /// names the metrics that are computed rather than measured.
    pub fn emit(&self, out: &mut Outcome) {
        out.header(
            "computed_metrics",
            "[\"nn.mflop_per_window\", \"nn.kbyte_per_window\"]",
        );
        for &(name, unit, _) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
