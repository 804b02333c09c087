//! `train-biased`: `HotspotDetector::fit` with the paper's MGD and
//! biased-ε schedule at a fixed step budget, seed and one thread, then
//! `evaluate` on the test split; plus `CornerHead::fit` on a
//! corner-labelled suite (`golden-mini`). Training and backprop are
//! measured nowhere else.
//!
//! One operation is one detector fit plus one corner-head fit; the run
//! repeats it for `--seconds`, one copy per core at a time, and reports
//! the fastest repetition. Every repetition must reproduce the first
//! one's weights exactly.

use crate::costs;
use crate::layers::Layers;
use crate::report::{copies, fastest, median, peak_rss_mb, timed_rounds, Checks, Outcome};
use crate::scan::{extract_us_per_clip, write_trace};
use crate::serve;
use crate::setup::{self, stage_median, Seeds, SetupTimes};
use crate::trace::Tracer;
use hotspot_core::{CornerEvalResult, CornerHead, CornerHeadConfig, HotspotDetector};
use hotspot_datagen::suite::BenchmarkData;
use hotspot_geometry::{raster, Clip};
use hotspot_nn::engine::BatchScorer;
use hotspot_nn::gemm;
use std::time::Instant;

const SUITE_SCALE: f64 = 0.004;
/// Initial MGD steps; the second (biased) round fine-tunes for a quarter
/// of that.
const STEPS: usize = 16;
const ROUNDS: usize = 2;
const CORNER_EPOCHS: usize = 6;

struct TrainSetup {
    iccad: BenchmarkData,
    corners: BenchmarkData,
    times: SetupTimes,
}

fn build(seeds: &Seeds) -> TrainSetup {
    let start = Instant::now();
    let sim = setup::oracle();
    let iccad = setup::seeded_suite("iccad", SUITE_SCALE, seeds.suite).build(&sim);
    let corners = setup::seeded_suite("golden-mini", 1.0, seeds.suite ^ 1).build(&sim);
    let total_s = start.elapsed().as_secs_f64();
    TrainSetup {
        times: SetupTimes {
            datagen_s: total_s,
            clips: iccad.spec.total() + corners.train.len() + corners.test.len(),
            total_s,
            ..SetupTimes::default()
        },
        iccad,
        corners,
    }
}

/// What one operation produced.
struct Trained {
    detector: HotspotDetector,
    corner_eval: Option<CornerEvalResult>,
    fit_s: f64,
    corners_s: f64,
}

fn corner_config(seeds: &Seeds) -> CornerHeadConfig {
    CornerHeadConfig {
        epochs: CORNER_EPOCHS,
        seed: seeds.train,
        ..CornerHeadConfig::default()
    }
}

fn train_once(s: &TrainSetup, seeds: &Seeds) -> Result<Trained, String> {
    let t = Instant::now();
    let detector = HotspotDetector::fit(
        &s.iccad.train,
        &setup::detector_config(STEPS, ROUNDS, seeds.train),
    )
    .map_err(|e| format!("training failed: {e}"))?;
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (head, _) = CornerHead::fit(&s.corners.train, &corner_config(seeds))
        .map_err(|e| format!("corner head training failed: {e}"))?;
    let corners_s = t.elapsed().as_secs_f64();
    Ok(Trained {
        corner_eval: head.evaluate(&s.corners.test).ok(),
        detector,
        fit_s,
        corners_s,
    })
}

pub fn run(seeds: &Seeds, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s, all) = setup::repeat(
        &mut out.checks,
        || build(seeds),
        |s| s.times,
        |a, b| a.iccad == b.iccad && a.corners == b.corners,
    );
    out.header("train_threads", 1);
    out.header("steps", STEPS);
    out.header("rounds", ROUNDS);
    let mut layers = Layers::default();
    let datagen_s = stage_median(&all, |t| t.datagen_s);
    layers.set("datagen.build_s", datagen_s);
    layers.set("datagen.clips_per_s", all[0].clips as f64 / datagen_s);

    let mut first = match train_once(&s, seeds) {
        Ok(first) => first,
        Err(e) => {
            out.checks.check(false, || e);
            layers.emit(&mut out);
            return out;
        }
    };
    let fingerprint = setup::weights_fingerprint(&mut first.detector);
    check_quality(&first, &s, &mut out.checks);
    let steps: usize = first
        .detector
        .training_report()
        .rounds
        .iter()
        .map(|r| r.report.steps)
        .sum();
    let batch = setup::detector_config(STEPS, ROUNDS, seeds.train)
        .mgd
        .batch_size;
    let samples = (steps * batch + CORNER_EPOCHS * s.corners.train.len()) as f64;

    if trace {
        traced(&s, seeds, seconds, first, steps, &mut layers, &mut out);
        layers.emit(&mut out);
        return out;
    }

    let mut walls = Vec::new();
    timed_rounds(
        copies(),
        seconds,
        || train_once(&s, seeds),
        |_, next| match next {
            Ok(mut next) => {
                walls.push(next.fit_s + next.corners_s);
                let i = walls.len();
                let same = setup::weights_fingerprint(&mut next.detector) == fingerprint
                    && next.corner_eval == first.corner_eval;
                out.checks.check(same, || {
                    format!("training repetition {i} differs from the first")
                });
            }
            Err(e) => out.checks.check(false, || e),
        },
    );
    out.header("copies", copies());
    out.header("samples", walls.len());
    out.header("latency_p50_ms", median(&walls) * 1e3);
    let train_s = fastest(&walls);
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("throughput_per_s", samples / train_s, "1/s");
    out.metric("latency_ms", train_s * 1e3, "ms");
    out
}

/// `evaluate` must agree with scoring the test split through
/// `predict_batch`, and the corner head must evaluate to finite numbers.
fn check_quality(t: &Trained, s: &TrainSetup, checks: &mut Checks) {
    let clips: Vec<Clip> = s.iccad.test.iter().map(|x| x.clip.clone()).collect();
    let labels: Vec<bool> = s.iccad.test.iter().map(|x| x.hotspot).collect();
    match (
        t.detector.evaluate(&s.iccad.test),
        t.detector.predict_batch(&clips),
    ) {
        (Ok(eval), Ok(scores)) => {
            let flagged: Vec<bool> = scores.iter().map(|&p| p > 0.5).collect();
            let detected = flagged
                .iter()
                .zip(&labels)
                .filter(|(f, l)| **f && **l)
                .count();
            let false_alarms = flagged
                .iter()
                .zip(&labels)
                .filter(|(f, l)| **f && !**l)
                .count();
            checks.check(
                eval.true_detections == detected && eval.false_alarms == false_alarms,
                || format!("evaluate {eval:?} disagrees with predict_batch"),
            );
        }
        (Err(e), _) | (_, Err(e)) => checks.check(false, || format!("evaluation failed: {e}")),
    }
    checks.check(
        t.corner_eval.as_ref().is_some_and(|e| {
            e.corner_accuracy.is_finite()
                && e.severity_mae.is_finite()
                && e.hotspot_accuracy.is_finite()
        }),
        || format!("corner head evaluation {:?}", t.corner_eval),
    );
}

fn traced(
    s: &TrainSetup,
    seeds: &Seeds,
    seconds: f64,
    mut first: Trained,
    steps: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new(true);
    let detector = &mut first.detector;
    let pipeline = detector.pipeline().clone();

    // Feature extraction of the training split, through the raster and
    // DCT layers' public calls.
    let spec = hotspot_dct::FeatureTensorSpec::new(pipeline.grid_dim(), pipeline.coefficients())
        .expect("pipeline geometry is valid");
    let open = tracer.begin("train.extract", 0);
    let mut mpx = 0.0;
    for (i, sample) in s.iccad.train.iter().enumerate() {
        let span = tracer.begin("geometry.raster", i as u64);
        let image = raster::rasterize_clip(&sample.clip.normalized(), pipeline.resolution_nm());
        tracer.end(span);
        let span = tracer.begin("dct.transform", i as u64);
        let tensor = hotspot_dct::extract_feature_tensor(&image, &spec);
        tracer.end(span);
        std::hint::black_box(tensor.is_ok());
        mpx += (image.width() * image.height()) as f64 * 1e-6;
    }
    tracer.end(open);
    let clips = s.iccad.train.len();
    let blocks = clips * pipeline.grid_dim() * pipeline.grid_dim();
    let dct_s = tracer.total_s("dct.transform");
    layers.set("geometry.raster_s", tracer.total_s("geometry.raster"));
    layers.set("geometry.raster_mpx", mpx);
    layers.set("dct.transform_s", dct_s);
    layers.set("dct.blocks", blocks as f64);
    layers.set("dct.ns_per_block", dct_s * 1e9 / blocks as f64);
    layers.set("train.extract_s", tracer.total_s("train.extract"));
    let train_clips: Vec<Clip> = s.iccad.train.iter().map(|x| x.clip.clone()).collect();
    layers.set(
        "feature.extract_us_per_clip",
        extract_us_per_clip(detector, &train_clips),
    );

    // One traced training operation, against the untraced first one.
    let t = Instant::now();
    let open = tracer.begin("train.op", 1);
    let span = tracer.begin("train.fit", 1);
    let fit = HotspotDetector::fit(
        &s.iccad.train,
        &setup::detector_config(STEPS, ROUNDS, seeds.train),
    );
    tracer.end(span);
    let span = tracer.begin("corners.fit", 1);
    let head = CornerHead::fit(&s.corners.train, &corner_config(seeds));
    tracer.end(span);
    tracer.end(open);
    let traced_s = t.elapsed().as_secs_f64();
    out.checks.check(fit.is_ok() && head.is_ok(), || {
        "traced training failed".into()
    });
    if let Ok(mut again) = fit {
        out.checks.check(
            setup::weights_fingerprint(&mut again) == setup::weights_fingerprint(detector),
            || "traced training differs from the untraced one".into(),
        );
    }
    let fit_s = tracer.total_s("train.fit");
    layers.set("train.steps", steps as f64);
    layers.set("train.step_ms", fit_s * 1e3 / steps as f64);
    layers.set(
        "train.rounds",
        detector.training_report().rounds.len() as f64,
    );
    layers.set("corners.fit_s", tracer.total_s("corners.fit"));
    layers.set(
        "trace.overhead_share",
        traced_s / (first.fit_s + first.corners_s) - 1.0,
    );

    let span = tracer.begin("train.eval", 0);
    let eval = detector.evaluate(&s.iccad.test);
    tracer.end(span);
    layers.set("train.eval_s", tracer.total_s("train.eval"));
    if let Ok(eval) = eval {
        layers.set("train.accuracy", eval.accuracy);
        layers.set("train.false_alarms", eval.false_alarms as f64);
    }

    // Batched inference over the test split.
    let in_shape = pipeline.input_shape();
    let feats: Vec<f32> = s
        .iccad
        .test
        .iter()
        .flat_map(|x| {
            pipeline
                .extract(&x.clip)
                .expect("test clips extract")
                .as_slice()
                .to_vec()
        })
        .collect();
    let n = s.iccad.test.len();
    let mut scorer = BatchScorer::new();
    let net = detector.network();
    let g0 = gemm::gemm_call_count();
    let span = tracer.begin("nn.infer", 0);
    std::hint::black_box(scorer.infer_ragged(net, &feats, &in_shape, n));
    tracer.end(span);
    let gemm_calls = gemm::gemm_call_count() - g0;
    let infer_s = tracer.total_s("nn.infer");
    layers.set("nn.infer_s", infer_s);
    layers.set("nn.cnn_windows_per_s", n as f64 / infer_s);
    layers.set("nn.batch", scorer.block_cap(net, &in_shape) as f64);
    layers.set("nn.gemm_calls_per_window", gemm_calls as f64 / n as f64);
    let cost = costs::per_window(detector.network_mut(), &in_shape);
    layers.set("nn.mflop_per_window", cost.flops * 1e-6);
    layers.set("nn.kbyte_per_window", cost.bytes / 1024.0);
    layers.set("nn.gflops", cost.flops * n as f64 / infer_s * 1e-9);

    // Deploy: serve the trained model to open-loop traffic of test clips.
    let test_clips: Vec<Clip> = s.iccad.test.iter().map(|x| x.clip.clone()).collect();
    serve::session(
        detector,
        &test_clips,
        seeds,
        seconds,
        &mut tracer,
        layers,
        &mut out.checks,
    );
    write_trace(&tracer, "train-biased", "trace_file", out);
}
