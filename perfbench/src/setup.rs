//! Workload inputs, generated from the run seed with the repository's own
//! suite and layout generators, and the models trained on them.
//!
//! Set-up is repeated a few times per run: `setup_s` is the median of the
//! repetitions, and every repetition must reproduce the first one
//! exactly (same weights, same layout), which is one of the run's output
//! checks.

use crate::report::{median, mix, Checks};
use hotspot_core::{
    BiasedLearningConfig, CascadeConfig, CascadePrefilter, DetectorConfig, FeaturePipeline,
    HotspotDetector, MgdConfig,
};
use hotspot_datagen::suite::SuiteSpec;
use hotspot_datagen::LayoutSpec;
use hotspot_geometry::Clip;
use hotspot_litho::{LithoConfig, LithoSimulator};
use std::time::Instant;

/// How many times each run repeats its set-up.
pub const SETUP_REPS: usize = 3;

/// The suite the scan model and prefilter are trained on: every pattern
/// family, like the chip. It is built from the registry's own seed, so
/// every run scans with the same model and prefilter and the run seed
/// varies the chip.
const SCAN_SUITE: &str = "industry3";
/// Training seed of the scan model, fixed for the same reason.
const SCAN_MODEL_SEED: u64 = 42;
const SCAN_SUITE_SCALE: f64 = 0.001;
/// MGD steps of the scan model (a representative network, not a
/// converged one: scan cost does not depend on convergence).
const SCAN_MODEL_STEPS: usize = 40;
/// AdaBoost rounds of the cascade prefilter. On this small suite, 64
/// rounds (the scan bench's setting) over-fit: the zero-miss threshold
/// then falls below the margin of a blank window, and the cascade clears
/// almost nothing.
const PREFILTER_ROUNDS: usize = 32;

/// Seeds derived from the run seed, one per independent input stream.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub run: u64,
    pub suite: u64,
    pub layout: u64,
    pub train: u64,
    pub sample: u64,
}

impl Seeds {
    pub fn new(run: u64) -> Self {
        let stream = |k: u64| mix(run ^ mix(k));
        Seeds {
            run,
            suite: stream(1),
            layout: stream(2),
            train: stream(3),
            sample: stream(4),
        }
    }

    pub fn header(&self) -> String {
        format!(
            "{{\"run\": {}, \"suite\": {}, \"layout\": {}, \"train\": {}, \"sample\": {}}}",
            self.run, self.suite, self.layout, self.train, self.sample
        )
    }
}

pub fn oracle() -> LithoSimulator {
    LithoSimulator::new(LithoConfig::default()).expect("default litho config is valid")
}

/// The paper's detector at its reference geometry (10 nm/px, 12×12
/// blocks, k = 32) trained with MGD and `rounds` biased rounds for a
/// fixed step budget on one thread (early stopping disabled, so every
/// run does the same number of steps).
pub fn detector_config(steps: usize, rounds: usize, seed: u64) -> DetectorConfig {
    let mgd = MgdConfig {
        lr: 2e-3,
        alpha: 0.7,
        decay_step: (steps / 3).max(1),
        batch_size: 16,
        max_steps: steps,
        val_interval: (steps / 4).max(1),
        patience: usize::MAX,
        val_fraction: 0.25,
        seed,
        balanced_sampling: true,
        threads: 1,
    };
    let fine_tune = MgdConfig {
        max_steps: (steps / 4).max(1),
        val_interval: (steps / 16).max(1),
        lr: 1e-3,
        ..mgd.clone()
    };
    DetectorConfig {
        pipeline: FeaturePipeline::default(),
        mgd: mgd.clone(),
        biased: BiasedLearningConfig {
            epsilon_step: 0.1,
            rounds,
            initial: mgd,
            fine_tune,
        },
        ..DetectorConfig::default()
    }
}

/// A registry suite with its generation seed replaced by `seed`.
pub fn seeded_suite(name: &str, scale: f64, seed: u64) -> SuiteSpec {
    let mut spec = SuiteSpec::by_name(name, scale).expect("registry suite");
    spec.seed = seed;
    spec
}

/// Wall times of the set-up stages, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub clips: usize,
    pub layout_s: f64,
    pub total_s: f64,
}

/// The scan workloads' inputs: the detector and cascade prefilter
/// trained on a seeded suite, and the chip to scan.
pub struct ScanSetup {
    pub detector: HotspotDetector,
    pub prefilter: CascadePrefilter,
    pub layout: Clip,
    pub times: SetupTimes,
}

/// Dense tiles kept only on a 1-in-9 lattice (every third tile in both
/// axes), the rest blank: mostly quiet area, as on a real chip.
pub fn sparse_lattice(layout: &Clip) -> Clip {
    let mut clip = Clip::new(layout.window());
    for shape in layout.shapes() {
        let (tx, ty) = (shape.lo().x / 1200, shape.lo().y / 1200);
        if tx % 3 == 0 && ty % 3 == 0 {
            clip.push(*shape);
        }
    }
    clip
}

/// Builds the scan inputs; the chip is `tiles` × `tiles` dense tiles.
pub fn scan_setup(seeds: &Seeds, tiles: usize) -> ScanSetup {
    let start = Instant::now();
    let sim = oracle();
    let spec = SuiteSpec::by_name(SCAN_SUITE, SCAN_SUITE_SCALE).expect("registry suite");
    let data = spec.build(&sim);
    let datagen_s = start.elapsed().as_secs_f64();
    let detector = HotspotDetector::fit(
        &data.train,
        &detector_config(SCAN_MODEL_STEPS, 1, SCAN_MODEL_SEED),
    )
    .expect("detector fits the suite");
    let prefilter = detector
        .train_prefilter(
            &data.train,
            &CascadeConfig {
                grid_dim: 12,
                rounds: PREFILTER_ROUNDS,
                target_fnr: 0.0,
                holdout_fraction: 0.25,
            },
        )
        .expect("prefilter trains on the suite");
    let layout_t = Instant::now();
    let layout = LayoutSpec::uniform(tiles, tiles, seeds.layout).build();
    let layout_s = layout_t.elapsed().as_secs_f64();
    ScanSetup {
        times: SetupTimes {
            datagen_s,
            clips: spec.total(),
            layout_s,
            total_s: start.elapsed().as_secs_f64(),
        },
        detector,
        prefilter,
        layout,
    }
}

/// Order-sensitive fingerprint of a network's weights.
pub fn weights_fingerprint(detector: &mut HotspotDetector) -> u64 {
    let mut h = 0u64;
    detector
        .network_mut()
        .visit_params(&mut |params: &mut [f32], _grads: &mut [f32]| {
            for p in params.iter() {
                h = mix(h ^ u64::from(p.to_bits()));
            }
        });
    h
}

/// Runs `build` [`SETUP_REPS`] times, checks every repetition against
/// the first with `same`, and returns the last result with the median
/// set-up time and every repetition's stage times.
pub fn repeat<T>(
    checks: &mut Checks,
    mut build: impl FnMut() -> T,
    times: impl Fn(&T) -> SetupTimes,
    mut same: impl FnMut(&mut T, &mut T) -> bool,
) -> (T, f64, Vec<SetupTimes>) {
    let mut first = build();
    let mut all = vec![times(&first)];
    let mut last = None;
    for rep in 1..SETUP_REPS {
        // Drop the previous repetition first, so peak memory holds one
        // set-up at a time.
        drop(last.take());
        let mut next = build();
        all.push(times(&next));
        checks.check(same(&mut first, &mut next), || {
            format!("set-up repetition {rep} differs from the first")
        });
        last = Some(next);
    }
    let totals: Vec<f64> = all.iter().map(|t| t.total_s).collect();
    (last.unwrap_or(first), median(&totals), all)
}

/// Median of one stage time over set-up repetitions.
pub fn stage_median(all: &[SetupTimes], stage: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&all.iter().map(stage).collect::<Vec<_>>())
}
