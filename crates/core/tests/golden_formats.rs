//! Golden-byte pins for the persisted formats: an HSNN parameter blob, an
//! HSCK v2 checkpoint carrying both optional sections, an `hsmodel` file
//! and an `hsprefilter` file (which embeds `hscal`). Each is built from
//! literal, backend-independent values and must encode to exactly the
//! committed bytes under `tests/golden/`; the committed bytes must decode
//! back to the same value. The model and prefilter CRCs are pinned too,
//! because they are the provenance identity in every scan report and
//! serve reply.
//!
//! Re-bless after an intentional format change with:
//! `HOTSPOT_BLESS=1 cargo test -p hotspot-core --test golden_formats`

use hotspot_baselines::{AdaBoost, CalibratedAdaBoost, DecisionStump};
use hotspot_core::biased::BiasRound;
use hotspot_core::mgd::{TrainPoint, TrainerState};
use hotspot_core::TrainReport;
use hotspot_core::{ActiveRoundState, ActiveState, CascadePrefilter, Checkpoint, ModelFile};
use hotspot_nn::layers::Dense;
use hotspot_nn::serialize::{assert_corruption_detected, ParameterBlob};
use hotspot_nn::Network;
use std::fs;
use std::path::PathBuf;

/// `ModelFile::crc()` of the golden model: its provenance identity.
const MODEL_CRC: u32 = 0x4d50_ee49;
/// `CascadePrefilter::crc()` of the golden prefilter.
const PREFILTER_CRC: u32 = 0x8926_92c4;

/// Asserts `encoded` equals the committed golden file `name` (or writes
/// it under `HOTSPOT_BLESS`) and returns the committed bytes.
fn golden(name: &str, encoded: &[u8]) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("HOTSPOT_BLESS").is_some() {
        fs::write(&path, encoded).expect("write golden file");
        eprintln!("blessed {}", path.display());
    }
    let committed = fs::read(&path).expect("committed golden file under tests/golden/");
    assert!(
        committed == encoded,
        "{name}: encoding diverged from the committed golden bytes. If the format \
         change is intentional, bump its version and re-bless with: \
         HOTSPOT_BLESS=1 cargo test -p hotspot-core --test golden_formats"
    );
    committed
}

fn blob() -> ParameterBlob {
    let mut net = Network::new();
    net.push(Dense::new(3, 2, 7));
    ParameterBlob::from_network(&mut net)
}

fn history() -> Vec<TrainPoint> {
    vec![
        TrainPoint {
            step: 0,
            elapsed_s: 0.25,
            val_accuracy: 0.5,
        },
        TrainPoint {
            step: 100,
            elapsed_s: 1.5,
            val_accuracy: 0.875,
        },
    ]
}

fn checkpoint() -> Checkpoint {
    let params = blob();
    Checkpoint {
        seed: 2017,
        threads: 2,
        tag: "res=10 grid=12 k=4".into(),
        params: params.clone(),
        net_rngs: vec![[1, 2, 3, 4]],
        completed: vec![BiasRound {
            epsilon: 0.0,
            report: TrainReport {
                history: history(),
                best_val_accuracy: 0.875,
                steps: 150,
                train_time_s: 2.0,
            },
        }],
        trainer: Some(TrainerState {
            epsilon: 0.1,
            steps: 75,
            lr: 5e-4,
            lr_counter: 33,
            batch_rng: [5, 6, 7, 8],
            sampler_rng: [9, 10, 11, 12],
            params: params.clone(),
            best: params,
            best_acc: 0.625,
            bad_checks: 1,
            history: history(),
            elapsed_s: 1.25,
            net_rngs: vec![[13, 14, 15, 16]],
            replica_rngs: vec![[17, 18, 19, 20], [21, 22, 23, 24]],
        }),
        active: Some(ActiveState {
            rounds: vec![
                ActiveRoundState {
                    selected: vec![3, 17, 42],
                    labels: vec![true, false, true],
                },
                ActiveRoundState {
                    selected: vec![5],
                    labels: vec![false],
                },
            ],
            labeler_calls: 4,
        }),
    }
}

fn model() -> ModelFile {
    ModelFile {
        resolution_nm: 10,
        grid: 12,
        k: 4,
        blob: blob(),
    }
}

fn prefilter() -> CascadePrefilter {
    let stump = |feature, threshold, polarity| DecisionStump {
        feature,
        threshold,
        polarity,
    };
    let ensemble = AdaBoost::from_parts(
        vec![
            (0.75, stump(4, 0.125, 1.0)),
            (0.5, stump(0, 0.5, -1.0)),
            (0.25, stump(3, -0.0625, 1.0)),
        ],
        5,
    )
    .expect("stump features are within the 2x2 grid + mean");
    CascadePrefilter::new(CalibratedAdaBoost::new(ensemble, -0.25, 0.01, 0.0), 2)
        .expect("feature length matches the grid")
}

#[test]
fn hsnn_blob_is_pinned() {
    let value = blob();
    let committed = golden("params.hsnn", &value.to_bytes());
    assert_eq!(ParameterBlob::from_bytes(&committed).unwrap(), value);
}

#[test]
fn hsck_checkpoint_is_pinned() {
    let value = checkpoint();
    let committed = golden("run.hsck", &value.to_bytes());
    assert_eq!(Checkpoint::from_bytes(&committed).unwrap(), value);
}

#[test]
fn hsmodel_file_and_crc_are_pinned() {
    let value = model();
    let committed = golden("model.hsmodel", &value.to_bytes());
    assert_eq!(ModelFile::from_bytes(&committed).unwrap(), value);
    assert_eq!(value.crc(), MODEL_CRC, "got {:#010x}", value.crc());
}

#[test]
fn hsprefilter_file_and_crc_are_pinned() {
    let value = prefilter();
    let committed = golden("prefilter.hsprefilter", &value.to_bytes());
    assert_eq!(CascadePrefilter::from_bytes(&committed).unwrap(), value);
    assert_eq!(value.crc(), PREFILTER_CRC, "got {:#010x}", value.crc());
}

#[test]
fn hsprefilter_corruption_is_rejected_or_identical() {
    // Like the embedded `hscal`, only cutting the final newline decodes.
    let value = prefilter();
    let decoded =
        assert_corruption_detected(&value.to_bytes(), &value, CascadePrefilter::from_bytes);
    assert_eq!(decoded.truncations, 1);
}
