//! Property tests for the model-file wire format: serialisation
//! round-trips exactly, and corrupted bytes are either rejected or decode
//! to the identical model — never silently to a different one.

use hotspot_core::ModelFile;
use hotspot_nn::layers::Dense;
use hotspot_nn::serialize::ParameterBlob;
use hotspot_nn::Network;
use proptest::prelude::*;

/// A parameter blob of `ins * outs + outs` values cycled from `weights`.
fn blob_with(weights: &[f32], ins: usize, outs: usize) -> ParameterBlob {
    let mut net = Network::new();
    net.push(Dense::new(ins, outs, 0));
    let mut source = weights.iter().cycle();
    net.visit_params(&mut |w, _| {
        for v in w.iter_mut() {
            *v = *source.next().expect("cycled iterator never ends");
        }
    });
    ParameterBlob::from_network(&mut net)
}

fn arb_model() -> impl Strategy<Value = ModelFile> {
    (
        (1u32..=60, 4usize..=16, 1usize..=8),
        (1usize..=5, 1usize..=4),
        proptest::collection::vec(
            prop_oneof![
                Just(0.0f32),
                Just(-0.0f32),
                Just(f32::MIN_POSITIVE),
                Just(1.0e30f32),
                -8.0f32..8.0,
            ],
            1..32,
        ),
    )
        .prop_map(
            |((resolution_nm, grid, k), (ins, outs), weights)| ModelFile {
                resolution_nm,
                grid,
                k,
                blob: blob_with(&weights, ins, outs),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_exact(model in arb_model()) {
        let bytes = model.to_bytes();
        let back = ModelFile::from_bytes(&bytes).expect("own output parses");
        prop_assert_eq!(&back, &model);
        // Re-encoding is byte-stable.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn any_truncation_is_rejected(model in arb_model(), cut in 0.0f64..1.0) {
        let bytes = model.to_bytes();
        let len = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
        prop_assert!(ModelFile::from_bytes(&bytes[..len]).is_err());
    }

    #[test]
    fn corruption_never_yields_a_different_model(
        model in arb_model(),
        pos in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let bytes = model.to_bytes();
        let offset = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
        let mut bad = bytes.clone();
        bad[offset] ^= mask;
        // Decoding must never panic; a successful decode is only
        // acceptable when the damage was semantically invisible (e.g. hex
        // case in the crc line) and the model is exactly the one written.
        if let Ok(decoded) = ModelFile::from_bytes(&bad) {
            prop_assert_eq!(decoded, model);
        }
    }
}
