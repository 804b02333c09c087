//! A calibrated AdaBoost operating point, with durable serialisation.
//!
//! A cascade prefilter is more than a trained ensemble: it is an ensemble
//! *plus* the decision threshold on its signed margin that was calibrated
//! (on held-out data) to a target false-negative rate. This module bundles
//! the two — with the calibration provenance — and serialises the bundle
//! **bit-exactly**, so a reloaded prefilter clears and forwards exactly the
//! same windows as the one that was calibrated.
//!
//! # File format (`hscal`, version 1)
//!
//! A UTF-8 text file of `key value` lines. Floating-point values are
//! written as the hexadecimal IEEE-754 bit pattern (`f32`/`f64` as noted),
//! not as decimal strings — round-tripping decimals can perturb the margin
//! comparison at the calibrated operating point. The final `crc` line
//! holds a CRC-32 (IEEE) over every preceding byte, so corruption is
//! reported instead of silently loading a different operating point.
//!
//! ```text
//! hscal 1
//! feature_len 144
//! threshold 0x3e4ccccd            (f32 bits: calibrated margin threshold)
//! target_fnr 0x3f847ae147ae147b   (f64 bits)
//! achieved_fnr 0x0000000000000000 (f64 bits)
//! stumps 2
//! stump 0x3fe0000000000000 5 0x3e4ccccd 0x3f800000
//! stump 0x3fd0000000000000 7 0xbdcccccd 0xbf800000
//! crc 0x1a2b3c4d
//! ```
//!
//! Each `stump` line is `alpha(f64 bits) feature threshold(f32 bits)
//! polarity(f32 bits)` in boosting order.

use crate::adaboost::AdaBoost;
use crate::classifier::Classifier;
use crate::stump::DecisionStump;
use crate::BaselineError;
use hotspot_nn::serialize::{crc32, dec_field, hex_u32_field, hex_u64_field};

/// Serialisation format version written by [`CalibratedAdaBoost::to_bytes`].
const VERSION: u32 = 1;

/// An [`AdaBoost`] ensemble pinned to a calibrated margin threshold.
///
/// The decision is `margin > threshold` — a sample whose signed ensemble
/// margin clears the threshold is *flagged* (forwarded to the next cascade
/// stage); one at or below it is *cleared*. The threshold is chosen on
/// held-out data so the flagged set misses at most `target_fnr` of true
/// hotspots; `achieved_fnr` records what the sweep actually measured there.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedAdaBoost {
    model: AdaBoost,
    threshold: f32,
    target_fnr: f64,
    achieved_fnr: f64,
}

impl CalibratedAdaBoost {
    /// Bundles a trained ensemble with its calibrated operating point.
    pub fn new(model: AdaBoost, threshold: f32, target_fnr: f64, achieved_fnr: f64) -> Self {
        CalibratedAdaBoost {
            model,
            threshold,
            target_fnr,
            achieved_fnr,
        }
    }

    /// The underlying ensemble.
    pub fn model(&self) -> &AdaBoost {
        &self.model
    }

    /// The calibrated margin threshold (decision is `margin > threshold`).
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The false-negative rate the calibration targeted.
    #[inline]
    pub fn target_fnr(&self) -> f64 {
        self.target_fnr
    }

    /// The false-negative rate measured on the held-out calibration split.
    #[inline]
    pub fn achieved_fnr(&self) -> f64 {
        self.achieved_fnr
    }

    /// Overrides the operating point (e.g. to re-pick a threshold from a
    /// sweep without retraining, or to force an all-pass prefilter with
    /// `f32::NEG_INFINITY`).
    #[must_use]
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Checked signed margin of a feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::FeatureLengthMismatch`] for a wrong-length
    /// vector.
    pub fn try_margin(&self, features: &[f32]) -> Result<f32, BaselineError> {
        self.model.try_score(features)
    }

    /// Whether a margin clears the calibrated threshold (is flagged for
    /// the next cascade stage).
    #[inline]
    pub fn flags(&self, margin: f32) -> bool {
        margin > self.threshold
    }

    /// Serialises the calibrated model (see the module docs for the
    /// format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = format!(
            "hscal {VERSION}\nfeature_len {}\nthreshold {:#010x}\ntarget_fnr {:#018x}\nachieved_fnr {:#018x}\nstumps {}\n",
            self.model.feature_len(),
            self.threshold.to_bits(),
            self.target_fnr.to_bits(),
            self.achieved_fnr.to_bits(),
            self.model.round_count(),
        );
        for (alpha, stump) in self.model.stumps() {
            s.push_str(&format!(
                "stump {:#018x} {} {:#010x} {:#010x}\n",
                alpha.to_bits(),
                stump.feature,
                stump.threshold.to_bits(),
                stump.polarity.to_bits(),
            ));
        }
        let crc = crc32(s.as_bytes());
        s.push_str(&format!("crc {crc:#010x}\n"));
        s.into_bytes()
    }

    /// Parses bytes produced by [`CalibratedAdaBoost::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::ModelFormat`] on a malformed file, an
    /// unsupported version, a stump-count disagreement, or a checksum
    /// mismatch, and [`BaselineError::FeatureLengthMismatch`] when a stump
    /// references a feature outside the declared length.
    pub fn from_bytes(data: &[u8]) -> Result<Self, BaselineError> {
        decode(data).map_err(BaselineError::ModelFormat)?
    }
}

/// Parses an `hscal` file. The outer error is a malformed file; the inner
/// one is an ensemble whose stumps do not fit the declared feature length.
fn decode(data: &[u8]) -> Result<Result<CalibratedAdaBoost, BaselineError>, String> {
    let text = std::str::from_utf8(data).map_err(|_| "file is not UTF-8")?;
    let crc_at = text.rfind("crc ").ok_or("missing crc line")?;
    let declared = hex_u32_field("crc", text[crc_at..].split_whitespace().nth(1))?;
    let actual = crc32(&text.as_bytes()[..crc_at]);
    if declared != actual {
        return Err(format!(
            "checksum mismatch: stored {declared:#010x}, computed {actual:#010x}"
        ));
    }
    let mut version = None;
    let mut feature_len = None;
    let mut threshold = None;
    let mut target_fnr = None;
    let mut achieved_fnr = None;
    let mut declared_stumps = None;
    let mut stumps: Vec<(f64, DecisionStump)> = Vec::new();
    for line in text[..crc_at].lines() {
        let mut parts = line.split_whitespace();
        let Some(key) = parts.next() else { continue };
        match key {
            "hscal" => version = Some(dec_field::<u32>(key, parts.next())?),
            "feature_len" => feature_len = Some(dec_field(key, parts.next())?),
            "threshold" => threshold = Some(f32::from_bits(hex_u32_field(key, parts.next())?)),
            "target_fnr" => target_fnr = Some(f64::from_bits(hex_u64_field(key, parts.next())?)),
            "achieved_fnr" => {
                achieved_fnr = Some(f64::from_bits(hex_u64_field(key, parts.next())?));
            }
            "stumps" => declared_stumps = Some(dec_field::<usize>(key, parts.next())?),
            "stump" => {
                let alpha = f64::from_bits(hex_u64_field("stump alpha", parts.next())?);
                let feature = dec_field("stump feature", parts.next())?;
                let stump = DecisionStump {
                    feature,
                    threshold: f32::from_bits(hex_u32_field("stump threshold", parts.next())?),
                    polarity: f32::from_bits(hex_u32_field("stump polarity", parts.next())?),
                };
                stumps.push((alpha, stump));
            }
            other => return Err(format!("unknown header key '{other}'")),
        }
    }
    match version {
        Some(VERSION) => {}
        Some(v) => return Err(format!("unsupported version {v} (expected {VERSION})")),
        None => return Err("missing hscal version".into()),
    }
    let feature_len = feature_len.ok_or("missing feature_len")?;
    let declared_stumps = declared_stumps.ok_or("missing stumps")?;
    if stumps.len() != declared_stumps {
        return Err(format!(
            "declared {declared_stumps} stumps, found {}",
            stumps.len()
        ));
    }
    let threshold = threshold.ok_or("missing threshold")?;
    let target_fnr = target_fnr.ok_or("missing target_fnr")?;
    let achieved_fnr = achieved_fnr.ok_or("missing achieved_fnr")?;
    Ok(AdaBoost::from_parts(stumps, feature_len)
        .map(|model| CalibratedAdaBoost::new(model, threshold, target_fnr, achieved_fnr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaboost::AdaBoostConfig;
    use hotspot_nn::serialize::assert_corruption_detected;

    fn sample() -> CalibratedAdaBoost {
        let samples = vec![
            vec![0.1f32, 0.9],
            vec![0.2, 0.7],
            vec![0.8, 0.2],
            vec![0.9, 0.1],
        ];
        let labels = vec![false, false, true, true];
        let model = AdaBoost::fit(
            &samples,
            &labels,
            &AdaBoostConfig {
                rounds: 8,
                ..AdaBoostConfig::default()
            },
        )
        .unwrap();
        CalibratedAdaBoost::new(model, 0.125, 0.01, 0.0)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let c = sample();
        let back = CalibratedAdaBoost::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.threshold().to_bits(), c.threshold().to_bits());
        assert_eq!(back.target_fnr().to_bits(), c.target_fnr().to_bits());
        // Scoring the reloaded model is bit-identical.
        for f in [[0.15f32, 0.8], [0.85, 0.15]] {
            assert_eq!(
                back.try_margin(&f).unwrap().to_bits(),
                c.try_margin(&f).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn nonfinite_thresholds_roundtrip() {
        // An all-pass override must survive serialisation.
        let c = sample().with_threshold(f32::NEG_INFINITY);
        let back = CalibratedAdaBoost::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.threshold(), f32::NEG_INFINITY);
        assert!(back.flags(-1.0e30));
    }

    #[test]
    fn flags_is_strictly_greater() {
        let c = sample();
        assert!(c.flags(0.126));
        assert!(!c.flags(0.125));
        assert!(!c.flags(0.124));
    }

    #[test]
    fn every_corruption_is_rejected_or_identical() {
        // Cutting only the final newline leaves the content intact, so the
        // decode legitimately succeeds — but then it must be *identical*.
        let c = sample();
        let decoded = assert_corruption_detected(&c.to_bytes(), &c, CalibratedAdaBoost::from_bytes);
        assert_eq!(decoded.truncations, 1);
    }

    #[test]
    fn stump_count_disagreement_is_rejected() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        // Drop one stump line but keep the declared count (and re-CRC so
        // only the count check can object).
        let crc_at = text.rfind("crc ").unwrap();
        let body: String = text[..crc_at]
            .lines()
            .filter({
                let mut dropped = false;
                move |l| {
                    if !dropped && l.starts_with("stump ") {
                        dropped = true;
                        false
                    } else {
                        true
                    }
                }
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let crc = crc32(body.as_bytes());
        let bad = format!("{body}crc {crc:#010x}\n");
        let err = CalibratedAdaBoost::from_bytes(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("stumps"), "got: {err}");
    }

    #[test]
    fn out_of_range_stump_feature_is_rejected() {
        let c = sample();
        let text = String::from_utf8(c.to_bytes()).unwrap();
        let crc_at = text.rfind("crc ").unwrap();
        let body = text[..crc_at].replace("feature_len 2", "feature_len 0");
        // Same byte length, so the stump lines are untouched; re-CRC.
        let crc = crc32(body.as_bytes());
        let bad = format!("{body}crc {crc:#010x}\n");
        assert!(matches!(
            CalibratedAdaBoost::from_bytes(bad.as_bytes()),
            Err(BaselineError::FeatureLengthMismatch { .. })
        ));
    }
}
