//! Versioned suite manifests: deterministic fingerprints of a generated
//! benchmark.
//!
//! A manifest is a small line-oriented text document pinning everything a
//! regeneration must reproduce byte-for-byte: the spec identity (name,
//! recipe version, seed), the corner-label schema, per-split sample counts
//! and content CRCs (clips, labels and — when present — corner labels,
//! each over the exact bytes the CLI writes to disk), per-family draw
//! statistics, and a total CRC over the manifest body itself. The golden
//! regression test commits a manifest for [`crate::suite::SuiteSpec::golden_mini`]
//! and asserts regeneration reproduces it exactly; `hotspot gen` writes a
//! manifest next to every generated suite.
//!
//! The format is deliberately hand-rolled text (one `key value...` record
//! per line, `end` terminated) so diffs are reviewable and parsing has no
//! serde dependency.

use crate::dataset::{write_corner_labels, Dataset};
use crate::suite::BenchmarkData;
use hotspot_geometry::io::write_clips;
use hotspot_geometry::Clip;
use hotspot_nn::serialize::{crc32, dec_field, hex_u32_field};
use std::error::Error;
use std::fmt;

/// Manifest format version (the `hotspot-suite-manifest v<N>` header).
pub const MANIFEST_FORMAT: u32 = 1;

/// Content CRC of a single clip: CRC-32 over its text serialization (the
/// exact bytes [`write_clips`] emits for it).
pub fn clip_crc(clip: &Clip) -> u32 {
    let mut bytes = Vec::new();
    write_clips(&mut bytes, std::iter::once(clip)).expect("in-memory clip serialization");
    crc32(&bytes)
}

fn split_clips_crc(split: &Dataset) -> u32 {
    let mut bytes = Vec::new();
    write_clips(&mut bytes, split.iter().map(|s| &s.clip)).expect("in-memory clip serialization");
    crc32(&bytes)
}

fn split_labels_crc(split: &Dataset) -> u32 {
    // The exact bytes `hotspot gen` writes to `<split>.labels`.
    let labels: String = split
        .iter()
        .map(|s| if s.hotspot { "1\n" } else { "0\n" })
        .collect();
    crc32(labels.as_bytes())
}

fn split_corners_crc(split: &Dataset) -> Option<u32> {
    split.corner_schema()?;
    let labels: Vec<_> = split
        .iter()
        .map(|s| s.corners.clone().expect("uniform corner schema"))
        .collect();
    let mut bytes = Vec::new();
    write_corner_labels(&mut bytes, &labels).expect("in-memory corner serialization");
    Some(crc32(&bytes))
}

/// One split's entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitEntry {
    /// Split name (`train` / `test`).
    pub split: String,
    /// Sample count.
    pub count: usize,
    /// Hotspot count.
    pub hotspots: usize,
    /// CRC-32 of the split's clip file bytes.
    pub clips_crc: u32,
    /// CRC-32 of the split's boolean label file bytes.
    pub labels_crc: u32,
    /// CRC-32 of the split's corner-label file bytes, when the suite has a
    /// corner schema.
    pub corners_crc: Option<u32>,
}

/// One pattern family's entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyEntry {
    /// Family name ([`crate::patterns::PatternKind::name`]).
    pub family: String,
    /// Total draws from the family's stream.
    pub drawn: usize,
    /// Kept hotspot clips.
    pub kept_hs: usize,
    /// Kept non-hotspot clips.
    pub kept_nhs: usize,
    /// CRC-32 over the kept clips' content CRCs in draw order.
    pub crc: u32,
}

/// A parsed or freshly computed suite manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Suite name.
    pub name: String,
    /// Suite recipe version ([`crate::suite::SUITE_VERSION`] at build time).
    pub suite_version: u32,
    /// Master seed the suite regenerates from.
    pub seed: u64,
    /// Corner-grid schema string, or `None` for plain boolean labels.
    pub corner_schema: Option<String>,
    /// Split entries (train first).
    pub splits: Vec<SplitEntry>,
    /// Per-family entries, in mix order.
    pub families: Vec<FamilyEntry>,
    /// Augmented variants appended to the training split.
    pub augmented: usize,
    /// CRC-32 over the rendered manifest body (all lines above the
    /// `total-crc` record).
    pub total_crc: u32,
}

/// Manifest parse failures, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A line was malformed or a required record missing.
    Malformed {
        /// 1-based line number (0 = whole document).
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The document's `total-crc` does not match its body.
    TotalCrcMismatch {
        /// CRC recorded in the document.
        recorded: u32,
        /// CRC of the body as parsed.
        computed: u32,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Malformed { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
            ManifestError::TotalCrcMismatch { recorded, computed } => write!(
                f,
                "manifest total-crc 0x{recorded:08x} does not match body crc 0x{computed:08x}"
            ),
        }
    }
}

impl Error for ManifestError {}

impl Manifest {
    /// Computes the manifest of a generated benchmark.
    pub fn from_data(data: &BenchmarkData) -> Manifest {
        let splits = [("train", &data.train), ("test", &data.test)]
            .into_iter()
            .map(|(name, split)| SplitEntry {
                split: name.to_string(),
                count: split.len(),
                hotspots: split.hotspot_count(),
                clips_crc: split_clips_crc(split),
                labels_crc: split_labels_crc(split),
                corners_crc: split_corners_crc(split),
            })
            .collect();
        let families = data
            .families
            .iter()
            .map(|f| FamilyEntry {
                family: f.kind.name().to_string(),
                drawn: f.drawn,
                kept_hs: f.kept_hs,
                kept_nhs: f.kept_nhs,
                crc: f.crc,
            })
            .collect();
        let mut m = Manifest {
            name: data.spec.name.clone(),
            suite_version: data.spec.version,
            seed: data.spec.seed,
            corner_schema: data.spec.corner_grid.as_ref().map(|g| g.schema()),
            splits,
            families,
            augmented: data.augmented,
            total_crc: 0,
        };
        m.total_crc = crc32(m.render_body().as_bytes());
        m
    }

    fn render_body(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("hotspot-suite-manifest v{MANIFEST_FORMAT}\n"));
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("suite-version {}\n", self.suite_version));
        out.push_str(&format!("seed {}\n", self.seed));
        match &self.corner_schema {
            Some(schema) => out.push_str(&format!("corner-schema {schema}\n")),
            None => out.push_str("corner-schema none\n"),
        }
        for s in &self.splits {
            out.push_str(&format!(
                "split {} count {} hotspots {} clips-crc {:08x} labels-crc {:08x}",
                s.split, s.count, s.hotspots, s.clips_crc, s.labels_crc
            ));
            if let Some(c) = s.corners_crc {
                out.push_str(&format!(" corners-crc {c:08x}"));
            }
            out.push('\n');
        }
        for f in &self.families {
            out.push_str(&format!(
                "family {} drawn {} kept-hs {} kept-nhs {} crc {:08x}\n",
                f.family, f.drawn, f.kept_hs, f.kept_nhs, f.crc
            ));
        }
        out.push_str(&format!("augmented {}\n", self.augmented));
        out
    }

    /// Renders the manifest as its canonical text document.
    pub fn render(&self) -> String {
        let mut out = self.render_body();
        out.push_str(&format!("total-crc {:08x}\n", self.total_crc));
        out.push_str("end\n");
        out
    }

    /// Parses a manifest document, verifying the `total-crc` record
    /// against the body.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Malformed`] with a 1-based line number on any
    /// structural problem; [`ManifestError::TotalCrcMismatch`] when the
    /// document was edited or truncated.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let missing = |record: &str| ManifestError::Malformed {
            line: 0,
            reason: format!("missing '{record}' record"),
        };
        let mut name = None;
        let mut suite_version = None;
        let mut seed = None;
        let mut corner_schema: Option<Option<String>> = None;
        let mut splits = Vec::new();
        let mut families = Vec::new();
        let mut augmented = None;
        let mut total_crc = None;
        let mut body = String::new();
        let mut saw_end = false;

        let mut record = |lineno: usize, line: &str| -> Result<(), String> {
            if saw_end {
                return Err("content after 'end'".into());
            }
            let mut fields = line.split_whitespace();
            let key = fields.next().ok_or("empty line")?;
            if !matches!(key, "total-crc" | "end") {
                body.push_str(line);
                body.push('\n');
            }
            match key {
                "hotspot-suite-manifest" => {
                    let v = fields.next().ok_or("missing format version")?;
                    if lineno != 1 {
                        return Err("header must be the first line".into());
                    }
                    if v != format!("v{MANIFEST_FORMAT}") {
                        return Err(format!("unsupported format '{v}'"));
                    }
                }
                "name" => name = Some(fields.next().ok_or("missing name")?.to_string()),
                "suite-version" => suite_version = Some(dec_field(key, fields.next())?),
                "seed" => seed = Some(dec_field(key, fields.next())?),
                "corner-schema" => {
                    let v = fields.next().ok_or("missing corner schema")?;
                    corner_schema = Some((v != "none").then(|| v.to_string()));
                }
                "split" => {
                    let split = fields.next().ok_or("missing split name")?.to_string();
                    let count = dec_field("count", keyed(&mut fields, "count")?)?;
                    let hotspots = dec_field("hotspots", keyed(&mut fields, "hotspots")?)?;
                    let clips_crc = hex_u32_field("clips-crc", keyed(&mut fields, "clips-crc")?)?;
                    let labels_crc =
                        hex_u32_field("labels-crc", keyed(&mut fields, "labels-crc")?)?;
                    let corners_crc = match fields.next() {
                        None => None,
                        Some("corners-crc") => Some(hex_u32_field("corners-crc", fields.next())?),
                        Some(other) => return Err(format!("unexpected field '{other}'")),
                    };
                    splits.push(SplitEntry {
                        split,
                        count,
                        hotspots,
                        clips_crc,
                        labels_crc,
                        corners_crc,
                    });
                }
                "family" => {
                    let family = fields.next().ok_or("missing family name")?.to_string();
                    families.push(FamilyEntry {
                        family,
                        drawn: dec_field("drawn", keyed(&mut fields, "drawn")?)?,
                        kept_hs: dec_field("kept-hs", keyed(&mut fields, "kept-hs")?)?,
                        kept_nhs: dec_field("kept-nhs", keyed(&mut fields, "kept-nhs")?)?,
                        crc: hex_u32_field("crc", keyed(&mut fields, "crc")?)?,
                    });
                }
                "augmented" => augmented = Some(dec_field(key, fields.next())?),
                "total-crc" => total_crc = Some(hex_u32_field(key, fields.next())?),
                "end" => saw_end = true,
                other => return Err(format!("unknown record '{other}'")),
            }
            Ok(())
        };
        for (idx, line) in text.lines().enumerate() {
            record(idx + 1, line).map_err(|reason| ManifestError::Malformed {
                line: idx + 1,
                reason,
            })?;
        }
        if !saw_end {
            return Err(missing("end"));
        }
        let recorded = total_crc.ok_or_else(|| missing("total-crc"))?;
        let computed = crc32(body.as_bytes());
        if recorded != computed {
            return Err(ManifestError::TotalCrcMismatch { recorded, computed });
        }
        Ok(Manifest {
            name: name.ok_or_else(|| missing("name"))?,
            suite_version: suite_version.ok_or_else(|| missing("suite-version"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            corner_schema: corner_schema.ok_or_else(|| missing("corner-schema"))?,
            splits,
            families,
            augmented: augmented.ok_or_else(|| missing("augmented"))?,
            total_crc: recorded,
        })
    }
}

/// The value after an expected field name in a record (`... key value`).
fn keyed<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    key: &str,
) -> Result<Option<&'a str>, String> {
    match fields.next() {
        Some(k) if k == key => Ok(fields.next()),
        other => Err(format!("expected '{key}', found {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteSpec;
    use hotspot_litho::{LithoConfig, LithoSimulator};
    use hotspot_nn::serialize::assert_corruption_detected;

    fn golden_data() -> BenchmarkData {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        SuiteSpec::golden_mini().build(&sim)
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let m = Manifest::from_data(&golden_data());
        let text = m.render();
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_is_deterministic() {
        let a = Manifest::from_data(&golden_data());
        let b = Manifest::from_data(&golden_data());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn corner_suite_manifest_has_corner_records() {
        let m = Manifest::from_data(&golden_data());
        assert!(m.corner_schema.is_some());
        for s in &m.splits {
            assert!(
                s.corners_crc.is_some(),
                "{} split lacks corners-crc",
                s.split
            );
        }
        assert_eq!(m.splits[0].split, "train");
        assert!(m.augmented > 0, "golden suite should augment");
    }

    #[test]
    fn tampered_manifest_fails_crc() {
        let m = Manifest::from_data(&golden_data());
        // Changing any body byte (here the seed digits) breaks total-crc.
        let tampered = m.render().replacen("seed", "seed 9", 1);
        assert!(matches!(
            Manifest::parse(&tampered),
            Err(ManifestError::TotalCrcMismatch { .. })
        ));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Manifest::parse("hotspot-suite-manifest v1\nbogus record\nend\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = Manifest::parse("hotspot-suite-manifest v9\nend\n").unwrap_err();
        assert!(err.to_string().contains("unsupported format"), "{err}");
    }

    #[test]
    fn plain_suite_manifest_has_no_corner_records() {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = SuiteSpec::iccad(0.001).build(&sim);
        let m = Manifest::from_data(&data);
        assert_eq!(m.corner_schema, None);
        assert!(m.splits.iter().all(|s| s.corners_crc.is_none()));
        assert_eq!(m.augmented, 0);
        let text = m.render();
        assert_eq!(Manifest::parse(&text).unwrap(), m);
    }

    /// The committed golden-mini manifest (see `tests/golden.rs`).
    const GOLDEN: &str = include_str!("../tests/golden/mini.manifest");

    #[test]
    fn out_of_range_suite_version_is_malformed() {
        // Re-CRC the body so only the range check can object: 2^32 + 2
        // must not parse as suite version 2.
        let body: String = GOLDEN
            .lines()
            .take_while(|l| !l.starts_with("total-crc"))
            .map(|l| match l.strip_prefix("suite-version ") {
                Some(_) => "suite-version 4294967298\n".to_string(),
                None => format!("{l}\n"),
            })
            .collect();
        let doc = format!("{body}total-crc {:08x}\nend\n", crc32(body.as_bytes()));
        let err = Manifest::parse(&doc).unwrap_err();
        assert!(
            matches!(err, ManifestError::Malformed { line: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn every_corruption_is_rejected_or_identical() {
        let m = Manifest::parse(GOLDEN).unwrap();
        assert_corruption_detected(GOLDEN.as_bytes(), &m, |bytes| {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            Manifest::parse(text).map_err(|e| e.to_string())
        });
    }
}
