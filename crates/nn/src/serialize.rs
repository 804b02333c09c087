//! Parameter snapshots and the container every persisted format shares.
//!
//! Biased learning fine-tunes a *trained* model repeatedly; snapshots allow
//! keeping the best validation model while training continues, and moving
//! weights between identically-shaped networks.
//!
//! It is also the one container for the suite's five persisted formats
//! (HSNN blob, HSCK checkpoint, `hsmodel`, `hsprefilter`/`hscal`, suite
//! manifest): the [`crc32`], the binary [`Frame`] and payload [`Reader`]
//! of HSNN and HSCK, the `key value` field parsers of the text formats,
//! [`write_atomic`], and the [`assert_corruption_detected`] test harness.
//! Decoders here report failures as message strings; each format maps
//! them into its own error type.

use crate::{Network, NnError};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::fs;
use std::io::Write;
use std::num::ParseIntError;
use std::path::Path;

/// A flat snapshot of every trainable parameter of a network, in layer
/// order.
///
/// # Examples
///
/// ```
/// use hotspot_nn::layers::Dense;
/// use hotspot_nn::serialize::ParameterBlob;
/// use hotspot_nn::Network;
///
/// # fn main() -> Result<(), hotspot_nn::NnError> {
/// let mut a = Network::new();
/// a.push(Dense::new(3, 2, 1));
/// let snapshot = ParameterBlob::from_network(&mut a);
///
/// let mut b = Network::new();
/// b.push(Dense::new(3, 2, 99)); // different init...
/// snapshot.load_into(&mut b)?;  // ...now identical to `a`
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterBlob {
    values: Vec<f32>,
}

/// HSNN blob frame: one declared unit per `f32` (v2 added the payload
/// CRC32).
const BLOB_FRAME: Frame = Frame {
    magic: b"HSNN",
    min_version: 2,
    version: 2,
    unit: 4,
};

impl ParameterBlob {
    /// Snapshots all parameters of `net`.
    pub fn from_network(net: &mut Network) -> Self {
        let mut values = Vec::new();
        net.visit_params(&mut |w, _| values.extend_from_slice(w));
        ParameterBlob { values }
    }

    /// Number of stored parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the blob holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Writes the snapshot back into an identically-shaped network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterCountMismatch`] when the network's
    /// parameter count differs from the blob's.
    pub fn load_into(&self, net: &mut Network) -> Result<(), NnError> {
        let expected = {
            let mut count = 0;
            net.visit_params(&mut |w, _| count += w.len());
            count
        };
        if expected != self.values.len() {
            return Err(NnError::ParameterCountMismatch {
                expected,
                actual: self.values.len(),
            });
        }
        let mut offset = 0usize;
        net.visit_params(&mut |w, _| {
            w.copy_from_slice(&self.values[offset..offset + w.len()]);
            offset += w.len();
        });
        Ok(())
    }

    /// The raw parameter values.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Encodes the snapshot as an HSNN [`Frame`] whose payload is the
    /// little-endian `f32` values and whose declared count is their
    /// number, suitable for writing to a model file.
    ///
    /// The CRC covers the `f32` payload, so any corruption of the stored
    /// values is detected on decode instead of silently loading a
    /// different model.
    pub fn to_bytes(&self) -> bytes::Bytes {
        let mut payload = Vec::with_capacity(4 * self.values.len());
        for &v in &self.values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        BLOB_FRAME.encode(&payload).into()
    }

    /// Decodes a buffer produced by [`ParameterBlob::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Format`] for every rejection of
    /// [`Frame::decode`]: truncation, bad magic/version, a declared count
    /// that disagrees with the payload length, or a checksum mismatch.
    pub fn from_bytes(data: &[u8]) -> Result<Self, NnError> {
        let (_, payload) = BLOB_FRAME.decode(data).map_err(NnError::Format)?;
        let mut reader = Reader::new(payload);
        let values = (0..payload.len() / 4)
            .map(|_| reader.f32())
            .collect::<Result<_, _>>()
            .map_err(NnError::Format)?;
        Ok(ParameterBlob { values })
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`.
///
/// Shared by every persisted format in the suite; guarantees detection of
/// any single-byte corruption.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A checksummed binary frame, all little-endian:
///
/// ```text
/// magic | u32 version | u32 crc32(payload) | u64 declared | payload
/// ```
///
/// where `declared × unit` is the payload length in bytes.
///
/// # Examples
///
/// ```
/// use hotspot_nn::serialize::Frame;
///
/// let frame = Frame { magic: b"DEMO", min_version: 1, version: 2, unit: 1 };
/// let bytes = frame.encode(b"payload");
/// assert_eq!(frame.decode(&bytes), Ok((2, &b"payload"[..])));
/// assert!(frame.decode(&bytes[..bytes.len() - 1]).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Format magic.
    pub magic: &'static [u8; 4],
    /// Oldest version [`Frame::decode`] accepts.
    pub min_version: u32,
    /// Version [`Frame::encode`] writes, and the newest decode accepts.
    pub version: u32,
    /// Payload bytes per declared unit.
    pub unit: usize,
}

impl Frame {
    /// Header bytes before the payload: magic + version + crc + declared.
    pub const HEADER_LEN: usize = 20;

    /// Frames `payload`, whose length must be a multiple of the unit.
    ///
    /// # Panics
    ///
    /// When the payload length is not a multiple of the unit: the caller
    /// built a payload its own decoder cannot accept.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len().is_multiple_of(self.unit),
            "payload of {} bytes is not a whole number of {}-byte units",
            payload.len(),
            self.unit
        );
        let mut buf = Vec::with_capacity(Self::HEADER_LEN + payload.len());
        buf.extend_from_slice(self.magic);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(&((payload.len() / self.unit) as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Checks the header of a framed buffer and returns its version and
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns the reason when the buffer is shorter than the header, the
    /// magic differs, the version is outside `min_version..=version`, the
    /// declared count disagrees with the payload length (checked
    /// arithmetic, so a crafted count can neither wrap nor make a caller
    /// allocate for it), or the payload fails its checksum.
    pub fn decode<'a>(&self, data: &'a [u8]) -> Result<(u32, &'a [u8]), String> {
        if data.len() < Self::HEADER_LEN {
            return Err(format!("buffer too short for header: {} bytes", data.len()));
        }
        let (header, payload) = data.split_at(Self::HEADER_LEN);
        let mut header = Reader::new(header);
        if header.take(4)? != self.magic {
            return Err(format!(
                "bad magic (expected \"{}\")",
                self.magic.escape_ascii()
            ));
        }
        let version = header.u32()?;
        if !(self.min_version..=self.version).contains(&version) {
            return Err(format!(
                "unsupported format version {version} (expected {}..={})",
                self.min_version, self.version
            ));
        }
        let crc_declared = header.u32()?;
        let declared = header.u64()?;
        if usize::try_from(declared)
            .ok()
            .and_then(|d| d.checked_mul(self.unit))
            != Some(payload.len())
        {
            return Err(format!(
                "declared count {declared} of {}-byte units does not match payload of {} bytes",
                self.unit,
                payload.len()
            ));
        }
        let crc_actual = crc32(payload);
        if crc_actual != crc_declared {
            return Err(format!(
                "payload checksum mismatch: stored {crc_declared:#010x}, computed {crc_actual:#010x}"
            ));
        }
        Ok((version, payload))
    }
}

/// A non-panicking little-endian cursor over a binary payload. Every read
/// checks the remaining length first and returns a message instead of
/// panicking when too few bytes remain.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes, {} remain",
                self.data.len()
            ));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take(N)?);
        Ok(raw)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, String> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `u64` that must fit the platform word.
    pub fn usize64(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("value {v} exceeds the platform word size"))
    }

    /// Reads a `u32` element count and validates it against the remaining
    /// bytes assuming at least `min_elem_size` bytes per element, so a
    /// corrupted count cannot trigger an absurd allocation.
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, String> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_elem_size) {
            Some(need) if need <= self.data.len() => Ok(count),
            _ => Err(format!(
                "declared count {count} exceeds the {} remaining bytes",
                self.data.len()
            )),
        }
    }

    /// Rejects trailing garbage: a valid payload is consumed exactly.
    pub fn finish(&self) -> Result<(), String> {
        match self.data.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the payload")),
        }
    }
}

/// Parses the decimal value of a `key value` text field.
///
/// # Errors
///
/// `"{key} has no value"` or `"invalid value for {key}: '{value}'"`.
pub fn dec_field<T: std::str::FromStr>(key: &str, value: Option<&str>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{key} has no value"))?;
    v.parse()
        .map_err(|_| format!("invalid value for {key}: '{v}'"))
}

/// Parses the hexadecimal `u32` value (optional `0x` prefix) of a
/// `key value` text field; errors as [`dec_field`].
pub fn hex_u32_field(key: &str, value: Option<&str>) -> Result<u32, String> {
    hex_field(key, value, u32::from_str_radix)
}

/// Parses the hexadecimal `u64` value (optional `0x` prefix) of a
/// `key value` text field; errors as [`dec_field`].
pub fn hex_u64_field(key: &str, value: Option<&str>) -> Result<u64, String> {
    hex_field(key, value, u64::from_str_radix)
}

fn hex_field<T>(
    key: &str,
    value: Option<&str>,
    from_str_radix: fn(&str, u32) -> Result<T, ParseIntError>,
) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{key} has no value"))?;
    from_str_radix(v.strip_prefix("0x").unwrap_or(v), 16)
        .map_err(|_| format!("invalid value for {key}: '{v}'"))
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory (Unix). Readers see
/// either the previous complete file or the new complete file, never a
/// partial write.
///
/// # Errors
///
/// Propagates the underlying I/O error; the temp file is removed on
/// failure (best effort).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Some(dir) = dir {
            // Make the rename itself durable: fsync the directory entry.
            fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// How many mutations [`assert_corruption_detected`] saw decode (each to
/// the identical value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedMutations {
    /// Strict prefixes of the encoding that decoded.
    pub truncations: usize,
    /// Single-bit flips of the encoding that decoded.
    pub flips: usize,
}

/// Exhaustive corruption test for a persisted format, for use in tests.
///
/// Decodes `encoded` itself, every strict prefix of it and every
/// single-bit flip of it (all 8 bits of every byte). Each mutation must
/// either be rejected or decode to exactly `expected`: a format may
/// tolerate a harmless change (a flipped whitespace byte, a dropped final
/// newline) but must never load a different value. Returns how many
/// mutations decoded; a strict format asserts both counts are zero.
///
/// # Panics
///
/// When `encoded` does not decode to `expected`, or a mutation decodes
/// to a different value.
///
/// # Examples
///
/// ```
/// use hotspot_nn::layers::Dense;
/// use hotspot_nn::serialize::{assert_corruption_detected, DecodedMutations, ParameterBlob};
/// use hotspot_nn::Network;
///
/// let mut net = Network::new();
/// net.push(Dense::new(2, 1, 3));
/// let blob = ParameterBlob::from_network(&mut net);
/// let decoded = assert_corruption_detected(&blob.to_bytes(), &blob, ParameterBlob::from_bytes);
/// assert_eq!(decoded, DecodedMutations::default());
/// ```
pub fn assert_corruption_detected<T, E>(
    encoded: &[u8],
    expected: &T,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> DecodedMutations
where
    T: PartialEq + Debug,
    E: Debug,
{
    match decode(encoded) {
        Ok(value) => assert_eq!(value, *expected, "the unmutated encoding must round-trip"),
        Err(e) => panic!("the unmutated encoding must decode: {e:?}"),
    }
    let decodes = |mutated: &[u8], what: String| match decode(mutated) {
        Ok(value) => {
            assert!(
                value == *expected,
                "{what} decoded to a different value: {value:?}"
            );
            true
        }
        Err(_) => false,
    };
    let truncations = (0..encoded.len())
        .filter(|&len| decodes(&encoded[..len], format!("truncation to {len} bytes")))
        .count();
    let mut mutated = encoded.to_vec();
    let flips = (0..encoded.len() * 8)
        .filter(|&i| {
            let (offset, mask) = (i / 8, 1u8 << (i % 8));
            mutated[offset] ^= mask;
            let decoded = decodes(
                &mutated,
                format!("flip of mask {mask:#04x} at offset {offset}"),
            );
            mutated[offset] ^= mask;
            decoded
        })
        .count();
    DecodedMutations { truncations, flips }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::Tensor;

    fn net(seed: u64) -> Network {
        let mut n = Network::new();
        n.push(Dense::new(4, 6, seed));
        n.push(Relu::new());
        n.push(Dense::new(6, 2, seed + 1));
        n
    }

    #[test]
    fn snapshot_roundtrip_restores_outputs() {
        let mut a = net(1);
        let blob = ParameterBlob::from_network(&mut a);
        let mut b = net(2);
        let x = Tensor::from_vec(vec![4], vec![0.1, -0.5, 0.3, 0.9]);
        assert_ne!(a.forward_inference(&x), b.forward_inference(&x));
        blob.load_into(&mut b).unwrap();
        assert_eq!(a.forward_inference(&x), b.forward_inference(&x));
    }

    #[test]
    fn mismatched_network_rejected() {
        let mut a = net(1);
        let blob = ParameterBlob::from_network(&mut a);
        let mut small = Network::new();
        small.push(Dense::new(2, 2, 0));
        assert!(matches!(
            blob.load_into(&mut small),
            Err(NnError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn blob_length_matches_parameter_count() {
        let mut a = net(3);
        let blob = ParameterBlob::from_network(&mut a);
        assert_eq!(blob.len(), a.parameter_count());
        assert!(!blob.is_empty());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let mut a = net(4);
        let blob = ParameterBlob::from_network(&mut a);
        let bytes = blob.to_bytes();
        assert_eq!(&bytes[..4], b"HSNN");
        let back = ParameterBlob::from_bytes(&bytes).unwrap();
        assert_eq!(blob, back);
    }

    #[test]
    fn every_corruption_is_rejected() {
        let mut a = net(5);
        let blob = ParameterBlob::from_network(&mut a);
        let bytes = blob.to_bytes();
        let decoded = assert_corruption_detected(&bytes, &blob, ParameterBlob::from_bytes);
        assert_eq!(decoded, DecodedMutations::default());
        let mut bad = bytes.to_vec();
        *bad.last_mut().unwrap() ^= 0x01;
        let err = ParameterBlob::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got {err}");
    }

    #[test]
    fn overflow_count_header_rejected() {
        // Craft a header whose declared count makes `count * 4` wrap in
        // 64-bit arithmetic: ((1 << 62) + 2) * 4 ≡ 8 (mod 2^64). Before the
        // checked-arithmetic fix, a release build would accept this header
        // against an 8-byte payload and decode a silently wrong blob (a
        // debug build would panic on the multiply).
        let mut buf = BLOB_FRAME.encode(&[0u8; 8]);
        buf[12..20].copy_from_slice(&((1u64 << 62) + 2).to_le_bytes());
        let err = ParameterBlob::from_bytes(&buf).unwrap_err();
        assert!(matches!(err, NnError::Format(_)), "got {err:?}");
        assert!(err.to_string().contains("count"), "got {err}");
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
