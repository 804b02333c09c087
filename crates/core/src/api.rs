//! Versioned wire/API schema (v1) shared by the CLI scan report and the
//! `hotspot serve` daemon.
//!
//! One schema, two transports: `hotspot scan --report` writes a
//! [`ScanReport`] rendered by [`scan_report_json`] to a file, and the
//! daemon embeds the *same* rendering in its `scan` response — so a
//! report consumer never has to care whether JSON came from a file or a
//! socket. Every object carries an explicit `"v": 1` field; consumers
//! reject other versions instead of misreading future layouts.
//!
//! The wire protocol is newline-delimited JSON over a Unix domain
//! socket: one request object per line in, one response object per line
//! out, matched by the client-chosen `"id"` string. Requests are parsed
//! by [`Request::parse`]; responses are rendered by the `render`
//! methods here and parsed back (for the CLI client and tests) by the
//! matching `parse` methods.
//!
//! Everything is hand-rolled on a small recursive-descent JSON parser
//! ([`Json`]) — the vendored `serde` is an offline stub, and the wire
//! types are few enough that explicit code beats a derive. Numbers are
//! kept as raw source tokens ([`Json::Num`]) so an `f32` score rendered
//! with Rust's shortest-round-trip `{}` formatting parses back
//! *bit-identical* via `str::parse::<f32>()` — no intermediate `f64`
//! double rounding.

use crate::scan::ScanReport;
use hotspot_geometry::{Clip, Rect};
use std::fmt;

/// Wire/schema version stamped into every request, response, and report.
pub const WIRE_VERSION: u32 = 1;

/// Parser recursion limit; the wire types nest 4-5 levels deep, so 32
/// rejects hostile deeply-nested input long before the stack feels it.
const MAX_DEPTH: usize = 32;

// ---------------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers stay raw source tokens so callers choose the decode type
/// (`f32` scores keep bit-exactness; `u64` CRCs never round).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its validated source token.
    Num(String),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Decodes a number token as `f32` — directly from the source token,
    /// so values rendered with [`render_f32`] round-trip bit-identically.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `u64` (rejects fractions and signs).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `i64` (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: one leading zero, or a nonzero digit run.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        }
        _ => return Err(format!("malformed number at byte {start}")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(format!("malformed number at byte {start}"));
        }
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(format!("malformed number at byte {start}"));
        }
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    // Every byte accepted above is ASCII, so the token is valid UTF-8.
    match std::str::from_utf8(&bytes[start..*pos]) {
        Ok(tok) => Ok(Json::Num(tok.to_string())),
        Err(_) => unreachable!("number token contains only ASCII digits, sign, dot, exponent"),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are rejected rather than paired; the
                        // wire never emits them.
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("unescaped control byte at {}", *pos));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8")?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key '{key}'"));
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering primitives
// ---------------------------------------------------------------------------

/// Renders a string as a JSON string literal with the mandatory escapes.
pub fn render_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f32` as a JSON number using Rust's shortest-round-trip
/// formatting, so parsing the token back with `str::parse::<f32>()`
/// recovers the exact bits. Non-finite values map to `null` — JSON has
/// no infinity literal.
pub fn render_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Renders an `f32` with fixed 6-decimal precision (the scan-report
/// style: human-scannable, stable across runs), `null` when non-finite.
pub fn render_f32_fixed(v: f32) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Renders an `f64` with fixed 6-decimal precision, `null` when
/// non-finite.
pub fn render_f64_fixed(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

// ---------------------------------------------------------------------------
// Model provenance
// ---------------------------------------------------------------------------

/// Which exact weights produced a result: the model file's CRC-32 and
/// format version, plus the cascade prefilter payload checksum when one
/// was loaded. Embedded in every scan report and daemon response so any
/// output can be traced to the bytes that generated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelProvenance {
    /// The model file's CRC-32 (IEEE) — the `crc` header line of the
    /// `hsmodel` file.
    pub model_crc: u32,
    /// The model file format version (`hsmodel <version>`).
    pub model_version: u32,
    /// CRC-32 of the serialised cascade prefilter, when the run loaded
    /// one.
    pub cascade_crc: Option<u32>,
}

impl ModelProvenance {
    /// Renders as a JSON object (`{"model_crc": "0x...", ...}`). CRCs are
    /// hex strings — the format operators see in the model header.
    pub fn render(&self) -> String {
        let cascade = match self.cascade_crc {
            Some(crc) => format!("\"{crc:#010x}\""),
            None => "null".into(),
        };
        format!(
            "{{\"model_crc\": \"{:#010x}\", \"model_version\": {}, \"cascade_crc\": {cascade}}}",
            self.model_crc, self.model_version
        )
    }

    /// Parses the object rendered by [`ModelProvenance::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let crc_field = |key: &str| -> Result<u32, String> {
            let s = v
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("provenance missing '{key}'"))?;
            u32::from_str_radix(s.strip_prefix("0x").unwrap_or(s), 16)
                .map_err(|_| format!("provenance '{key}' is not a hex crc"))
        };
        let model_crc = crc_field("model_crc")?;
        let model_version = v
            .get("model_version")
            .and_then(Json::as_u64)
            .ok_or("provenance missing 'model_version'")?;
        let model_version = u32::try_from(model_version)
            .map_err(|_| format!("provenance 'model_version' {model_version} exceeds u32"))?;
        let cascade_crc = match v.get("cascade_crc") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(
                u32::from_str_radix(s.strip_prefix("0x").unwrap_or(s), 16)
                    .map_err(|_| "provenance 'cascade_crc' is not a hex crc".to_string())?,
            ),
            Some(_) => return Err("provenance 'cascade_crc' must be a string or null".into()),
        };
        Ok(ModelProvenance {
            model_crc,
            model_version,
            cascade_crc,
        })
    }
}

// ---------------------------------------------------------------------------
// Clip wire form
// ---------------------------------------------------------------------------

/// A clip in wire form: the window rectangle plus its shapes, each as
/// `[x0, y0, x1, y1]` nm (low-inclusive, high-exclusive — the
/// [`Rect::new`] convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClipSpec {
    /// Window `[x0, y0, x1, y1]`, nm.
    pub window: [i64; 4],
    /// Shape rectangles, same encoding.
    pub rects: Vec<[i64; 4]>,
}

impl ClipSpec {
    /// Captures a geometry clip.
    pub fn from_clip(clip: &Clip) -> Self {
        let enc = |r: Rect| [r.lo().x, r.lo().y, r.hi().x, r.hi().y];
        ClipSpec {
            window: enc(clip.window()),
            rects: clip.shapes().iter().map(|&r| enc(r)).collect(),
        }
    }

    /// Rebuilds the geometry clip.
    ///
    /// # Errors
    ///
    /// Returns a description for degenerate (empty) rectangles.
    pub fn to_clip(&self) -> Result<Clip, String> {
        let dec = |c: &[i64; 4]| {
            Rect::new(c[0], c[1], c[2], c[3]).map_err(|e| {
                format!(
                    "degenerate rect [{}, {}, {}, {}]: {e}",
                    c[0], c[1], c[2], c[3]
                )
            })
        };
        let mut clip = Clip::new(dec(&self.window)?);
        for r in &self.rects {
            clip.push(dec(r)?);
        }
        Ok(clip)
    }

    /// Renders as `{"window": [...], "rects": [[...], ...]}`.
    pub fn render(&self) -> String {
        let enc = |c: &[i64; 4]| format!("[{}, {}, {}, {}]", c[0], c[1], c[2], c[3]);
        let rects: Vec<String> = self.rects.iter().map(&enc).collect();
        format!(
            "{{\"window\": {}, \"rects\": [{}]}}",
            enc(&self.window),
            rects.join(", ")
        )
    }

    /// Parses the object rendered by [`ClipSpec::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let quad = |v: &Json, what: &str| -> Result<[i64; 4], String> {
            let items = v
                .as_arr()
                .ok_or_else(|| format!("{what} must be an array"))?;
            if items.len() != 4 {
                return Err(format!("{what} must have 4 coordinates"));
            }
            let mut out = [0i64; 4];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = item
                    .as_i64()
                    .ok_or_else(|| format!("{what} coordinates must be integers"))?;
            }
            Ok(out)
        };
        let window = quad(v.get("window").ok_or("clip missing 'window'")?, "window")?;
        let rects = match v.get("rects") {
            None => Vec::new(),
            Some(list) => {
                let items = list.as_arr().ok_or("'rects' must be an array")?;
                items
                    .iter()
                    .map(|r| quad(r, "rect"))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(ClipSpec { window, rects })
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Machine-readable error category carried in every [`ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a valid request shape.
    Parse,
    /// The request declared an unsupported schema version.
    Version,
    /// The micro-batching queue was full; retry later.
    Busy,
    /// A model could not be loaded, or mismatched the serving plan.
    Model,
    /// The request was well-formed but its payload was unusable
    /// (degenerate geometry, wrong clip size for the pipeline...).
    Data,
    /// The server is draining for shutdown and accepts no new work.
    Shutdown,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// Stable lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Version => "version",
            ErrorKind::Busy => "busy",
            ErrorKind::Model => "model",
            ErrorKind::Data => "data",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "parse" => ErrorKind::Parse,
            "version" => ErrorKind::Version,
            "busy" => ErrorKind::Busy,
            "model" => ErrorKind::Model,
            "data" => ErrorKind::Data,
            "shutdown" => ErrorKind::Shutdown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A request-level failure: the kind routes client behaviour (retry on
/// `busy`, give up on `parse`), the message explains it to a human.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

/// `{"v": 1, "id": ..., "op": "predict", "clips": [...], ...}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen request ID, echoed in the response.
    pub id: String,
    /// Clips to score, in response order.
    pub clips: Vec<ClipSpec>,
    /// Decision threshold (default 0.5).
    pub threshold: f32,
}

/// `{"v": 1, "id": ..., "op": "scan", "layout": {...}, ...}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRequest {
    /// Client-chosen request ID, echoed in the response.
    pub id: String,
    /// The layout to scan, as one (large) clip.
    pub layout: ClipSpec,
    /// Window step, nm (default 600).
    pub stride_nm: i64,
    /// Window side, nm (default 1200).
    pub window_nm: i64,
    /// Decision threshold (default 0.5).
    pub threshold: f32,
    /// Whether to include the per-window score list in the response
    /// report (default true; large layouts may want summaries only).
    pub include_windows: bool,
}

/// `{"v": 1, "id": ..., "op": "reload", "model_path": ..., ...}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadRequest {
    /// Client-chosen request ID, echoed in the response.
    pub id: String,
    /// Path to the `hsmodel` file to serve from now on.
    pub model_path: String,
    /// Optional path to an `hsprefilter` cascade to serve with it.
    pub cascade_path: Option<String>,
}

/// One parsed daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score a batch of clips.
    Predict(PredictRequest),
    /// Scan a full layout.
    Scan(ScanRequest),
    /// Report serving counters and the live model's provenance.
    Status {
        /// Client-chosen request ID, echoed in the response.
        id: String,
    },
    /// Swap the served model (and optionally cascade) without downtime.
    Reload(ReloadRequest),
    /// Drain the queue and exit.
    Shutdown {
        /// Client-chosen request ID, echoed in the response.
        id: String,
    },
}

impl Request {
    /// The request's ID (echoed into replies).
    pub fn id(&self) -> &str {
        match self {
            Request::Predict(r) => &r.id,
            Request::Scan(r) => &r.id,
            Request::Status { id } => id,
            Request::Reload(r) => &r.id,
            Request::Shutdown { id } => id,
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Parse`] for malformed JSON or a malformed request
    /// shape; [`ErrorKind::Version`] when `"v"` is missing or not
    /// [`WIRE_VERSION`]. The error carries the request ID when one was
    /// recoverable from the line, so the reply can still be correlated.
    pub fn parse(line: &str) -> Result<Request, (Option<String>, ApiError)> {
        let v = Json::parse(line).map_err(|e| {
            (
                None,
                ApiError::new(ErrorKind::Parse, format!("bad JSON: {e}")),
            )
        })?;
        let id = v.get("id").and_then(Json::as_str).map(str::to_string);
        match v.get("v").and_then(Json::as_u64) {
            Some(ver) if ver == u64::from(WIRE_VERSION) => {}
            Some(ver) => {
                return Err((
                    id,
                    ApiError::new(
                        ErrorKind::Version,
                        format!("unsupported schema version {ver} (expected {WIRE_VERSION})"),
                    ),
                ))
            }
            None => {
                return Err((
                    id,
                    ApiError::new(ErrorKind::Version, "missing schema version field 'v'"),
                ))
            }
        }
        let id = match id {
            Some(id) if !id.is_empty() => id,
            _ => {
                return Err((
                    None,
                    ApiError::new(ErrorKind::Parse, "missing or empty request 'id' string"),
                ))
            }
        };
        let fail1 = |msg: String| (Some(id.clone()), ApiError::new(ErrorKind::Parse, msg));
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| fail1("missing request 'op' string".into()))?;
        match op {
            "predict" => {
                let clips_json = v
                    .get("clips")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| fail1("predict needs a 'clips' array".into()))?;
                if clips_json.is_empty() {
                    return Err(fail1("predict 'clips' must be non-empty".into()));
                }
                let clips = clips_json
                    .iter()
                    .map(ClipSpec::from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| fail1(format!("bad clip: {e}")))?;
                let threshold = match v.get("threshold") {
                    None => 0.5,
                    Some(t) => t
                        .as_f32()
                        .filter(|t| (0.0..=1.0).contains(t))
                        .ok_or_else(|| fail1("'threshold' must be a number in [0, 1]".into()))?,
                };
                Ok(Request::Predict(PredictRequest {
                    id,
                    clips,
                    threshold,
                }))
            }
            "scan" => {
                let layout = ClipSpec::from_json(
                    v.get("layout")
                        .ok_or_else(|| fail1("scan needs a 'layout' clip object".into()))?,
                )
                .map_err(|e| fail1(format!("bad layout: {e}")))?;
                let int_field = |key: &str, default: i64| -> Result<i64, _> {
                    match v.get(key) {
                        None => Ok(default),
                        Some(t) => t
                            .as_i64()
                            .filter(|&t| t > 0)
                            .ok_or_else(|| fail1(format!("'{key}' must be a positive integer"))),
                    }
                };
                let stride_nm = int_field("stride_nm", 600)?;
                let window_nm = int_field("window_nm", 1200)?;
                let threshold = match v.get("threshold") {
                    None => 0.5,
                    Some(t) => t
                        .as_f32()
                        .filter(|t| (0.0..=1.0).contains(t))
                        .ok_or_else(|| fail1("'threshold' must be a number in [0, 1]".into()))?,
                };
                let include_windows = match v.get("include_windows") {
                    None => true,
                    Some(t) => t
                        .as_bool()
                        .ok_or_else(|| fail1("'include_windows' must be a boolean".into()))?,
                };
                Ok(Request::Scan(ScanRequest {
                    id,
                    layout,
                    stride_nm,
                    window_nm,
                    threshold,
                    include_windows,
                }))
            }
            "status" => Ok(Request::Status { id }),
            "reload" => {
                let model_path = v
                    .get("model_path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail1("reload needs a 'model_path' string".into()))?
                    .to_string();
                let cascade_path = match v.get("cascade_path") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(
                        p.as_str()
                            .ok_or_else(|| fail1("'cascade_path' must be a string".into()))?
                            .to_string(),
                    ),
                };
                Ok(Request::Reload(ReloadRequest {
                    id,
                    model_path,
                    cascade_path,
                }))
            }
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(fail1(format!(
                "unknown op '{other}' (predict|scan|status|reload|shutdown)"
            ))),
        }
    }

    /// Renders the request as one wire line (used by the CLI client and
    /// the load generator; the daemon only parses).
    pub fn render(&self) -> String {
        match self {
            Request::Predict(r) => {
                let clips: Vec<String> = r.clips.iter().map(ClipSpec::render).collect();
                format!(
                    "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"op\": \"predict\", \"threshold\": {}, \"clips\": [{}]}}",
                    render_str(&r.id),
                    render_f32(r.threshold),
                    clips.join(", ")
                )
            }
            Request::Scan(r) => format!(
                "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"op\": \"scan\", \"stride_nm\": {}, \"window_nm\": {}, \"threshold\": {}, \"include_windows\": {}, \"layout\": {}}}",
                render_str(&r.id),
                r.stride_nm,
                r.window_nm,
                render_f32(r.threshold),
                r.include_windows,
                r.layout.render()
            ),
            Request::Status { id } => format!(
                "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"op\": \"status\"}}",
                render_str(id)
            ),
            Request::Reload(r) => {
                let cascade = match &r.cascade_path {
                    Some(p) => render_str(p),
                    None => "null".into(),
                };
                format!(
                    "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"op\": \"reload\", \"model_path\": {}, \"cascade_path\": {cascade}}}",
                    render_str(&r.id),
                    render_str(&r.model_path)
                )
            }
            Request::Shutdown { id } => format!(
                "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"op\": \"shutdown\"}}",
                render_str(id)
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Successful `predict` reply: per-clip scores (bit-exact round-trip)
/// and verdicts, plus the provenance of the weights that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Echo of the request ID.
    pub id: String,
    /// Per-clip hotspot probabilities, request order.
    pub scores: Vec<f32>,
    /// `score > threshold` per clip.
    pub hotspots: Vec<bool>,
    /// Threshold the verdicts used.
    pub threshold: f32,
    /// How many clips the serving GEMM block scored together (this
    /// request's clips plus any coalesced neighbours).
    pub batched: usize,
    /// Weights that produced the scores.
    pub model: ModelProvenance,
}

impl PredictResponse {
    /// Renders as one wire line.
    pub fn render(&self) -> String {
        let scores: Vec<String> = self.scores.iter().map(|&s| render_f32(s)).collect();
        let hotspots: Vec<String> = self.hotspots.iter().map(|h| h.to_string()).collect();
        format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"ok\": true, \"op\": \"predict\", \"scores\": [{}], \"hotspots\": [{}], \"threshold\": {}, \"batched\": {}, \"model\": {}}}",
            render_str(&self.id),
            scores.join(", "),
            hotspots.join(", "),
            render_f32(self.threshold),
            self.batched,
            self.model.render()
        )
    }

    /// Parses a line rendered by [`PredictResponse::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = parse_ok_response(line, "predict")?;
        let scores = v
            .get("scores")
            .and_then(Json::as_arr)
            .ok_or("missing 'scores' array")?
            .iter()
            .map(|s| s.as_f32().ok_or("score is not a number"))
            .collect::<Result<Vec<_>, _>>()?;
        let hotspots = v
            .get("hotspots")
            .and_then(Json::as_arr)
            .ok_or("missing 'hotspots' array")?
            .iter()
            .map(|h| h.as_bool().ok_or("hotspot flag is not a boolean"))
            .collect::<Result<Vec<_>, _>>()?;
        if scores.len() != hotspots.len() {
            return Err("scores/hotspots length mismatch".into());
        }
        Ok(PredictResponse {
            id: response_id(&v)?,
            scores,
            hotspots,
            threshold: v
                .get("threshold")
                .and_then(Json::as_f32)
                .ok_or("missing 'threshold'")?,
            batched: v
                .get("batched")
                .and_then(Json::as_u64)
                .ok_or("missing 'batched'")? as usize,
            model: ModelProvenance::from_json(v.get("model").ok_or("missing 'model'")?)?,
        })
    }
}

/// Successful `scan` reply: the full report object (same schema as the
/// `--report` file) under `"report"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResponse {
    /// Echo of the request ID.
    pub id: String,
    /// The scan result; rendered via [`scan_report_json`].
    pub report: ScanReport,
}

impl ScanResponse {
    /// Renders as one wire line; `include_windows: false` drops the
    /// per-window list from the embedded report.
    pub fn render(&self, include_windows: bool) -> String {
        format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"ok\": true, \"op\": \"scan\", \"report\": {}}}",
            render_str(&self.id),
            scan_report_json_opts(&self.report, include_windows)
        )
    }
}

/// Successful `status` reply: live provenance plus serving counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusResponse {
    /// Echo of the request ID.
    pub id: String,
    /// Weights currently being served.
    pub model: ModelProvenance,
    /// Seconds the daemon has been up.
    pub uptime_s: f64,
    /// Serving counters.
    pub counters: ServeCounters,
}

/// Monotonic serving counters reported by `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Requests accepted (all ops).
    pub requests: u64,
    /// Predict requests completed.
    pub predicts: u64,
    /// Clips scored across all predicts.
    pub clips: u64,
    /// Scan requests completed.
    pub scans: u64,
    /// Successful reloads.
    pub reloads: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Requests refused with `busy` (queue full).
    pub rejected_busy: u64,
    /// Micro-batch cycles the batcher ran.
    pub batches: u64,
    /// Largest number of clips one micro-batch scored together.
    pub max_batch: u64,
}

impl StatusResponse {
    /// Renders as one wire line.
    pub fn render(&self) -> String {
        let c = &self.counters;
        format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"ok\": true, \"op\": \"status\", \"uptime_s\": {}, \"model\": {}, \"counters\": {{\"requests\": {}, \"predicts\": {}, \"clips\": {}, \"scans\": {}, \"reloads\": {}, \"errors\": {}, \"rejected_busy\": {}, \"batches\": {}, \"max_batch\": {}}}}}",
            render_str(&self.id),
            render_f64_fixed(self.uptime_s),
            self.model.render(),
            c.requests,
            c.predicts,
            c.clips,
            c.scans,
            c.reloads,
            c.errors,
            c.rejected_busy,
            c.batches,
            c.max_batch
        )
    }

    /// Parses a line rendered by [`StatusResponse::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = parse_ok_response(line, "status")?;
        let counters = v.get("counters").ok_or("missing 'counters'")?;
        let field = |key: &str| -> Result<u64, String> {
            counters
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing counter '{key}'"))
        };
        Ok(StatusResponse {
            id: response_id(&v)?,
            model: ModelProvenance::from_json(v.get("model").ok_or("missing 'model'")?)?,
            uptime_s: v
                .get("uptime_s")
                .and_then(Json::as_f64)
                .ok_or("missing 'uptime_s'")?,
            counters: ServeCounters {
                requests: field("requests")?,
                predicts: field("predicts")?,
                clips: field("clips")?,
                scans: field("scans")?,
                reloads: field("reloads")?,
                errors: field("errors")?,
                rejected_busy: field("rejected_busy")?,
                batches: field("batches")?,
                max_batch: field("max_batch")?,
            },
        })
    }
}

/// Successful `reload` reply: the provenance now being served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadResponse {
    /// Echo of the request ID.
    pub id: String,
    /// The freshly loaded weights.
    pub model: ModelProvenance,
}

impl ReloadResponse {
    /// Renders as one wire line.
    pub fn render(&self) -> String {
        format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"ok\": true, \"op\": \"reload\", \"model\": {}}}",
            render_str(&self.id),
            self.model.render()
        )
    }

    /// Parses a line rendered by [`ReloadResponse::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = parse_ok_response(line, "reload")?;
        Ok(ReloadResponse {
            id: response_id(&v)?,
            model: ModelProvenance::from_json(v.get("model").ok_or("missing 'model'")?)?,
        })
    }
}

/// Successful `shutdown` acknowledgement, sent after the queue drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownResponse {
    /// Echo of the request ID.
    pub id: String,
}

impl ShutdownResponse {
    /// Renders as one wire line.
    pub fn render(&self) -> String {
        format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": {}, \"ok\": true, \"op\": \"shutdown\"}}",
            render_str(&self.id)
        )
    }
}

/// Structured error reply: `{"v": 1, "id": ..., "ok": false, "error":
/// {"kind": ..., "message": ...}}`. `id` is `null` when the failure
/// prevented recovering one (e.g. unparseable JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Echo of the request ID when recoverable.
    pub id: Option<String>,
    /// What went wrong.
    pub error: ApiError,
}

impl ErrorReply {
    /// Convenience constructor.
    pub fn new(id: Option<String>, kind: ErrorKind, message: impl Into<String>) -> Self {
        ErrorReply {
            id,
            error: ApiError::new(kind, message),
        }
    }

    /// Renders as one wire line.
    pub fn render(&self) -> String {
        let id = match &self.id {
            Some(id) => render_str(id),
            None => "null".into(),
        };
        format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": {id}, \"ok\": false, \"error\": {{\"kind\": \"{}\", \"message\": {}}}}}",
            self.error.kind.as_str(),
            render_str(&self.error.message)
        )
    }

    /// Parses a line rendered by [`ErrorReply::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        check_version(&v)?;
        if v.get("ok").and_then(Json::as_bool) != Some(false) {
            return Err("not an error reply ('ok' is not false)".into());
        }
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err("'id' must be a string or null".into()),
        };
        let error = v.get("error").ok_or("missing 'error'")?;
        let kind = error
            .get("kind")
            .and_then(Json::as_str)
            .and_then(ErrorKind::from_name)
            .ok_or("missing or unknown error 'kind'")?;
        let message = error
            .get("message")
            .and_then(Json::as_str)
            .ok_or("missing error 'message'")?
            .to_string();
        Ok(ErrorReply {
            id,
            error: ApiError { kind, message },
        })
    }
}

/// Checks the `"v"` field of a parsed response object.
fn check_version(v: &Json) -> Result<(), String> {
    match v.get("v").and_then(Json::as_u64) {
        Some(ver) if ver == u64::from(WIRE_VERSION) => Ok(()),
        Some(ver) => Err(format!("unsupported response version {ver}")),
        None => Err("response missing schema version 'v'".into()),
    }
}

/// Parses and validates the common envelope of a successful response.
fn parse_ok_response(line: &str, op: &str) -> Result<Json, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    check_version(&v)?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        _ => {
            // Surface the server's own error message when this is a
            // well-formed error reply.
            if let Ok(err) = ErrorReply::parse(line) {
                return Err(format!("server error ({})", err.error));
            }
            return Err("response 'ok' is not true".into());
        }
    }
    match v.get("op").and_then(Json::as_str) {
        Some(actual) if actual == op => Ok(v),
        Some(actual) => Err(format!("expected op '{op}', got '{actual}'")),
        None => Err("response missing 'op'".into()),
    }
}

fn response_id(v: &Json) -> Result<String, String> {
    v.get("id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "response missing 'id'".into())
}

// ---------------------------------------------------------------------------
// Scan report rendering
// ---------------------------------------------------------------------------

/// Renders a [`ScanReport`] as the canonical v1 JSON object — the exact
/// bytes `hotspot scan --report` writes and the daemon embeds in its
/// `scan` response.
pub fn scan_report_json(report: &ScanReport) -> String {
    scan_report_json_opts(report, true)
}

/// [`scan_report_json`] with the per-window list optionally elided
/// (`"windows": null` signals elision, distinct from an empty scan's
/// `[]`).
pub fn scan_report_json_opts(report: &ScanReport, include_windows: bool) -> String {
    let mut s = String::with_capacity(1024 + 64 * report.windows.len());
    s.push_str(&format!("{{\"v\": {WIRE_VERSION}, "));
    match &report.provenance {
        Some(p) => s.push_str(&format!("\"provenance\": {}, ", p.render())),
        None => s.push_str("\"provenance\": null, "),
    }
    s.push_str(&format!(
        "\"layout\": {{\"width_nm\": {}, \"height_nm\": {}}}, ",
        report.layout_width_nm, report.layout_height_nm
    ));
    s.push_str(&format!(
        "\"scan\": {{\"stride_nm\": {}, \"window_nm\": {}, \"threshold\": {}, \"grid_cols\": {}, \"grid_rows\": {}}}, ",
        report.stride_nm, report.window_nm, report.threshold, report.grid_cols, report.grid_rows
    ));
    s.push_str(&format!(
        "\"cache\": {{\"blocks_computed\": {}, \"blocks_reused\": {}, \"hit_rate\": {}}}, ",
        report.cache.computed,
        report.cache.hits,
        render_f64_fixed(report.cache.hit_rate())
    ));
    s.push_str(&format!(
        "\"throughput\": {{\"windows\": {}, \"elapsed_s\": {}, \"windows_per_sec\": {:.3}, \"cnn_evals\": {}, \"cnn_evals_per_window\": {}}}, ",
        report.windows.len(),
        render_f64_fixed(report.elapsed_s),
        report.windows_per_sec(),
        report.cnn_evals,
        render_f64_fixed(report.cnn_evals_per_window())
    ));
    match &report.cascade {
        Some(c) => s.push_str(&format!(
            "\"cascade\": {{\"enabled\": true, \"margin_threshold\": {}, \"cleared\": {}, \"forwarded\": {}}}, ",
            render_f32_fixed(c.margin_threshold),
            c.cleared,
            c.forwarded
        )),
        None => s.push_str("\"cascade\": {\"enabled\": false}, "),
    }
    s.push_str(&format!(
        "\"execution\": {{\"threads\": {}, \"prepare_s\": {}, \"scan_s\": {}, \"merge_s\": {}}}, ",
        report.threads,
        render_f64_fixed(report.prepare_s),
        render_f64_fixed(report.scan_s),
        render_f64_fixed(report.merge_s)
    ));
    s.push_str(&format!("\"positives\": {}, ", report.positives()));
    s.push_str("\"regions\": [");
    for (idx, r) in report.regions.iter().enumerate() {
        if idx > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"x0_nm\": {}, \"y0_nm\": {}, \"x1_nm\": {}, \"y1_nm\": {}, \"windows\": {}, \"peak_score\": {}, \"mean_score\": {}}}",
            r.x0_nm,
            r.y0_nm,
            r.x1_nm,
            r.y1_nm,
            r.windows,
            render_f32_fixed(r.peak_score),
            render_f32_fixed(r.mean_score)
        ));
    }
    s.push_str("], ");
    if include_windows {
        s.push_str("\"windows\": [");
        for (idx, w) in report.windows.iter().enumerate() {
            if idx > 0 {
                s.push_str(", ");
            }
            let margin = match w.margin {
                Some(m) => render_f32_fixed(m),
                None => "null".into(),
            };
            s.push_str(&format!(
                "{{\"x_nm\": {}, \"y_nm\": {}, \"score\": {}, \"hotspot\": {}, \"stage\": \"{}\", \"margin\": {margin}}}",
                w.x_nm,
                w.y_nm,
                render_f32_fixed(w.score),
                w.hotspot,
                w.stage.as_str()
            ));
        }
        s.push_str("]}");
    } else {
        s.push_str("\"windows\": null}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- JSON parser ------------------------------------------------------

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num("-1.5e3".into()));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
        let v = Json::parse("{\"a\": [1, 2], \"b\": {\"c\": null}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a': 1}",
            "tru",
            "nul",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "--1",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"bad \\u12 escape\"",
            "{\"a\": 1} trailing",
            "[1] [2]",
            "{\"dup\": 1, \"dup\": 2}",
            "[1 2]",
            "{\"a\": 1,}",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
        // Unescaped control characters inside strings are invalid JSON.
        assert!(Json::parse("\"a\u{0}b\"").is_err());
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        // At the limit it still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn f32_round_trip_is_bit_exact() {
        // Awkward values: subnormal, almost-1 scores, exact powers, and a
        // pseudo-random sweep over the unit interval.
        let mut values = vec![
            0.0f32,
            -0.0,
            1.0,
            0.5,
            f32::MIN_POSITIVE,
            1.0e-45,
            0.999_999_94,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
        ];
        let mut x = 0x2545_f491u32;
        for _ in 0..500 {
            // xorshift; map to [0, 1).
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            values.push((x >> 8) as f32 / (1u32 << 24) as f32);
        }
        for v in values {
            let rendered = render_f32(v);
            let parsed = Json::parse(&rendered).unwrap().as_f32().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "round-trip broke {v:?}");
        }
        assert_eq!(render_f32(f32::NAN), "null");
        assert_eq!(render_f32(f32::INFINITY), "null");
    }

    #[test]
    fn strings_round_trip_through_escapes() {
        for s in [
            "",
            "plain",
            "with \"quotes\"",
            "tab\there",
            "new\nline",
            "back\\slash",
            "unicode ÿ✓",
        ] {
            let rendered = render_str(s);
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        }
    }

    // -- Wire types -------------------------------------------------------

    fn sample_clip() -> ClipSpec {
        ClipSpec {
            window: [0, 0, 1200, 1200],
            rects: vec![[10, 20, 110, 220], [400, 400, 900, 460]],
        }
    }

    #[test]
    fn clip_spec_round_trips_through_geometry_and_json() {
        let spec = sample_clip();
        let clip = spec.to_clip().unwrap();
        assert_eq!(ClipSpec::from_clip(&clip), spec);
        let parsed = ClipSpec::from_json(&Json::parse(&spec.render()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn clip_spec_rejects_degenerate_rects() {
        let spec = ClipSpec {
            window: [0, 0, 0, 1200],
            rects: vec![],
        };
        assert!(spec.to_clip().unwrap_err().contains("degenerate"));
    }

    #[test]
    fn predict_request_round_trips() {
        let req = Request::Predict(PredictRequest {
            id: "r-1".into(),
            clips: vec![sample_clip()],
            threshold: 0.7,
        });
        let parsed = Request::parse(&req.render()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn scan_request_round_trips_with_defaults() {
        let line = format!(
            "{{\"v\": 1, \"id\": \"s\", \"op\": \"scan\", \"layout\": {}}}",
            sample_clip().render()
        );
        match Request::parse(&line).unwrap() {
            Request::Scan(r) => {
                assert_eq!(r.stride_nm, 600);
                assert_eq!(r.window_nm, 1200);
                assert_eq!(r.threshold, 0.5);
                assert!(r.include_windows);
            }
            other => panic!("parsed {other:?}"),
        }
        let full = Request::Scan(ScanRequest {
            id: "s2".into(),
            layout: sample_clip(),
            stride_nm: 300,
            window_nm: 1200,
            threshold: 0.25,
            include_windows: false,
        });
        assert_eq!(Request::parse(&full.render()).unwrap(), full);
    }

    #[test]
    fn status_reload_shutdown_round_trip() {
        for req in [
            Request::Status { id: "q".into() },
            Request::Shutdown { id: "bye".into() },
            Request::Reload(ReloadRequest {
                id: "up".into(),
                model_path: "/tmp/m.hsnn".into(),
                cascade_path: Some("/tmp/c.hspf".into()),
            }),
            Request::Reload(ReloadRequest {
                id: "up2".into(),
                model_path: "/tmp/m.hsnn".into(),
                cascade_path: None,
            }),
        ] {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
    }

    #[test]
    fn request_version_gate_is_exhaustive() {
        // Missing v.
        let (id, err) = Request::parse("{\"id\": \"a\", \"op\": \"status\"}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
        assert_eq!(id.as_deref(), Some("a"));
        // Wrong v (future version) — id still recovered for the reply.
        let (id, err) =
            Request::parse("{\"v\": 2, \"id\": \"b\", \"op\": \"status\"}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
        assert!(err.message.contains("version 2"));
        assert_eq!(id.as_deref(), Some("b"));
        // v of the wrong type.
        let (_, err) =
            Request::parse("{\"v\": \"1\", \"id\": \"c\", \"op\": \"status\"}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
    }

    #[test]
    fn request_misparse_matrix() {
        // (line, expected kind, expected id echo)
        let cases: Vec<(String, ErrorKind, Option<&str>)> = vec![
            ("not json".into(), ErrorKind::Parse, None),
            ("{\"v\": 1}".into(), ErrorKind::Parse, None),
            ("{\"v\": 1, \"id\": \"\", \"op\": \"status\"}".into(), ErrorKind::Parse, None),
            ("{\"v\": 1, \"id\": 7, \"op\": \"status\"}".into(), ErrorKind::Parse, None),
            ("{\"v\": 1, \"id\": \"x\"}".into(), ErrorKind::Parse, Some("x")),
            ("{\"v\": 1, \"id\": \"x\", \"op\": \"frobnicate\"}".into(), ErrorKind::Parse, Some("x")),
            ("{\"v\": 1, \"id\": \"x\", \"op\": \"predict\"}".into(), ErrorKind::Parse, Some("x")),
            ("{\"v\": 1, \"id\": \"x\", \"op\": \"predict\", \"clips\": []}".into(), ErrorKind::Parse, Some("x")),
            ("{\"v\": 1, \"id\": \"x\", \"op\": \"predict\", \"clips\": [{}]}".into(), ErrorKind::Parse, Some("x")),
            (
                "{\"v\": 1, \"id\": \"x\", \"op\": \"predict\", \"clips\": [{\"window\": [0, 0, 10]}]}".into(),
                ErrorKind::Parse,
                Some("x"),
            ),
            (
                format!(
                    "{{\"v\": 1, \"id\": \"x\", \"op\": \"predict\", \"threshold\": 1.5, \"clips\": [{}]}}",
                    sample_clip().render()
                ),
                ErrorKind::Parse,
                Some("x"),
            ),
            ("{\"v\": 1, \"id\": \"x\", \"op\": \"scan\"}".into(), ErrorKind::Parse, Some("x")),
            (
                format!(
                    "{{\"v\": 1, \"id\": \"x\", \"op\": \"scan\", \"stride_nm\": -5, \"layout\": {}}}",
                    sample_clip().render()
                ),
                ErrorKind::Parse,
                Some("x"),
            ),
            ("{\"v\": 1, \"id\": \"x\", \"op\": \"reload\"}".into(), ErrorKind::Parse, Some("x")),
            (
                "{\"v\": 1, \"id\": \"x\", \"op\": \"reload\", \"model_path\": 3}".into(),
                ErrorKind::Parse,
                Some("x"),
            ),
        ];
        for (line, kind, want_id) in cases {
            let (id, err) = Request::parse(&line).unwrap_err();
            assert_eq!(err.kind, kind, "line {line}");
            assert_eq!(id.as_deref(), want_id, "line {line}");
        }
    }

    fn sample_provenance() -> ModelProvenance {
        ModelProvenance {
            model_crc: 0xdead_beef,
            model_version: 2,
            cascade_crc: Some(0x0000_0042),
        }
    }

    #[test]
    fn provenance_round_trips() {
        for p in [
            sample_provenance(),
            ModelProvenance {
                model_crc: 0,
                model_version: 2,
                cascade_crc: None,
            },
        ] {
            let v = Json::parse(&p.render()).unwrap();
            assert_eq!(ModelProvenance::from_json(&v).unwrap(), p);
        }
    }

    #[test]
    fn provenance_rejects_model_version_beyond_u32() {
        // 2^32 + 1 used to wrap to version 1 through an `as u32` cast.
        let v = Json::parse(
            r#"{"model_crc": "0xdeadbeef", "model_version": 4294967297, "cascade_crc": null}"#,
        )
        .unwrap();
        let err = ModelProvenance::from_json(&v).unwrap_err();
        assert!(err.contains("model_version"), "{err}");
        let v = Json::parse(
            r#"{"model_crc": "0xdeadbeef", "model_version": 4294967295, "cascade_crc": null}"#,
        )
        .unwrap();
        assert_eq!(
            ModelProvenance::from_json(&v).unwrap().model_version,
            u32::MAX
        );
    }

    #[test]
    fn predict_response_round_trips_bit_exact() {
        let resp = PredictResponse {
            id: "r-9".into(),
            scores: vec![0.123_456_79, 1.0e-12, 0.999_999_94],
            hotspots: vec![false, false, true],
            threshold: 0.5,
            batched: 7,
            model: sample_provenance(),
        };
        let parsed = PredictResponse::parse(&resp.render()).unwrap();
        assert_eq!(parsed.id, resp.id);
        assert_eq!(parsed.batched, 7);
        assert_eq!(parsed.hotspots, resp.hotspots);
        assert_eq!(parsed.model, resp.model);
        for (a, b) in parsed.scores.iter().zip(&resp.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn error_reply_round_trips() {
        for reply in [
            ErrorReply::new(Some("r".into()), ErrorKind::Busy, "queue full (64 jobs)"),
            ErrorReply::new(
                None,
                ErrorKind::Parse,
                "bad JSON: trailing garbage at byte 3",
            ),
            ErrorReply::new(Some("m".into()), ErrorKind::Model, "geometry mismatch"),
        ] {
            assert_eq!(ErrorReply::parse(&reply.render()).unwrap(), reply);
        }
    }

    #[test]
    fn ok_parser_surfaces_server_errors() {
        let err = ErrorReply::new(Some("r".into()), ErrorKind::Shutdown, "draining").render();
        let msg = PredictResponse::parse(&err).unwrap_err();
        assert!(msg.contains("shutdown"), "got: {msg}");
        assert!(msg.contains("draining"), "got: {msg}");
    }

    #[test]
    fn status_response_round_trips() {
        let resp = StatusResponse {
            id: "st".into(),
            model: sample_provenance(),
            uptime_s: 12.25,
            counters: ServeCounters {
                requests: 10,
                predicts: 6,
                clips: 40,
                scans: 1,
                reloads: 2,
                errors: 1,
                rejected_busy: 3,
                batches: 4,
                max_batch: 9,
            },
        };
        let parsed = StatusResponse::parse(&resp.render()).unwrap();
        assert_eq!(parsed.counters, resp.counters);
        assert_eq!(parsed.model, resp.model);
        let reload = ReloadResponse {
            id: "up".into(),
            model: sample_provenance(),
        };
        assert_eq!(ReloadResponse::parse(&reload.render()).unwrap(), reload);
    }

    #[test]
    fn error_kind_names_are_stable() {
        for kind in [
            ErrorKind::Parse,
            ErrorKind::Version,
            ErrorKind::Busy,
            ErrorKind::Model,
            ErrorKind::Data,
            ErrorKind::Shutdown,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("bogus"), None);
    }
}
