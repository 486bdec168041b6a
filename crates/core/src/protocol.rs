//! Newline-delimited JSON wire protocol for the `wsn-serve` serving
//! layer.
//!
//! One frame per line, one JSON object per frame, in both directions:
//!
//! * **client → server**: a [`Request`] — a job submission (`run`,
//!   `simulate`, `faults`, `network`, `pareto`) or a control message
//!   (`stats`, `ping`, `cancel`, `shutdown`). Every job may carry a
//!   client-chosen `"id"` tag, echoed verbatim in every frame about that
//!   job, so a client multiplexing jobs on one connection can match
//!   streamed frames to submissions regardless of completion order.
//! * **server → client**: a [`Frame`] — `accepted` (with the assigned
//!   server-wide job number and the queue depth), `running`, `result`
//!   (the report document placed **last**, verbatim), `error`,
//!   `cancelled`, `stats`, `pong`, `shutting_down`, or
//!   `protocol_error`.
//!
//! # Robustness contract
//!
//! Parsing never panics and never kills the connection: a torn,
//! oversized, or garbage line produces a structured [`ProtocolError`]
//! (serialised with [`ProtocolError::to_frame`]) and the stream
//! continues with the next line. Unknown *fields* in a well-formed
//! request are ignored, so an older server accepts a newer client's
//! requests (the new fields take no effect there); an unknown *type* is
//! rejected. Frames larger than [`MAX_FRAME_BYTES`] are rejected before
//! any parsing. Numbers must be finite, and integers below 2^53, the
//! range in which an `f64` holds every integer exactly.
//!
//! # One job spec
//!
//! Each job type's fields — JSON name, type, default and check — are
//! declared once, in the `requests!` invocation below. The job structs,
//! their `Default`s, [`Request::parse`], [`Request::to_json`] and the
//! command-line decoder [`Request::from_argv`] all derive from that
//! declaration. A command line decodes through JSON (`--fault-rate 0.2`
//! is member `"fault_rate":0.2`, a bare `--flag` is `true`), so
//! `wsn_dse`, `wsn_client` and the server read the same job the same
//! way. Unlike JSON, a command line rejects unknown options: a typo is
//! an error there, not a silent default.
//!
//! # Byte-identity contract
//!
//! A `result` frame carries the report exactly as the flow's `to_json`
//! produced it, as the **last** field of the frame, so
//! [`extract_raw_field`] can recover the payload byte-for-byte — the
//! serving layer adds framing, never re-encoding. Reports obtained
//! through the server are therefore byte-identical to the CLI's (the
//! single-node report's embedded `"cache"` counters excepted: those
//! describe the serving process's shared warm cache, not the job).
//!
//! # JSON token writers
//!
//! [`json_string`], [`json_f64`] and [`json_array`] are the one set of
//! token writers behind every hand-rolled `to_json` in the workspace
//! (DSE, fleet and Pareto reports, protocol frames), so every document
//! escapes strings and spells non-finite numbers the same way.

use std::fmt;
use std::io::{self, Write};
use std::ops::Range;

use wsn_node::EngineKind;

/// Upper bound on a single frame, in bytes (newline excluded). Chosen
/// generously above the largest report the flows produce, yet small
/// enough that a garbage stream cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Maximum nesting depth [`parse_json`] accepts, bounding recursion on
/// adversarial input.
pub const MAX_JSON_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A structured wire-protocol error: a stable machine-readable `code`
/// plus a human-readable `message`. Never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable error class: one of `oversized_frame`,
    /// `empty_frame`, `invalid_json`, `not_an_object`, `missing_field`,
    /// `bad_field`, `unknown_type`, `unknown_event`, and for command
    /// lines `unknown_option`, `missing_value`, `unexpected_argument`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }

    /// A field was present but had the wrong type or an out-of-range
    /// value.
    pub fn bad_field(field: &str, detail: impl fmt::Display) -> Self {
        Self::new("bad_field", format!("field {field:?}: {detail}"))
    }

    /// A required field was absent.
    pub fn missing_field(field: &str) -> Self {
        Self::new("missing_field", format!("missing required field {field:?}"))
    }

    /// Serialises the error as a `protocol_error` frame (one line, no
    /// trailing newline).
    pub fn to_frame(&self) -> String {
        format!(
            "{{\"event\":\"protocol_error\",\"code\":\"{}\",\"message\":{}}}",
            self.code,
            json_string(&self.message)
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------------
// JSON token writers, shared by every report's hand-rolled `to_json`
// ---------------------------------------------------------------------------

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON token: `Display` for finite values (which
/// round-trips every value the flows produce), `null` for NaN and the
/// infinities (JSON has no spelling for them).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Joins JSON tokens into an array.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON document model + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve member order (insertion order
/// of the document), which keeps round-trips deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; only finite values are accepted by the parser.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object (`None` for non-objects and
    /// absent keys; the first occurrence wins on duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one exactly:
    /// fractions are rejected, and so is everything from 2^53 up, where
    /// an `f64` no longer holds every integer (2^53 + 1 parses as 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a boolean, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `name` of an object, decoded as `T`; `default` when the
    /// member is absent or `null`.
    ///
    /// # Errors
    ///
    /// A `bad_field` error when the member does not decode as `T`.
    pub fn field<T: Field>(&self, name: &str, default: T) -> Result<T, ProtocolError> {
        match self.get(name) {
            None | Some(Json::Null) => Ok(default),
            Some(v) => T::decode(v).map_err(|detail| ProtocolError::bad_field(name, detail)),
        }
    }
}

/// Parses one JSON document. Lenient only in that it accepts any finite
/// number Rust's `f64` parser does; never panics, never recurses past
/// [`MAX_JSON_DEPTH`].
///
/// # Errors
///
/// Returns an `invalid_json` [`ProtocolError`] (with byte offset in the
/// message) on any malformed input, including trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, ProtocolError> {
    parse_keeping_raw(text, None).map(|(value, _)| value)
}

/// [`parse_json`], also returning the source text of top-level member
/// `field` when the document is an object that has one: the one pass
/// that both validates a frame and finds its embedded report.
fn parse_keeping_raw<'a>(
    text: &'a str,
    field: Option<&str>,
) -> Result<(Json, Option<&'a str>), ProtocolError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let mut raw = None;
    let value = if p.peek() == Some(b'{') {
        let mut members = Vec::new();
        p.members(0, |key, value, span| {
            if raw.is_none() && field == Some(key.as_str()) {
                raw = Some(&text[span]);
            }
            members.push((key, value));
        })?;
        Json::Obj(members)
    } else {
        p.value(0)?
    };
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok((value, raw))
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl fmt::Display) -> ProtocolError {
        ProtocolError::new("invalid_json", format!("{message} (at byte {})", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ProtocolError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ProtocolError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected character {:?}", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, ProtocolError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number token"))?;
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err(format!("invalid number {token:?}"))),
        }
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: needs a \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy everything up to the next quote, backslash or
                    // control byte in one push. Those bytes are ASCII, and
                    // so is the byte before the run, so the run starts and
                    // ends on char boundaries.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ProtocolError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let token = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let unit = u32::from_str_radix(token, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn array(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        let mut members = Vec::new();
        self.members(depth, |key, value, _| members.push((key, value)))?;
        Ok(Json::Obj(members))
    }

    /// Parses an object, handing `each` every member's key, value and
    /// the byte range of the value's source text.
    fn members(
        &mut self,
        depth: usize,
        mut each: impl FnMut(String, Json, Range<usize>),
    ) -> Result<(), ProtocolError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            each(key, value, start..self.pos);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests (client → server): each job type's fields, declared once
// ---------------------------------------------------------------------------

/// How a command line spells an option's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A bare `--flag`, standing for `true`.
    Flag,
    /// `--name N`: a finite number.
    Number,
    /// `--name TEXT`: a string.
    Text,
}

/// A job field's type: how it decodes from a JSON value (a command line
/// decodes through JSON too, see [`argv_to_json`]) and how it encodes.
pub trait Field: Sized {
    /// How a command line spells a value of this type.
    const ARG: Arg;

    /// Decodes a present, non-null value; the error is the detail of a
    /// `bad_field` error.
    fn decode(v: &Json) -> Result<Self, String>;

    /// The value as a JSON token; `None` leaves the member out.
    fn encode(&self) -> Option<String>;

    /// The value a field check reads, for numeric types.
    fn number(&self) -> Option<f64> {
        None
    }
}

impl Field for u64 {
    const ARG: Arg = Arg::Number;

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected a non-negative integer below 2^53".to_owned())
    }

    fn encode(&self) -> Option<String> {
        Some(self.to_string())
    }

    fn number(&self) -> Option<f64> {
        Some(*self as f64)
    }
}

impl Field for f64 {
    const ARG: Arg = Arg::Number;

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_owned())
    }

    fn encode(&self) -> Option<String> {
        Some(json_f64(*self))
    }

    fn number(&self) -> Option<f64> {
        Some(*self)
    }
}

impl Field for bool {
    const ARG: Arg = Arg::Flag;

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a boolean".to_owned())
    }

    fn encode(&self) -> Option<String> {
        Some(self.to_string())
    }
}

impl Field for String {
    const ARG: Arg = Arg::Text;

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| "expected a string".to_owned())
    }

    fn encode(&self) -> Option<String> {
        Some(json_string(self))
    }
}

impl Field for EngineKind {
    const ARG: Arg = Arg::Text;

    fn decode(v: &Json) -> Result<Self, String> {
        String::decode(v)?
            .parse()
            .map_err(|e: wsn_node::NodeError| e.to_string())
    }

    fn encode(&self) -> Option<String> {
        Some(json_string(self.name()))
    }
}

impl<T: Field> Field for Option<T> {
    const ARG: Arg = T::ARG;

    fn decode(v: &Json) -> Result<Self, String> {
        T::decode(v).map(Some)
    }

    fn encode(&self) -> Option<String> {
        self.as_ref().and_then(T::encode)
    }

    fn number(&self) -> Option<f64> {
        self.as_ref().and_then(T::number)
    }
}

/// A numeric field's check: the predicate a value must pass, and the
/// detail of the `bad_field` error when it does not. An absent optional
/// field passes.
struct Check(fn(f64) -> bool, &'static str);

const RATE: Check = Check(|r| (0.0..=1.0).contains(&r), "expected a rate in [0, 1]");
const ENSEMBLE_RATE: Check = Check(
    |r| r > 0.0 && r <= 1.0,
    "a robustness ensemble needs a rate in (0, 1]",
);
const NON_NEGATIVE: Check = Check(|v| v >= 0.0, "expected a non-negative value");
const POSITIVE: Check = Check(|v| v > 0.0, "expected a positive value");
const NODES: Check = Check(|n| n >= 1.0, "a fleet needs at least one node");
const SEEDS: Check = Check(|n| n >= 1.0, "expected at least one realisation");
const BUDGET: Check = Check(
    |n| n >= 4.0,
    "the adaptive driver needs at least four evaluations",
);

fn check<T: Field>(name: &str, value: T, check: &Check) -> Result<T, ProtocolError> {
    match value.number() {
        Some(v) if !(check.0)(v) => Err(ProtocolError::bad_field(name, check.1)),
        _ => Ok(value),
    }
}

/// The payload of a job variant of [`Request`]: the job itself, or a
/// box for a job type marked `boxed`, whose many fields would otherwise
/// set the size of every request.
macro_rules! payload {
    ($job:ident) => { $job };
    ($job:ident boxed) => { Box<$job> };
}

/// Declares the job types. Each field's name, type, default and check
/// is written once; the macro derives the job struct (with the
/// per-submission fields `id` and `timeout_ms` around the job's own),
/// its `Default`, its JSON decoder and encoder, its option table for
/// [`Request::from_argv`], and the job variants of [`Request`].
macro_rules! requests {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident($job:ident) = $kind:literal $(, $boxed:ident)? {
            $(
                $(#[doc = $fdoc:literal])*
                $field:ident: $ty:ty = $default:expr $(=> $check:ident)?,
            )*
        }
    )*) => {
        $(
            $(#[doc = $doc])*
            #[derive(Debug, Clone, PartialEq)]
            pub struct $job {
                /// Optional client-chosen tag, echoed in every frame about
                /// the job (per submission: not a `wsn_dse` option).
                pub id: Option<String>,
                $($(#[doc = $fdoc])* pub $field: $ty,)*
                /// Optional per-evaluation wall-clock budget in
                /// milliseconds, overriding the server's default (per
                /// submission: not a `wsn_dse` option).
                pub timeout_ms: Option<u64>,
            }

            impl Default for $job {
                fn default() -> Self {
                    $job {
                        id: None,
                        $($field: $default,)*
                        timeout_ms: None,
                    }
                }
            }

            impl $job {
                const FIELDS: &'static [(&'static str, Arg)] = &[
                    ("id", Arg::Text),
                    $((stringify!($field), <$ty as Field>::ARG),)*
                    ("timeout_ms", Arg::Number),
                ];

                fn decode(doc: &Json) -> Result<Self, ProtocolError> {
                    let d = Self::default();
                    Ok($job {
                        id: doc.field("id", d.id)?,
                        $($field: {
                            let v = doc.field(stringify!($field), d.$field)?;
                            $(let v = check(stringify!($field), v, &$check)?;)?
                            v
                        },)*
                        timeout_ms: doc.field("timeout_ms", d.timeout_ms)?,
                    })
                }

                fn encode(&self, m: &mut Members) {
                    m.field("id", &self.id);
                    $(m.field(stringify!($field), &self.$field);)*
                    m.field("timeout_ms", &self.timeout_ms);
                }
            }
        )*

        /// One client → server message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Request {
            $(
                #[doc = concat!("Submit a `", $kind, "` job.")]
                $variant(payload!($job $($boxed)?)),
            )*
            /// Ask for server/cache/ladder statistics.
            Stats,
            /// Liveness probe.
            Ping,
            /// Cancel a job by its server-assigned number.
            Cancel {
                /// The server-assigned job number from the `accepted` frame.
                job: u64,
            },
            /// Ask the server to stop accepting work and exit cleanly.
            Shutdown,
        }

        impl Request {
            /// The job tag, for job-submitting requests that carry one.
            pub fn id(&self) -> Option<&str> {
                match self {
                    $(Request::$variant(j) => j.id.as_deref(),)*
                    _ => None,
                }
            }

            /// Whether this request submits a job (as opposed to a control
            /// message answered inline).
            pub fn is_job(&self) -> bool {
                matches!(self, $(Request::$variant(_))|*)
            }

            /// The fields a request of type `kind` reads, with their
            /// command-line spellings; `None` for an unknown type.
            fn fields(kind: &str) -> Option<&'static [(&'static str, Arg)]> {
                match kind {
                    $($kind => Some($job::FIELDS),)*
                    "cancel" => Some(&[("job", Arg::Number)]),
                    "stats" | "ping" | "shutdown" => Some(&[]),
                    _ => None,
                }
            }

            /// Decodes the members of a request of type `kind`.
            fn decode(kind: &str, doc: &Json) -> Result<Request, ProtocolError> {
                match kind {
                    $($kind => $job::decode(doc).map(|job| Request::$variant(job.into())),)*
                    "stats" => Ok(Request::Stats),
                    "ping" => Ok(Request::Ping),
                    "cancel" => match doc.get("job") {
                        None | Some(Json::Null) => Err(ProtocolError::missing_field("job")),
                        Some(_) => Ok(Request::Cancel {
                            job: doc.field("job", 0)?,
                        }),
                    },
                    "shutdown" => Ok(Request::Shutdown),
                    other => Err(ProtocolError::new(
                        "unknown_type",
                        format!("unknown request type {other:?}"),
                    )),
                }
            }

            /// Serialises the request as one frame (no trailing newline).
            /// `Request::parse` of the result reproduces the request
            /// exactly.
            pub fn to_json(&self) -> String {
                let mut m = Members::default();
                match self {
                    $(Request::$variant(j) => {
                        m.member("type", &json_string($kind));
                        j.encode(&mut m);
                    })*
                    Request::Stats => m.member("type", "\"stats\""),
                    Request::Ping => m.member("type", "\"ping\""),
                    Request::Cancel { job } => {
                        m.member("type", "\"cancel\"");
                        m.field("job", job);
                    }
                    Request::Shutdown => m.member("type", "\"shutdown\""),
                }
                m.finish()
            }
        }
    };
}

// Defaults shared by several job types: the paper's original design
// (4 MHz, 320 s, 5 s), its scenario (75 Hz for one hour), its 10-run
// D-optimal plan and the fleet defaults.
const DOE_SEED: u64 = 12;
const DOE_RUNS: u64 = 10;
const F0_HZ: f64 = 75.0;
const HORIZON_S: f64 = 3600.0;
const CLOCK_HZ: f64 = 4e6;
const WATCHDOG_S: f64 = 320.0;
const INTERVAL_S: f64 = 5.0;
const FLEET_SEED: u64 = 99;
const FREQ_SPREAD_HZ: f64 = 2.0;
const PHASE_SPREAD_S: f64 = 30.0;
const RING_RADIUS_M: f64 = 10.0;

requests! {
    /// A single-node DSE job: the paper flow end to end
    /// (`DseFlow::run()`), the CLI's `run --json`.
    Run(RunJob) = "run" {
        /// DOE seed.
        seed: u64 = DOE_SEED,
        /// D-optimal design runs.
        runs: u64 = DOE_RUNS,
        /// Base vibration frequency in Hz.
        f0: f64 = F0_HZ,
        /// Simulated horizon in seconds.
        horizon: f64 = HORIZON_S,
        /// Simulation engine.
        engine: EngineKind = EngineKind::Envelope,
        /// The full engine's analogue step in seconds (0: its default).
        dt: f64 = 0.0 => NON_NEGATIVE,
        /// Fault-injection seed.
        fault_seed: u64 = 0,
        /// Fault-injection rate in `[0, 1]` (0: nominal).
        fault_rate: f64 = 0.0 => RATE,
    }

    /// A single simulation of one node configuration (the CLI's
    /// `simulate --json`).
    Simulate(SimulateJob) = "simulate" {
        /// MCU clock in Hz.
        clock: f64 = CLOCK_HZ,
        /// Watchdog period in seconds.
        watchdog: f64 = WATCHDOG_S,
        /// Transmission interval in seconds.
        interval: f64 = INTERVAL_S,
        /// Base vibration frequency in Hz.
        f0: f64 = F0_HZ,
        /// Simulated horizon in seconds.
        horizon: f64 = HORIZON_S,
        /// Simulation engine.
        engine: EngineKind = EngineKind::Envelope,
        /// The full engine's analogue step in seconds (0: its default).
        dt: f64 = 0.0 => NON_NEGATIVE,
        /// Fault-injection seed.
        fault_seed: u64 = 0,
        /// Fault-injection rate in `[0, 1]` (0: nominal).
        fault_rate: f64 = 0.0 => RATE,
    }

    /// A fault-injection robustness ensemble (the CLI's `faults --json`).
    Faults(FaultsJob) = "faults" {
        /// MCU clock in Hz.
        clock: f64 = CLOCK_HZ,
        /// Watchdog period in seconds.
        watchdog: f64 = WATCHDOG_S,
        /// Transmission interval in seconds.
        interval: f64 = INTERVAL_S,
        /// Base vibration frequency in Hz.
        f0: f64 = F0_HZ,
        /// Simulated horizon in seconds.
        horizon: f64 = HORIZON_S,
        /// Seed of the first realisation.
        fault_seed: u64 = 0,
        /// Fault-injection rate in `(0, 1]`.
        fault_rate: f64 = 0.1 => ENSEMBLE_RATE,
        /// Independent fault realisations.
        seeds: u64 = 8 => SEEDS,
        /// Simulation engine.
        engine: EngineKind = EngineKind::Envelope,
        /// The full engine's analogue step in seconds (0: its default).
        dt: f64 = 0.0 => NON_NEGATIVE,
    }

    /// A fleet job: plain evaluation (`dse: false`, the CLI's
    /// `network --json`) or fleet-level DSE (`dse: true`, the CLI's
    /// `network --dse --json`).
    Network(NetworkJob) = "network", boxed {
        /// Fleet size.
        nodes: u64 = 16 => NODES,
        /// Fleet heterogeneity seed.
        fleet_seed: u64 = FLEET_SEED,
        /// Base vibration frequency in Hz.
        f0: f64 = F0_HZ,
        /// Simulated horizon in seconds.
        horizon: f64 = HORIZON_S,
        /// Per-node frequency spread in Hz.
        freq_spread: f64 = FREQ_SPREAD_HZ => NON_NEGATIVE,
        /// Per-node phase spread in seconds.
        phase_spread: f64 = PHASE_SPREAD_S => NON_NEGATIVE,
        /// Use the ideal (collision-free) channel.
        ideal: bool = false,
        /// Channel slot in seconds (absent: the channel's own).
        slot: Option<f64> = None => POSITIVE,
        /// Interference range in metres (absent: the channel's own).
        interference: Option<f64> = None => NON_NEGATIVE,
        /// Delivery range in metres (absent: the channel's own).
        delivery: Option<f64> = None => NON_NEGATIVE,
        /// Ring topology radius in metres.
        ring_radius: f64 = RING_RADIUS_M,
        /// Grid topology pitch in metres (present: a grid, not a ring).
        grid_pitch: Option<f64> = None,
        /// Run the fleet-level DSE instead of a single evaluation.
        dse: bool = false,
        /// DOE seed (DSE only).
        seed: u64 = DOE_SEED,
        /// D-optimal design runs (DSE only).
        runs: u64 = DOE_RUNS,
        /// MCU clock in Hz (plain evaluation only).
        clock: f64 = CLOCK_HZ,
        /// Watchdog period in seconds (plain evaluation only).
        watchdog: f64 = WATCHDOG_S,
        /// Transmission interval in seconds (plain evaluation only).
        interval: f64 = INTERVAL_S,
        /// Simulation engine.
        engine: EngineKind = EngineKind::Envelope,
        /// The full engine's analogue step in seconds (0: its default).
        dt: f64 = 0.0 => NON_NEGATIVE,
        /// Fault-injection seed.
        fault_seed: u64 = 0,
        /// Fault-injection rate in `[0, 1]` (0: nominal).
        fault_rate: f64 = 0.0 => RATE,
    }

    /// A multi-objective Pareto DSE job: the CLI's `pareto --json`
    /// (single-node) or `pareto --fleet --json`. The fleet fields are
    /// those of [`NetworkJob`] and apply with `fleet` only.
    Pareto(ParetoJob) = "pareto", boxed {
        /// Optimise the fleet objective vector instead of the
        /// single-node one.
        fleet: bool = false,
        /// Fleet size.
        nodes: u64 = 5 => NODES,
        /// Fleet heterogeneity seed.
        fleet_seed: u64 = FLEET_SEED,
        /// Base vibration frequency in Hz.
        f0: f64 = F0_HZ,
        /// Simulated horizon in seconds.
        horizon: f64 = HORIZON_S,
        /// Per-node frequency spread in Hz.
        freq_spread: f64 = FREQ_SPREAD_HZ => NON_NEGATIVE,
        /// Per-node phase spread in seconds.
        phase_spread: f64 = PHASE_SPREAD_S => NON_NEGATIVE,
        /// Use the ideal (collision-free) channel.
        ideal: bool = false,
        /// Channel slot in seconds (absent: the channel's own).
        slot: Option<f64> = None => POSITIVE,
        /// Interference range in metres (absent: the channel's own).
        interference: Option<f64> = None => NON_NEGATIVE,
        /// Delivery range in metres (absent: the channel's own).
        delivery: Option<f64> = None => NON_NEGATIVE,
        /// Ring topology radius in metres.
        ring_radius: f64 = RING_RADIUS_M,
        /// Grid topology pitch in metres (present: a grid, not a ring).
        grid_pitch: Option<f64> = None,
        /// Fault-injection seed.
        fault_seed: u64 = 0,
        /// Fault-injection rate in `[0, 1]` (0: nominal).
        fault_rate: f64 = 0.0 => RATE,
        /// Comma-separated objective-axis subset (absent: the full
        /// vector).
        objectives: Option<String> = None,
        /// Adaptive sequential DOE instead of the fixed D-optimal plan.
        adaptive: bool = false,
        /// Adaptive evaluation budget (design points).
        budget: u64 = 18 => BUDGET,
        /// Adaptive points acquired per round.
        batch: u64 = 3,
        /// Cap on the validated front's size.
        front_cap: u64 = 12,
        /// Acquisition exploration weight in `[0, 1]`.
        explore: f64 = 0.5,
        /// DOE / acquisition / NSGA-II seed.
        seed: u64 = DOE_SEED,
        /// Fixed plan's design size (non-adaptive only).
        runs: u64 = DOE_RUNS,
        /// Simulation engine.
        engine: EngineKind = EngineKind::Envelope,
        /// The full engine's analogue step in seconds (0: its default).
        dt: f64 = 0.0 => NON_NEGATIVE,
        /// Widen the space with the optional timer-quantum factor.
        timer_space: bool = false,
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Any malformed line yields a structured [`ProtocolError`]; this
    /// function never panics.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        if line.len() > MAX_FRAME_BYTES {
            return Err(ProtocolError::new(
                "oversized_frame",
                format!(
                    "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                    line.len()
                ),
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Err(ProtocolError::new("empty_frame", "blank line"));
        }
        let doc = parse_json(trimmed)?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(ProtocolError::new(
                "not_an_object",
                "a request frame must be a JSON object",
            ));
        }
        let kind = match doc.get("type") {
            None => return Err(ProtocolError::missing_field("type")),
            Some(v) => String::decode(v).map_err(|e| ProtocolError::bad_field("type", e))?,
        };
        Request::decode(&kind, &doc)
    }

    /// Decodes a command line into the request the same options would
    /// make as JSON members: `wsn_dse` and `wsn_client` parse argv
    /// through this, so both decode exactly as the server does.
    ///
    /// `kind` is the request type (`run`, `cancel`, …) and `argv` its
    /// options. `extra` names the caller's own options, such as output
    /// and context flags; their values come back in the returned
    /// object. `submission` admits the per-submission fields `id` and
    /// `timeout_ms`.
    ///
    /// # Errors
    ///
    /// `unknown_type` for an unknown `kind`, the errors of
    /// [`argv_to_json`], and every error the JSON decoder reports.
    pub fn from_argv(
        kind: &str,
        argv: &[String],
        extra: &[(&str, Arg)],
        submission: bool,
    ) -> Result<(Request, Json), ProtocolError> {
        let fields = Request::fields(kind).ok_or_else(|| {
            ProtocolError::new("unknown_type", format!("unknown request type {kind:?}"))
        })?;
        let table: Vec<(&str, Arg)> = fields
            .iter()
            .copied()
            .filter(|(name, _)| submission || !matches!(*name, "id" | "timeout_ms"))
            .chain(extra.iter().copied())
            .collect();
        let doc = argv_to_json(argv, &table)?;
        Ok((Request::decode(kind, &doc)?, doc))
    }
}

/// Decodes command-line options into a JSON object, by a table of the
/// known options: `--kebab-name VALUE` becomes member `snake_name` (a
/// number or a string, as the table says) and a bare `--flag` becomes
/// `true`. Members keep the command line's order, so the first of two
/// repeated options wins, as in a JSON object.
///
/// # Errors
///
/// Every error names the option: `unknown_option` for one the table
/// lacks, `missing_value` for a value option without its value,
/// `unexpected_argument` for a token that is neither option nor value,
/// and `bad_field` for a number that does not parse or is not finite.
pub fn argv_to_json(argv: &[String], table: &[(&str, Arg)]) -> Result<Json, ProtocolError> {
    let mut members = Vec::new();
    let mut tokens = argv.iter().peekable();
    while let Some(token) = tokens.next() {
        let Some(option) = token.strip_prefix("--") else {
            return Err(ProtocolError::new(
                "unexpected_argument",
                format!("unexpected argument {token:?}"),
            ));
        };
        let Some(&(name, arg)) = table
            .iter()
            .find(|(name, _)| name.replace('_', "-") == option)
        else {
            return Err(ProtocolError::new(
                "unknown_option",
                format!("unknown option --{option}"),
            ));
        };
        let value = match arg {
            Arg::Flag => Json::Bool(true),
            Arg::Text | Arg::Number => {
                let Some(text) = tokens.next_if(|t| !t.starts_with("--")) else {
                    return Err(ProtocolError::new(
                        "missing_value",
                        format!("option --{option} needs a value"),
                    ));
                };
                match (arg, text.parse::<f64>()) {
                    (Arg::Text, _) => Json::Str(text.clone()),
                    (_, Ok(v)) if v.is_finite() => Json::Num(v),
                    _ => {
                        return Err(ProtocolError::bad_field(
                            name,
                            format!("expected a finite number, got {text:?}"),
                        ))
                    }
                }
            }
        };
        members.push((name.to_owned(), value));
    }
    Ok(Json::Obj(members))
}

/// Incremental JSON-object writer for frames.
#[derive(Default)]
struct Members {
    out: String,
}

impl Members {
    fn member(&mut self, key: &str, token: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        self.out.push_str(&json_string(key));
        self.out.push(':');
        self.out.push_str(token);
    }

    fn field<T: Field>(&mut self, key: &str, value: &T) {
        if let Some(token) = value.encode() {
            self.member(key, &token);
        }
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

// ---------------------------------------------------------------------------
// Frames (server → client)
// ---------------------------------------------------------------------------

fn id_member(id: Option<&str>) -> String {
    match id {
        Some(id) => format!(",\"id\":{}", json_string(id)),
        None => String::new(),
    }
}

/// The `accepted` frame: the job was queued under `job`, with
/// `queue_depth` jobs (this one included) not yet finished.
pub fn accepted_frame(job: u64, id: Option<&str>, queue_depth: usize) -> String {
    format!(
        "{{\"event\":\"accepted\",\"job\":{job}{},\"queue_depth\":{queue_depth}}}",
        id_member(id)
    )
}

/// The `running` progress frame: a worker picked the job up.
pub fn running_frame(job: u64, id: Option<&str>) -> String {
    format!("{{\"event\":\"running\",\"job\":{job}{}}}", id_member(id))
}

/// The `result` frame. `report` must be a complete JSON document; it is
/// embedded verbatim as the **last** member, so clients can recover it
/// byte-for-byte with [`extract_raw_field`].
pub fn result_frame(job: u64, id: Option<&str>, report: &str) -> String {
    format!(
        "{{\"event\":\"result\",\"job\":{job}{},\"report\":{report}}}",
        id_member(id)
    )
}

/// The `error` frame: the job failed (the connection and the server
/// survive).
pub fn job_error_frame(job: u64, id: Option<&str>, message: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"job\":{job}{},\"message\":{}}}",
        id_member(id),
        json_string(message)
    )
}

/// The `cancelled` frame: the job will produce no result. `state` names
/// what the cancel hit: `queued` (removed before running), `running`
/// (result suppressed when the evaluation returns), `finished` or
/// `unknown` (nothing to do).
pub fn cancelled_frame(job: u64, id: Option<&str>, state: &str) -> String {
    format!(
        "{{\"event\":\"cancelled\",\"job\":{job}{},\"state\":\"{state}\"}}",
        id_member(id)
    )
}

/// The `pong` liveness reply.
pub fn pong_frame() -> String {
    "{\"event\":\"pong\"}".to_owned()
}

/// The `shutting_down` acknowledgement.
pub fn shutting_down_frame() -> String {
    "{\"event\":\"shutting_down\"}".to_owned()
}

/// Sends one frame, in either direction: the frame and its newline in a
/// single write, then a flush.
///
/// Writing the newline separately would put it in a second small
/// segment. With Nagle's algorithm on, that segment waits for the
/// peer's ACK of the first, and a peer with nothing to send delays its
/// ACK (40 ms on Linux). Both ends of the protocol frame through this
/// function and also set `TCP_NODELAY`.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn write_frame(w: &mut impl Write, frame: &str) -> io::Result<()> {
    let mut line = Vec::with_capacity(frame.len() + 1);
    line.extend_from_slice(frame.as_bytes());
    line.push(b'\n');
    w.write_all(&line)?;
    w.flush()
}

/// One server → client message, as seen by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Job queued.
    Accepted {
        /// Server-assigned job number.
        job: u64,
        /// Echoed client tag.
        id: Option<String>,
        /// Unfinished jobs at acceptance time (this one included).
        queue_depth: u64,
    },
    /// Job picked up by a worker.
    Running {
        /// Server-assigned job number.
        job: u64,
        /// Echoed client tag.
        id: Option<String>,
    },
    /// Job finished; `report` holds the payload exactly as produced.
    Result {
        /// Server-assigned job number.
        job: u64,
        /// Echoed client tag.
        id: Option<String>,
        /// The report document, byte-for-byte.
        report: String,
    },
    /// Job failed.
    JobError {
        /// Server-assigned job number.
        job: u64,
        /// Echoed client tag.
        id: Option<String>,
        /// Failure description.
        message: String,
    },
    /// Job cancelled; no result will follow.
    Cancelled {
        /// Server-assigned job number.
        job: u64,
        /// Echoed client tag.
        id: Option<String>,
        /// What the cancel hit (`queued`, `running`, `finished`,
        /// `unknown`).
        state: String,
    },
    /// The offending line was rejected; the connection survives.
    ProtocolRejected {
        /// Machine-readable error class.
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Server statistics; the raw frame is kept for downstream parsing.
    Stats {
        /// The whole frame, verbatim.
        raw: String,
    },
    /// Liveness reply.
    Pong,
    /// The server acknowledged a shutdown request.
    ShuttingDown,
}

impl Frame {
    /// Parses one server → client line.
    ///
    /// # Errors
    ///
    /// Any malformed line yields a structured [`ProtocolError`]; this
    /// function never panics.
    pub fn parse(line: &str) -> Result<Frame, ProtocolError> {
        if line.len() > MAX_FRAME_BYTES {
            return Err(ProtocolError::new(
                "oversized_frame",
                format!(
                    "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                    line.len()
                ),
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Err(ProtocolError::new("empty_frame", "blank line"));
        }
        let (doc, report) = parse_keeping_raw(trimmed, Some("report"))?;
        let event = doc
            .get("event")
            .ok_or_else(|| ProtocolError::missing_field("event"))?
            .as_str()
            .ok_or_else(|| ProtocolError::bad_field("event", "expected a string"))?
            .to_owned();
        let job = |field: &str| -> Result<u64, ProtocolError> {
            doc.get(field)
                .ok_or_else(|| ProtocolError::missing_field(field))?
                .as_u64()
                .ok_or_else(|| ProtocolError::bad_field(field, "expected a job number"))
        };
        let text = |field: &str| -> Result<String, ProtocolError> {
            doc.get(field)
                .ok_or_else(|| ProtocolError::missing_field(field))?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| ProtocolError::bad_field(field, "expected a string"))
        };
        match event.as_str() {
            "accepted" => Ok(Frame::Accepted {
                job: job("job")?,
                id: doc.field("id", None)?,
                queue_depth: job("queue_depth")?,
            }),
            "running" => Ok(Frame::Running {
                job: job("job")?,
                id: doc.field("id", None)?,
            }),
            "result" => Ok(Frame::Result {
                job: job("job")?,
                id: doc.field("id", None)?,
                report: report
                    .ok_or_else(|| ProtocolError::missing_field("report"))?
                    .to_owned(),
            }),
            "error" => Ok(Frame::JobError {
                job: job("job")?,
                id: doc.field("id", None)?,
                message: text("message")?,
            }),
            "cancelled" => Ok(Frame::Cancelled {
                job: job("job")?,
                id: doc.field("id", None)?,
                state: text("state")?,
            }),
            "protocol_error" => Ok(Frame::ProtocolRejected {
                code: text("code")?,
                message: text("message")?,
            }),
            "stats" => Ok(Frame::Stats {
                raw: trimmed.to_owned(),
            }),
            "pong" => Ok(Frame::Pong),
            "shutting_down" => Ok(Frame::ShuttingDown),
            other => Err(ProtocolError::new(
                "unknown_event",
                format!("unknown frame event {other:?}"),
            )),
        }
    }
}

/// Returns the raw bytes of top-level member `field` of the JSON object
/// in `text`: exactly the value's source span, untouched. `None` when
/// `text` is not a valid JSON object or the field is absent. The text is
/// read with [`parse_json`]'s grammar.
///
/// This is what lets a client recover a `result` frame's report
/// byte-for-byte without ever re-encoding it.
pub fn extract_raw_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    parse_keeping_raw(text.trim(), Some(field)).ok()?.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_defaults() {
        let req = Request::Run(RunJob::default());
        assert_eq!(Request::parse(&req.to_json()).unwrap(), req);
    }

    /// `network` and `pareto` jobs are boxed, so a request is no larger
    /// than the largest job it holds inline plus its tag.
    #[test]
    fn requests_box_their_largest_jobs() {
        use std::mem::size_of;
        let inline = size_of::<RunJob>()
            .max(size_of::<SimulateJob>())
            .max(size_of::<FaultsJob>());
        assert!(size_of::<NetworkJob>() > inline && size_of::<ParetoJob>() > inline);
        let size = size_of::<Request>();
        assert!(size <= inline + 8, "a request takes {size} bytes");
    }

    #[test]
    fn missing_fields_fall_back_to_cli_defaults() {
        let req = Request::parse(r#"{"type":"run"}"#).unwrap();
        assert_eq!(req, Request::Run(RunJob::default()));
    }

    #[test]
    fn pareto_request_round_trips_and_defaults() {
        let req = Request::parse(r#"{"type":"pareto"}"#).unwrap();
        assert_eq!(req, Request::Pareto(Box::default()));
        let full = Request::Pareto(Box::new(ParetoJob {
            id: Some("front-1".to_owned()),
            fleet: true,
            nodes: 3,
            objectives: Some("goodput_per_hour,collision_rate".to_owned()),
            adaptive: true,
            budget: 14,
            timer_space: true,
            timeout_ms: Some(9000),
            ..ParetoJob::default()
        }));
        assert_eq!(Request::parse(&full.to_json()).unwrap(), full);
        assert!(full.is_job());
        assert_eq!(full.id(), Some("front-1"));
    }

    #[test]
    fn pareto_request_rejects_degenerate_budgets_and_fleets() {
        let err = Request::parse(r#"{"type":"pareto","budget":2}"#).unwrap_err();
        assert_eq!(err.code, "bad_field");
        let err = Request::parse(r#"{"type":"pareto","fleet":true,"nodes":0}"#).unwrap_err();
        assert_eq!(err.code, "bad_field");
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_owned()).collect()
    }

    fn cli(kind: &str, tokens: &[&str]) -> Result<Request, ProtocolError> {
        Request::from_argv(kind, &argv(tokens), &[], false).map(|(request, _)| request)
    }

    #[test]
    fn argv_pairs_flags_and_defaults() {
        let table = [
            ("seed", Arg::Number),
            ("json", Arg::Flag),
            ("fault_rate", Arg::Number),
            ("tag", Arg::Text),
        ];
        let tokens = argv(&[
            "--seed",
            "7",
            "--json",
            "--fault-rate",
            "0.25",
            "--tag",
            "x y",
        ]);
        let opts = argv_to_json(&tokens, &table).unwrap();
        assert_eq!(opts.field("seed", 12u64).unwrap(), 7);
        assert_eq!(opts.field("runs", 10u64).unwrap(), 10);
        assert_eq!(opts.field("fault_rate", 0.0).unwrap(), 0.25);
        assert_eq!(
            opts.field::<Option<String>>("tag", None)
                .unwrap()
                .as_deref(),
            Some("x y")
        );
        assert!(opts.field("json", false).unwrap());
        assert!(!opts.field("trace", false).unwrap());
    }

    #[test]
    fn argv_positional_arguments_are_rejected() {
        let err = argv_to_json(&argv(&["stray"]), &[]).unwrap_err();
        assert_eq!(err.code, "unexpected_argument");
        // A flag takes no value, so a token after it is positional.
        let err = cli("run", &["--ideal", "yes"]).unwrap_err();
        assert_eq!(err.code, "unknown_option");
        let err = cli("network", &["--ideal", "yes"]).unwrap_err();
        assert_eq!(err.code, "unexpected_argument");
    }

    #[test]
    fn argv_and_json_decode_to_the_same_job() {
        let from_argv = cli(
            "network",
            &[
                "--grid-pitch",
                "30",
                "--interference",
                "20",
                "--ideal",
                "--dt",
                "1e-4",
            ],
        )
        .unwrap();
        let from_json = Request::parse(
            r#"{"type":"network","grid_pitch":30,"interference":20,"ideal":true,"dt":0.0001}"#,
        )
        .unwrap();
        assert_eq!(from_argv, from_json);
        let Request::Network(job) = from_argv else {
            panic!("not a network job")
        };
        assert_eq!(job.grid_pitch, Some(30.0));
        assert_eq!(job.slot, None);
        assert_eq!(job.horizon, 3600.0);
    }

    #[test]
    fn rule_a_faults_defaults_to_the_protocol_rate() {
        let expected = Request::Faults(FaultsJob::default());
        assert_eq!(FaultsJob::default().fault_rate, 0.1);
        assert_eq!(cli("faults", &[]).unwrap(), expected);
        assert_eq!(Request::parse(r#"{"type":"faults"}"#).unwrap(), expected);
        for zero in [
            cli("faults", &["--fault-rate", "0"]),
            Request::parse(r#"{"type":"faults","fault_rate":0}"#),
        ] {
            assert_eq!(zero.unwrap_err().code, "bad_field");
        }
    }

    #[test]
    fn rule_b_pareto_budgets_below_four_are_rejected() {
        for err in [
            cli("pareto", &["--budget", "3"]).unwrap_err(),
            Request::parse(r#"{"type":"pareto","budget":3}"#).unwrap_err(),
        ] {
            assert_eq!(err.code, "bad_field");
            assert!(err.message.contains("budget"), "{err}");
        }
        assert!(cli("pareto", &["--budget", "4"]).is_ok());
    }

    #[test]
    fn rule_c_integers_are_exact_only_below_2_pow_53() {
        for seed in ["9007199254740992", "9007199254740993"] {
            let json = format!(r#"{{"type":"run","seed":{seed}}}"#);
            assert_eq!(Request::parse(&json).unwrap_err().code, "bad_field");
            assert_eq!(cli("run", &["--seed", seed]).unwrap_err().code, "bad_field");
        }
        let largest = Request::Run(RunJob {
            seed: (1 << 53) - 1,
            ..RunJob::default()
        });
        assert_eq!(Request::parse(&largest.to_json()).unwrap(), largest);
        assert_eq!(
            cli("run", &["--seed", "9007199254740991"]).unwrap(),
            largest
        );
    }

    #[test]
    fn rule_d_numbers_must_be_finite() {
        for token in ["inf", "-inf", "NaN", "1e999"] {
            let err = cli("run", &["--horizon", token]).unwrap_err();
            assert_eq!(err.code, "bad_field", "{token}");
            assert!(err.message.contains("horizon"), "{err}");
        }
        let err = Request::parse(r#"{"type":"run","horizon":1e999}"#).unwrap_err();
        assert_eq!(err.code, "invalid_json");
    }

    #[test]
    fn rule_f_command_lines_reject_unknown_options_and_missing_values() {
        let err = cli("simulate", &["--hoirzon", "60"]).unwrap_err();
        assert_eq!(err.code, "unknown_option");
        assert!(err.message.contains("--hoirzon"), "{err}");
        let err = cli("run", &["--linalg", "bogus"]).unwrap_err();
        assert!(err.message.contains("--linalg"), "{err}");
        for tokens in [&["--seed"][..], &["--seed", "--horizon", "60"]] {
            let err = cli("run", tokens).unwrap_err();
            assert_eq!(err.code, "missing_value");
            assert!(err.message.contains("--seed"), "{err}");
        }
        // Per-submission fields are for JSON and the client only.
        assert_eq!(
            cli("run", &["--id", "x"]).unwrap_err().code,
            "unknown_option"
        );
        let (request, _) =
            Request::from_argv("run", &argv(&["--id", "x", "--timeout-ms", "5"]), &[], true)
                .unwrap();
        assert_eq!(request.id(), Some("x"));
        // JSON keeps ignoring unknown fields, for forward compatibility.
        assert_eq!(
            Request::parse(r#"{"type":"run","hoirzon":60}"#).unwrap(),
            Request::Run(RunJob::default())
        );
    }

    #[test]
    fn control_requests_decode_from_argv() {
        let (request, _) = Request::from_argv("cancel", &argv(&["--job", "3"]), &[], true).unwrap();
        assert_eq!(request, Request::Cancel { job: 3 });
        let err = Request::from_argv("cancel", &[], &[], true).unwrap_err();
        assert_eq!(err.code, "missing_field");
        let err = Request::from_argv("frobnicate", &[], &[], true).unwrap_err();
        assert_eq!(err.code, "unknown_type");
    }

    #[test]
    fn unknown_type_is_structured() {
        let err = Request::parse(r#"{"type":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.code, "unknown_type");
    }

    #[test]
    fn garbage_is_invalid_json_never_panic() {
        for line in ["{", "tru", "[1,", "{\"a\":}", "\u{7f}nope", "{\"type\":12}"] {
            let err = Request::parse(line).unwrap_err();
            assert!(!err.code.is_empty());
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_parsing() {
        let line = format!(
            "{{\"type\":\"run\",\"id\":\"{}\"}}",
            "x".repeat(MAX_FRAME_BYTES)
        );
        assert_eq!(Request::parse(&line).unwrap_err().code, "oversized_frame");
    }

    #[test]
    fn result_frame_report_survives_byte_for_byte() {
        let report = r#"{"a":[1,2,{"b":"}]\" tricky"}],"c":null}"#;
        let frame = result_frame(7, Some("tag"), report);
        assert_eq!(extract_raw_field(&frame, "report"), Some(report));
        match Frame::parse(&frame).unwrap() {
            Frame::Result { job, id, report: r } => {
                assert_eq!(job, 7);
                assert_eq!(id.as_deref(), Some("tag"));
                assert_eq!(r, report);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn protocol_error_frame_round_trips() {
        let err = ProtocolError::bad_field("seed", "expected a number");
        match Frame::parse(&err.to_frame()).unwrap() {
            Frame::ProtocolRejected { code, message } => {
                assert_eq!(code, "bad_field");
                assert!(message.contains("seed"));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn write_frame_issues_one_write_including_the_newline() {
        #[derive(Default)]
        struct Counting {
            writes: Vec<Vec<u8>>,
            flushes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.flushes += 1;
                Ok(())
            }
        }
        let mut w = Counting::default();
        write_frame(&mut w, &pong_frame()).unwrap();
        assert_eq!(w.writes, vec![b"{\"event\":\"pong\"}\n".to_vec()]);
        assert_eq!(w.flushes, 1);
    }
}
