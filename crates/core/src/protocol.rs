//! Newline-delimited JSON wire protocol for the `wsn-serve` serving
//! layer.
//!
//! One frame per line, one JSON object per frame, in both directions:
//!
//! * **client → server**: a [`Request`] — a job submission (`run`,
//!   `simulate`, `faults`, `network`) or a control message (`stats`,
//!   `ping`, `cancel`, `shutdown`). Every job may carry a client-chosen
//!   `"id"` tag, echoed verbatim in every frame about that job, so a
//!   client multiplexing jobs on one connection can match streamed
//!   frames to submissions regardless of completion order.
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
//! request are ignored for forward compatibility; an unknown *type* is
//! rejected. Frames larger than [`MAX_FRAME_BYTES`] are rejected before
//! any parsing.
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

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

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
    /// `bad_field`, `unknown_type`, `unknown_event`.
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

    /// The value as a non-negative integer, when it is one exactly
    /// (rejects fractions and values beyond 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9_007_199_254_740_992.0 => {
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
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
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
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe_free_utf8_prefix(rest);
                    out.push_str(s);
                    self.pos += s.len();
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
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// The longest prefix of `bytes` that is one complete UTF-8 scalar.
/// `bytes` comes from a `&str`, so the prefix is always valid; the name
/// records that no `unsafe` is involved.
fn unsafe_free_utf8_prefix(bytes: &[u8]) -> &str {
    let len = match bytes[0] {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    };
    std::str::from_utf8(&bytes[..len.min(bytes.len())]).unwrap_or("\u{fffd}")
}

// ---------------------------------------------------------------------------
// Requests (client → server)
// ---------------------------------------------------------------------------

/// A single-node DSE job: the paper flow end to end
/// (`DseFlow::run()`), equivalent to the CLI's `run --json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunJob {
    /// Optional client-chosen tag, echoed in every frame about the job.
    pub id: Option<String>,
    /// DOE seed (CLI default 12).
    pub seed: u64,
    /// D-optimal design runs (CLI default 10).
    pub runs: u64,
    /// Base vibration frequency in Hz (CLI default 75).
    pub f0: f64,
    /// Simulated horizon in seconds (CLI default 3600).
    pub horizon: f64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Fault-injection seed (0 with rate 0.0 means nominal).
    pub fault_seed: u64,
    /// Fault-injection rate in `[0, 1]`.
    pub fault_rate: f64,
    /// Optional per-evaluation wall-clock budget, in milliseconds,
    /// mapped onto the pool's deadline machinery.
    pub timeout_ms: Option<u64>,
}

impl Default for RunJob {
    fn default() -> Self {
        RunJob {
            id: None,
            seed: 12,
            runs: 10,
            f0: 75.0,
            horizon: 3600.0,
            engine: EngineKind::Envelope,
            fault_seed: 0,
            fault_rate: 0.0,
            timeout_ms: None,
        }
    }
}

/// A single simulation of one node configuration (the CLI's
/// `simulate --json`, trace disabled).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateJob {
    /// Optional client-chosen tag.
    pub id: Option<String>,
    /// MCU clock in Hz (CLI default 4e6).
    pub clock: f64,
    /// Watchdog period in seconds (CLI default 320).
    pub watchdog: f64,
    /// Transmission interval in seconds (CLI default 5).
    pub interval: f64,
    /// Base vibration frequency in Hz.
    pub f0: f64,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// Fault-injection rate in `[0, 1]`.
    pub fault_rate: f64,
    /// Optional wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Default for SimulateJob {
    fn default() -> Self {
        SimulateJob {
            id: None,
            clock: 4e6,
            watchdog: 320.0,
            interval: 5.0,
            f0: 75.0,
            horizon: 3600.0,
            engine: EngineKind::Envelope,
            fault_seed: 0,
            fault_rate: 0.0,
            timeout_ms: None,
        }
    }
}

/// A fault-injection robustness ensemble (the CLI's `faults --json`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsJob {
    /// Optional client-chosen tag.
    pub id: Option<String>,
    /// MCU clock in Hz.
    pub clock: f64,
    /// Watchdog period in seconds.
    pub watchdog: f64,
    /// Transmission interval in seconds.
    pub interval: f64,
    /// Base vibration frequency in Hz.
    pub f0: f64,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// Fault-injection rate; must be positive for an ensemble to mean
    /// anything.
    pub fault_rate: f64,
    /// Independent fault realisations (CLI default 8, at least 1).
    pub seeds: u64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Optional wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Default for FaultsJob {
    fn default() -> Self {
        FaultsJob {
            id: None,
            clock: 4e6,
            watchdog: 320.0,
            interval: 5.0,
            f0: 75.0,
            horizon: 3600.0,
            fault_seed: 0,
            fault_rate: 0.1,
            seeds: 8,
            engine: EngineKind::Envelope,
            timeout_ms: None,
        }
    }
}

/// A fleet job: plain evaluation (`dse: false`, the CLI's
/// `network --json`) or fleet-level DSE (`dse: true`, the CLI's
/// `network --dse --json`). Exotic channel and topology knobs keep
/// their CLI defaults; they stay CLI-only until a client needs them.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkJob {
    /// Optional client-chosen tag.
    pub id: Option<String>,
    /// Fleet size (CLI default 16, at least 1).
    pub nodes: u64,
    /// Fleet heterogeneity seed (CLI default 99).
    pub fleet_seed: u64,
    /// Base vibration frequency in Hz.
    pub f0: f64,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Per-node frequency spread in Hz (CLI default 2).
    pub freq_spread: f64,
    /// Per-node phase spread in seconds (CLI default 30).
    pub phase_spread: f64,
    /// Use the ideal (collision-free) channel.
    pub ideal: bool,
    /// Run the fleet-level DSE instead of a single evaluation.
    pub dse: bool,
    /// DOE seed (DSE only).
    pub seed: u64,
    /// D-optimal design runs (DSE only).
    pub runs: u64,
    /// MCU clock in Hz (plain evaluation only).
    pub clock: f64,
    /// Watchdog period in seconds (plain evaluation only).
    pub watchdog: f64,
    /// Transmission interval in seconds (plain evaluation only).
    pub interval: f64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// Fault-injection rate in `[0, 1]`.
    pub fault_rate: f64,
    /// Optional wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Default for NetworkJob {
    fn default() -> Self {
        NetworkJob {
            id: None,
            nodes: 16,
            fleet_seed: 99,
            f0: 75.0,
            horizon: 3600.0,
            freq_spread: 2.0,
            phase_spread: 30.0,
            ideal: false,
            dse: false,
            seed: 12,
            runs: 10,
            clock: 4e6,
            watchdog: 320.0,
            interval: 5.0,
            engine: EngineKind::Envelope,
            fault_seed: 0,
            fault_rate: 0.0,
            timeout_ms: None,
        }
    }
}

/// A multi-objective Pareto DSE job: the CLI's `pareto --json`
/// (single-node) or `pareto --fleet --json`. Exotic fleet knobs
/// (spreads, channel, topology) keep their CLI defaults; they stay
/// CLI-only until a client needs them.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoJob {
    /// Optional client-chosen tag.
    pub id: Option<String>,
    /// Optimise the fleet objective vector instead of the single-node
    /// one.
    pub fleet: bool,
    /// Fleet size (fleet mode only; CLI default 5, at least 1).
    pub nodes: u64,
    /// Fleet heterogeneity seed (fleet mode only; CLI default 99).
    pub fleet_seed: u64,
    /// Base vibration frequency in Hz.
    pub f0: f64,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Comma-separated objective-axis subset (`None` = full vector).
    pub objectives: Option<String>,
    /// Adaptive sequential DOE instead of the fixed D-optimal plan.
    pub adaptive: bool,
    /// Adaptive evaluation budget (design points).
    pub budget: u64,
    /// DOE / acquisition / NSGA-II seed.
    pub seed: u64,
    /// Fixed plan's design size (non-adaptive only).
    pub runs: u64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Widen the space with the optional timer-quantum factor.
    pub timer_space: bool,
    /// Optional wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Default for ParetoJob {
    fn default() -> Self {
        ParetoJob {
            id: None,
            fleet: false,
            nodes: 5,
            fleet_seed: 99,
            f0: 75.0,
            horizon: 3600.0,
            objectives: None,
            adaptive: false,
            budget: 18,
            seed: 12,
            runs: 10,
            engine: EngineKind::Envelope,
            timer_space: false,
            timeout_ms: None,
        }
    }
}

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a single-node DSE job.
    Run(RunJob),
    /// Submit a single simulation.
    Simulate(SimulateJob),
    /// Submit a robustness ensemble.
    Faults(FaultsJob),
    /// Submit a fleet evaluation or fleet DSE.
    Network(NetworkJob),
    /// Submit a multi-objective Pareto DSE (single-node or fleet).
    Pareto(ParetoJob),
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
            Request::Run(j) => j.id.as_deref(),
            Request::Simulate(j) => j.id.as_deref(),
            Request::Faults(j) => j.id.as_deref(),
            Request::Network(j) => j.id.as_deref(),
            Request::Pareto(j) => j.id.as_deref(),
            _ => None,
        }
    }

    /// Whether this request submits a job (as opposed to a control
    /// message answered inline).
    pub fn is_job(&self) -> bool {
        matches!(
            self,
            Request::Run(_)
                | Request::Simulate(_)
                | Request::Faults(_)
                | Request::Network(_)
                | Request::Pareto(_)
        )
    }

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
        let kind = doc
            .get("type")
            .ok_or_else(|| ProtocolError::missing_field("type"))?
            .as_str()
            .ok_or_else(|| ProtocolError::bad_field("type", "expected a string"))?
            .to_owned();
        match kind.as_str() {
            "run" => Ok(Request::Run(RunJob {
                id: opt_str(&doc, "id")?,
                seed: u64_or(&doc, "seed", 12)?,
                runs: u64_or(&doc, "runs", 10)?,
                f0: f64_or(&doc, "f0", 75.0)?,
                horizon: f64_or(&doc, "horizon", 3600.0)?,
                engine: engine_or(&doc)?,
                fault_seed: u64_or(&doc, "fault_seed", 0)?,
                fault_rate: rate_or(&doc, "fault_rate", 0.0)?,
                timeout_ms: opt_u64(&doc, "timeout_ms")?,
            })),
            "simulate" => Ok(Request::Simulate(SimulateJob {
                id: opt_str(&doc, "id")?,
                clock: f64_or(&doc, "clock", 4e6)?,
                watchdog: f64_or(&doc, "watchdog", 320.0)?,
                interval: f64_or(&doc, "interval", 5.0)?,
                f0: f64_or(&doc, "f0", 75.0)?,
                horizon: f64_or(&doc, "horizon", 3600.0)?,
                engine: engine_or(&doc)?,
                fault_seed: u64_or(&doc, "fault_seed", 0)?,
                fault_rate: rate_or(&doc, "fault_rate", 0.0)?,
                timeout_ms: opt_u64(&doc, "timeout_ms")?,
            })),
            "faults" => {
                let job = FaultsJob {
                    id: opt_str(&doc, "id")?,
                    clock: f64_or(&doc, "clock", 4e6)?,
                    watchdog: f64_or(&doc, "watchdog", 320.0)?,
                    interval: f64_or(&doc, "interval", 5.0)?,
                    f0: f64_or(&doc, "f0", 75.0)?,
                    horizon: f64_or(&doc, "horizon", 3600.0)?,
                    fault_seed: u64_or(&doc, "fault_seed", 0)?,
                    fault_rate: rate_or(&doc, "fault_rate", 0.1)?,
                    seeds: u64_or(&doc, "seeds", 8)?,
                    engine: engine_or(&doc)?,
                    timeout_ms: opt_u64(&doc, "timeout_ms")?,
                };
                if job.fault_rate <= 0.0 {
                    return Err(ProtocolError::bad_field(
                        "fault_rate",
                        "a robustness ensemble needs a positive rate",
                    ));
                }
                if job.seeds == 0 {
                    return Err(ProtocolError::bad_field(
                        "seeds",
                        "expected at least one realisation",
                    ));
                }
                Ok(Request::Faults(job))
            }
            "network" => {
                let job = NetworkJob {
                    id: opt_str(&doc, "id")?,
                    nodes: u64_or(&doc, "nodes", 16)?,
                    fleet_seed: u64_or(&doc, "fleet_seed", 99)?,
                    f0: f64_or(&doc, "f0", 75.0)?,
                    horizon: f64_or(&doc, "horizon", 3600.0)?,
                    freq_spread: f64_or(&doc, "freq_spread", 2.0)?,
                    phase_spread: f64_or(&doc, "phase_spread", 30.0)?,
                    ideal: bool_or(&doc, "ideal", false)?,
                    dse: bool_or(&doc, "dse", false)?,
                    seed: u64_or(&doc, "seed", 12)?,
                    runs: u64_or(&doc, "runs", 10)?,
                    clock: f64_or(&doc, "clock", 4e6)?,
                    watchdog: f64_or(&doc, "watchdog", 320.0)?,
                    interval: f64_or(&doc, "interval", 5.0)?,
                    engine: engine_or(&doc)?,
                    fault_seed: u64_or(&doc, "fault_seed", 0)?,
                    fault_rate: rate_or(&doc, "fault_rate", 0.0)?,
                    timeout_ms: opt_u64(&doc, "timeout_ms")?,
                };
                if job.nodes == 0 {
                    return Err(ProtocolError::bad_field(
                        "nodes",
                        "a fleet needs at least one node",
                    ));
                }
                Ok(Request::Network(job))
            }
            "pareto" => {
                let job = ParetoJob {
                    id: opt_str(&doc, "id")?,
                    fleet: bool_or(&doc, "fleet", false)?,
                    nodes: u64_or(&doc, "nodes", 5)?,
                    fleet_seed: u64_or(&doc, "fleet_seed", 99)?,
                    f0: f64_or(&doc, "f0", 75.0)?,
                    horizon: f64_or(&doc, "horizon", 3600.0)?,
                    objectives: opt_str(&doc, "objectives")?,
                    adaptive: bool_or(&doc, "adaptive", false)?,
                    budget: u64_or(&doc, "budget", 18)?,
                    seed: u64_or(&doc, "seed", 12)?,
                    runs: u64_or(&doc, "runs", 10)?,
                    engine: engine_or(&doc)?,
                    timer_space: bool_or(&doc, "timer_space", false)?,
                    timeout_ms: opt_u64(&doc, "timeout_ms")?,
                };
                if job.fleet && job.nodes == 0 {
                    return Err(ProtocolError::bad_field(
                        "nodes",
                        "a fleet needs at least one node",
                    ));
                }
                if job.budget < 4 {
                    return Err(ProtocolError::bad_field(
                        "budget",
                        "the adaptive driver needs at least four evaluations",
                    ));
                }
                Ok(Request::Pareto(job))
            }
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "cancel" => Ok(Request::Cancel {
                job: doc
                    .get("job")
                    .ok_or_else(|| ProtocolError::missing_field("job"))?
                    .as_u64()
                    .ok_or_else(|| ProtocolError::bad_field("job", "expected a job number"))?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(
                "unknown_type",
                format!("unknown request type {other:?}"),
            )),
        }
    }

    /// Serialises the request as one frame (no trailing newline).
    /// `Request::parse` of the result reproduces the request exactly.
    pub fn to_json(&self) -> String {
        let mut m = Members::new();
        match self {
            Request::Run(j) => {
                m.str_("type", "run");
                m.opt_str("id", j.id.as_deref());
                m.u64_("seed", j.seed);
                m.u64_("runs", j.runs);
                m.f64_("f0", j.f0);
                m.f64_("horizon", j.horizon);
                m.str_("engine", j.engine.name());
                m.u64_("fault_seed", j.fault_seed);
                m.f64_("fault_rate", j.fault_rate);
                m.opt_u64("timeout_ms", j.timeout_ms);
            }
            Request::Simulate(j) => {
                m.str_("type", "simulate");
                m.opt_str("id", j.id.as_deref());
                m.f64_("clock", j.clock);
                m.f64_("watchdog", j.watchdog);
                m.f64_("interval", j.interval);
                m.f64_("f0", j.f0);
                m.f64_("horizon", j.horizon);
                m.str_("engine", j.engine.name());
                m.u64_("fault_seed", j.fault_seed);
                m.f64_("fault_rate", j.fault_rate);
                m.opt_u64("timeout_ms", j.timeout_ms);
            }
            Request::Faults(j) => {
                m.str_("type", "faults");
                m.opt_str("id", j.id.as_deref());
                m.f64_("clock", j.clock);
                m.f64_("watchdog", j.watchdog);
                m.f64_("interval", j.interval);
                m.f64_("f0", j.f0);
                m.f64_("horizon", j.horizon);
                m.u64_("fault_seed", j.fault_seed);
                m.f64_("fault_rate", j.fault_rate);
                m.u64_("seeds", j.seeds);
                m.str_("engine", j.engine.name());
                m.opt_u64("timeout_ms", j.timeout_ms);
            }
            Request::Network(j) => {
                m.str_("type", "network");
                m.opt_str("id", j.id.as_deref());
                m.u64_("nodes", j.nodes);
                m.u64_("fleet_seed", j.fleet_seed);
                m.f64_("f0", j.f0);
                m.f64_("horizon", j.horizon);
                m.f64_("freq_spread", j.freq_spread);
                m.f64_("phase_spread", j.phase_spread);
                m.bool_("ideal", j.ideal);
                m.bool_("dse", j.dse);
                m.u64_("seed", j.seed);
                m.u64_("runs", j.runs);
                m.f64_("clock", j.clock);
                m.f64_("watchdog", j.watchdog);
                m.f64_("interval", j.interval);
                m.str_("engine", j.engine.name());
                m.u64_("fault_seed", j.fault_seed);
                m.f64_("fault_rate", j.fault_rate);
                m.opt_u64("timeout_ms", j.timeout_ms);
            }
            Request::Pareto(j) => {
                m.str_("type", "pareto");
                m.opt_str("id", j.id.as_deref());
                m.bool_("fleet", j.fleet);
                m.u64_("nodes", j.nodes);
                m.u64_("fleet_seed", j.fleet_seed);
                m.f64_("f0", j.f0);
                m.f64_("horizon", j.horizon);
                m.opt_str("objectives", j.objectives.as_deref());
                m.bool_("adaptive", j.adaptive);
                m.u64_("budget", j.budget);
                m.u64_("seed", j.seed);
                m.u64_("runs", j.runs);
                m.str_("engine", j.engine.name());
                m.bool_("timer_space", j.timer_space);
                m.opt_u64("timeout_ms", j.timeout_ms);
            }
            Request::Stats => m.str_("type", "stats"),
            Request::Ping => m.str_("type", "ping"),
            Request::Cancel { job } => {
                m.str_("type", "cancel");
                m.u64_("job", *job);
            }
            Request::Shutdown => m.str_("type", "shutdown"),
        }
        m.finish()
    }
}

/// Incremental JSON-object writer for frames.
struct Members {
    out: String,
}

impl Members {
    fn new() -> Self {
        Members {
            out: String::from("{"),
        }
    }

    fn sep(&mut self) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
    }

    fn str_(&mut self, key: &str, value: &str) {
        self.sep();
        self.out
            .push_str(&format!("\"{key}\":{}", json_string(value)));
    }

    fn u64_(&mut self, key: &str, value: u64) {
        self.sep();
        self.out.push_str(&format!("\"{key}\":{value}"));
    }

    fn f64_(&mut self, key: &str, value: f64) {
        self.sep();
        self.out.push_str(&format!("\"{key}\":{value}"));
    }

    fn bool_(&mut self, key: &str, value: bool) {
        self.sep();
        self.out.push_str(&format!("\"{key}\":{value}"));
    }

    fn opt_str(&mut self, key: &str, value: Option<&str>) {
        if let Some(v) = value {
            self.str_(key, v);
        }
    }

    fn opt_u64(&mut self, key: &str, value: Option<u64>) {
        if let Some(v) = value {
            self.u64_(key, v);
        }
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn opt_str(doc: &Json, field: &str) -> Result<Option<String>, ProtocolError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| ProtocolError::bad_field(field, "expected a string")),
    }
}

fn opt_u64(doc: &Json, field: &str) -> Result<Option<u64>, ProtocolError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::bad_field(field, "expected a non-negative integer")),
    }
}

fn u64_or(doc: &Json, field: &str, default: u64) -> Result<u64, ProtocolError> {
    Ok(opt_u64(doc, field)?.unwrap_or(default))
}

fn f64_or(doc: &Json, field: &str, default: f64) -> Result<f64, ProtocolError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ProtocolError::bad_field(field, "expected a number")),
    }
}

fn rate_or(doc: &Json, field: &str, default: f64) -> Result<f64, ProtocolError> {
    let rate = f64_or(doc, field, default)?;
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(ProtocolError::bad_field(field, "expected a rate in [0, 1]"))
    }
}

fn bool_or(doc: &Json, field: &str, default: bool) -> Result<bool, ProtocolError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ProtocolError::bad_field(field, "expected a boolean")),
    }
}

fn engine_or(doc: &Json) -> Result<EngineKind, ProtocolError> {
    match doc.get("engine") {
        None | Some(Json::Null) => Ok(EngineKind::Envelope),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ProtocolError::bad_field("engine", "expected a string"))?;
            name.parse()
                .map_err(|e| ProtocolError::bad_field("engine", e))
        }
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
        let doc = parse_json(trimmed)?;
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
                id: opt_str(&doc, "id")?,
                queue_depth: job("queue_depth")?,
            }),
            "running" => Ok(Frame::Running {
                job: job("job")?,
                id: opt_str(&doc, "id")?,
            }),
            "result" => Ok(Frame::Result {
                job: job("job")?,
                id: opt_str(&doc, "id")?,
                report: extract_raw_field(trimmed, "report")
                    .ok_or_else(|| ProtocolError::missing_field("report"))?
                    .to_owned(),
            }),
            "error" => Ok(Frame::JobError {
                job: job("job")?,
                id: opt_str(&doc, "id")?,
                message: text("message")?,
            }),
            "cancelled" => Ok(Frame::Cancelled {
                job: job("job")?,
                id: opt_str(&doc, "id")?,
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
/// `text` is not an object or the field is absent/unterminated.
///
/// This is what lets a client recover a `result` frame's report
/// byte-for-byte without ever re-encoding it.
pub fn extract_raw_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let bytes = text.trim().as_bytes();
    let text = text.trim();
    if bytes.first() != Some(&b'{') {
        return None;
    }
    let mut pos = 1usize;
    loop {
        pos = skip_ws_at(bytes, pos);
        if bytes.get(pos) == Some(&b'}') {
            return None;
        }
        // Member key.
        let (key_start, key_end) = scan_string(bytes, pos)?;
        let key = &text[key_start + 1..key_end - 1];
        pos = skip_ws_at(bytes, key_end);
        if bytes.get(pos) != Some(&b':') {
            return None;
        }
        pos = skip_ws_at(bytes, pos + 1);
        let value_start = pos;
        let value_end = scan_value(bytes, pos)?;
        if key == field {
            return Some(&text[value_start..value_end]);
        }
        pos = skip_ws_at(bytes, value_end);
        match bytes.get(pos) {
            Some(&b',') => pos += 1,
            Some(&b'}') => return None,
            _ => return None,
        }
    }
}

fn skip_ws_at(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// Scans a JSON string starting at `pos`; returns `(start, end)` with
/// `end` one past the closing quote.
fn scan_string(bytes: &[u8], pos: usize) -> Option<(usize, usize)> {
    if bytes.get(pos) != Some(&b'"') {
        return None;
    }
    let mut i = pos + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((pos, i + 1)),
            _ => i += 1,
        }
    }
    None
}

/// Scans one balanced JSON value starting at `pos`; returns one past
/// its end.
fn scan_value(bytes: &[u8], pos: usize) -> Option<usize> {
    match bytes.get(pos)? {
        b'"' => scan_string(bytes, pos).map(|(_, end)| end),
        b'{' | b'[' => {
            let mut stack: VecDeque<u8> = VecDeque::new();
            let mut i = pos;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        let (_, end) = scan_string(bytes, i)?;
                        i = end;
                        continue;
                    }
                    b'{' => stack.push_back(b'}'),
                    b'[' => stack.push_back(b']'),
                    b'}' | b']' => {
                        if stack.pop_back() != Some(bytes[i]) {
                            return None;
                        }
                        if stack.is_empty() {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            None
        }
        _ => {
            // Scalar: runs to the next top-level ',' or '}' / ']'.
            let mut i = pos;
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b']') {
                i += 1;
            }
            let mut end = i;
            while end > pos && matches!(bytes[end - 1], b' ' | b'\t' | b'\n' | b'\r') {
                end -= 1;
            }
            (end > pos).then_some(end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_defaults() {
        let req = Request::Run(RunJob::default());
        assert_eq!(Request::parse(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn missing_fields_fall_back_to_cli_defaults() {
        let req = Request::parse(r#"{"type":"run"}"#).unwrap();
        assert_eq!(req, Request::Run(RunJob::default()));
    }

    #[test]
    fn pareto_request_round_trips_and_defaults() {
        let req = Request::parse(r#"{"type":"pareto"}"#).unwrap();
        assert_eq!(req, Request::Pareto(ParetoJob::default()));
        let full = Request::Pareto(ParetoJob {
            id: Some("front-1".to_owned()),
            fleet: true,
            nodes: 3,
            objectives: Some("goodput_per_hour,collision_rate".to_owned()),
            adaptive: true,
            budget: 14,
            timer_space: true,
            timeout_ms: Some(9000),
            ..ParetoJob::default()
        });
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
