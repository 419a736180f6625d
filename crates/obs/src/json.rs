//! A hand-rolled JSON writer and a minimal parser — enough to emit JSONL
//! event lines and to validate/replay them, with no external dependency.
//! The parser is one pull [`Reader`]; [`parse`] builds a [`JsonValue`]
//! tree on top of it, and streaming consumers (the workflow importer)
//! walk a document with it in place.
//!
//! The writer escapes per RFC 8259 (quotes, backslashes, control
//! characters); non-ASCII passes through as UTF-8, which is valid JSON
//! and keeps DAGMan job names readable. Non-finite floats serialize as
//! `null` (JSON has no NaN/Infinity).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::scan;

/// Version of the JSONL record schema. Every object built with
/// [`JsonObject::typed`] carries it as a `v` field. History:
///
/// * **1** (implicit, no `v` field) — `meta`/`span`/`counter`/`gauge`
///   lines plus the four simulator trace events.
/// * **2** — adds the explicit `v` tag, span percentile fields
///   (`p50_ms`/`p90_ms`/`p99_ms`), and the simulator telemetry records
///   `ts` (time series) and `hist` (latency histograms).
/// * **3** — adds the job-lifecycle events `job_submitted`/`job_eligible`
///   and the `worker` field on `job_assigned`, completing the causal
///   `submitted → eligible → started → [retried/failed] → completed`
///   record set per job. Optional `alloc_count`/`alloc_bytes`/
///   `peak_bytes` fields on `span` records when allocation profiling is
///   enabled.
///
/// Readers accept exactly this version: nothing writes the older ones
/// any more, so an untagged (v1), v2 or newer record is an input error
/// ([`crate::stream`]).
pub const SCHEMA_VERSION: u64 = 3;

/// Appends the JSON string literal for `s` (including the quotes) to
/// `out`.
pub fn write_escaped(s: &str, out: &mut String) {
    escaped_pieces(s, |piece| out.push_str(piece));
}

/// Calls `emit` with the JSON string literal for `s`, quotes included,
/// piece by piece in order, so a writer with its own buffer escapes
/// without an intermediate string.
#[inline]
pub fn escaped_pieces(s: &str, mut emit: impl FnMut(&str)) {
    emit("\"");
    // Emit maximal runs of bytes that need no escaping as one piece
    // instead of char by char — escapable bytes are all ASCII, so a run
    // boundary never splits a UTF-8 scalar. Multi-KB payloads (the serve
    // daemon's workflow texts) make per-char appends a real cost.
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(run) = scan::find_json_stop(&bytes[start..]) {
        let i = start + run;
        emit(&s[start..i]);
        start = i + 1;
        match bytes[i] {
            b'"' => emit("\\\""),
            b'\\' => emit("\\\\"),
            b'\n' => emit("\\n"),
            b'\r' => emit("\\r"),
            b'\t' => emit("\\t"),
            0x08 => emit("\\b"),
            0x0C => emit("\\f"),
            other => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let code = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(other >> 4)],
                    HEX[usize::from(other & 0xF)],
                ];
                emit(std::str::from_utf8(&code).expect("ASCII escape"));
            }
        }
    }
    emit(&s[start..]);
    emit("\"");
}

/// The JSON string literal for `s`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(s, &mut out);
    out
}

/// Appends a JSON number for `v` (or `null` if non-finite). Public so
/// hot encoders (the simulator's trace writer) can emit numbers
/// without going through the [`JsonObject`] builder.
pub fn write_json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's shortest-round-trip Display: parses back bit-identical.
        let _ = write!(out, "{v}");
        // `Display` omits the fraction for integral floats; that is still
        // a valid JSON number.
    } else {
        out.push_str("null");
    }
}

/// Appends a JSON number for `v` without the `fmt` machinery — a plain
/// digit loop into a stack buffer, for encoders on hot paths.
pub fn write_json_u64(v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // SAFETY-free: the buffer holds only ASCII digits.
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ascii digits"));
}

/// Longest text [`write_json_f64`] can emit: shortest-round-trip `f64`
/// `Display` peaks at 24 bytes (e.g. `-2.2250738585072014e-308`).
const F64_TEXT_MAX: usize = 24;

/// Slot marker: no value cached. (Distinct from any real length, and
/// needed because a zeroed `bits` field is a real value — `0.0`.)
const F64_SLOT_EMPTY: u8 = u8::MAX;

#[derive(Clone, Copy)]
struct F64Slot {
    bits: u64,
    len: u8,
    text: [u8; F64_TEXT_MAX],
}

/// A direct-mapped memo cache for JSON `f64` formatting, keyed by bit
/// pattern. Shortest-round-trip `Display` is by far the most expensive
/// part of encoding a trace event, and simulator timestamps repeat
/// heavily — every job assigned from one batch shares the batch's
/// arrival time, a job's completion event reuses the `completes_at`
/// computed at assignment, and children become eligible at their
/// parent's completion time — so a small cache turns most float fields
/// into a memcpy. Output is byte-identical to [`write_json_f64`] by
/// construction: the cache only replays what that function produced for
/// the same bit pattern.
pub struct F64Cache {
    slots: Box<[F64Slot]>,
}

impl Default for F64Cache {
    fn default() -> Self {
        Self::new()
    }
}

impl F64Cache {
    /// Number of direct-mapped slots (a few KB; collisions just re-format).
    const SLOTS: usize = 256;

    /// An empty cache.
    pub fn new() -> F64Cache {
        F64Cache {
            slots: vec![
                F64Slot {
                    bits: 0,
                    len: F64_SLOT_EMPTY,
                    text: [0; F64_TEXT_MAX],
                };
                Self::SLOTS
            ]
            .into_boxed_slice(),
        }
    }

    /// Appends the same bytes [`write_json_f64`] would for `v`, serving
    /// repeats from the cache.
    pub fn write(&mut self, v: f64, out: &mut String) {
        let bits = v.to_bits();
        // SplitMix64-style finalizer; top bits index the slot array.
        let hash = (bits ^ (bits >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let slot = &mut self.slots[(hash >> 56) as usize % Self::SLOTS];
        if slot.bits == bits && slot.len != F64_SLOT_EMPTY {
            let text = &slot.text[..slot.len as usize];
            out.push_str(std::str::from_utf8(text).expect("cached ascii"));
            return;
        }
        let start = out.len();
        write_json_f64(v, out);
        let text = out.as_bytes();
        let len = text.len() - start;
        if len <= F64_TEXT_MAX {
            slot.bits = bits;
            slot.len = len as u8;
            slot.text[..len].copy_from_slice(&text[start..]);
        }
    }
}

fn write_f64(v: f64, out: &mut String) {
    write_json_f64(v, out);
}

/// An in-progress single-line JSON object, appended key by key.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl JsonObject {
    /// Starts an object with a `type` discriminator field and the current
    /// [`SCHEMA_VERSION`] as `v` — every JSONL line the sink (and the
    /// simulator's trace writer) emits carries both.
    pub fn typed(kind: &str) -> Self {
        JsonObject {
            buf: String::from("{"),
            empty: true,
        }
        .str("type", kind)
        .u64("v", SCHEMA_VERSION)
    }

    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(mut self, key: &str) -> Self {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        write_escaped(key, &mut self.buf);
        self.buf.push(':');
        self
    }

    /// Appends a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let mut obj = self.key(key);
        write_escaped(value, &mut obj.buf);
        obj
    }

    /// Appends a field whose value is already JSON text — e.g. a string
    /// literal kept escaped (quotes included) from an earlier
    /// [`escape`], copied in as is. Room for the closing brace and a line
    /// terminator is reserved with it, so a large value grows the line
    /// once.
    pub fn raw(self, key: &str, encoded: &str) -> Self {
        let mut obj = self.key(key);
        obj.buf.reserve(encoded.len() + 2);
        obj.buf.push_str(encoded);
        obj
    }

    /// Appends an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        let mut obj = self.key(key);
        let _ = write!(obj.buf, "{value}");
        obj
    }

    /// Appends a float field (`null` if non-finite).
    pub fn f64(self, key: &str, value: f64) -> Self {
        let mut obj = self.key(key);
        write_f64(value, &mut obj.buf);
        obj
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        let mut obj = self.key(key);
        obj.buf.push_str(if value { "true" } else { "false" });
        obj
    }

    /// Appends an array of `[time, value]` pairs (each float per
    /// [`write_f64`]'s rules: non-finite values become `null`).
    pub fn pairs(self, key: &str, pairs: &[(f64, f64)]) -> Self {
        let mut obj = self.key(key);
        obj.buf.push('[');
        for (i, &(t, v)) in pairs.iter().enumerate() {
            if i > 0 {
                obj.buf.push(',');
            }
            obj.buf.push('[');
            write_f64(t, &mut obj.buf);
            obj.buf.push(',');
            write_f64(v, &mut obj.buf);
            obj.buf.push(']');
        }
        obj.buf.push(']');
        obj
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion order not preserved; keyed lookup only).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is a JSON object.
    pub fn is_object(&self) -> bool {
        matches!(self, JsonValue::Obj(_))
    }
}

/// Parses one JSON document. Errors carry a byte offset and message.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut r = Reader::new(text);
    r.skip_ws();
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A pull reader over one JSON text: the single scanner under both
/// [`parse`] (which builds a [`JsonValue`] tree on top of it) and
/// streaming consumers that walk a document in place without building one.
///
/// Strings come back borrowed from the input; only one with escapes is
/// copied. [`Reader::skip_value`] validates a value without building it.
/// Every method reports errors with the same byte offsets and messages as
/// [`parse`].
///
/// Structure is walked with paired calls. An array is
/// `if r.begin_array()? { loop { /* one value */ if !r.next_item()? { break } } }`;
/// an object is the same with [`Reader::begin_object`], [`Reader::key`]
/// before each value, and [`Reader::next_member`] after it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    /// A reader at byte `pos` of `text` — e.g. a value start recorded by
    /// an earlier pass ([`Reader::pos`]).
    pub fn at(text: &'a str, pos: usize) -> Reader<'a> {
        Reader { text, pos }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// Skips JSON whitespace.
    pub fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The next byte, without consuming it.
    pub fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Consumes byte `b`, or fails if the next byte is anything else.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Skips trailing whitespace and fails unless the input ends there.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads one value into a [`JsonValue`] tree.
    pub fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                if self.begin_object()? {
                    loop {
                        let key = self.key()?.into_owned();
                        map.insert(key, self.value()?);
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(JsonValue::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                if self.begin_array()? {
                    loop {
                        items.push(self.value()?);
                        if !self.next_item()? {
                            break;
                        }
                    }
                }
                Ok(JsonValue::Arr(items))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Num),
            Some(other) => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Validates one value and moves past it without building it. Fails
    /// exactly where [`Reader::value`] would.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                if self.begin_object()? {
                    loop {
                        self.key()?;
                        self.skip_value()?;
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'[') => {
                if self.begin_array()? {
                    loop {
                        self.skip_value()?;
                        if !self.next_item()? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'"') => self.string_literal().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            // The error cases are the tree builder's.
            _ => self.value().map(drop),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads a number.
    pub fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    /// Reads a string, borrowed from the input unless it contains escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.unescaped_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        self.string_rest(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Validates a string exactly as [`Reader::string`] does (same errors,
    /// same offsets) and returns its raw body between the quotes, escapes
    /// still escaped — no allocation, whatever the string holds.
    pub fn string_literal(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.string_rest(None)?;
        Ok(&self.text[start..self.pos - 1])
    }

    /// The one string scanner: validates from inside a string through its
    /// closing quote, appending the unescaped text to `out` when given.
    fn string_rest(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uXXXX with a low surrogate.
                            if (0xD800..0xDC00).contains(&code) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(code).ok_or("invalid \\u escape")?
                            }
                        }
                        other => {
                            return Err(format!(
                                "bad escape \\{} at byte {}",
                                other as char, self.pos
                            ))
                        }
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    self.unescaped_run();
                    if self.pos == start {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(&self.text[start..self.pos]);
                    }
                }
            }
        }
    }

    /// Consumes a maximal run of bytes that need no unescaping, in one
    /// step that tests a word at a time ([`scan::find_json_stop`]) —
    /// per-scalar work would rescan MB-sized inputs. A run can only end
    /// at a quote, backslash or control byte, none of which is a UTF-8
    /// continuation byte, so it never splits a scalar and the run is a
    /// valid `&str` slice.
    fn unescaped_run(&mut self) {
        let rest = &self.bytes()[self.pos..];
        self.pos += scan::find_json_stop(rest).unwrap_or(rest.len());
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.text.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..self.pos + 4])
            .map_err(|_| "non-ASCII in \\u escape")?;
        self.pos += 4;
        // Exactly four hex digits: `u32::from_str_radix` would also take a
        // leading `+`.
        hex.chars()
            .try_fold(0, |code, c| Some(code * 16 + c.to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape {hex:?}: invalid digit found in string"))
    }

    /// Consumes `[` and any whitespace after it. Returns whether the
    /// array has items; an empty array is consumed whole.
    pub fn begin_array(&mut self) -> Result<bool, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an array item: consumes `,` (returning `true`, another item
    /// follows) or the closing `]` (returning `false`).
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Consumes `{` and any whitespace after it. Returns whether the
    /// object has members; an empty object is consumed whole.
    pub fn begin_object(&mut self) -> Result<bool, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// Reads a member's key and the `:` after it, leaving the reader at
    /// the member's value.
    pub fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// After a member's value: consumes `,` (returning `true`, another
    /// member follows) or the closing `}` (returning `false`).
    pub fn next_member(&mut self) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or '}}' at byte {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escaping_round_trips_edge_cases() {
        // Quotes, backslashes, and non-ASCII job names straight out of
        // DAGMan files must survive a write → parse round trip.
        let cases = [
            "plain",
            "with \"quotes\"",
            "back\\slash and C:\\jobs\\a.submit",
            "tab\there, newline\nhere",
            "control \u{01} char",
            "jöb-ñame-日本語-🧪",
            "",
            "\\\"\\", // pathological: backslash, quote, backslash
        ];
        for case in cases {
            let line = JsonObject::typed("t").str("name", case).finish();
            let parsed = parse(&line).unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
            assert_eq!(
                parsed.get("name").and_then(JsonValue::as_str),
                Some(case),
                "round trip of {case:?} via {line:?}"
            );
        }
    }

    #[test]
    fn typed_objects_carry_the_discriminator_and_version() {
        let line = JsonObject::typed("span")
            .str("name", "reduce")
            .u64("count", 3)
            .finish();
        let v = parse(&line).unwrap();
        assert!(v.is_object());
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("span"));
        assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            v.get("v").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION),
            "every typed record is version-tagged: {line}"
        );
    }

    #[test]
    fn pairs_serialize_as_nested_arrays() {
        let line = JsonObject::typed("ts")
            .pairs("samples", &[(0.0, 3.0), (1.5, 7.0)])
            .finish();
        let v = parse(&line).unwrap();
        match v.get("samples") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items.len(), 2);
                match &items[1] {
                    JsonValue::Arr(pair) => {
                        assert_eq!(pair[0].as_f64(), Some(1.5));
                        assert_eq!(pair[1].as_f64(), Some(7.0));
                    }
                    other => panic!("expected pair, got {other:?}"),
                }
            }
            other => panic!("expected array, got {other:?}"),
        }
        let empty = JsonObject::new().pairs("samples", &[]).finish();
        assert_eq!(
            parse(&empty).unwrap().get("samples"),
            Some(&JsonValue::Arr(vec![]))
        );
    }

    #[test]
    fn floats_round_trip_bit_identical() {
        for x in [
            0.0,
            1.5,
            0.1 + 0.2,
            1e-300,
            123_456_789.123_456_79,
            f64::MIN_POSITIVE,
        ] {
            let line = JsonObject::new().f64("x", x).finish();
            let v = parse(&line).unwrap();
            assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(x), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObject::new()
            .f64("x", f64::NAN)
            .f64("y", f64::INFINITY)
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
        assert_eq!(v.get("y"), Some(&JsonValue::Null));
    }

    #[test]
    fn f64_cache_replays_write_json_f64_byte_for_byte() {
        let mut cache = F64Cache::new();
        let values = [
            0.0,
            -0.0,
            1.0,
            0.25,
            1.5e300,
            -2.2250738585072014e-308,
            f64::NAN,
            f64::INFINITY,
            std::f64::consts::PI,
        ];
        // Two passes: the second is served entirely from the cache and
        // must still match the uncached writer exactly (including the
        // -0.0 vs 0.0 distinction — the cache keys on bit patterns).
        for _ in 0..2 {
            for v in values {
                let mut cached = String::new();
                cache.write(v, &mut cached);
                let mut plain = String::new();
                write_json_f64(v, &mut plain);
                assert_eq!(cached, plain, "for {v:?}");
            }
        }
    }

    #[test]
    fn parser_accepts_unicode_escapes_and_pairs() {
        let v = parse(r#"{"s":"a\u00e9b\ud83e\uddeac"}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("aéb🧪c"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn reader_borrows_strings_without_escapes() {
        let mut r = Reader::new(r#" "plain" "esc\n\u00e9" "#);
        r.skip_ws();
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        r.skip_ws();
        assert!(matches!(r.string().unwrap(), Cow::Owned(s) if s == "esc\né"));
        r.finish().unwrap();
    }

    #[test]
    fn skip_value_fails_exactly_where_parse_does() {
        for text in [
            r#"{"a":[1,2,{"b":null}],"c":true,"d":-1.5e3}"#,
            r#"{"s":"a\u00e9b\ud83e\uddeac"}"#,
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\ud800\\u0041\"",
            "1 2",
            "-",
            "[1e+]",
            "",
            "  ",
            "[\"raw \u{1} control\"]",
        ] {
            let mut r = Reader::new(text);
            r.skip_ws();
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert_eq!(skipped.err(), parse(text).err(), "{text:?}");
        }
    }

    #[test]
    fn string_literal_validates_like_string_and_keeps_escapes() {
        for text in [
            r#""plain""#,
            r#""esc\n\t\"\\\/\b\f""#,
            r#""a\u00e9b\ud83e\uddeac""#,
            r#""\u+0ff""#,
            "\"unterminated",
            "\"\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12",
            "\"\\uzzzz\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"raw \u{1} control\"",
            "\"\\u\u{e9}ab\"",
            "nope",
        ] {
            let literal = Reader::new(text).string_literal();
            let decoded = Reader::new(text).string();
            match (&literal, &decoded) {
                (Ok(raw), Ok(_)) => assert_eq!(format!("\"{raw}\""), text),
                (Err(a), Err(b)) => assert_eq!(a, b, "{text:?}"),
                _ => panic!("{text:?}: literal {literal:?}, string {decoded:?}"),
            }
        }
        let line = JsonObject::new().raw("s", &escape("a\tb\u{1}")).finish();
        assert_eq!(line, JsonObject::new().str("s", "a\tb\u{1}").finish());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // `u32::from_str_radix` accepts a leading `+`; a `\u` escape must not.
        assert_eq!(
            parse("\"\\u+041\"").unwrap_err(),
            "bad \\u escape \"+041\": invalid digit found in string"
        );
        assert_eq!(
            parse("\"\\uD83D\\u+E00\"").unwrap_err(),
            "bad \\u escape \"+E00\": invalid digit found in string"
        );
        assert_eq!(
            parse("\"\\uzzzz\"").unwrap_err(),
            "bad \\u escape \"zzzz\": invalid digit found in string"
        );
        assert_eq!(
            parse("\"\\u0041\\uD83D\\uDE00\"").unwrap(),
            JsonValue::Str("A😀".into())
        );
        assert_eq!(
            parse("\"\\u00aF\"").unwrap(),
            JsonValue::Str("\u{af}".into())
        );
    }

    /// The byte-at-a-time string validator the reader's word-at-a-time
    /// scan replaced, for strings whose escapes are all single-character:
    /// the error [`Reader::string`] must report for `text`, or `None`.
    fn string_error_oracle(text: &[u8]) -> Option<String> {
        let mut i = 1;
        loop {
            match text.get(i) {
                None => return Some("unterminated string".into()),
                Some(b'"') => return None,
                Some(b'\\') => match text.get(i + 1) {
                    None => return Some("unterminated escape".into()),
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                    Some(&other) => {
                        return Some(format!("bad escape \\{} at byte {}", other as char, i + 2))
                    }
                },
                Some(_) => match crate::scan::json_stop_oracle(&text[i..]) {
                    Some(0) => return Some(format!("raw control character at byte {i}")),
                    Some(run) => i += run,
                    None => i = text.len(),
                },
            }
        }
    }

    /// A string literal over plain ASCII, multi-byte scalars and the
    /// single-character escapes, then mutated: a raw control byte put in
    /// at a scalar boundary, or the literal cut short at one.
    fn arb_mutated_literal() -> impl Strategy<Value = String> {
        const PIECES: [&str; 9] = ["a", "Zq", " ", "é", "日本", "🧪", "\\n", "\\\"", "\\\\"];
        let body = proptest::collection::vec(0..PIECES.len(), 0..40)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect::<String>());
        (body, any::<u64>(), 0u8..0x20, 0u8..3).prop_map(|(body, at, control, how)| {
            let text = format!("\"{body}\"");
            let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).skip(1).collect();
            let at = cuts[at as usize % cuts.len()];
            match how {
                0 => format!("{}{}{}", &text[..at], control as char, &text[at..]),
                1 => text[..at].to_string(),
                _ => text,
            }
        })
    }

    proptest! {
        #[test]
        fn reader_string_errors_match_the_bytewise_oracle(text in arb_mutated_literal()) {
            let expected = string_error_oracle(text.as_bytes());
            let decoded = Reader::new(&text).string().err();
            prop_assert_eq!(&decoded, &expected, "string of {:?}", text);
            prop_assert_eq!(Reader::new(&text).string_literal().err(), expected.clone());
            prop_assert_eq!(Reader::new(&text).skip_value().err(), expected);
        }

        #[test]
        fn escape_round_trips_any_text(
            chars in proptest::collection::vec(prop_oneof![0u32..0x80, 0u32..0x30, 0x80u32..0x2_0000], 0..40),
        ) {
            let s: String = chars.into_iter().filter_map(char::from_u32).collect();
            let literal = escape(&s);
            prop_assert!(!literal[1..literal.len() - 1].bytes().any(|b| b < 0x20), "{}", literal);
            prop_assert_eq!(parse(&literal), Ok(JsonValue::Str(s)));
        }
    }

    #[test]
    fn nested_values_parse() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":true,"d":-1.5e3}"#).unwrap();
        assert_eq!(v.get("d").and_then(JsonValue::as_f64), Some(-1500.0));
        match v.get("a") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
