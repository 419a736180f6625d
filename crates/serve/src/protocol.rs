//! The `prio serve` wire protocol: line-delimited JSON over a byte
//! stream (TCP or stdin/stdout).
//!
//! One request per line, one response line per request. Requests are
//! JSON objects; the only required field is `id` (an arbitrary string
//! the response echoes back, so clients can pipeline requests and match
//! responses out of order):
//!
//! ```text
//! {"type":"request","id":"r1","verb":"prioritize","format":"auto",
//!  "output":"edges","workflow":"JOB a a.sub\n..."}
//! {"type":"request","id":"s1","verb":"stats"}
//! {"type":"request","id":"p1","verb":"ping"}
//! {"type":"request","id":"q1","verb":"shutdown"}
//! ```
//!
//! * `verb` defaults to `prioritize`. `stats`, `ping` and `shutdown` are
//!   control verbs handled inline by the connection (never queued), so
//!   they respond even when the worker queue is saturated.
//! * `format` names the input frontend (`auto`, the default, detects by
//!   content sniff via the [`prio_ir::FormatRegistry`]).
//! * `output` names the response's export format; it defaults to the
//!   resolved input format, which makes a served response byte-identical
//!   to the one-shot `prioritize_workflow_text` facade.
//! * `v` optionally tags the record with the JSONL schema version
//!   ([`prio_obs::json::SCHEMA_VERSION`]); versions newer than this
//!   build, or two different explicit versions on one connection, are
//!   structured errors (mirroring [`prio_obs::stream`]'s contract), but
//!   never kill the connection or the daemon.
//!
//! Responses are `type:"response"` objects tagged with the schema
//! version; `status` is `ok`, `error` or `overloaded`. Errors carry the
//! [`prio_ir::PrioError`] stage provenance (`stage` + rendered message),
//! so a client sees *where* its request failed exactly as a CLI user
//! would.
//!
//! Decoding builds no JSON tree. One pull scan with
//! [`prio_obs::json::Reader`] validates the whole line, then reads the
//! fields the protocol needs with a tree's semantics: the last of
//! duplicate keys wins, a non-string `id`, `format` or `output` is
//! absent, a non-string `verb` is the unknown verb `""`, and `v` counts
//! only as a non-negative integral number. The daemon keeps the decoded
//! line as a [`WireRequest`], whose workflow stays the escaped string
//! literal it was sent as; [`parse_request`] is the same decoder, which
//! then unescapes the workflow in its one validating pass. On the way out, [`ok_response_literal`] copies an export
//! that is already escaped, so a replayed answer is never re-escaped.

use prio_ir::PrioError;
use prio_obs::json::{escape, JsonObject, JsonValue, Reader, SCHEMA_VERSION};
use std::borrow::Cow;
use std::ops::Range;

/// A control or work verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Prioritize a workflow (the work verb; goes through the queue).
    Prioritize,
    /// Return a server statistics snapshot (inline).
    Stats,
    /// Liveness probe (inline).
    Ping,
    /// Begin a graceful shutdown: stop accepting, drain, exit (inline).
    Shutdown,
}

impl Verb {
    fn from_name(name: &str) -> Option<Verb> {
        match name {
            "prioritize" => Some(Verb::Prioritize),
            "stats" => Some(Verb::Stats),
            "ping" => Some(Verb::Ping),
            "shutdown" => Some(Verb::Shutdown),
            _ => None,
        }
    }
}

/// One parsed request line, workflow unescaped ([`parse_request`]).
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on the response.
    pub id: String,
    /// The verb (default `prioritize`).
    pub verb: Verb,
    /// Workflow text (required for `prioritize`).
    pub workflow: String,
    /// Input format name (`auto`/absent = content detection).
    pub format: Option<String>,
    /// Output format name (absent = same as resolved input format).
    pub output: Option<String>,
    /// Explicit schema version tag, if the record carried one.
    pub version: Option<u64>,
}

/// One request as the daemon holds it: the line it arrived on, decoded
/// ([`WireRequest::decode`]) except for the workflow, which stays the
/// escaped JSON string literal the client sent. A repeated request is
/// keyed and answered from that literal without ever unescaping it.
#[derive(Debug)]
pub struct WireRequest {
    /// Client-chosen id, echoed on the response.
    pub id: String,
    /// The verb (default `prioritize`).
    pub verb: Verb,
    /// Input format name (`auto`/absent = content detection).
    pub format: Option<String>,
    /// Output format name (absent = same as resolved input format).
    pub output: Option<String>,
    /// Explicit schema version tag, if the record carried one.
    pub version: Option<u64>,
    line: String,
    /// Byte range of the validated `workflow` literal in `line`, quotes
    /// included; `None` when the field is absent or not a string.
    workflow: Option<Range<usize>>,
}

impl WireRequest {
    /// Decodes `line`, which the request then owns. Accepts and rejects
    /// exactly what [`parse_request`] does, with the same errors.
    pub fn decode(
        line: String,
        first_version: &mut Option<u64>,
    ) -> Result<WireRequest, RequestError> {
        let (request, _) = decode(&line, first_version, false)?;
        Ok(WireRequest { line, ..request })
    }

    /// The workflow's string literal as sent, without its quotes and with
    /// its escapes intact (`""` when the field is absent).
    pub fn workflow_literal(&self) -> &str {
        match &self.workflow {
            Some(r) => &self.line[r.start + 1..r.end - 1],
            None => "",
        }
    }

    /// The workflow text, unescaped (borrowed when the literal has no
    /// escapes).
    pub fn workflow(&self) -> Cow<'_, str> {
        match &self.workflow {
            Some(r) => Reader::at(&self.line, r.start)
                .string()
                .expect("the decoder validated the literal"),
            None => Cow::Borrowed(""),
        }
    }
}

/// A request that could not be accepted, with enough structure to build
/// an error response: the id when one was recoverable, and a message.
#[derive(Debug, Clone)]
pub struct RequestError {
    /// The request id, when the line parsed far enough to recover one.
    pub id: Option<String>,
    /// What was wrong with the request.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<String>, message: impl Into<String>) -> RequestError {
        RequestError {
            id,
            message: message.into(),
        }
    }
}

/// Parses one request line. `first_version` is the connection's sticky
/// first explicit version tag (updated on first sight), enforcing the
/// same mixed-version rejection as the JSONL stream reader — per record,
/// so one bad line costs one error response, not the connection.
pub fn parse_request(line: &str, first_version: &mut Option<u64>) -> Result<Request, RequestError> {
    let (request, workflow) = decode(line, first_version, true)?;
    Ok(Request {
        workflow: workflow.into_owned(),
        id: request.id,
        verb: request.verb,
        format: request.format,
        output: request.output,
        version: request.version,
    })
}

/// The members of a request object the protocol reads, each as a JSON
/// tree's typed lookup would see it: the last of duplicate keys wins, and
/// a value of the wrong type reads as absent.
#[derive(Default)]
struct Members<'a> {
    id: Option<Cow<'a, str>>,
    /// `Some("")` when present but not a string (an unknown verb).
    verb: Option<Cow<'a, str>>,
    format: Option<Cow<'a, str>>,
    output: Option<Cow<'a, str>>,
    /// Set only by a non-negative integral number.
    version: Option<u64>,
    workflow: Option<Range<usize>>,
    /// The workflow's text, when the scan was asked to unescape it.
    text: Cow<'a, str>,
}

/// Validates the whole line as one JSON document and pulls out the
/// members the protocol reads into `m`, with no tree: `Ok(false)` for a
/// valid document that is not an object. With `unescape`, the workflow's
/// text is decoded in the same pass. Members are stored as they are read,
/// so on an error `m` holds every member completed before the fault.
fn scan<'a>(line: &'a str, unescape: bool, m: &mut Members<'a>) -> Result<bool, String> {
    let mut r = Reader::new(line);
    r.skip_ws();
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        r.finish()?;
        return Ok(false);
    }
    if r.begin_object()? {
        loop {
            match &*r.key()? {
                "id" => m.id = string_member(&mut r)?,
                "verb" => m.verb = Some(string_member(&mut r)?.unwrap_or_default()),
                "format" => m.format = string_member(&mut r)?,
                "output" => m.output = string_member(&mut r)?,
                "v" => {
                    m.version = match r.peek() {
                        Some(b'-' | b'0'..=b'9') => JsonValue::Num(r.number()?).as_u64(),
                        _ => r.skip_value().map(|()| None)?,
                    }
                }
                "workflow" => {
                    let start = r.pos();
                    m.text = Cow::Borrowed("");
                    m.workflow = match r.peek() {
                        Some(b'"') if unescape => {
                            m.text = r.string()?;
                            Some(start..r.pos())
                        }
                        Some(b'"') => r.string_literal().map(|_| Some(start..r.pos()))?,
                        _ => r.skip_value().map(|()| None)?,
                    }
                }
                _ => r.skip_value()?,
            }
            if !r.next_member()? {
                break;
            }
        }
    }
    r.finish()?;
    Ok(true)
}

/// A member that counts only as a string; any other value is validated,
/// skipped and read as absent.
fn string_member<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, String> {
    match r.peek() {
        Some(b'"') => r.string().map(Some),
        _ => r.skip_value().map(|()| None),
    }
}

/// The one request decoder under [`parse_request`] and
/// [`WireRequest::decode`]. The returned request's `line` is empty; the
/// workflow range points into `line`. With `unescape`, the workflow's
/// text comes back too (empty when absent), decoded in the validating
/// pass itself.
fn decode<'a>(
    line: &'a str,
    first_version: &mut Option<u64>,
    unescape: bool,
) -> Result<(WireRequest, Cow<'a, str>), RequestError> {
    let mut m = Members::default();
    match scan(line, unescape, &mut m) {
        Ok(true) => {}
        Ok(false) => return Err(RequestError::new(None, "request: not a JSON object")),
        // A line that breaks off after its `id` still names the request
        // it was meant to be, so a pipelining client can tell which one
        // failed.
        Err(e) => {
            let id = m.id.map(Cow::into_owned);
            return Err(RequestError::new(id, format!("request: {e}")));
        }
    }
    let id = m.id.map(Cow::into_owned);
    if let Some(v) = m.version {
        if v > SCHEMA_VERSION {
            return Err(RequestError::new(
                id,
                format!("request: schema v{v} is newer than supported v{SCHEMA_VERSION}"),
            ));
        }
        match *first_version {
            None => *first_version = Some(v),
            Some(first) if first != v => {
                return Err(RequestError::new(
                    id,
                    format!(
                        "request: mixed schema versions on one connection \
                         (v{v} after v{first})"
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    let Some(id) = id else {
        return Err(RequestError::new(
            None,
            "request: missing string field \"id\"",
        ));
    };
    let verb = match m.verb {
        None => Verb::Prioritize,
        Some(name) => Verb::from_name(&name).ok_or_else(|| {
            RequestError::new(
                Some(id.clone()),
                format!(
                    "request: unknown verb {name:?} \
                     (prioritize|stats|ping|shutdown)"
                ),
            )
        })?,
    };
    // Every escape decodes to at least one character, so the text is
    // empty exactly when the literal is.
    if verb == Verb::Prioritize && m.workflow.as_ref().is_none_or(|r| r.len() == 2) {
        return Err(RequestError::new(
            Some(id),
            "request: prioritize requires a non-empty \"workflow\" field",
        ));
    }
    let request = WireRequest {
        id,
        verb,
        format: m.format.map(Cow::into_owned),
        output: m.output.map(Cow::into_owned),
        version: m.version,
        line: String::new(),
        workflow: m.workflow,
    };
    Ok((request, m.text))
}

/// Builds one request line (without the trailing newline) — the client
/// half of the protocol, used by the benchmark's `serve-mix` load
/// generator (`benchmark/`) and the test suites.
pub fn encode_request(
    id: &str,
    workflow: &str,
    format: Option<&str>,
    output: Option<&str>,
) -> String {
    let mut o = JsonObject::typed("request")
        .str("id", id)
        .str("verb", "prioritize");
    if let Some(f) = format {
        o = o.str("format", f);
    }
    if let Some(f) = output {
        o = o.str("output", f);
    }
    o.str("workflow", workflow).finish()
}

/// Builds a control-verb request line (`stats`, `ping`, `shutdown`).
pub fn encode_control(id: &str, verb: &str) -> String {
    JsonObject::typed("request")
        .str("id", id)
        .str("verb", verb)
        .finish()
}

/// An `ok` response carrying the prioritized export.
pub fn ok_response(id: &str, format: &str, cached: bool, output: &str) -> String {
    ok_response_literal(id, format, cached, &escape(output))
}

/// [`ok_response`] for an export already escaped as a JSON string
/// literal, quotes included (what the daemon's rendered memo holds): the
/// literal is copied in as is.
pub fn ok_response_literal(id: &str, format: &str, cached: bool, output: &str) -> String {
    JsonObject::typed("response")
        .str("id", id)
        .str("status", "ok")
        .str("format", format)
        .bool("cached", cached)
        .raw("output", output)
        .finish()
}

/// A `pong` response to the `ping` verb.
pub fn ping_response(id: &str) -> String {
    JsonObject::typed("response")
        .str("id", id)
        .str("status", "ok")
        .bool("pong", true)
        .finish()
}

/// A structured error response. `stage` carries the pipeline provenance
/// (`parse`, `reduce`, …) or `"request"` for protocol-level rejections
/// that never reached the pipeline.
pub fn error_response(id: Option<&str>, stage: &str, message: &str) -> String {
    let mut o = JsonObject::typed("response");
    if let Some(id) = id {
        o = o.str("id", id);
    }
    o.str("status", "error")
        .str("stage", stage)
        .str("error", message)
        .finish()
}

/// The error response for a [`PrioError`], with stage provenance.
pub fn prio_error_response(id: &str, error: &PrioError) -> String {
    error_response(Some(id), error.stage().name(), &error.to_string())
}

/// The load-shedding response: the queue was full, the request was *not*
/// processed, and the client may retry.
pub fn overloaded_response(id: &str) -> String {
    JsonObject::typed("response")
        .str("id", id)
        .str("status", "overloaded")
        .str("error", "request queue is full, retry later")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_obs::json::parse;

    fn parse_one(line: &str) -> Result<Request, RequestError> {
        parse_request(line, &mut None)
    }

    #[test]
    fn round_trips_a_prioritize_request() {
        let line = encode_request("r1", "JOB a a.sub\n", Some("dagman"), Some("edges"));
        let req = parse_one(&line).unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.verb, Verb::Prioritize);
        assert_eq!(req.workflow, "JOB a a.sub\n");
        assert_eq!(req.format.as_deref(), Some("dagman"));
        assert_eq!(req.output.as_deref(), Some("edges"));
        assert_eq!(req.version, Some(SCHEMA_VERSION));
    }

    #[test]
    fn verb_defaults_to_prioritize_and_controls_parse() {
        let req = parse_one(r#"{"id":"s","verb":"stats"}"#).unwrap();
        assert_eq!(req.verb, Verb::Stats);
        assert_eq!(req.version, None);
        for (verb, expect) in [
            ("ping", Verb::Ping),
            ("shutdown", Verb::Shutdown),
            ("prioritize", Verb::Prioritize),
        ] {
            let line = if expect == Verb::Prioritize {
                format!(r#"{{"id":"x","verb":{:?},"workflow":"a\tb\n"}}"#, verb)
            } else {
                format!(r#"{{"id":"x","verb":{verb:?}}}"#)
            };
            assert_eq!(parse_one(&line).unwrap().verb, expect, "{verb}");
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for (line, id) in [
            ("not json", None),
            ("[1,2]", None),
            (r#"{"verb":"stats"}"#, None),
            (r#"{"id":"k","verb":"explode"}"#, Some("k")),
            (r#"{"id":"k","verb":"prioritize"}"#, Some("k")),
            (r#"{"id":"k","workflow":""}"#, Some("k")),
            // A fault after the id keeps it; one before or inside it
            // cannot.
            (r#"{"id":"k","workflow":"a\u+041b"}"#, Some("k")),
            (r#"{"id":"k","verb":"ping"} trailing"#, Some("k")),
            (r#"{"id":"k","id":"j\x"}"#, Some("k")),
            (r#"{"workflow":"a\u+041b","id":"k"}"#, None),
            (r#"{"id":"k\x"}"#, None),
        ] {
            let err = parse_one(line).unwrap_err();
            assert_eq!(err.id.as_deref(), id, "{line}");
            assert!(err.message.starts_with("request:"), "{}", err.message);
        }
    }

    #[test]
    fn future_and_mixed_versions_are_rejected_per_record() {
        let future = format!(r#"{{"id":"f","verb":"ping","v":{}}}"#, SCHEMA_VERSION + 1);
        let err = parse_one(&future).unwrap_err();
        assert!(err.message.contains("newer"), "{}", err.message);

        let mut first = None;
        parse_request(r#"{"id":"a","verb":"ping","v":2}"#, &mut first).unwrap();
        assert_eq!(first, Some(2));
        let err = parse_request(r#"{"id":"b","verb":"ping","v":3}"#, &mut first).unwrap_err();
        assert!(err.message.contains("mixed"), "{}", err.message);
        assert_eq!(err.id.as_deref(), Some("b"));
        // The sticky version survives; matching records still parse.
        parse_request(r#"{"id":"c","verb":"ping","v":2}"#, &mut first).unwrap();
    }

    #[test]
    fn responses_parse_back_as_typed_objects() {
        for line in [
            ok_response("r1", "edges", true, "a\tb\n"),
            ping_response("p"),
            error_response(Some("e"), "parse", "parse: edges: line 1: nope"),
            error_response(None, "request", "request: not a JSON object"),
            overloaded_response("o"),
        ] {
            let v = parse(&line).unwrap();
            assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("response"));
            assert_eq!(v.get("v").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
            assert!(v.get("status").and_then(JsonValue::as_str).is_some());
        }
        let v = parse(&prio_error_response(
            "x",
            &prio_ir::ImportError::at(prio_ir::FormatId::Json, 3, "boom").into(),
        ))
        .unwrap();
        assert_eq!(v.get("stage").and_then(JsonValue::as_str), Some("parse"));
        assert!(v
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("line 3"));
    }
}
