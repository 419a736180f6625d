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

use prio_ir::PrioError;
use prio_obs::json::{parse, JsonObject, JsonValue, SCHEMA_VERSION};

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

/// One parsed request line.
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
    let value = parse(line).map_err(|e| RequestError::new(None, format!("request: {e}")))?;
    if !value.is_object() {
        return Err(RequestError::new(None, "request: not a JSON object"));
    }
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .map(str::to_owned);
    let version = value.get("v").and_then(JsonValue::as_u64);
    if let Some(v) = version {
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
    let verb = match value.get("verb") {
        None => Verb::Prioritize,
        Some(v) => {
            let name = v.as_str().unwrap_or("");
            Verb::from_name(name).ok_or_else(|| {
                RequestError::new(
                    Some(id.clone()),
                    format!(
                        "request: unknown verb {name:?} \
                         (prioritize|stats|ping|shutdown)"
                    ),
                )
            })?
        }
    };
    let workflow = value
        .get("workflow")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_owned();
    if verb == Verb::Prioritize && workflow.is_empty() {
        return Err(RequestError::new(
            Some(id),
            "request: prioritize requires a non-empty \"workflow\" field",
        ));
    }
    let field = |k: &str| value.get(k).and_then(JsonValue::as_str).map(str::to_owned);
    Ok(Request {
        id,
        verb,
        workflow,
        format: field("format"),
        output: field("output"),
        version,
    })
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
    JsonObject::typed("response")
        .str("id", id)
        .str("status", "ok")
        .str("format", format)
        .bool("cached", cached)
        .str("output", output)
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
