//! The request decoder against the tree it replaced.
//!
//! `oracle` below is the protocol's former `parse_request`: it builds a
//! whole [`JsonValue`] tree and reads fields from it with typed lookups.
//! The daemon now decodes with one pull scan and keeps the workflow as its
//! escaped literal. On every line, hostile or not, both must agree: the
//! same `Ok` fields (the workflow unescaped), or the same error id and
//! message, and the same sticky connection version afterwards.

use prio_obs::json::{parse, JsonValue, SCHEMA_VERSION};
use prio_serve::protocol::{parse_request, Request, RequestError, Verb, WireRequest};
use proptest::prelude::*;

/// The string `id` of an unparsable `line` as far as it can be read: the
/// top-level `id` of the longest prefix that, closed with `}`, is a valid
/// object. That prefix holds exactly the members a member-by-member
/// reader completes before it meets the fault (a complete member after it
/// would make a longer such prefix), and the last `id` among them wins.
fn id_before_fault(line: &str) -> Option<String> {
    (1..=line.len())
        .rev()
        .filter(|&i| line.is_char_boundary(i))
        .find_map(|i| {
            let value = parse(&format!("{}}}", &line[..i])).ok()?;
            value.is_object().then(|| {
                value
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
            })
        })
        .flatten()
}

/// The tree-based decoder, kept as the reference. Its one change since
/// it was the daemon's decoder: an unparsable line keeps the id read
/// before the fault ([`id_before_fault`]).
fn oracle(line: &str, first_version: &mut Option<u64>) -> Result<Request, RequestError> {
    let err = |id: Option<String>, message: String| RequestError { id, message };
    let value = parse(line).map_err(|e| err(id_before_fault(line), format!("request: {e}")))?;
    if !value.is_object() {
        return Err(err(None, "request: not a JSON object".into()));
    }
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .map(str::to_owned);
    let version = value.get("v").and_then(JsonValue::as_u64);
    if let Some(v) = version {
        if v > SCHEMA_VERSION {
            return Err(err(
                id,
                format!("request: schema v{v} is newer than supported v{SCHEMA_VERSION}"),
            ));
        }
        match *first_version {
            None => *first_version = Some(v),
            Some(first) if first != v => {
                return Err(err(
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
        return Err(err(None, "request: missing string field \"id\"".into()));
    };
    let verb = match value.get("verb") {
        None => Verb::Prioritize,
        Some(v) => {
            let name = v.as_str().unwrap_or("");
            match name {
                "prioritize" => Verb::Prioritize,
                "stats" => Verb::Stats,
                "ping" => Verb::Ping,
                "shutdown" => Verb::Shutdown,
                _ => {
                    return Err(err(
                        Some(id),
                        format!(
                            "request: unknown verb {name:?} \
                             (prioritize|stats|ping|shutdown)"
                        ),
                    ))
                }
            }
        }
    };
    let workflow = value
        .get("workflow")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_owned();
    if verb == Verb::Prioritize && workflow.is_empty() {
        return Err(err(
            Some(id),
            "request: prioritize requires a non-empty \"workflow\" field".into(),
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

/// A comparable rendering of a decode result.
type Outcome = Result<
    (
        String,
        Verb,
        String,
        Option<String>,
        Option<String>,
        Option<u64>,
    ),
    (Option<String>, String),
>;

fn outcome(r: Result<Request, RequestError>) -> Outcome {
    r.map(|q| (q.id, q.verb, q.workflow, q.format, q.output, q.version))
        .map_err(|e| (e.id, e.message))
}

fn wire_outcome(r: Result<WireRequest, RequestError>) -> Outcome {
    r.map(|q| {
        let workflow = q.workflow().into_owned();
        (q.id, q.verb, workflow, q.format, q.output, q.version)
    })
    .map_err(|e| (e.id, e.message))
}

/// Runs `lines` as one connection through the oracle, `parse_request`
/// and `WireRequest::decode`, asserting all three agree line by line,
/// sticky version included.
fn assert_agree(lines: &[String]) -> Result<(), TestCaseError> {
    let (mut a, mut b, mut c) = (None, None, None);
    for line in lines {
        let want = outcome(oracle(line, &mut a));
        prop_assert_eq!(&outcome(parse_request(line, &mut b)), &want, "{:?}", line);
        prop_assert_eq!(
            &wire_outcome(WireRequest::decode(line.clone(), &mut c)),
            &want,
            "{:?}",
            line
        );
        prop_assert_eq!((a, b), (c, c), "sticky version after {:?}", line);
    }
    Ok(())
}

#[test]
fn hostile_lines_decode_exactly_as_the_tree_did() {
    let deep = format!(
        r#"{{"id":"d","x":{}1{},"workflow":"a\tb\n"}}"#,
        "[{\"k\":".repeat(64),
        "}]".repeat(64)
    );
    let table: Vec<String> = [
        // Well-formed.
        r#"{"id":"r","verb":"prioritize","format":"edges","output":"json","workflow":"a\tb\n","v":3}"#,
        r#"  {"id":"s","verb":"stats"}  "#,
        r#"{"id":"p","verb":"ping","workflow":"ignored\u0041"}"#,
        // Duplicate keys: the last wins, whatever its type.
        r#"{"id":"a","id":"b","workflow":"x\ty\n"}"#,
        r#"{"id":"a","id":7,"workflow":"x\ty\n"}"#,
        r#"{"id":"a","workflow":"x\ty\n","workflow":""}"#,
        r#"{"id":"a","workflow":"","workflow":"x\ty\n"}"#,
        r#"{"id":"a","workflow":"x\ty\n","workflow":3}"#,
        r#"{"id":"a","verb":"stats","verb":"ping"}"#,
        r#"{"id":"a","verb":"ping","verb":null}"#,
        r#"{"id":"a","v":3,"v":"3","verb":"ping"}"#,
        r#"{"id":"a","format":"edges","format":false,"workflow":"x\ty\n"}"#,
        // Non-string or absent fields.
        r#"{"id":1,"verb":"ping"}"#,
        r#"{"id":null,"verb":"ping"}"#,
        r#"{"verb":"ping"}"#,
        r#"{"id":"a","verb":1}"#,
        r#"{"id":"a","verb":["ping"]}"#,
        r#"{"id":"a","verb":"explode"}"#,
        r#"{"id":"a"}"#,
        r#"{"id":"a","workflow":{"jobs":[]}}"#,
        r#"{"id":"a","workflow":null}"#,
        r#"{"id":"a","workflow":"x\ty\n","format":1,"output":[]}"#,
        r#"{"id":"a","verb":"stats","workflow":7}"#,
        // `v` as a float, negative, string, huge, exponent.
        r#"{"id":"a","verb":"ping","v":2.5}"#,
        r#"{"id":"a","verb":"ping","v":3.0}"#,
        r#"{"id":"a","verb":"ping","v":-1}"#,
        r#"{"id":"a","verb":"ping","v":-0}"#,
        r#"{"id":"a","verb":"ping","v":"3"}"#,
        r#"{"id":"a","verb":"ping","v":1e999}"#,
        r#"{"id":"a","verb":"ping","v":2e0}"#,
        r#"{"id":"a","verb":"ping","v":4}"#,
        r#"{"verb":"ping","v":4}"#,
        r#"{"id":"a","verb":"ping","v":1-}"#,
        // `\u` key spellings.
        r#"{"\u0069d":"a","\u0077orkflow":"x\ty\n"}"#,
        r#"{"id":"a","\u0076erb":"ping"}"#,
        r#"{"id":"a","wor\u006bflow":"x\u0009y\n","\u0066ormat":"edges"}"#,
        // Surrogates and escapes.
        r#"{"id":"\ud83e\uddea","workflow":"a\ud83e\uddeab\n"}"#,
        r#"{"id":"a","workflow":"\ud800"}"#,
        r#"{"id":"a","workflow":"\ud800\u0041"}"#,
        r#"{"id":"a","workflow":"\udc00"}"#,
        r#"{"id":"a","workflow":"\ud800x"}"#,
        r#"{"id":"a","workflow":"\x"}"#,
        r#"{"id":"a","workflow":"\u12"}"#,
        r#"{"id":"a","workflow":"\uzzzz"}"#,
        r#"{"id":"a","workflow":"\u+0041"}"#,
        r#"{"id":"a","workflow":"\/\b\f\r\"\\"}"#,
        r#"{"id":"a","workflow":"\u0000"}"#,
        "{\"id\":\"a\",\"workflow\":\"raw\ttab\"}",
        "{\"id\":\"a\",\"workflow\":\"raw\u{1}\"}",
        "{\"id\":\"a\u{7f}\",\"workflow\":\"é\u{1F9EA}\"}",
        // Truncation.
        r#"{"id":"a","workflow":"x\ty"#,
        r#"{"id":"a","workflow":"x\"#,
        r#"{"id":"a","workflow":"\u00"#,
        r#"{"id":"a","workflow""#,
        r#"{"id":"a","#,
        r#"{"id":"a""#,
        "{",
        "",
        "   ",
        // Trailing data and non-object top levels.
        r#"{"id":"a","verb":"ping"} x"#,
        r#"{"id":"a","verb":"ping"}{}"#,
        r#"{"id":"a","verb":"ping"},"#,
        "[1,2]",
        "[1,]",
        "\"just a string\"",
        "\"bad \\x\"",
        "42",
        "-",
        "null",
        "nul",
        "not json",
        // Structural errors inside the object.
        r#"{"id":"a" "verb":"ping"}"#,
        r#"{"id":"a",}"#,
        r#"{"id":"a","verb":}"#,
        r#"{id:"a"}"#,
        r#"{"id":"a","x":[1,2}"#,
        r#"{"id":"a","x":tru}"#,
        "{}",
    ]
    .into_iter()
    .map(str::to_owned)
    .chain([deep])
    .collect();
    for line in &table {
        assert_agree(std::slice::from_ref(line)).unwrap();
    }
    // One connection: the sticky version carries across lines.
    assert_agree(&table).unwrap();
    assert_agree(&[
        r#"{"id":"a","verb":"ping","v":2}"#.into(),
        r#"{"id":"b","verb":"ping","v":3}"#.into(),
        r#"{"id":"c","verb":"ping","v":2.0}"#.into(),
        r#"{"verb":"ping","v":3}"#.into(),
    ])
    .unwrap();
}

/// Pieces of request lines: keys, values, escapes and stray syntax.
const KEYS: &[&str] = &[
    r#""id""#,
    r#""verb""#,
    r#""workflow""#,
    r#""format""#,
    r#""output""#,
    r#""v""#,
    r#""\u0077orkflow""#,
    r#""\u0069d""#,
    r#""other""#,
];

const VALUES: &[&str] = &[
    r#""r1""#,
    r#""""#,
    r#""prioritize""#,
    r#""stats""#,
    r#""ping""#,
    r#""edges""#,
    r#""a\tb\n""#,
    r#""a\u0009b\n""#,
    r#""\ud83e\uddea""#,
    r#""\ud800""#,
    r#""\udc00""#,
    r#""\x""#,
    r#""\"\\\/""#,
    "1",
    "3",
    "-2",
    "2.5",
    "4e0",
    "1e999",
    "null",
    "true",
    "[]",
    r#"[1,{"a":"b"}]"#,
    r#"{"id":"nested"}"#,
];

const STRAY: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", " ", "\t", "\u{1}", "é", "x", "0",
];

fn arb_object() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..7).prop_map(|members| {
        let body: Vec<String> = members
            .into_iter()
            .map(|(k, v)| format!("{}:{}", KEYS[k], VALUES[v]))
            .collect();
        format!("{{{}}}", body.join(","))
    })
}

/// An object, then up to two edits: a truncation at any byte or a stray
/// piece inserted at any char boundary.
fn arb_line() -> impl Strategy<Value = String> {
    (
        arb_object(),
        proptest::collection::vec((0u8..3, any::<u64>(), 0..STRAY.len()), 0..3),
    )
        .prop_map(|(mut line, edits)| {
            for (kind, at, stray) in edits {
                let boundaries: Vec<usize> = (0..=line.len())
                    .filter(|&i| line.is_char_boundary(i))
                    .collect();
                let at = boundaries[at as usize % boundaries.len()];
                match kind {
                    0 => line.truncate(at),
                    1 => line.insert_str(at, STRAY[stray]),
                    _ => {}
                }
            }
            line
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_lines_decode_exactly_as_the_tree_did(
        lines in proptest::collection::vec(arb_line(), 1..6)
    ) {
        assert_agree(&lines)?;
    }
}
