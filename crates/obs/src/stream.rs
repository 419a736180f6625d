//! A streaming JSONL record reader: an iterator over typed records with
//! bounded memory, so multi-gigabyte trace files (10^6-job runs and
//! beyond) are analyzable line by line without slurping them.
//!
//! Each yielded [`Record`] is one parsed JSON object with its `type`
//! discriminator and 1-based line number. The reader enforces the schema
//! contract as it goes:
//!
//! * blank lines are skipped;
//! * a line that is not a JSON object, or lacks a `type` field, is a
//!   [`StreamError::Parse`];
//! * every record must carry `"v": `[`SCHEMA_VERSION`]. An untagged
//!   (v1), older or newer record is a [`StreamError::Version`]: nothing
//!   writes the old schemas any more, and a file mixing builds is
//!   rejected at its first foreign line rather than half-parsed.
//!
//! [`open`] builds a reader over a file path, with `-` meaning stdin —
//! the ingestion contract of `prio report` and `prio trace`.

use crate::json::{parse, JsonValue, SCHEMA_VERSION};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// One parsed JSONL record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// 1-based line number in the input.
    pub line_no: usize,
    /// The record's `type` discriminator.
    pub kind: String,
    /// The full parsed object.
    pub value: JsonValue,
}

/// A streaming-read failure: I/O, malformed line, or a schema-version
/// violation.
#[derive(Debug)]
pub enum StreamError {
    /// Reading the underlying input failed.
    Io(io::Error),
    /// A non-blank line was not a typed JSON object.
    Parse {
        /// 1-based line number.
        line_no: usize,
        /// What went wrong.
        message: String,
    },
    /// A record's schema version is not the one this build reads.
    Version {
        /// 1-based line number.
        line_no: usize,
        /// Which version the record carried.
        message: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "read error: {e}"),
            StreamError::Parse { line_no, message } | StreamError::Version { line_no, message } => {
                write!(f, "line {line_no}: {message}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// Accepts a record's `v` tag (`None` when untagged) iff it is
/// [`SCHEMA_VERSION`]; otherwise says which version it found.
fn check_schema_version(tag: Option<u64>) -> Result<(), String> {
    match tag {
        Some(SCHEMA_VERSION) => Ok(()),
        Some(v) if v > SCHEMA_VERSION => Err(format!(
            "record schema v{v} is newer than supported v{SCHEMA_VERSION}"
        )),
        Some(v) => Err(format!(
            "record schema v{v} is no longer read (only v{SCHEMA_VERSION}); \
             re-record the trace with this build"
        )),
        None => Err(format!(
            "untagged record (schema v1) is no longer read (only v{SCHEMA_VERSION}); \
             re-record the trace with this build"
        )),
    }
}

/// A bounded-memory iterator over the records of a JSONL stream. Holds
/// one line at a time regardless of input size.
#[derive(Debug)]
pub struct JsonlReader<R: BufRead> {
    input: R,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> JsonlReader<R> {
    /// Wraps any buffered reader.
    pub fn new(input: R) -> JsonlReader<R> {
        JsonlReader {
            input,
            line_no: 0,
            buf: String::new(),
        }
    }

    fn next_record(&mut self) -> Result<Option<Record>, StreamError> {
        loop {
            self.buf.clear();
            if self.input.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            let line_no = self.line_no;
            let value = parse(line).map_err(|message| StreamError::Parse { line_no, message })?;
            if !value.is_object() {
                return Err(StreamError::Parse {
                    line_no,
                    message: "not a JSON object".into(),
                });
            }
            let kind = value
                .get("type")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| StreamError::Parse {
                    line_no,
                    message: "missing type field".into(),
                })?
                .to_owned();
            check_schema_version(value.get("v").and_then(JsonValue::as_u64))
                .map_err(|message| StreamError::Version { line_no, message })?;
            return Ok(Some(Record {
                line_no,
                kind,
                value,
            }));
        }
    }
}

impl<R: BufRead> Iterator for JsonlReader<R> {
    type Item = Result<Record, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Opens a streaming reader over `path`, with `-` meaning stdin.
pub fn open(path: &str) -> io::Result<JsonlReader<Box<dyn BufRead>>> {
    let input: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(io::stdin()))
    } else {
        Box::new(BufReader::new(File::open(Path::new(path))?))
    };
    Ok(JsonlReader::new(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonObject;
    use std::io::Cursor;

    fn reader(text: &str) -> JsonlReader<Cursor<&[u8]>> {
        JsonlReader::new(Cursor::new(text.as_bytes()))
    }

    #[test]
    fn yields_typed_records_with_line_numbers() {
        let text = "{\"type\":\"meta\",\"v\":3,\"command\":\"x\"}\n\n{\"type\":\"ts\",\"v\":3}\n";
        let records: Vec<Record> = reader(text).collect::<Result<_, _>>().unwrap();
        assert_eq!(records.len(), 2, "blank line skipped");
        assert_eq!(records[0].kind, "meta");
        assert_eq!(records[0].line_no, 1);
        assert_eq!(records[1].kind, "ts");
        assert_eq!(records[1].line_no, 3);
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in ["not json\n", "[1,2]\n", "{\"no\":\"type\"}\n"] {
            let result: Result<Vec<Record>, StreamError> = reader(bad).collect();
            assert!(result.is_err(), "{bad:?} must error");
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let text = format!("{{\"type\":\"ts\",\"v\":{}}}\n", SCHEMA_VERSION + 1);
        let err = reader(&text).next().unwrap().unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn old_and_untagged_records_are_rejected_with_line_and_version() {
        for (text, version) in [
            (
                "{\"type\":\"ts\",\"v\":3}\n{\"type\":\"ts\",\"v\":2}\n",
                "v2",
            ),
            ("{\"type\":\"ts\",\"v\":3}\n{\"type\":\"meta\"}\n", "v1"),
        ] {
            let mut r = reader(text);
            assert!(r.next().unwrap().is_ok());
            let err = r.next().unwrap().unwrap_err();
            assert!(
                matches!(err, StreamError::Version { line_no: 2, .. }),
                "{err}"
            );
            let message = err.to_string();
            assert!(message.starts_with("line 2: "), "{message}");
            assert!(message.contains(version), "{message}");
        }
    }

    #[test]
    fn current_writer_output_streams_clean() {
        let mut text = String::new();
        for i in 0..100u64 {
            text.push_str(&JsonObject::typed("job_completed").u64("job", i).finish());
            text.push('\n');
        }
        let records: Vec<Record> = reader(&text).collect::<Result<_, _>>().unwrap();
        assert_eq!(records.len(), 100);
        assert!(records
            .iter()
            .all(
                |r| r.value.get("v").and_then(JsonValue::as_u64) == Some(SCHEMA_VERSION)
                    && r.kind == "job_completed"
            ));
    }
}
