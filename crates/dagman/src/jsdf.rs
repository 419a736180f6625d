//! Job-submit description files (JSDFs).
//!
//! A Condor submit description file is a sequence of `key = value`
//! assignments followed by a `queue` statement. The `prio` tool adds the
//! single line `priority = $(jobpriority)` — using the macro indirection so
//! one JSDF can serve jobs of several DAGMan files with different
//! priorities (§3.2).

use std::fmt::Write as _;

/// A parsed JSDF: raw lines plus an index of assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jsdf {
    lines: Vec<String>,
}

impl Jsdf {
    /// Parses a JSDF (line-preserving; Condor submit syntax is forgiving,
    /// so no line is rejected).
    pub fn parse(text: &str) -> Jsdf {
        Jsdf {
            lines: prio_obs::scan::lines(text).map(str::to_string).collect(),
        }
    }

    /// Serializes the file.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// The value of the last assignment to `key` (case-insensitive), if
    /// any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.lines.iter().rev().find_map(|l| {
            let (k, v) = l.split_once('=')?;
            if k.trim().eq_ignore_ascii_case(key) {
                Some(v.trim())
            } else {
                None
            }
        })
    }

    /// Whether a line assigns `key` (case-insensitive).
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Sets `key = value`: replaces the last existing assignment in place,
    /// or inserts a new line before the first `queue` statement (or at the
    /// end if there is none).
    pub fn set(&mut self, key: &str, value: &str) {
        let assignment = format!("{key} = {value}");
        // Replace in place if present.
        if let Some(i) = self.lines.iter().rposition(|l| {
            l.split_once('=')
                .map(|(k, _)| k.trim().eq_ignore_ascii_case(key))
                .unwrap_or(false)
        }) {
            self.lines[i] = assignment;
            return;
        }
        match self.lines.iter().position(|l| is_queue(l)) {
            Some(i) => self.lines.insert(i, assignment),
            None => self.lines.push(assignment),
        }
    }

    /// The instrumentation the `prio` tool performs: assign the
    /// `jobpriority` macro to Condor's `priority` attribute.
    pub fn instrument_priority(&mut self) {
        self.set("priority", "$(jobpriority)");
    }
}

/// Whether `line` is a `queue` statement: the keyword in any case, alone
/// or followed by whitespace and its arguments.
fn is_queue(line: &str) -> bool {
    let t = line.trim();
    t.get(..5).is_some_and(|k| k.eq_ignore_ascii_case("queue"))
        && t[5..].chars().next().is_none_or(char::is_whitespace)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
universe = vanilla
executable = analyze
arguments = -x 1
queue
";

    #[test]
    fn parse_and_get() {
        let j = Jsdf::parse(SAMPLE);
        assert_eq!(j.get("universe"), Some("vanilla"));
        assert_eq!(j.get("Executable"), Some("analyze"));
        assert_eq!(j.get("missing"), None);
        assert!(j.has("arguments"));
    }

    #[test]
    fn instrument_inserts_before_queue() {
        let mut j = Jsdf::parse(SAMPLE);
        j.instrument_priority();
        let text = j.to_text();
        let prio_line = text
            .lines()
            .position(|l| l == "priority = $(jobpriority)")
            .unwrap();
        let queue_line = text.lines().position(|l| l == "queue").unwrap();
        assert!(prio_line < queue_line);
        assert_eq!(j.get("priority"), Some("$(jobpriority)"));
    }

    #[test]
    fn instrument_replaces_existing_priority() {
        let mut j = Jsdf::parse("priority = 0\nqueue\n");
        j.instrument_priority();
        assert_eq!(j.to_text(), "priority = $(jobpriority)\nqueue\n");
    }

    #[test]
    fn instrument_is_idempotent() {
        let mut j = Jsdf::parse(SAMPLE);
        j.instrument_priority();
        let once = j.to_text();
        j.instrument_priority();
        assert_eq!(j.to_text(), once);
    }

    #[test]
    fn set_appends_when_no_queue() {
        let mut j = Jsdf::parse("universe = vanilla\n");
        j.set("priority", "3");
        assert!(j.to_text().ends_with("priority = 3\n"));
    }

    #[test]
    fn queue_with_count_recognized() {
        let mut j = Jsdf::parse("executable = x\nQueue 5\n");
        j.instrument_priority();
        let text = j.to_text();
        assert!(text.find("priority").unwrap() < text.find("Queue 5").unwrap());
    }

    #[test]
    fn queue_followed_by_any_whitespace_is_recognized() {
        for (queue, text) in [
            ("queue\t3", "executable = x\nqueue\t3\n"),
            ("Queue 2", "executable = x\nQueue 2\n"),
            ("queue", "executable = x\nqueue\n"),
            ("QUEUE", "executable = x\n  QUEUE  \n"),
        ] {
            let mut j = Jsdf::parse(text);
            j.instrument_priority();
            let out = j.to_text();
            let prio = out.find("priority = $(jobpriority)").unwrap();
            assert!(prio < out.find(queue).unwrap(), "{queue:?}: {out}");
        }
        // A key that merely starts with `queue` is an assignment.
        for line in ["queued = 1", "queue_x = 2", "queue=3"] {
            assert!(!is_queue(line), "{line:?}");
        }
        assert!(!is_queue("qu"));
        assert!(!is_queue("quéue"));
    }

    #[test]
    fn roundtrip() {
        let j = Jsdf::parse(SAMPLE);
        assert_eq!(j.to_text(), SAMPLE);
    }
}
