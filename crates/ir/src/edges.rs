//! The whitespace/TSV edge-list frontend — the serve-path ingest format.
//!
//! One record per line; fields split on tabs when the line contains one
//! (so job names may contain spaces), otherwise on any whitespace:
//!
//! ```text
//! # comment
//! node                     declares a job (idempotent)
//! parent<TAB>child         declares the arc (and both jobs)
//! @priority<TAB>job<TAB>5  assigns a priority
//! ```
//!
//! The export is canonical: every job declared first in index order (so
//! re-import preserves job numbering even for jobs only mentioned in
//! arcs), then the arcs in index order, then the `@priority` lines —
//! all tab-separated.

use crate::chunk::ChunkWriter;
use crate::error::{ImportError, PrioError};
use crate::frontend::Frontend;
use crate::workflow::{FormatId, Priorities, Workflow, WorkflowBuilder};
use prio_obs::scan;
use std::io;

/// The directive that assigns a job priority.
pub const PRIORITY_DIRECTIVE: &str = "@priority";

/// The edge-list frontend.
pub struct EdgesFrontend;

fn err(line: usize, message: impl Into<String>) -> PrioError {
    ImportError::at(FormatId::Edges, line, message).into()
}

/// One record's first three fields and how many it has in all — no
/// record the format accepts has more, so splitting allocates nothing.
#[derive(Debug, Clone, Copy)]
struct Fields<'a> {
    first: [&'a str; 3],
    count: usize,
}

impl<'a> Fields<'a> {
    fn collect(fields: impl Iterator<Item = &'a str>) -> Fields<'a> {
        let mut f = Fields {
            first: [""; 3],
            count: 0,
        };
        for field in fields {
            if let Some(slot) = f.first.get_mut(f.count) {
                *slot = field;
            }
            f.count += 1;
        }
        f
    }
}

/// Splits one record: on tabs when present (TSV, names may contain
/// spaces), otherwise on whitespace runs.
fn fields(line: &str) -> Fields<'_> {
    if scan::find_byte(line.as_bytes(), b'\t').is_some() {
        Fields::collect(line.split('\t').map(str::trim).filter(|f| !f.is_empty()))
    } else {
        Fields::collect(line.split_whitespace())
    }
}

impl Frontend for EdgesFrontend {
    fn id(&self) -> FormatId {
        FormatId::Edges
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["edges", "tsv"]
    }

    fn sniff(&self, text: &str) -> bool {
        // Permissive fallback: every early non-blank line is a comment, a
        // directive, or a 1–2 field record. Register this frontend last.
        let mut saw_record = false;
        for line in scan::lines(text).take(50) {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            match fields(line) {
                Fields {
                    first: [PRIORITY_DIRECTIVE, ..],
                    count: 3,
                } => saw_record = true,
                f if f.count <= 2 => saw_record = true,
                _ => return false,
            }
        }
        saw_record
    }

    fn import(&self, text: &str) -> Result<Workflow, PrioError> {
        let _span = prio_obs::span(prio_obs::Stage::Parse);
        // A record names at most two jobs, and the names are read from the
        // text: both bound what the builder holds.
        let records = scan::count_lines(text);
        let mut b = WorkflowBuilder::with_capacity(FormatId::Edges, 2 * records, records);
        b.reserve_name_bytes(text.len());
        for (i, raw) in scan::lines(text).enumerate() {
            let line = i + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            // Split the raw line, not the trimmed one: a trailing tab is
            // how the exporter marks a single TSV field with spaces.
            let f = fields(raw);
            match (f.count, f.first) {
                (3, [PRIORITY_DIRECTIVE, job, value]) => {
                    let p: i64 = value.parse().map_err(|_| {
                        err(
                            line,
                            format!("{PRIORITY_DIRECTIVE} value must be an integer"),
                        )
                    })?;
                    let u = b.get(job).ok_or_else(|| {
                        err(
                            line,
                            format!("{PRIORITY_DIRECTIVE} names unknown job {job:?}"),
                        )
                    })?;
                    b.set_priority(u, p);
                }
                (_, [directive, ..]) if directive.starts_with('@') => {
                    return Err(err(line, format!("unknown directive {directive:?}")));
                }
                (1, [node, ..]) => {
                    b.job(node);
                }
                (2, [parent, child, _]) => {
                    let pu = b.job(parent);
                    let cu = b.job(child);
                    b.arc(pu, cu).map_err(|e| err(line, e.to_string()))?;
                }
                _ => {
                    return Err(err(
                        line,
                        format!("expected 1–2 fields or a directive, got {}", f.count),
                    ));
                }
            }
        }
        let wf = b.build()?;
        prio_obs::counter!("edges.parse.files").add(1);
        prio_obs::counter!("edges.parse.jobs").add(wf.num_jobs() as u64);
        prio_obs::counter!("edges.parse.arcs").add(wf.num_arcs() as u64);
        Ok(wf)
    }

    fn export_to(
        &self,
        workflow: &Workflow,
        priorities: &Priorities,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        let _span = prio_obs::span(prio_obs::Stage::Write);
        let mut w = ChunkWriter::new(out);
        w.str("# prio workflow edge list: node | parent\tchild | @priority\tjob\tvalue\n");
        for u in workflow.node_ids() {
            let name = workflow.job_name(u);
            w.str(name);
            // A trailing tab forces TSV splitting on re-import, so the
            // single field keeps its internal spaces.
            w.str(if name.contains(char::is_whitespace) {
                "\t\n"
            } else {
                "\n"
            });
        }
        for u in workflow.node_ids() {
            for &c in workflow.children(u) {
                w.strs(&[workflow.job_name(u), "\t", workflow.job_name(c), "\n"]);
            }
        }
        for (u, p) in priorities.iter() {
            w.strs(&[PRIORITY_DIRECTIVE, "\t", workflow.job_name(u), "\t"]);
            w.int(p);
            w.str("\n");
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_graph::NodeId;

    #[test]
    fn parses_mixed_whitespace_and_tsv() {
        let text = "# demo\nroot\na b\nb\tc\n@priority\ta\t7\n\n";
        let wf = EdgesFrontend.import(text).unwrap();
        assert_eq!(wf.num_jobs(), 4); // root, a, b, c
        assert_eq!(wf.num_arcs(), 2);
        assert_eq!(wf.job_name(NodeId(0)), "root");
        let a = wf.find("a").unwrap();
        assert_eq!(wf.priorities().get(a), Some(7));
    }

    #[test]
    fn tsv_names_may_contain_spaces() {
        let text = "stage one\tstage two\n@priority\tstage one\t2\n";
        let wf = EdgesFrontend.import(text).unwrap();
        assert_eq!(wf.num_jobs(), 2);
        assert_eq!(wf.job_name(NodeId(0)), "stage one");
        assert_eq!(wf.priorities().get(NodeId(0)), Some(2));
    }

    #[test]
    fn export_import_round_trips_content() {
        let mut b = WorkflowBuilder::new(FormatId::Edges);
        let ids: Vec<NodeId> = ["sink only", "a", "b"].iter().map(|n| b.job(n)).collect();
        b.arc(ids[1], ids[0]).unwrap();
        b.arc(ids[1], ids[2]).unwrap();
        b.set_priority(ids[1], 3);
        let wf = b.build().unwrap();

        let f = EdgesFrontend;
        let text = f.export(&wf, wf.priorities());
        let back = f.import(&text).unwrap();
        assert!(wf.same_content(&back), "round-trip changed the workflow");
        assert_eq!(f.export(&back, back.priorities()), text);
    }

    #[test]
    fn errors_carry_line_and_format_provenance() {
        let cases = [
            ("a\tb\tc\n", "line 1"),
            ("a\n@priority\ta\tx\n", "line 2"),
            ("@priority\tghost\t1\n", "line 1"),
            ("@wat\ta\n", "line 1"),
            ("a\na\ta\n", "line 2"), // self-loop
        ];
        for (text, frag) in cases {
            let e = EdgesFrontend.import(text).unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.starts_with("parse: edges:") && msg.contains(frag),
                "bad provenance for {text:?}: {msg}"
            );
        }
    }

    #[test]
    fn records_past_three_fields_report_their_full_count() {
        let cases = [
            (
                "a\n\nx y z\n",
                "line 3: expected 1–2 fields or a directive, got 3",
            ),
            (
                "a\tb\t c \td\te\n",
                "line 1: expected 1–2 fields or a directive, got 5",
            ),
            (
                "# c\r\na\r\np q r s t u\r\n",
                "line 3: expected 1–2 fields or a directive, got 6",
            ),
            (
                "a\n@priority\ta\t1\t2\n",
                "line 2: unknown directive \"@priority\"",
            ),
            ("@priority a\n", "line 1: unknown directive \"@priority\""),
        ];
        for (text, expected) in cases {
            let msg = EdgesFrontend.import(text).unwrap_err().to_string();
            assert!(msg.ends_with(expected), "{text:?}: {msg}");
        }
        assert!(!EdgesFrontend.sniff("a b c\n"));
        assert!(EdgesFrontend.sniff("@priority a 1\n"));
    }

    #[test]
    fn sniff_is_permissive_but_not_blind() {
        assert!(EdgesFrontend.sniff("a\tb\n"));
        assert!(EdgesFrontend.sniff("# only comments then\nnode\n"));
        assert!(EdgesFrontend.sniff("@priority\ta\t1\n"));
        assert!(!EdgesFrontend.sniff(""));
        assert!(!EdgesFrontend.sniff("# comments only\n"));
        assert!(!EdgesFrontend.sniff("JOB a a.submit\nPARENT a CHILD b\n"));
    }

    #[test]
    fn declaration_order_is_preserved_through_export() {
        // A job that appears only as an arc endpoint later must still be
        // re-imported at the same index, because the export declares every
        // node before the first arc.
        let mut b = WorkflowBuilder::new(FormatId::Edges);
        let z = b.job("z");
        let a = b.job("a");
        b.arc(a, z).unwrap();
        let wf = b.build().unwrap();
        let text = EdgesFrontend.export(&wf, wf.priorities());
        let back = EdgesFrontend.import(&text).unwrap();
        assert_eq!(back.job_name(NodeId(0)), "z");
        assert_eq!(back.job_name(NodeId(1)), "a");
    }
}
