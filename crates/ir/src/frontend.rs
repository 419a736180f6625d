//! The frontend trait and the format registry.
//!
//! A *frontend* is one importer/exporter pair for a workflow text format.
//! The registry holds every available frontend and auto-detects which one
//! an input belongs to, first by file extension and then by content sniff
//! (in registration order, so put the most specific sniffers first and
//! the permissive edge-list last).

use crate::error::{ImportError, PrioError};
use crate::workflow::{FormatId, Priorities, Workflow};
use std::io;

/// One importer/exporter pair for a workflow text format.
///
/// Frontends are stateless (`Send + Sync`), so one registry can be
/// shared by every worker of a concurrent server.
pub trait Frontend: Send + Sync {
    /// The format this frontend handles.
    fn id(&self) -> FormatId;

    /// File extensions (lowercase, without the dot) conventionally used
    /// by the format.
    fn extensions(&self) -> &'static [&'static str];

    /// Cheap content test: does `text` look like this format? Used by
    /// [`FormatRegistry::detect`] when the extension is inconclusive.
    fn sniff(&self, text: &str) -> bool;

    /// Parses `text` into a [`Workflow`]. Errors carry the frontend's
    /// [`FormatId`] provenance.
    fn import(&self, text: &str) -> Result<Workflow, PrioError>;

    /// Serializes `workflow` (with the given priorities; unassigned jobs
    /// get no priority line/field) to the format's canonical text,
    /// streamed into `out` one [`EXPORT_CHUNK`](crate::EXPORT_CHUNK) at a
    /// time through a [`ChunkWriter`](crate::ChunkWriter), so exporting
    /// holds one chunk of memory whatever the workflow's size.
    ///
    /// Canonical means deterministic: exporting the same workflow and
    /// priorities twice yields byte-identical text, and re-importing an
    /// export yields a workflow with the same content
    /// ([`Workflow::same_content`]). Only `out` can fail.
    fn export_to(
        &self,
        workflow: &Workflow,
        priorities: &Priorities,
        out: &mut dyn io::Write,
    ) -> io::Result<()>;

    /// About how many bytes [`Frontend::export`] writes: the capacity its
    /// buffer starts with.
    fn export_len(&self, workflow: &Workflow, _priorities: &Priorities) -> usize {
        workflow.num_jobs() * 16
    }

    /// [`Frontend::export_to`] into one `String`, pre-sized by
    /// [`Frontend::export_len`].
    fn export(&self, workflow: &Workflow, priorities: &Priorities) -> String {
        let mut out = Vec::with_capacity(self.export_len(workflow, priorities));
        self.export_to(workflow, priorities, &mut out)
            .expect("a Vec takes every write");
        String::from_utf8(out).expect("exports are UTF-8")
    }
}

/// All available frontends, with extension- and sniff-based detection.
#[derive(Default)]
pub struct FormatRegistry {
    frontends: Vec<Box<dyn Frontend>>,
}

impl FormatRegistry {
    /// An empty registry.
    pub fn new() -> FormatRegistry {
        FormatRegistry::default()
    }

    /// Adds a frontend. Detection order follows registration order.
    pub fn register(&mut self, frontend: Box<dyn Frontend>) {
        self.frontends.push(frontend);
    }

    /// Iterates over the registered frontends.
    pub fn frontends(&self) -> impl Iterator<Item = &dyn Frontend> {
        self.frontends.iter().map(Box::as_ref)
    }

    /// The frontend for `format`, if registered.
    pub fn get(&self, format: FormatId) -> Option<&dyn Frontend> {
        self.frontends().find(|f| f.id() == format)
    }

    /// The frontend named by a `--format` value (e.g. `"json"`).
    pub fn by_name(&self, name: &str) -> Option<&dyn Frontend> {
        self.get(FormatId::from_name(name)?)
    }

    /// Resolves the frontend for an input: an explicit `name` (anything
    /// but `auto`) must be registered; no name, or `auto`, detects (see
    /// [`FormatRegistry::detect`]).
    pub fn resolve(
        &self,
        name: Option<&str>,
        path: Option<&str>,
        text: &str,
    ) -> Result<&dyn Frontend, ResolveError> {
        match name.filter(|n| !n.eq_ignore_ascii_case("auto")) {
            Some(name) => self
                .by_name(name)
                .ok_or_else(|| ResolveError::UnknownName(name.to_string())),
            None => self.detect(path, text).ok_or(ResolveError::Undetected),
        }
    }

    /// Auto-detects the frontend for an input: first by the extension of
    /// `path` (when given), then by content sniff in registration order.
    pub fn detect(&self, path: Option<&str>, text: &str) -> Option<&dyn Frontend> {
        if let Some(ext) = path.and_then(extension_of) {
            let ext = ext.to_ascii_lowercase();
            if let Some(f) = self
                .frontends()
                .find(|f| f.extensions().contains(&ext.as_str()))
            {
                return Some(f);
            }
        }
        self.frontends().find(|f| f.sniff(text))
    }

    /// Detects by extension only (no content available yet, e.g. when
    /// picking an output format from a destination path).
    pub fn by_extension(&self, path: &str) -> Option<&dyn Frontend> {
        let ext = extension_of(path)?.to_ascii_lowercase();
        self.frontends()
            .find(|f| f.extensions().contains(&ext.as_str()))
    }
}

/// Why [`FormatRegistry::resolve`] found no frontend. Each caller renders
/// it in its own words; the conversion to [`PrioError`] is the library
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// An explicit format name no registered frontend claims.
    UnknownName(String),
    /// Neither the extension nor the content matched a frontend.
    Undetected,
}

impl From<ResolveError> for PrioError {
    /// A whole-file parse error; no frontend was picked, so it carries
    /// DAGMan provenance, the default format.
    fn from(e: ResolveError) -> PrioError {
        let message = match e {
            ResolveError::UnknownName(name) => format!("unknown format {name:?}"),
            ResolveError::Undetected => "cannot detect workflow format".to_string(),
        };
        ImportError::whole_file(FormatId::Dagman, message).into()
    }
}

/// The extension of `path` (text after the final `.` of the final
/// component), if any.
fn extension_of(path: &str) -> Option<&str> {
    let name = path.rsplit(['/', '\\']).next()?;
    let (stem, ext) = name.rsplit_once('.')?;
    if stem.is_empty() || ext.is_empty() {
        None
    } else {
        Some(ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frontends this crate defines (JSON and edge-list); the DAGMan
    /// frontend lives upstream.
    fn builtins() -> FormatRegistry {
        let mut r = FormatRegistry::new();
        r.register(Box::new(crate::json::JsonFrontend));
        r.register(Box::new(crate::edges::EdgesFrontend));
        r
    }

    #[test]
    fn builtin_registry_detects_by_extension_and_sniff() {
        let r = builtins();
        assert_eq!(r.get(FormatId::Json).map(|f| f.id()), Some(FormatId::Json));
        assert!(r.get(FormatId::Dagman).is_none(), "dagman lives upstream");
        assert_eq!(r.by_name("edges").map(|f| f.id()), Some(FormatId::Edges));
        assert!(r.by_name("auto").is_none());

        let json = r#"{"format":"prio-workflow-v1","jobs":[{"name":"a"}],"arcs":[]}"#;
        assert_eq!(
            r.detect(Some("wf.json"), json).map(|f| f.id()),
            Some(FormatId::Json)
        );
        // Extension wins over content.
        assert_eq!(
            r.detect(Some("wf.edges"), json).map(|f| f.id()),
            Some(FormatId::Edges)
        );
        // No extension: sniff.
        assert_eq!(r.detect(None, json).map(|f| f.id()), Some(FormatId::Json));
        assert_eq!(
            r.detect(None, "a\tb\n").map(|f| f.id()),
            Some(FormatId::Edges)
        );
    }

    #[test]
    fn resolve_honours_names_and_detects_on_auto() {
        let r = builtins();
        let id = |res: Result<&dyn Frontend, ResolveError>| res.map(|f| f.id());
        assert_eq!(
            id(r.resolve(Some("JSON"), None, "a\tb\n")),
            Ok(FormatId::Json)
        );
        assert_eq!(
            id(r.resolve(Some("auto"), None, "a\tb\n")),
            Ok(FormatId::Edges)
        );
        assert_eq!(id(r.resolve(None, Some("wf.json"), "")), Ok(FormatId::Json));
        assert_eq!(
            id(r.resolve(Some("nope"), None, "")),
            Err(ResolveError::UnknownName("nope".into()))
        );
        assert_eq!(
            id(r.resolve(Some("dagman"), None, "")),
            Err(ResolveError::UnknownName("dagman".into()))
        );
        let err = PrioError::from(ResolveError::Undetected).to_string();
        assert_eq!(err, "parse: dagman: cannot detect workflow format");
    }

    #[test]
    fn extension_parsing_edge_cases() {
        assert_eq!(extension_of("a/b/wf.json"), Some("json"));
        assert_eq!(extension_of("wf.prio.dag"), Some("dag"));
        assert_eq!(extension_of("noext"), None);
        assert_eq!(extension_of(".hidden"), None);
        assert_eq!(extension_of("dir.d/noext"), None);
        assert_eq!(extension_of("trailingdot."), None);
    }
}
