//! The one vocabulary of stage names. Spans ([`crate::span()`]), errors
//! (`prio_ir::error::Stage` is this type), `--timings` footers and the
//! §3.6 overhead table all name stages through [`Stage`], so they cannot
//! drift apart.

use std::fmt;

/// Defines [`Stage`] with its name table and [`Stage::ALL`] from one
/// list, so a variant cannot lack a name.
macro_rules! stages {
    ($($(#[doc = $doc:literal])* $variant:ident = $name:literal,)*) => {
        /// A named stage of the tool. [`Stage::name`] is the segment its
        /// spans record under and the prefix its errors render with.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Stage {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Stage {
            /// Every stage, in pipeline order.
            pub const ALL: [Stage; [$($name),*].len()] = [$(Stage::$variant),*];

            /// The canonical name: the span path segment and error prefix.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Stage::$variant => $name,)*
                }
            }
        }
    };
}

stages! {
    /// Workflow input parsing (any frontend).
    Parse = "parse",
    /// Shortcut removal (transitive reduction).
    Reduce = "reduce",
    /// Decomposition into components plus the superdag.
    Decompose = "decompose",
    /// The peeling loop of the decomposition.
    DecomposePeel = "decompose.peel",
    /// The general closure search for an entangled block.
    DecomposeGeneralSearch = "decompose.general_search",
    /// Copying the components out into their own dags.
    DecomposeMaterialize = "decompose.materialize",
    /// Building the superdag over the components.
    DecomposeSuperdag = "decompose.superdag",
    /// Per-component scheduling.
    Schedule = "schedule",
    /// Greedy component ordering.
    Combine = "combine",
    /// Emission and validation of the global job order.
    Emit = "emit",
    /// Writing priorities into a DAGMan file and its submit files.
    Apply = "apply",
    /// Writing the output text.
    Write = "write",
    /// The root span of the §3.6 overhead table's per-dag measurement.
    Prioritize = "prioritize",
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_lists_the_stages_in_order() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage} is out of place");
        }
        assert_eq!(Stage::ALL.first(), Some(&Stage::Parse));
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
