//! Minimal flag parsing shared by the subcommands (no external deps).
//!
//! Every parse failure is a [`CliError::Usage`] (exit code 2): the command
//! line itself, not the input data, was wrong.

use crate::error::CliError;
use std::collections::HashMap;

/// Parsed positional arguments and `--flag [value]` options.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, Option<String>>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &[
    "fifo",
    "critical-path",
    "theoretical",
    "in-place",
    "timings",
    "json",
    "stdio",
];

/// Flags every subcommand accepts. `main` reads `--timings` itself and
/// removes `-v`, `--profile-alloc` and `--metrics-out FILE` before a
/// subcommand parses; a `--metrics-out` left here lacks its value, which
/// the parser then reports.
const GLOBAL_FLAGS: &[&str] = &["timings", "metrics-out"];

impl Args {
    /// Parses argv-style tokens against the subcommand's `known` flags
    /// (names without the `--`); any other flag is a usage error. A
    /// `--flag` consumes the following token as its value unless it is
    /// boolean or the next token is another flag.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(CliError::usage("bare `--` is not supported"));
                }
                if !known.contains(&name) && !GLOBAL_FLAGS.contains(&name) {
                    return Err(CliError::usage(format!("unknown flag --{name}")));
                }
                let takes_value = !BOOLEAN_FLAGS.contains(&name);
                let value = if takes_value {
                    let next = argv.get(i + 1);
                    match next {
                        Some(v) if !v.starts_with("--") => {
                            i += 1;
                            Some(v.clone())
                        }
                        _ => {
                            return Err(CliError::usage(format!("flag --{name} requires a value")))
                        }
                    }
                } else {
                    None
                };
                if args.flags.insert(name.to_string(), value).is_some() {
                    return Err(CliError::usage(format!("flag --{name} given twice")));
                }
            } else {
                args.positional.push(tok.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A flag's string value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// A flag parsed as `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("flag --{name}: cannot parse {v:?}"))),
        }
    }

    /// The single required positional argument.
    pub fn one_positional(&self) -> Result<&str, CliError> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(CliError::usage("expected one positional argument")),
            _ => Err(CliError::usage("too many positional arguments")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    const KNOWN: &[&str] = &["mu-bit", "fifo", "seed", "p"];

    #[test]
    fn positional_and_flags() {
        let a = Args::parse(&v(&["file.dag", "--mu-bit", "0.5", "--fifo"]), KNOWN).unwrap();
        assert_eq!(a.one_positional().unwrap(), "file.dag");
        assert_eq!(a.get("mu-bit"), Some("0.5"));
        assert!(a.has("fifo"));
        assert_eq!(a.get_parsed("mu-bit", 1.0).unwrap(), 0.5);
        assert_eq!(a.get_parsed("p", 7usize).unwrap(), 7);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&v(&["--seed"]), KNOWN).is_err());
        assert!(Args::parse(&v(&["--seed", "--fifo"]), KNOWN).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(Args::parse(&v(&["--seed", "1", "--seed", "2"]), KNOWN).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let err = Args::parse(&v(&["--trace-ring", "2"]), KNOWN).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--trace-ring"), "{err}");
        // A typo'd boolean flag is unknown, not "requires a value".
        let err = Args::parse(&v(&["--fifoo"]), KNOWN).unwrap_err();
        assert!(err.to_string().contains("unknown flag --fifoo"), "{err}");
        assert!(Args::parse(&v(&["--timings"]), KNOWN)
            .unwrap()
            .has("timings"));
        // `main` strips `--metrics-out FILE`; one left over lacks its value.
        let err = Args::parse(&v(&["--metrics-out"]), KNOWN).unwrap_err();
        assert!(err.to_string().contains("requires a value"), "{err}");
    }

    #[test]
    fn parse_error_is_reported() {
        let a = Args::parse(&v(&["--p", "abc"]), KNOWN).unwrap();
        assert!(a.get_parsed("p", 0usize).is_err());
    }
}
