//! Minimal flag parser (no external dependency): `--key value` pairs
//! plus boolean `--key` switches, after a positional subcommand.

use std::collections::BTreeMap;

/// Parsed command line: subcommand + flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The positional subcommand (first non-flag argument).
    pub command: Option<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` that expected a value hit the end of the arguments.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
    },
    /// A required flag was not supplied.
    Required(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "--{k} expects a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "--{flag}: cannot parse '{value}'")
            }
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags whose presence alone is meaningful (no value follows).
const SWITCHES: &[&str] = &["theory", "quiet", "help", "shutdown"];

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if SWITCHES.contains(&key) {
                    out.switches.push(key.to_string());
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                    out.flags.insert(key.to_string(), v);
                }
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                // Kept for commands with positional operands
                // (`tmwia stats ADDR`); others ignore them.
                out.positionals.push(a);
            }
        }
        Ok(out)
    }

    /// String flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Required string flag.
    pub fn str_req(&self, key: &str) -> Result<String, ArgError> {
        self.flags
            .get(key)
            .cloned()
            .ok_or_else(|| ArgError::Required(key.to_string()))
    }

    /// Numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: key.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Positional operand after the subcommand, if any.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_flags_and_switches() {
        let a = parse("run --n 128 --kind planted --theory").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.num_or("n", 0usize).unwrap(), 128);
        assert_eq!(a.str_or("kind", "x"), "planted");
        assert!(a.has("theory"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn positionals_after_the_subcommand_are_kept_in_order() {
        let a = parse("stats 127.0.0.1:4206 extra --quiet").unwrap();
        assert_eq!(a.command.as_deref(), Some("stats"));
        assert_eq!(a.positional(0), Some("127.0.0.1:4206"));
        assert_eq!(a.positional(1), Some("extra"));
        assert_eq!(a.positional(2), None);
        assert!(a.has("quiet"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("generate").unwrap();
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        assert_eq!(a.str_or("kind", "planted"), "planted");
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            parse("run --n").unwrap_err(),
            ArgError::MissingValue("n".into())
        );
        let a = parse("run --n twelve").unwrap();
        assert!(matches!(
            a.num_or("n", 0usize),
            Err(ArgError::BadValue { .. })
        ));
        let a = parse("run").unwrap();
        assert_eq!(
            a.str_req("out").unwrap_err(),
            ArgError::Required("out".into())
        );
    }

    #[test]
    fn error_messages_name_the_flag() {
        assert!(ArgError::MissingValue("x".into())
            .to_string()
            .contains("--x"));
        assert!(ArgError::Required("out".into())
            .to_string()
            .contains("--out"));
        assert!(ArgError::BadValue {
            flag: "n".into(),
            value: "z".into()
        }
        .to_string()
        .contains("'z'"));
    }
}
