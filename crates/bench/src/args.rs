//! Tiny shared `--flag` / `--key value` parsing for the experiment
//! binaries — one implementation instead of a hand-rolled scan per bin.
//!
//! The binaries take a handful of overrides (run counts, op counts,
//! assertion switches); anything unrecognized aborts with a usage line so
//! typos fail loudly instead of silently running the default experiment.

use std::fmt::Write as _;

/// Parsed command-line arguments: boolean flags and `--key value` options.
///
/// # Examples
///
/// ```
/// use mwr_bench::args::Args;
///
/// let args = Args::from_vec(vec!["--assert-growth".into(), "--ops".into(), "300".into()]);
/// assert!(args.flag("assert-growth"));
/// assert_eq!(args.get_u64("ops", 200), 300);
/// assert!(!args.flag("verbose"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process's command line (skipping the binary name).
    pub fn parse() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Builds from an explicit vector (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Whether boolean flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value following `--name`, or of `--name=value`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        let prefix = format!("--{name}=");
        for (i, a) in self.raw.iter().enumerate() {
            if let Some(v) = a.strip_prefix(&prefix) {
                return Some(v);
            }
            if a == &key {
                return self.raw.get(i + 1).map(String::as_str);
            }
        }
        None
    }

    /// The `--name` value parsed as `u64`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value is present but not a
    /// number — a typo should stop the experiment, not skew it.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}")),
        }
    }

    /// Aborts with a usage message unless every argument is one of
    /// `flags` (as `--flag`) or `options` (as `--key value` /
    /// `--key=value`, with the value present).
    pub fn expect_known(&self, bin: &str, flags: &[&str], options: &[&str]) {
        if let Err(message) = self.check_known(bin, flags, options) {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }

    /// The testable core of [`expect_known`](Self::expect_known): `Err`
    /// holds the message that would be printed before exiting.
    fn check_known(&self, bin: &str, flags: &[&str], options: &[&str]) -> Result<(), String> {
        let usage = |problem: String| {
            let mut usage = format!("{problem}\nusage: {bin}");
            for f in flags {
                let _ = write!(usage, " [--{f}]");
            }
            for o in options {
                let _ = write!(usage, " [--{o} N]");
            }
            usage
        };
        let mut i = 0;
        while i < self.raw.len() {
            let a = &self.raw[i];
            let bare = a.strip_prefix("--").map(|b| b.split('=').next().unwrap_or(b));
            match bare {
                Some(name) if flags.contains(&name) => i += 1,
                Some(name) if options.contains(&name) && a.contains('=') => i += 1,
                Some(name) if options.contains(&name) => {
                    // A trailing option with no value must fail loudly, not
                    // silently fall back to the default.
                    if i + 1 >= self.raw.len() {
                        return Err(usage(format!("--{name} expects a value")));
                    }
                    i += 2;
                }
                _ => return Err(usage(format!("unrecognized argument {a:?}"))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::from_vec(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_are_detected() {
        let a = args(&["--assert-growth", "--ops", "50"]);
        assert!(a.flag("assert-growth"));
        assert!(!a.flag("ops-missing"));
        // An option's *value* is not a flag.
        assert!(!a.flag("50"));
    }

    #[test]
    fn options_support_both_spellings() {
        assert_eq!(args(&["--ops", "300"]).get("ops"), Some("300"));
        assert_eq!(args(&["--ops=300"]).get("ops"), Some("300"));
        assert_eq!(args(&[]).get("ops"), None);
    }

    #[test]
    fn numeric_options_fall_back_to_defaults() {
        assert_eq!(args(&[]).get_u64("runs", 40), 40);
        assert_eq!(args(&["--runs", "7"]).get_u64("runs", 40), 7);
        assert_eq!(args(&["--runs=7"]).get_u64("runs", 40), 7);
    }

    #[test]
    #[should_panic(expected = "--runs expects a number")]
    fn non_numeric_values_panic_with_the_key_name() {
        args(&["--runs", "many"]).get_u64("runs", 40);
    }

    #[test]
    fn empty_command_lines_are_fine() {
        let a = Args::from_vec(Vec::new());
        assert!(!a.flag("anything"));
        assert_eq!(a.get_u64("runs", 3), 3);
    }

    #[test]
    fn known_arguments_validate() {
        let a = args(&["--assert-growth", "--runs", "5", "--seed=7"]);
        assert!(a.check_known("bin", &["assert-growth"], &["runs", "seed"]).is_ok());
    }

    #[test]
    fn unknown_arguments_are_rejected_with_usage() {
        let err = args(&["--bogus"]).check_known("bin", &["ok"], &["runs"]).unwrap_err();
        assert!(err.contains("unrecognized argument"), "{err}");
        assert!(err.contains("usage: bin [--ok] [--runs N]"), "{err}");
    }

    #[test]
    fn trailing_option_without_value_is_rejected() {
        let err = args(&["--runs"]).check_known("bin", &[], &["runs"]).unwrap_err();
        assert!(err.contains("--runs expects a value"), "{err}");
    }
}
