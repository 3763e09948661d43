//! Command-line parsing shared by both binaries: `--key value` pairs,
//! bare `--flag`s and one optional leading subcommand.

use std::collections::BTreeMap;

use crate::spec::Workload;

/// Parsed arguments.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    /// The leading word that is not an option, if any.
    pub subcommand: Option<String>,
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `args` (without the program name). `flags` names the options
    /// that take no value; every other `--option` takes one.
    ///
    /// # Errors
    ///
    /// A usage message for a stray word, an option given twice, or an
    /// option missing its value.
    pub fn parse(args: impl IntoIterator<Item = String>, flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if parsed.subcommand.is_some()
                    || !parsed.values.is_empty()
                    || !parsed.flags.is_empty()
                {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                parsed.subcommand = Some(arg);
                continue;
            };
            if flags.contains(&name) {
                parsed.flags.push(name.to_string());
            } else {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                if parsed.values.insert(name.to_string(), value).is_some() {
                    return Err(format!("--{name} given twice"));
                }
            }
        }
        Ok(parsed)
    }

    /// Whether the bare flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Whether `--name value` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The whole-number value of `--name`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A usage message when the value is not a whole number.
    pub fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got `{v}`")),
        }
    }

    /// The workload named by `--workload`, if given.
    ///
    /// # Errors
    ///
    /// A message listing the known names when the name is unknown.
    pub fn workload(&self) -> Result<Option<Workload>, String> {
        self.values
            .get("workload")
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })
            })
            .transpose()
    }

    /// Rejects options outside `known`, so a typo is an error, not a
    /// silently ignored setting.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown option.
    pub fn expect_known(&self, known: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from), &["quick"])
    }

    #[test]
    fn driver_and_report_invocations_parse() {
        let a = parse("--workload tcp-narrow --seed 3 --seconds 20 --trace 0").unwrap();
        assert_eq!(a.workload().unwrap(), Some(Workload::TcpNarrow));
        assert_eq!(
            (
                a.number("seed", 0).unwrap(),
                a.number("seconds", 0).unwrap()
            ),
            (3, 20)
        );
        assert!(a.has("trace") && !a.flag("quick") && a.subcommand.is_none());
        let a = parse("selfcheck --repeats 2 --quick").unwrap();
        assert_eq!(a.subcommand.as_deref(), Some("selfcheck"));
        assert!(a.flag("quick"));
        assert_eq!(a.number("repeats", 3).unwrap(), 2);
        assert_eq!(a.number("seed", 7).unwrap(), 7);
        assert_eq!(parse("").unwrap().workload().unwrap(), None);
    }

    #[test]
    fn mistakes_are_usage_errors() {
        assert!(parse("--seed").is_err());
        assert!(parse("--seed 1 --seed 2").is_err());
        assert!(parse("--seed 1 stray").is_err());
        assert!(parse("--seed x").unwrap().number("seed", 0).is_err());
        assert!(parse("--workload nope").unwrap().workload().is_err());
        assert!(parse("--sede 1").unwrap().expect_known(&["seed"]).is_err());
    }
}
