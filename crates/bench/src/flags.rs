//! Command-line flags for the `exp` and `rhb-report` commands.
//!
//! A command declares what it accepts in a [`Spec`]: required
//! positionals, switches, and flags that take one value.
//! [`Spec::parse`] splits the arguments against it, and the getters on
//! [`Flags`] parse each value and check it against a [`Rule`]. Every
//! error is a [`UsageError`] that names the flag at fault, so a command
//! reads all of its values first and exits 2 before any work starts.
//! A flag given twice keeps its last value.

use std::fmt;
use std::str::FromStr;

/// A bad command line: what was wrong, naming the flag at fault.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What one command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Required positional arguments, by placeholder (`<run.json>`).
    pub positionals: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take one value, each with its placeholder.
    pub valued: &'static [(&'static str, &'static str)],
}

impl Spec {
    /// A command that accepts no arguments at all.
    pub const NONE: Spec = Spec {
        positionals: &[],
        switches: &[],
        valued: &[],
    };

    /// One-line synopsis, each part after a space, so that
    /// `format!("{name}{}", spec.synopsis())` is a usage line:
    /// ` <run.json> [--check] [--out PATH]`.
    pub fn synopsis(&self) -> String {
        let positionals = self.positionals.iter().map(|p| format!(" {p}"));
        let switches = self.switches.iter().map(|s| format!(" [{s}]"));
        let valued = self.valued.iter().map(|(f, v)| format!(" [{f} {v}]"));
        positionals.chain(switches).chain(valued).collect()
    }

    /// Splits `args` into positionals, switches and flag values.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without its value, or a missing or
    /// surplus positional.
    pub fn parse(&self, args: &[String]) -> Result<Flags, UsageError> {
        let mut flags = Flags {
            positionals: Vec::new(),
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&switch) = self.switches.iter().find(|s| **s == arg) {
                flags.switches.push(switch);
            } else if let Some(&(flag, _)) = self.valued.iter().find(|(f, _)| *f == arg) {
                let value = it
                    .next()
                    .ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
                flags.values.push((flag, value.clone()));
            } else if arg.starts_with('-') {
                return Err(UsageError(format!("unknown flag '{arg}'")));
            } else if flags.positionals.len() < self.positionals.len() {
                flags.positionals.push(arg.clone());
            } else {
                return Err(UsageError(format!("unexpected argument '{arg}'")));
            }
        }
        if let Some(missing) = self.positionals.get(flags.positionals.len()) {
            return Err(UsageError(format!("missing {missing}")));
        }
        Ok(flags)
    }
}

/// A range rule a parsed value must satisfy, named for error messages.
pub struct Rule<T> {
    /// What the rule demands, e.g. "a positive number".
    pub want: &'static str,
    /// Whether a value satisfies it.
    pub holds: fn(&T) -> bool,
}

/// Accepts every value that parses.
pub fn any<T>() -> Rule<T> {
    Rule {
        want: "any value",
        holds: |_| true,
    }
}

/// Above zero (integer flags: counts, sizes, durations).
pub fn positive<T: Default + PartialOrd>() -> Rule<T> {
    Rule {
        want: "a positive number",
        holds: |v| *v > T::default(),
    }
}

/// A positive, finite float (rates).
pub const POSITIVE_FINITE: Rule<f64> = Rule {
    want: "a positive, finite number",
    holds: |v| v.is_finite() && *v > 0.0,
};

/// A finite float in `[0, 1]` (fractions, thresholds, fault rates).
pub const FRACTION: Rule<f64> = Rule {
    want: "a finite number in [0, 1]",
    holds: |v| v.is_finite() && (0.0..=1.0).contains(v),
};

/// A float at or above zero, not NaN (durations in seconds).
pub const NON_NEGATIVE: Rule<f64> = Rule {
    want: "a number >= 0",
    holds: |v| *v >= 0.0,
};

/// One parsed command line; see [`Spec::parse`].
#[derive(Debug)]
pub struct Flags {
    positionals: Vec<String>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Flags {
    /// The `i`-th positional; [`Spec::parse`] guarantees every declared
    /// one is present.
    pub fn positional(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// Whether the switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The last raw value given for `flag`.
    pub fn raw(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value of `flag` parsed as `T`; `None` when absent.
    ///
    /// # Errors
    ///
    /// The value does not parse or breaks `rule`.
    pub fn get<T: FromStr>(&self, flag: &str, rule: Rule<T>) -> Result<Option<T>, UsageError> {
        self.raw(flag)
            .map(|raw| parse_one(flag, raw, &rule))
            .transpose()
    }

    /// The last value of `flag` as a comma-separated list: entries are
    /// trimmed, blanks dropped, and each must parse and satisfy `rule`.
    /// `None` when absent.
    ///
    /// # Errors
    ///
    /// An entry does not parse or breaks `rule`, or the list is empty.
    pub fn list<T: FromStr>(
        &self,
        flag: &str,
        rule: Rule<T>,
    ) -> Result<Option<Vec<T>>, UsageError> {
        let Some(raw) = self.raw(flag) else {
            return Ok(None);
        };
        let items = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_one(flag, s, &rule))
            .collect::<Result<Vec<T>, _>>()?;
        if items.is_empty() {
            return Err(UsageError(format!("{flag}: needs at least one entry")));
        }
        Ok(Some(items))
    }
}

fn parse_one<T: FromStr>(flag: &str, raw: &str, rule: &Rule<T>) -> Result<T, UsageError> {
    let value = raw
        .parse::<T>()
        .map_err(|_| UsageError(format!("{flag}: cannot parse '{raw}'")))?;
    if (rule.holds)(&value) {
        Ok(value)
    } else {
        Err(UsageError(format!(
            "{flag}: '{raw}' is out of range (want {})",
            rule.want
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        positionals: &["<dir>"],
        switches: &["--check"],
        valued: &[("--rates", "R,..."), ("--last", "N"), ("--rps", "R")],
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn err(list: &[&str]) -> String {
        SPEC.parse(&args(list)).unwrap_err().0
    }

    #[test]
    fn splits_positionals_switches_and_values() {
        let f = SPEC
            .parse(&args(&["--last", "3", "d", "--check", "--last", "4"]))
            .unwrap();
        assert_eq!(f.positional(0), "d");
        assert!(f.switch("--check"));
        assert_eq!(f.get("--last", positive::<usize>()), Ok(Some(4)));
        assert_eq!(f.get("--rps", POSITIVE_FINITE), Ok(None));
        let plain = SPEC.parse(&args(&["d"])).unwrap();
        assert!(!plain.switch("--check"));
    }

    #[test]
    fn unknown_flags_missing_values_and_stray_arguments_are_named() {
        assert_eq!(err(&["d", "--bogus"]), "unknown flag '--bogus'");
        assert_eq!(err(&["d", "--rps"]), "--rps needs a value");
        assert_eq!(err(&[]), "missing <dir>");
        assert_eq!(err(&["d", "e"]), "unexpected argument 'e'");
        assert!(Spec::NONE.parse(&args(&["--rps", "1"])).is_err());
        assert!(Spec::NONE.parse(&[]).is_ok());
    }

    #[test]
    fn unparsable_and_out_of_range_values_name_their_flag() {
        let get = |list: &[&str]| {
            SPEC.parse(&args(list))
                .unwrap()
                .get("--rps", POSITIVE_FINITE)
                .unwrap_err()
                .0
        };
        assert_eq!(get(&["d", "--rps", "fast"]), "--rps: cannot parse 'fast'");
        for bad in ["0", "-1", "nan", "inf"] {
            let msg = get(&["d", "--rps", bad]);
            assert!(msg.starts_with("--rps: "), "{msg}");
            assert!(msg.contains("positive, finite"), "{msg}");
        }
        let f = SPEC.parse(&args(&["d", "--last", "0"])).unwrap();
        assert!(f
            .get("--last", positive::<usize>())
            .unwrap_err()
            .0
            .starts_with("--last: "));
        let f = SPEC.parse(&args(&["d", "--last", "-2"])).unwrap();
        assert_eq!(
            f.get("--last", positive::<usize>()).unwrap_err().0,
            "--last: cannot parse '-2'"
        );
    }

    #[test]
    fn comma_lists_trim_drop_blanks_and_check_every_entry() {
        let f = SPEC.parse(&args(&["d", "--rates", "0.0, 0.2,"])).unwrap();
        assert_eq!(f.list("--rates", FRACTION), Ok(Some(vec![0.0, 0.2])));
        let alerts = SPEC
            .parse(&args(&["d", "--rates", "stall,recovery"]))
            .unwrap();
        assert_eq!(
            alerts.list("--rates", any::<String>()),
            Ok(Some(vec!["stall".to_string(), "recovery".to_string()]))
        );
        for bad in ["0.1,nan", "1.5", "0.2,-0.1"] {
            let f = SPEC.parse(&args(&["d", "--rates", bad])).unwrap();
            let msg = f.list("--rates", FRACTION).unwrap_err().0;
            assert!(msg.starts_with("--rates: "), "{msg}");
        }
        let f = SPEC.parse(&args(&["d", "--rates", " , "])).unwrap();
        assert_eq!(
            f.list("--rates", FRACTION).unwrap_err().0,
            "--rates: needs at least one entry"
        );
        let absent = SPEC.parse(&args(&["d"])).unwrap();
        assert_eq!(absent.list("--rates", FRACTION), Ok(None));
    }

    #[test]
    fn synopsis_lists_every_argument() {
        assert_eq!(
            SPEC.synopsis(),
            " <dir> [--check] [--rates R,...] [--last N] [--rps R]"
        );
        assert_eq!(Spec::NONE.synopsis(), "");
    }
}
