//! The `exp` command: `exp <name> [flags]` runs one experiment.
//!
//! [`EXPERIMENTS`] is the single table behind both dispatch and the
//! usage list. Regenerators (one per table and figure of the paper's
//! evaluation) take no flags and print what `results/<name>.txt`
//! records, where one is committed. Drivers are long-running attacks,
//! sweeps and CI gates: each declares its flags, reads and checks all
//! of them, and only then runs. [`main`] wraps
//! [`crate::telemetry::init`] / [`crate::telemetry::finish`] around
//! every entry, so each one honours `RHB_TELEMETRY` and the
//! `RHB_OBS_*` knobs. Exit codes: 0 ok, 1 a failed check, 2 a usage or
//! I/O error.

mod backdoor_online;
mod campaign;
mod campaign_kill;
mod chaos_sweep;
mod regen;
mod serve_attack;

use crate::flags::{Flags, Spec, UsageError};
use std::process::ExitCode;

/// A driver's run, with every flag already read and checked.
pub type Run = Box<dyn FnOnce() -> ExitCode>;

/// What an experiment name runs.
pub enum Entry {
    /// Regenerates one paper artifact: takes no flags, returns its text.
    Regen(fn() -> String),
    /// A driver: the flags it accepts, and the function that reads them
    /// and returns the run.
    Driver(Spec, fn(&Flags) -> Result<Run, UsageError>),
}

/// Every experiment by name; dispatch and the usage list both read it.
pub const EXPERIMENTS: &[(&str, Entry)] = &[
    ("table1", Entry::Regen(regen::table1)),
    ("table2", Entry::Regen(regen::table2)),
    ("table3", Entry::Regen(regen::table3)),
    ("table4", Entry::Regen(regen::table4)),
    ("fig2", Entry::Regen(regen::fig2)),
    ("fig4", Entry::Regen(regen::fig4)),
    ("fig5", Entry::Regen(regen::fig5)),
    ("fig6", Entry::Regen(regen::fig6)),
    ("fig7", Entry::Regen(regen::fig7)),
    ("fig8", Entry::Regen(regen::fig8)),
    ("fig9", Entry::Regen(regen::fig9)),
    ("fig10", Entry::Regen(regen::fig10)),
    ("fig11", Entry::Regen(regen::fig11)),
    ("fig12", Entry::Regen(regen::fig12)),
    ("fig13", Entry::Regen(regen::fig13)),
    ("prob", Entry::Regen(regen::prob)),
    ("attack_time", Entry::Regen(regen::attack_time)),
    (
        "defense_prevention",
        Entry::Regen(regen::defense_prevention),
    ),
    ("defense_detection", Entry::Regen(regen::defense_detection)),
    ("defense_recovery", Entry::Regen(regen::defense_recovery)),
    ("plundervolt", Entry::Regen(regen::plundervolt)),
    ("ablation", Entry::Regen(regen::ablation)),
    (
        "backdoor_online",
        Entry::Driver(backdoor_online::SPEC, backdoor_online::prepare),
    ),
    ("campaign", Entry::Driver(campaign::SPEC, campaign::prepare)),
    (
        "campaign_kill",
        Entry::Driver(Spec::NONE, campaign_kill::prepare),
    ),
    (
        "chaos_sweep",
        Entry::Driver(chaos_sweep::SPEC, chaos_sweep::prepare),
    ),
    (
        "serve_attack",
        Entry::Driver(serve_attack::SPEC, serve_attack::prepare),
    ),
];

/// The entry registered under `name`.
fn find(name: &str) -> Option<&'static Entry> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, entry)| entry)
}

impl Entry {
    /// The flags this entry accepts.
    fn spec(&self) -> Spec {
        match self {
            Entry::Regen(_) => Spec::NONE,
            Entry::Driver(spec, _) => *spec,
        }
    }

    /// Parses and checks `args`, returning the run.
    ///
    /// # Errors
    ///
    /// Any bad argument, named in the error.
    fn prepare(&self, args: &[String]) -> Result<Run, UsageError> {
        let flags = self.spec().parse(args)?;
        match self {
            Entry::Regen(regen) => {
                let regen = *regen;
                Ok(Box::new(move || {
                    print!("{}", regen());
                    ExitCode::SUCCESS
                }))
            }
            Entry::Driver(_, prepare) => prepare(&flags),
        }
    }
}

/// The usage text: every experiment name, drivers with their flags.
fn usage() -> String {
    let mut out = String::from("usage: exp <name> [flags]\npaper regenerators (no flags):\n ");
    for (name, entry) in EXPERIMENTS {
        if let Entry::Regen(_) = entry {
            out.push(' ');
            out.push_str(name);
        }
    }
    out.push_str("\ndrivers:\n");
    for (name, entry) in EXPERIMENTS {
        if let Entry::Driver(spec, _) = entry {
            out.push_str(&format!("  {name}{}\n", spec.synopsis()));
        }
    }
    out
}

/// Runs `exp` on its arguments (without the program name).
pub fn main(args: &[String]) -> ExitCode {
    let Some((name, rest)) = args.split_first() else {
        eprint!("exp: missing experiment name\n{}", usage());
        return ExitCode::from(2);
    };
    let Some(entry) = find(name) else {
        eprint!("exp: unknown experiment '{name}'\n{}", usage());
        return ExitCode::from(2);
    };
    let run = match entry.prepare(rest) {
        Ok(run) => run,
        Err(e) => {
            eprintln!(
                "exp {name}: {e}\nusage: exp {name}{}",
                entry.spec().synopsis()
            );
            return ExitCode::from(2);
        }
    };
    let mode = crate::telemetry::init();
    let code = run();
    crate::telemetry::finish(mode);
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_all_listed_in_usage() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let usage = usage();
        for name in names {
            assert!(
                usage.split_whitespace().any(|word| word == name),
                "{name} missing from usage:\n{usage}"
            );
        }
    }

    #[test]
    fn regenerators_reject_every_flag() {
        let entry = find("prob").unwrap();
        assert!(entry.prepare(&[]).is_ok());
        let err = entry.prepare(&["--seed".to_string()]).err().unwrap();
        assert_eq!(err.0, "unknown flag '--seed'");
    }

    /// The regenerators whose committed results still match the code,
    /// pinned byte for byte through the function `exp <name>` prints.
    #[test]
    fn fast_regenerators_reproduce_their_committed_results() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        for (name, regen) in [
            ("prob", regen::prob as fn() -> String),
            ("fig4", regen::fig4),
            ("fig12", regen::fig12),
            ("attack_time", regen::attack_time),
        ] {
            let committed = std::fs::read_to_string(format!("{results}/{name}.txt")).unwrap();
            assert_eq!(
                regen(),
                committed,
                "results/{name}.txt no longer reproduces"
            );
        }
    }

    /// The drivers' other range rules; `tests/exp_cli.rs` covers the
    /// rate, fraction and threshold inputs through the binary.
    #[test]
    fn drivers_refuse_bad_values_before_running() {
        let refuse = |name: &str, args: &[&str], flag: &str| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = find(name).unwrap().prepare(&args).err();
            let msg = err
                .unwrap_or_else(|| panic!("{name} {args:?} was accepted"))
                .0;
            assert!(msg.starts_with(flag), "{name} {args:?}: {msg}");
        };
        refuse("serve_attack", &["--rps", "inf"], "--rps");
        refuse("serve_attack", &["--workers", "0"], "--workers");
        refuse("chaos_sweep", &["--rates", "0.1,2"], "--rates");
        refuse("campaign", &["--max-attempts", "0"], "--max-attempts");
        refuse("campaign", &["--rates", "nan"], "--rates");
        refuse("campaign", &["--seeds", ","], "--seeds");
        refuse(
            "backdoor_online",
            &["--min-seconds", "nan"],
            "--min-seconds",
        );
        refuse("campaign_kill", &["--now"], "unknown flag");
    }
}
