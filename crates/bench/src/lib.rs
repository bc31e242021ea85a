//! Experiment harness: one regenerator per table and figure of the
//! paper's evaluation, run through the `exp` command.
//!
//! Each function in [`experiments`] computes the rows/series of one paper
//! artifact and returns plain data; [`report`] renders paper-style text
//! tables. The [`scale`] module picks the victim size — experiments
//! default to the CPU-budget `Tiny` scale and can be enlarged via
//! `RHB_SCALE=standard`. [`exp`] is the `exp <name>` dispatcher over the
//! regenerators and the long-running drivers, and [`flags`] is the
//! command-line parser that `exp` and `rhb-report` share.
//!
//! The flight-recorder half of the crate persists runs and compares them:
//! [`artifact`] freezes one pipeline run (config, phase timings, metrics,
//! flip ledger, fired alerts) as JSON under `results/runs/`, [`diff`]
//! detects regressions between two artifacts, [`timeline`] replays the
//! snapshot timelines the `RHB_OBS_RECORD` recorder persists under
//! `results/timelines/` (and reconstructs post-mortems from them), all
//! of them reading JSON through [`rhb_telemetry::json`], and the
//! `rhb-report` binary is the CLI over all of it.

pub mod artifact;
pub mod campaign_run;
pub mod compute;
pub mod diff;
pub mod exp;
pub mod experiments;
pub mod flags;
pub mod int8bench;
pub mod report;
pub mod scale;
pub mod telemetry;
pub mod timeline;
