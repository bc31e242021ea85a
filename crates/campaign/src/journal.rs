//! Crash-safe checkpoint journal: the campaign's single source of truth.
//!
//! Append-only JSONL over rotating segment files
//! (`journal-00000000.jsonl`, …) under the campaign directory, one
//! event per line, every line flushed as it is written — the same
//! discipline as the flight recorder's timeline, minus the ring-buffer
//! pruning (a checkpoint journal must never forget). A crash therefore
//! loses at most the line in flight, and [`Journal::replay`] parses
//! leniently: a truncated tail or corrupt line is skipped and counted,
//! never fatal.
//!
//! Replay semantics (what resume is built on):
//!
//! * the **first** `done` line for a run-id wins; later duplicates are
//!   counted but change nothing — re-executing a run can never double
//!   its results;
//! * `fail` lines accumulate a consecutive-failure count per run-id,
//!   reset by nothing (a `done` removes the run from the pending set
//!   entirely);
//! * a `quarantine` line permanently retires the run-id;
//! * an `attempt` line without a matching `done`/`fail` after it is an
//!   in-flight attempt the crash interrupted — the run stays pending
//!   and is re-executed on resume.

use rhb_telemetry::json::{self, write_json_string, JsonValue};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Schema tag written in every campaign header line.
pub const SCHEMA: &str = "rhb-campaign-journal/v1";
/// Lines per journal segment before rotation.
pub const SEGMENT_LINES: usize = 512;

/// One journal event. Field layout is flat (strings and numbers only),
/// one JSON object per line.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// Process-start header: campaign identity and grid size.
    Campaign { name: String, total_runs: usize },
    /// An attempt started (in-flight marker).
    Attempt {
        run_id: String,
        attempt: u32,
        seed: u64,
    },
    /// An attempt finished successfully.
    Done {
        run_id: String,
        attempt: u32,
        class: String,
        asr: f64,
        attack_time_ms: u64,
        backoff_ms: u64,
    },
    /// An attempt failed (panic, timeout, or error verdict).
    Fail {
        run_id: String,
        attempt: u32,
        reason: String,
        detail: String,
        backoff_ms: u64,
    },
    /// The run exhausted its retry budget and is retired.
    Quarantine {
        run_id: String,
        attempts: u32,
        reason: String,
    },
}

impl JournalEvent {
    /// Renders the event as a single JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            JournalEvent::Campaign { name, total_runs } => {
                out.push_str("{\"kind\": \"campaign\", \"schema\": ");
                write_json_string(SCHEMA, &mut out);
                out.push_str(", \"name\": ");
                write_json_string(name, &mut out);
                let _ = write!(out, ", \"total_runs\": {total_runs}}}");
            }
            JournalEvent::Attempt {
                run_id,
                attempt,
                seed,
            } => {
                out.push_str("{\"kind\": \"attempt\", \"run_id\": ");
                write_json_string(run_id, &mut out);
                let _ = write!(out, ", \"attempt\": {attempt}, \"seed\": {seed}}}");
            }
            JournalEvent::Done {
                run_id,
                attempt,
                class,
                asr,
                attack_time_ms,
                backoff_ms,
            } => {
                out.push_str("{\"kind\": \"done\", \"run_id\": ");
                write_json_string(run_id, &mut out);
                let _ = write!(out, ", \"attempt\": {attempt}, \"class\": ");
                write_json_string(class, &mut out);
                let asr = if asr.is_finite() { *asr } else { 0.0 };
                let _ = write!(
                    out,
                    ", \"asr\": {asr}, \"attack_time_ms\": {attack_time_ms}, \
                     \"backoff_ms\": {backoff_ms}}}"
                );
            }
            JournalEvent::Fail {
                run_id,
                attempt,
                reason,
                detail,
                backoff_ms,
            } => {
                out.push_str("{\"kind\": \"fail\", \"run_id\": ");
                write_json_string(run_id, &mut out);
                let _ = write!(out, ", \"attempt\": {attempt}, \"reason\": ");
                write_json_string(reason, &mut out);
                out.push_str(", \"detail\": ");
                write_json_string(detail, &mut out);
                let _ = write!(out, ", \"backoff_ms\": {backoff_ms}}}");
            }
            JournalEvent::Quarantine {
                run_id,
                attempts,
                reason,
            } => {
                out.push_str("{\"kind\": \"quarantine\", \"run_id\": ");
                write_json_string(run_id, &mut out);
                let _ = write!(out, ", \"attempts\": {attempts}, \"reason\": ");
                write_json_string(reason, &mut out);
                out.push('}');
            }
        }
        out
    }

    /// Parses one journal line; `None` for corrupt/truncated/unknown
    /// lines (the lenient-reader contract).
    pub fn parse(line: &str) -> Option<JournalEvent> {
        let fields = json::parse(line).ok()?;
        let s = |k: &str| {
            fields
                .get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        let n = |k: &str| fields.get(k).and_then(JsonValue::as_f64);
        let u = |k: &str| n(k).filter(|v| *v >= 0.0).map(|v| v as u64);
        match fields.get("kind").and_then(JsonValue::as_str)? {
            "campaign" => Some(JournalEvent::Campaign {
                name: s("name")?,
                total_runs: u("total_runs")? as usize,
            }),
            "attempt" => Some(JournalEvent::Attempt {
                run_id: s("run_id")?,
                attempt: u("attempt")? as u32,
                seed: u("seed")?,
            }),
            "done" => Some(JournalEvent::Done {
                run_id: s("run_id")?,
                attempt: u("attempt")? as u32,
                class: s("class")?,
                asr: n("asr")?,
                attack_time_ms: u("attack_time_ms")?,
                backoff_ms: u("backoff_ms")?,
            }),
            "fail" => Some(JournalEvent::Fail {
                run_id: s("run_id")?,
                attempt: u("attempt")? as u32,
                reason: s("reason")?,
                detail: s("detail").unwrap_or_default(),
                backoff_ms: u("backoff_ms")?,
            }),
            "quarantine" => Some(JournalEvent::Quarantine {
                run_id: s("run_id")?,
                attempts: u("attempts")? as u32,
                reason: s("reason").unwrap_or_default(),
            }),
            _ => None,
        }
    }
}

/// The completed record replay keeps for one run (first `done` wins).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Attempt number that succeeded (≥ 2 means the run was retried).
    pub attempt: u32,
    /// Pipeline classification (`full` / `degraded` / `failed`).
    pub class: String,
    /// Attack success rate of the run.
    pub asr: f64,
    /// Modeled attack time, milliseconds (hammering + recovery).
    pub attack_time_ms: u64,
    /// Backoff charged to this run before it succeeded, milliseconds.
    pub backoff_ms: u64,
}

/// Everything replay reconstructs from the journal.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// Campaign name from the latest header line.
    pub name: String,
    /// Grid size from the latest header line (0 when no header survived).
    pub total_runs: usize,
    /// First `done` record per run-id.
    pub completed: HashMap<String, RunRecord>,
    /// Consecutive recorded failures per still-pending run-id.
    pub failures: HashMap<String, u32>,
    /// Last failure reason per run-id (keyed alongside `failures`).
    pub last_fail_reason: HashMap<String, String>,
    /// Permanently retired run-ids.
    pub quarantined: HashSet<String>,
    /// Attempts started per run-id (max attempt number seen).
    pub attempts_started: HashMap<String, u32>,
    /// `done` lines beyond the first for an already-completed run-id.
    pub duplicate_done: usize,
    /// Lines that failed to parse (truncated tails, corruption).
    pub skipped_lines: usize,
    /// Total backoff recorded across all fail/done lines, milliseconds.
    pub total_backoff_ms: u64,
}

impl JournalState {
    /// Applies one event in journal order.
    pub fn apply(&mut self, event: &JournalEvent) {
        match event {
            JournalEvent::Campaign { name, total_runs } => {
                self.name = name.clone();
                self.total_runs = *total_runs;
            }
            JournalEvent::Attempt {
                run_id, attempt, ..
            } => {
                let started = self.attempts_started.entry(run_id.clone()).or_insert(0);
                *started = (*started).max(*attempt);
            }
            JournalEvent::Done {
                run_id,
                attempt,
                class,
                asr,
                attack_time_ms,
                backoff_ms,
            } => {
                if self.completed.contains_key(run_id) || self.quarantined.contains(run_id) {
                    self.duplicate_done += 1;
                    return;
                }
                self.total_backoff_ms += backoff_ms;
                self.completed.insert(
                    run_id.clone(),
                    RunRecord {
                        attempt: *attempt,
                        class: class.clone(),
                        asr: *asr,
                        attack_time_ms: *attack_time_ms,
                        backoff_ms: *backoff_ms,
                    },
                );
                self.failures.remove(run_id);
                self.last_fail_reason.remove(run_id);
            }
            JournalEvent::Fail {
                run_id,
                reason,
                backoff_ms,
                ..
            } => {
                if self.completed.contains_key(run_id) || self.quarantined.contains(run_id) {
                    return;
                }
                *self.failures.entry(run_id.clone()).or_insert(0) += 1;
                self.last_fail_reason.insert(run_id.clone(), reason.clone());
                self.total_backoff_ms += backoff_ms;
            }
            JournalEvent::Quarantine { run_id, .. } => {
                if !self.completed.contains_key(run_id) {
                    self.quarantined.insert(run_id.clone());
                }
            }
        }
    }

    /// Whether resume should skip this run-id entirely.
    pub fn is_settled(&self, run_id: &str) -> bool {
        self.completed.contains_key(run_id) || self.quarantined.contains(run_id)
    }

    /// Run-ids that needed more than one attempt (recorded retries),
    /// completed or not.
    pub fn retried_runs(&self) -> usize {
        let completed_retried = self.completed.iter().filter(|(_, r)| r.attempt > 1).count();
        let pending_retried = self
            .attempts_started
            .iter()
            .filter(|(id, &max)| max > 1 && !self.completed.contains_key(*id))
            .count();
        completed_retried + pending_retried
    }
}

/// Appends events to rotating journal segments with per-line flush, and
/// replays existing segments on open.
pub struct Journal {
    dir: PathBuf,
    segment_lines: usize,
    current_index: u64,
    current_lines: usize,
    current: File,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:08}.jsonl"))
}

/// Journal segment file names under `dir`, sorted by index.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push(index);
        }
    }
    out.sort_unstable();
    Ok(out)
}

impl Journal {
    /// Opens the journal under `dir` (creating the directory), replays
    /// any existing segments, and starts a fresh segment after the
    /// highest existing index. Returns the writer and the replayed
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (creating the directory, listing or
    /// opening segments). Corrupt *content* is never an error.
    pub fn open(dir: &Path) -> io::Result<(Journal, JournalState)> {
        std::fs::create_dir_all(dir)?;
        let state = Self::replay(dir)?;
        let current_index = segment_indices(dir)?.last().map(|i| i + 1).unwrap_or(0);
        let current = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, current_index))?;
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                segment_lines: SEGMENT_LINES,
                current_index,
                current_lines: 0,
                current,
            },
            state,
        ))
    }

    /// Replays every segment under `dir` (in index order) into a state,
    /// skipping unparsable lines. An absent directory is an empty
    /// journal.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing errors only.
    pub fn replay(dir: &Path) -> io::Result<JournalState> {
        let mut state = JournalState::default();
        for index in segment_indices(dir)? {
            let Ok(content) = std::fs::read_to_string(segment_path(dir, index)) else {
                continue;
            };
            for line in content.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match JournalEvent::parse(line) {
                    Some(event) => state.apply(&event),
                    None => state.skipped_lines += 1,
                }
            }
        }
        Ok(state)
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one event and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Propagates write/flush errors.
    pub fn append(&mut self, event: &JournalEvent) -> io::Result<()> {
        if self.current_lines >= self.segment_lines {
            self.current_index += 1;
            self.current_lines = 0;
            self.current = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, self.current_index))?;
        }
        let line = event.to_line();
        self.current.write_all(line.as_bytes())?;
        self.current.write_all(b"\n")?;
        // Per-line flush: a crash loses at most the line in flight.
        self.current.flush()?;
        self.current_lines += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rhb-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn done(run_id: &str, attempt: u32) -> JournalEvent {
        JournalEvent::Done {
            run_id: run_id.into(),
            attempt,
            class: "full".into(),
            asr: 0.97,
            attack_time_ms: 1234,
            backoff_ms: if attempt > 1 { 250 } else { 0 },
        }
    }

    #[test]
    fn every_event_round_trips_through_its_line() {
        let events = [
            JournalEvent::Campaign {
                name: "smoke \"quoted\"".into(),
                total_runs: 12,
            },
            JournalEvent::Attempt {
                run_id: "r1".into(),
                attempt: 2,
                seed: 0xDEAD_BEEF,
            },
            done("r1", 2),
            JournalEvent::Fail {
                run_id: "r1".into(),
                attempt: 1,
                reason: "panic".into(),
                detail: "index out of bounds\nbacktrace".into(),
                backoff_ms: 250,
            },
            JournalEvent::Quarantine {
                run_id: "r2".into(),
                attempts: 3,
                reason: "timeout".into(),
            },
        ];
        for event in &events {
            let line = event.to_line();
            assert!(!line.contains('\n'), "one event per line: {line}");
            let parsed =
                JournalEvent::parse(&line).unwrap_or_else(|| panic!("line must parse: {line}"));
            assert_eq!(&parsed, event);
        }
    }

    #[test]
    fn replay_rebuilds_state_and_resume_appends_to_a_new_segment() {
        let dir = temp_dir("resume");
        {
            let (mut journal, state) = Journal::open(&dir).unwrap();
            assert_eq!(state.completed.len(), 0);
            journal
                .append(&JournalEvent::Campaign {
                    name: "t".into(),
                    total_runs: 3,
                })
                .unwrap();
            journal
                .append(&JournalEvent::Attempt {
                    run_id: "a".into(),
                    attempt: 1,
                    seed: 7,
                })
                .unwrap();
            journal.append(&done("a", 1)).unwrap();
            journal
                .append(&JournalEvent::Fail {
                    run_id: "b".into(),
                    attempt: 1,
                    reason: "panic".into(),
                    detail: "boom".into(),
                    backoff_ms: 100,
                })
                .unwrap();
            // "c" left in-flight: attempt without outcome.
            journal
                .append(&JournalEvent::Attempt {
                    run_id: "c".into(),
                    attempt: 1,
                    seed: 9,
                })
                .unwrap();
        }
        let (_journal, state) = Journal::open(&dir).unwrap();
        assert_eq!(state.total_runs, 3);
        assert!(state.is_settled("a"));
        assert!(!state.is_settled("b"));
        assert!(!state.is_settled("c"));
        assert_eq!(state.failures.get("b"), Some(&1));
        assert_eq!(
            state.last_fail_reason.get("b").map(String::as_str),
            Some("panic")
        );
        assert_eq!(state.attempts_started.get("c"), Some(&1));
        assert_eq!(state.total_backoff_ms, 100);
        assert_eq!(state.skipped_lines, 0);
        // Two generations → two segment files.
        let indices = segment_indices(&dir).unwrap();
        assert_eq!(indices, vec![0, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_and_duplicates_are_tolerated() {
        let dir = temp_dir("truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let mut content = String::new();
        content.push_str(&done("a", 2).to_line());
        content.push('\n');
        content.push_str(&done("a", 2).to_line()); // duplicate done
        content.push('\n');
        let fail = JournalEvent::Fail {
            run_id: "b".into(),
            attempt: 1,
            reason: "timeout".into(),
            detail: String::new(),
            backoff_ms: 50,
        }
        .to_line();
        // Truncate the fail line mid-way: crash during the write.
        content.push_str(&fail[..fail.len() / 2]);
        std::fs::write(segment_path(&dir, 0), content).unwrap();
        let state = Journal::replay(&dir).unwrap();
        assert_eq!(state.completed.len(), 1);
        assert_eq!(state.duplicate_done, 1);
        assert_eq!(state.skipped_lines, 1);
        assert_eq!(state.completed["a"].attempt, 2);
        assert_eq!(state.retried_runs(), 1);
        // "b"'s fail line was lost with the crash: it is simply pending.
        assert!(!state.failures.contains_key("b"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_retires_a_run_and_done_after_quarantine_is_a_duplicate() {
        let mut state = JournalState::default();
        state.apply(&JournalEvent::Quarantine {
            run_id: "q".into(),
            attempts: 3,
            reason: "panic".into(),
        });
        assert!(state.is_settled("q"));
        state.apply(&done("q", 4));
        assert_eq!(state.duplicate_done, 1);
        assert!(!state.completed.contains_key("q"));
    }

    #[test]
    fn event_parser_rejects_garbage_and_trailing_junk() {
        let line = done("a", 1).to_line();
        assert_eq!(JournalEvent::parse(&line), Some(done("a", 1)));
        assert_eq!(
            JournalEvent::parse(&format!("  {line}  ")),
            Some(done("a", 1))
        );
        assert!(JournalEvent::parse("not json").is_none());
        assert!(JournalEvent::parse(&format!("{line} trailing")).is_none());
        assert!(JournalEvent::parse(&line[..line.len() - 1]).is_none());
        assert!(JournalEvent::parse("{\"kind\": \"done\", \"run_id\": }").is_none());
        // Well-formed JSON that is not a journal event is skipped too.
        assert!(JournalEvent::parse("{\"kind\": \"mystery\"}").is_none());
        assert!(JournalEvent::parse("[1, 2]").is_none());
    }
}
