//! Aggregate result store: classification roll-ups over a replayed
//! journal, persisted atomically as `aggregate.json`.
//!
//! The store is derived — it is always rebuilt from the journal (the
//! single source of truth), never incrementally mutated, so it can be
//! regenerated after any crash and can never disagree with resume.

use std::io;
use std::path::{Path, PathBuf};

use crate::journal::{Journal, JournalState};
use crate::supervisor::{CLASS_QUARANTINED, CLASS_TIMED_OUT, REASON_TIMEOUT};

/// Roll-up counts across the full/degraded/failed/timed-out/quarantined
/// classification (completed runs carry their pipeline class; retired
/// runs are split by why they were retired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Completed with class `full`.
    pub full: usize,
    /// Completed with class `degraded`.
    pub degraded: usize,
    /// Completed with class `failed` (attack ran, trigger didn't take).
    pub failed: usize,
    /// Retired after repeated deadline overruns.
    pub timed_out: usize,
    /// Retired after repeated panics/errors.
    pub quarantined: usize,
}

impl ClassCounts {
    /// Runs that produced a result at all.
    pub fn completed(&self) -> usize {
        self.full + self.degraded + self.failed
    }

    /// All settled runs, completed or retired.
    pub fn settled(&self) -> usize {
        self.completed() + self.timed_out + self.quarantined
    }
}

/// Aggregate view of one campaign directory.
#[derive(Debug, Clone)]
pub struct CampaignStore {
    /// Campaign name from the journal header.
    pub name: String,
    /// Grid size from the journal header.
    pub total_runs: usize,
    /// Classification roll-up.
    pub counts: ClassCounts,
    /// Runs that needed more than one attempt.
    pub retried: usize,
    /// Duplicate `done` lines tolerated during replay (must be 0 for a
    /// healthy campaign; the kill-resume gate asserts on it).
    pub duplicate_done: usize,
    /// Journal lines skipped as corrupt/truncated.
    pub skipped_lines: usize,
    /// Mean attack success rate over completed runs.
    pub mean_asr: f64,
    /// Total modeled §VII attack time across completed runs, ms.
    pub total_attack_time_ms: u64,
    /// Total retry backoff charged to the campaign clock, ms.
    pub total_backoff_ms: u64,
    /// The replayed state the store was derived from.
    pub state: JournalState,
}

impl CampaignStore {
    /// Derives the store from a replayed journal state.
    pub fn from_state(state: JournalState) -> CampaignStore {
        let mut counts = ClassCounts::default();
        let mut asr_sum = 0.0;
        let mut attack_ms = 0u64;
        for record in state.completed.values() {
            match record.class.as_str() {
                "full" => counts.full += 1,
                "degraded" => counts.degraded += 1,
                _ => counts.failed += 1,
            }
            asr_sum += record.asr;
            attack_ms = attack_ms.saturating_add(record.attack_time_ms);
        }
        for run_id in &state.quarantined {
            let timed_out = state
                .last_fail_reason
                .get(run_id)
                .map(|r| r == REASON_TIMEOUT)
                .unwrap_or(false);
            if timed_out {
                counts.timed_out += 1;
            } else {
                counts.quarantined += 1;
            }
        }
        let mean_asr = if counts.completed() > 0 {
            asr_sum / counts.completed() as f64
        } else {
            0.0
        };
        CampaignStore {
            name: state.name.clone(),
            total_runs: state.total_runs,
            retried: state.retried_runs(),
            duplicate_done: state.duplicate_done,
            skipped_lines: state.skipped_lines,
            mean_asr,
            total_attack_time_ms: attack_ms,
            total_backoff_ms: state.total_backoff_ms,
            counts,
            state,
        }
    }

    /// Replays the journal under `dir` and derives the store.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing errors.
    pub fn load(dir: &Path) -> io::Result<CampaignStore> {
        Ok(CampaignStore::from_state(Journal::replay(dir)?))
    }

    /// Whether every grid point is settled.
    pub fn is_complete(&self) -> bool {
        self.total_runs > 0 && self.counts.settled() >= self.total_runs
    }

    /// The class name a retired run rolls up under.
    pub fn retired_class(&self, run_id: &str) -> &'static str {
        match self.state.last_fail_reason.get(run_id) {
            Some(reason) if reason == REASON_TIMEOUT => CLASS_TIMED_OUT,
            _ => CLASS_QUARANTINED,
        }
    }

    /// Renders the aggregate as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rhb-campaign-aggregate/v1\",\n");
        out.push_str("  \"name\": ");
        rhb_telemetry::json::write_json_string(&self.name, &mut out);
        out.push_str(",\n");
        out.push_str(&format!("  \"total_runs\": {},\n", self.total_runs));
        out.push_str(&format!("  \"complete\": {},\n", self.is_complete()));
        out.push_str(&format!(
            "  \"classes\": {{\"full\": {}, \"degraded\": {}, \"failed\": {}, \
             \"timed_out\": {}, \"quarantined\": {}}},\n",
            self.counts.full,
            self.counts.degraded,
            self.counts.failed,
            self.counts.timed_out,
            self.counts.quarantined
        ));
        out.push_str(&format!("  \"retried\": {},\n", self.retried));
        out.push_str(&format!("  \"duplicate_done\": {},\n", self.duplicate_done));
        out.push_str(&format!("  \"skipped_lines\": {},\n", self.skipped_lines));
        out.push_str(&format!("  \"mean_asr\": {:.6},\n", self.mean_asr));
        out.push_str(&format!(
            "  \"total_attack_time_ms\": {},\n",
            self.total_attack_time_ms
        ));
        out.push_str(&format!(
            "  \"total_backoff_ms\": {}\n",
            self.total_backoff_ms
        ));
        out.push_str("}\n");
        out
    }

    /// Path of the aggregate file inside a campaign directory.
    pub fn aggregate_path(dir: &Path) -> PathBuf {
        dir.join("aggregate.json")
    }

    /// Writes `aggregate.json` atomically (temp file + rename), so a
    /// crash mid-write can never leave a torn aggregate next to a valid
    /// journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = Self::aggregate_path(dir);
        rhb_telemetry::write_atomic(&path, &self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEvent, JournalState};

    fn state_with(events: &[JournalEvent]) -> JournalState {
        let mut state = JournalState::default();
        for e in events {
            state.apply(e);
        }
        state
    }

    fn done(run_id: &str, class: &str, asr: f64) -> JournalEvent {
        JournalEvent::Done {
            run_id: run_id.into(),
            attempt: 1,
            class: class.into(),
            asr,
            attack_time_ms: 100,
            backoff_ms: 0,
        }
    }

    #[test]
    fn rollup_splits_retired_runs_by_reason() {
        let state = state_with(&[
            JournalEvent::Campaign {
                name: "agg".into(),
                total_runs: 5,
            },
            done("a", "full", 1.0),
            done("b", "degraded", 0.6),
            done("c", "failed", 0.0),
            JournalEvent::Fail {
                run_id: "t".into(),
                attempt: 3,
                reason: "timeout".into(),
                detail: String::new(),
                backoff_ms: 10,
            },
            JournalEvent::Quarantine {
                run_id: "t".into(),
                attempts: 3,
                reason: "timeout".into(),
            },
            JournalEvent::Fail {
                run_id: "p".into(),
                attempt: 3,
                reason: "panic".into(),
                detail: "boom".into(),
                backoff_ms: 10,
            },
            JournalEvent::Quarantine {
                run_id: "p".into(),
                attempts: 3,
                reason: "panic".into(),
            },
        ]);
        let store = CampaignStore::from_state(state);
        assert_eq!(store.counts.full, 1);
        assert_eq!(store.counts.degraded, 1);
        assert_eq!(store.counts.failed, 1);
        assert_eq!(store.counts.timed_out, 1);
        assert_eq!(store.counts.quarantined, 1);
        assert_eq!(store.counts.completed(), 3);
        assert_eq!(store.counts.settled(), 5);
        assert!(store.is_complete());
        assert_eq!(store.retired_class("t"), CLASS_TIMED_OUT);
        assert_eq!(store.retired_class("p"), CLASS_QUARANTINED);
        assert!((store.mean_asr - (1.0 + 0.6 + 0.0) / 3.0).abs() < 1e-9);
        assert_eq!(store.total_attack_time_ms, 300);
        assert_eq!(store.total_backoff_ms, 20);
    }

    #[test]
    fn aggregate_json_is_written_atomically_and_parses_as_flat_fields() {
        let dir = std::env::temp_dir().join(format!(
            "rhb-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = CampaignStore::from_state(state_with(&[
            JournalEvent::Campaign {
                name: "json".into(),
                total_runs: 1,
            },
            done("only", "full", 0.9),
        ]));
        let path = store.save(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"rhb-campaign-aggregate/v1\""));
        assert!(text.contains("\"complete\": true"));
        assert!(text.contains("\"full\": 1"));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "atomic write must not leak temp files"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incomplete_campaign_reports_incomplete() {
        let store = CampaignStore::from_state(state_with(&[
            JournalEvent::Campaign {
                name: "partial".into(),
                total_runs: 3,
            },
            done("a", "full", 1.0),
        ]));
        assert!(!store.is_complete());
        assert_eq!(store.counts.settled(), 1);
    }
}
