//! Crash recovery for `trout serve --state-dir DIR --recover`.
//!
//! Recovery is snapshot-load + journal-tail replay:
//!
//! 1. If `snapshot.json` exists, restore its `state` payload onto the
//!    freshly bootstrapped engine and take its `journal_pos` watermark
//!    (events the snapshot already reflects).
//! 2. Read the complete lines of `journal.ndjson` (a torn final line was
//!    never acknowledged and is dropped), skip the watermark prefix, and
//!    re-apply the tail through the same entry points the live transports
//!    use. Journal lines *are* wire-grammar request lines, so the replay
//!    loop is just [`parse_event`] + apply.
//!
//! Replay runs with the engine's `replaying` flag set: the events being
//! applied are already in the journal, so re-journaling (or snapshotting
//! mid-replay) is suppressed. Per-event application errors are tolerated —
//! an event that failed in the original run (say a `start` for an unknown
//! job) was journaled before it failed, and deterministically fails again
//! here, which is exactly bit-identical behavior.
//!
//! `predict` events replay one query at a time. The original run may have
//! coalesced them into batches, but MLP inference is row-independent:
//! each row's output (and therefore the cached feature row and drift
//! registration it leaves behind) is identical whether it shared a batch
//! or not.

use std::path::Path;

use trout_core::TroutError;

use crate::engine::ServeEngine;
use crate::journal::{parse_snapshot, JournalFile, JOURNAL_FILE, SNAPSHOT_FILE};
use crate::protocol::{parse_event, ClientEvent};

/// What recovery found and did — surfaced by the CLI at startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Journal lines the snapshot already covered (0 without a snapshot).
    pub snapshot_journal_pos: u64,
    /// Absolute journal watermark on disk: compaction base + complete entry
    /// lines. Positions survive compaction, so this still counts every
    /// event since the journal was born.
    pub journal_lines: u64,
    /// Events already truncated by compaction (the base control line's
    /// `pos`; 0 for a never-compacted journal).
    pub journal_base: u64,
    /// Journal-tail events re-applied.
    pub replayed: u64,
    /// Bytes of torn (unacknowledged) final record dropped, if any.
    pub torn_bytes: u64,
}

/// Applies one journal/replication entry line through the same entry points
/// the live transports use. Shared by crash recovery (under `begin_replay`,
/// re-journaling suppressed) and by a replication follower (durability
/// armed, so the entry re-journals into the follower's own log at the same
/// absolute position). Application errors are NOT returned: an event that
/// failed in the original run was journaled before it failed and
/// deterministically fails again here, which is exactly bit-identical
/// behavior. Only a line that can never legally appear in a journal
/// (malformed, or a non-state event) errors.
pub(crate) fn apply_event_line(engine: &mut ServeEngine, line: &str) -> Result<(), TroutError> {
    // A malformed line cannot occur in a journal we wrote (only parsed
    // events are appended), so treat it as corruption, not tolerance.
    let ev = parse_event(line)
        .map_err(|e| TroutError::Config(format!("corrupt journal line {line:?}: {e}")))?;
    match ev {
        ClientEvent::Submit(rec) => {
            let _ = engine.apply_submit(*rec);
        }
        ClientEvent::Start { id, time } => {
            let _ = engine.apply_start(id, time);
        }
        ClientEvent::End { id, time } => {
            let _ = engine.apply_end(id, time);
        }
        ClientEvent::Predict { id, time, lane, .. } => {
            // Replay with the journaled lane so the stored prediction
            // (drift monitor) reproduces bit-identically; the deadline
            // is never journaled because it shapes scheduling, not state.
            let _ =
                engine.predict_batch(&[crate::engine::PredictQuery::new(id, time).in_lane(lane)]);
        }
        _ => {
            return Err(TroutError::Config(format!(
                "corrupt journal: non-event line {line:?}"
            )));
        }
    }
    Ok(())
}

/// Restores the snapshot (if present) and replays the journal tail onto
/// `engine`. The engine must be freshly constructed with the same bootstrap
/// arguments as the crashed run — construction is deterministic, so the
/// immutable parts (cluster, config) already match and `restore_state`
/// overwrites everything events ever mutate.
pub(crate) fn replay_journal(
    engine: &mut ServeEngine,
    dir: &Path,
) -> Result<RecoveryReport, TroutError> {
    let mut report = RecoveryReport::default();

    let snapshot_path = dir.join(SNAPSHOT_FILE);
    if snapshot_path.exists() {
        let (pos, state) = parse_snapshot(&std::fs::read_to_string(&snapshot_path)?)?;
        report.snapshot_journal_pos = pos;
        engine.restore_state(&state)?;
        report.snapshot_loaded = true;
    }

    // A compacted journal opens with a base control line: entries before
    // its `pos` were truncated after a snapshot covered them. Positions
    // stay absolute across compactions.
    let Some(journal) = JournalFile::read(&dir.join(JOURNAL_FILE))? else {
        return Ok(report);
    };
    report.journal_base = journal.base;
    report.journal_lines = journal.watermark();
    report.torn_bytes = journal.torn_bytes;
    let lines = journal.entries;
    if report.snapshot_journal_pos < report.journal_base {
        return Err(TroutError::Config(format!(
            "journal is compacted to watermark {} but the snapshot only covers {} — \
             events in between are unrecoverable",
            report.journal_base, report.snapshot_journal_pos
        )));
    }
    if report.snapshot_journal_pos > report.journal_lines {
        if lines.is_empty() {
            // An empty (or torn-to-empty) journal behind the snapshot is
            // legal: with `--fsync-every 0` power loss can drop unsynced
            // appends the fsynced snapshot already covers, and a crash
            // during the very first post-create append truncates to empty.
            // The snapshot is the durable truth — recover to its watermark.
            // `open_state_dir` repairs the journal base afterwards so new
            // appends land at the right absolute position.
            trout_obs::log_info!(
                "serve",
                "journal empty at watermark {} behind snapshot watermark {} — recovering from the snapshot alone",
                report.journal_lines,
                report.snapshot_journal_pos
            );
            return Ok(report);
        }
        return Err(TroutError::Config(format!(
            "snapshot watermark {} exceeds the {} journal lines on disk — \
             the journal and snapshot are from different runs",
            report.snapshot_journal_pos, report.journal_lines
        )));
    }

    engine.begin_replay();
    let skip = (report.snapshot_journal_pos - report.journal_base) as usize;
    for line in lines.iter().skip(skip) {
        if let Err(e) = apply_event_line(engine, line) {
            engine.end_replay();
            return Err(e);
        }
        report.replayed += 1;
        engine.metrics.recovery_replayed_events.inc();
    }
    engine.end_replay();

    trout_obs::log_info!(
        "serve",
        "recovered: snapshot {} (watermark {}), journal at {} (base {}), {} replayed, {} torn bytes dropped",
        if report.snapshot_loaded { "loaded" } else { "absent" },
        report.snapshot_journal_pos,
        report.journal_lines,
        report.journal_base,
        report.replayed,
        report.torn_bytes
    );
    Ok(report)
}
