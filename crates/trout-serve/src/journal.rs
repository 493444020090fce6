//! The write-ahead event journal behind `trout serve --state-dir`.
//!
//! Every state-changing request (`submit`/`start`/`end`/`predict`) is
//! appended here — in the wire grammar, one ndjson line per event — *before*
//! the engine applies it and the client is acknowledged. Combined with the
//! periodic snapshots the engine writes alongside, recovery is
//! snapshot-load + journal-tail replay ([`crate::recover`]).
//!
//! `predict` lines may look out of place in a write-ahead log, but a predict
//! *is* a state change here: it caches the feature row the answer was
//! computed from (a future refit training example) and registers the answer
//! with the drift monitor. Skipping them would make a recovered engine
//! diverge from the uninterrupted one at the first refit or drift join.
//!
//! Durability policy: [`OnlineConfig::journal_fsync_every`] appends between
//! `sync_data` calls. `1` means every accepted event is durable before its
//! ack even across power loss. `0` means appends are never explicitly
//! fsynced: a *process* crash loses nothing (the written bytes live in the
//! OS page cache, which survives the process), but power loss or a kernel
//! panic can drop any append the kernel had not yet written back. File
//! *creation* is stricter than appends either way: [`Journal::open`] fsyncs
//! the parent directory after creating the file, otherwise power loss could
//! unlink the whole journal regardless of the fsync policy. A crash
//! mid-append leaves a torn final line; the record was never acknowledged,
//! so both the reopen path and the recovery reader drop it
//! ([`trout_std::fsio`]).
//!
//! **Compaction** keeps the file bounded: after a snapshot at watermark `P`,
//! [`Journal::compact`] atomically rewrites the file as a single *base
//! control line* `{"event":"journal_base","pos":P}` — the snapshot already
//! covers every truncated entry, so recovery (and a replication follower
//! catching up) starts from the snapshot plus whatever entries follow the
//! base line. Positions stay **absolute** across compactions: `appends()`
//! always counts events since the journal was born, never file lines.
//!
//! This module owns both state-dir file formats: [`JournalFile::read`] is
//! the one reader of a journal file (recovery and the replication leader
//! both use it), and [`snapshot_text`] / [`parse_snapshot`] are the one
//! writer/reader pair of the snapshot envelope.
//!
//! [`OnlineConfig::journal_fsync_every`]: trout_core::online::OnlineConfig

use std::fs::File;
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};

use trout_core::TroutError;
use trout_std::fsio::{
    append_line, atomic_write, open_append_complete, read_complete_lines, sync_dir,
};
use trout_std::json::{FromJson, Json, ToJson};

/// Journal file name inside a state dir.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// Snapshot file name inside a state dir.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Event name of the compaction base control line.
pub const JOURNAL_BASE_EVENT: &str = "journal_base";

/// Renders the base control line a compacted journal starts with.
pub fn base_line(pos: u64) -> String {
    format!("{{\"event\":\"{JOURNAL_BASE_EVENT}\",\"pos\":{pos}}}")
}

/// Parses a base control line, returning its absolute position. `None` for
/// any other line (including malformed JSON — ordinary journal entries are
/// the caller's business).
pub fn parse_base_line(line: &str) -> Option<u64> {
    if !line.contains(JOURNAL_BASE_EVENT) {
        return None;
    }
    let j = Json::parse(line).ok()?;
    match j.get("event") {
        Some(Json::Str(s)) if s == JOURNAL_BASE_EVENT => {}
        _ => return None,
    }
    match j.get("pos") {
        Some(Json::Int(v)) if *v >= 0 && *v <= u64::MAX as i128 => Some(*v as u64),
        _ => None,
    }
}

/// Reads the base watermark of the journal at `path`: the `pos` of its
/// first-line base control line, or 0 when the file starts with an ordinary
/// entry (never compacted).
pub fn read_base(path: &Path) -> io::Result<u64> {
    let mut first = String::new();
    std::io::BufReader::new(File::open(path)?).read_line(&mut first)?;
    Ok(parse_base_line(first.trim_end()).unwrap_or(0))
}

/// A journal file as read back from disk.
#[derive(Debug, Default)]
pub struct JournalFile {
    /// The compaction base: `entries[k]` sits at absolute position
    /// `base + k` (0 for a never-compacted journal).
    pub base: u64,
    /// The complete entry lines, base control line excluded.
    pub entries: Vec<String>,
    /// Bytes of torn (never acknowledged) final record dropped.
    pub torn_bytes: u64,
}

impl JournalFile {
    /// Reads the journal at `path`, or `None` when it does not exist yet.
    /// A torn final line is dropped, not returned.
    pub fn read(path: &Path) -> io::Result<Option<JournalFile>> {
        if !path.exists() {
            return Ok(None);
        }
        let (mut entries, torn) = read_complete_lines(path)?;
        let base = match entries.first().and_then(|l| parse_base_line(l)) {
            Some(base) => {
                entries.remove(0);
                base
            }
            None => 0,
        };
        Ok(Some(JournalFile {
            base,
            entries,
            torn_bytes: torn as u64,
        }))
    }

    /// Absolute watermark: compacted events plus entries in the file.
    pub fn watermark(&self) -> u64 {
        self.base + self.entries.len() as u64
    }
}

/// Renders the snapshot file: `{"journal_pos":N,"state":…}`, where `N` is
/// the journal watermark the state reflects.
pub fn snapshot_text(journal_pos: u64, state: Json) -> String {
    Json::Obj(vec![
        ("journal_pos".to_string(), journal_pos.to_json()),
        ("state".to_string(), state),
    ])
    .to_string()
}

/// Parses a snapshot file written by [`snapshot_text`] into
/// `(journal_pos, state)`.
pub fn parse_snapshot(text: &str) -> Result<(u64, Json), TroutError> {
    let snap = Json::parse(text)?;
    let pos = u64::from_json_field(snap.get("journal_pos"), "snapshot.journal_pos")?;
    let state = match snap {
        Json::Obj(members) => members
            .into_iter()
            .find_map(|(k, v)| (k == "state").then_some(v)),
        _ => None,
    };
    let state =
        state.ok_or_else(|| TroutError::Config("snapshot.json has no `state` payload".into()))?;
    Ok((pos, state))
}

/// An open append-only event journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    fsync_every: u64,
    /// Events covered by compaction — the absolute position of the first
    /// entry *not* in the file. 0 until the first [`Journal::compact`].
    base: u64,
    /// Absolute event count: `base` + complete entry lines in the file.
    /// The replay / replication watermark unit.
    appends: u64,
    since_sync: u64,
}

impl Journal {
    /// Opens (creating if missing) the journal at `path`. A torn final line
    /// from a previous crash is truncated away first, so the next append
    /// starts on a record boundary. On creation the parent directory is
    /// fsynced so the new file survives power loss, not just process death.
    pub fn open(path: &Path, fsync_every: u64) -> io::Result<Journal> {
        let fresh = !path.exists();
        let (file, lines) = open_append_complete(path)?;
        if fresh {
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
        }
        let base = if lines > 0 { read_base(path)? } else { 0 };
        // The base control line is metadata, not an entry.
        let entries = if base > 0 { lines - 1 } else { lines };
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            fsync_every,
            base,
            appends: base + entries,
            since_sync: 0,
        })
    }

    /// Absolute event count (compacted-away + still in the file).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Events already truncated by compaction — entries in the file cover
    /// absolute positions `base()..appends()`.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Atomically rewrites the journal as a single base control line
    /// claiming `pos` events, dropping every entry line. `pos` must cover
    /// the entries being dropped (a snapshot at watermark `pos` exists, or
    /// the follower installing a snapshot at `pos` owns nothing older).
    /// A crash at any instant leaves either the old file or the compacted
    /// one — `atomic_write` rename semantics. Returns the entry lines
    /// dropped. The open handle is refreshed (rename orphans the old inode).
    pub fn reset_base(&mut self, pos: u64) -> io::Result<u64> {
        self.sync()?;
        let dropped = self.appends - self.base;
        let mut text = base_line(pos);
        text.push('\n');
        atomic_write(&self.path, text.as_bytes())?;
        let (file, _) = open_append_complete(&self.path)?;
        self.file = file;
        self.base = pos;
        self.appends = pos;
        self.since_sync = 0;
        Ok(dropped)
    }

    /// Compacts up to the current watermark: every entry in the file is
    /// dropped in favor of a base line at `appends()`. Callers must have
    /// written a snapshot at this watermark first.
    pub fn compact(&mut self) -> io::Result<u64> {
        self.reset_base(self.appends)
    }

    /// Appends one event line and applies the fsync policy. When this
    /// returns `Ok`, the record is as durable as the policy promises — the
    /// engine only acknowledges (or applies) the event afterwards.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        append_line(&mut self.file, line)?;
        self.appends += 1;
        self.since_sync += 1;
        if self.fsync_every > 0 && self.since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any unsynced appends to disk (snapshots call this so their
    /// watermark never points past the durable journal prefix).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.since_sync > 0 {
            self.file.sync_data()?;
            self.since_sync = 0;
        }
        Ok(())
    }
}

/// The engine's durability attachment: the open journal plus the snapshot
/// policy, armed by [`ServeEngine::open_state_dir`].
///
/// [`ServeEngine::open_state_dir`]: crate::ServeEngine::open_state_dir
#[derive(Debug)]
pub struct Durability {
    pub(crate) journal: Journal,
    pub(crate) dir: PathBuf,
    /// Journal appends between snapshots; 0 disables snapshotting (recovery
    /// then replays the whole journal).
    pub(crate) snapshot_every: u64,
    /// Appends since the last snapshot (or since the one recovery loaded).
    pub(crate) since_snapshot: u64,
    /// When set, every snapshot write is followed by [`Journal::compact`],
    /// keeping the state dir bounded by one snapshot + one snapshot
    /// interval of journal tail.
    pub(crate) compact: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("trout_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn append_counts_lines_and_survives_reopen() {
        let p = tmp("reopen");
        let _ = std::fs::remove_file(&p);
        let mut j = Journal::open(&p, 1).unwrap();
        assert_eq!(j.appends(), 0);
        j.append("{\"event\":\"start\",\"id\":1,\"time\":5}")
            .unwrap();
        j.append("{\"event\":\"end\",\"id\":1,\"time\":9}").unwrap();
        drop(j);
        let j = Journal::open(&p, 1).unwrap();
        assert_eq!(j.appends(), 2, "reopen resumes the line count");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compact_truncates_entries_but_keeps_absolute_positions() {
        let p = tmp("compact");
        let _ = std::fs::remove_file(&p);
        let mut j = Journal::open(&p, 1).unwrap();
        for k in 0..5 {
            j.append(&format!("{{\"event\":\"start\",\"id\":{k},\"time\":1}}"))
                .unwrap();
        }
        let before = std::fs::metadata(&p).unwrap().len();
        assert_eq!(j.compact().unwrap(), 5, "five entries dropped");
        assert_eq!((j.base(), j.appends()), (5, 5));
        assert!(
            std::fs::metadata(&p).unwrap().len() < before,
            "file shrank to the base line"
        );
        // Appends after compaction land after the base line and the
        // absolute count keeps climbing.
        j.append("{\"event\":\"end\",\"id\":0,\"time\":2}").unwrap();
        assert_eq!(j.appends(), 6);
        drop(j);
        let j = Journal::open(&p, 1).unwrap();
        assert_eq!(
            (j.base(), j.appends()),
            (5, 6),
            "reopen parses the base control line"
        );
        assert_eq!(read_base(&p).unwrap(), 5);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn base_line_roundtrip_and_rejects_other_lines() {
        assert_eq!(parse_base_line(&base_line(42)), Some(42));
        assert_eq!(parse_base_line("{\"event\":\"start\",\"id\":1}"), None);
        assert_eq!(parse_base_line("{\"event\":\"journal_base\"}"), None);
        assert_eq!(parse_base_line("not json journal_base"), None);
    }

    #[test]
    fn journal_file_read_strips_the_base_line_and_reports_torn_bytes() {
        let p = tmp("read");
        let _ = std::fs::remove_file(&p);
        assert!(JournalFile::read(&p).unwrap().is_none(), "missing file");
        std::fs::write(&p, format!("{}\n{{\"a\":1}}\n{{\"to", base_line(7))).unwrap();
        let j = JournalFile::read(&p).unwrap().unwrap();
        assert_eq!((j.base, j.torn_bytes, j.watermark()), (7, 4, 8));
        assert_eq!(j.entries, vec!["{\"a\":1}".to_string()]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn snapshot_envelope_round_trips() {
        let state = Json::Obj(vec![("x".into(), Json::Int(3))]);
        let text = snapshot_text(42, state.clone());
        assert_eq!(text, "{\"journal_pos\":42,\"state\":{\"x\":3}}");
        assert_eq!(parse_snapshot(&text).unwrap(), (42, state));
        assert!(parse_snapshot("{\"journal_pos\":1}").is_err());
        assert!(parse_snapshot("{\"state\":{}}").is_err());
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let p = tmp("torn");
        std::fs::write(&p, "{\"a\":1}\n{\"torn\":").unwrap();
        let mut j = Journal::open(&p, 0).unwrap();
        assert_eq!(j.appends(), 1, "torn record dropped");
        j.append("{\"b\":2}").unwrap();
        j.sync().unwrap();
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "{\"a\":1}\n{\"b\":2}\n"
        );
        std::fs::remove_file(&p).unwrap();
    }
}
