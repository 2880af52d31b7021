//! The campaign resume journal: [`RunRecord`]s wrapped in a
//! schema-versioned envelope, stored on the framed, checksummed,
//! fsynced [`sttlock_store::RecordLog`]. Single-node `--journal` runs
//! and the cluster coordinator write it through one
//! [`GridRun`](crate::GridRun), so either can resume a journal the
//! other wrote, under one replay rule.
//!
//! Each payload is JSON — `{"schema":N,"record":{...}}` — inside the
//! store's CRC-checked frame, so a crash mid-append costs exactly the
//! torn record (healed by the store at the next open), a flipped bit
//! fails CRC instead of replaying garbage, and a schema bump is
//! visible per-entry rather than guessed from field shapes.
//!
//! Journals written before the store existed were bare JSONL. Opening
//! one migrates it in place: each parseable line becomes a schema-0
//! entry (schema 0 ≠ [`JOURNAL_SCHEMA_VERSION`], so a resume runs those
//! cells again instead of trusting pre-framing data), and the rewrite
//! itself is atomic.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use sttlock_store::{FsyncPolicy, OpenedLog, Record, RecordLog, RecoveryReport};

use crate::json::Json;
use crate::record::RunRecord;

/// Current journal schema. Bump when [`RunRecord`]'s JSON shape
/// changes incompatibly; a resume runs the cells of entries recorded
/// under any other version again rather than replaying them.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// Legacy bare-JSONL journals migrate as this schema.
pub const LEGACY_SCHEMA_VERSION: u32 = 0;

/// One journal entry: a run record plus the schema it was written
/// under. Entries whose payload is valid JSON but not a decodable
/// record are dropped by the store's `undecodable` path.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The schema version recorded with the entry.
    pub schema: u32,
    /// The journaled record.
    pub record: RunRecord,
}

impl Record for JournalEntry {
    fn encode(&self) -> Vec<u8> {
        Json::obj([
            ("schema", Json::from(u64::from(self.schema))),
            ("record", self.record.to_json()),
        ])
        .to_string()
        .into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let v = Json::parse(text).ok()?;
        let schema = v.get("schema")?.as_u64()? as u32;
        let record = RunRecord::from_json(v.get("record")?)?;
        Some(JournalEntry { schema, record })
    }
}

/// An open journal positioned for appends.
pub struct Journal {
    log: RecordLog<JournalEntry>,
}

/// The result of opening a journal: the appendable journal, the
/// entries already in it, and what recovery found.
pub struct OpenedJournal {
    /// The journal, ready for [`Journal::append`].
    pub journal: Journal,
    /// Recovered entries, in append order.
    pub entries: Vec<JournalEntry>,
    /// The store's recovery report (tail heals, undecodable counts).
    pub recovery: RecoveryReport,
    /// Whether a legacy bare-JSONL journal was migrated in place.
    pub migrated_legacy: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, healing any
    /// torn tail and migrating a legacy JSONL file in place.
    ///
    /// Fsync policy is [`FsyncPolicy::Always`]: a journal row exists to
    /// survive `kill -9`, so every append is durable before the worker
    /// moves on.
    pub fn open(path: &Path) -> io::Result<OpenedJournal> {
        let migrated_legacy = migrate_legacy(path)?;
        let OpenedLog {
            log,
            records,
            recovery,
        } = RecordLog::open(path, FsyncPolicy::Always)?;
        Ok(OpenedJournal {
            journal: Journal { log },
            entries: records,
            recovery,
            migrated_legacy,
        })
    }

    /// Appends one record under the current schema and fsyncs.
    pub fn append(&mut self, record: &RunRecord) -> io::Result<()> {
        self.log.append(&JournalEntry {
            schema: JOURNAL_SCHEMA_VERSION,
            record: record.clone(),
        })
    }
}

/// The identity of a cell inside the resume journal, built only from
/// fields a [`RunRecord`] also carries so an entry can be matched back
/// to its grid cell. The attack component is the short tag: two
/// attacks differing only in their limits share an identity, so grids
/// that sweep attack limits should use separate journals.
pub fn journal_key(
    circuit: &str,
    algorithm: &str,
    seed: u64,
    attack: &str,
    config: &str,
    fault: &str,
) -> String {
    format!("{circuit}|{algorithm}|{seed}|{attack}|{config}|{fault}")
}

/// The key a record is journaled under: [`journal_key`] over its own
/// fields, equal to [`crate::cell_journal_key`] of the cell it ran.
pub fn record_key(r: &RunRecord) -> String {
    journal_key(
        &r.circuit,
        &r.algorithm,
        r.seed,
        &r.attack,
        &r.config,
        &r.fault,
    )
}

/// The replay rule: a journaled row stands in for a fresh run only if
/// it was written under this build's [`JOURNAL_SCHEMA_VERSION`], is
/// `ok`, and carries the flow metrics every consumer of `ok` rows
/// expects. A cell whose latest row is rejected runs again.
pub(crate) fn replayable(schema: u32, record: &RunRecord) -> bool {
    schema == JOURNAL_SCHEMA_VERSION && record.status.is_ok() && record.flow.is_some()
}

/// Collapses journal entries to the *last* entry per cell identity —
/// a resumed campaign appends fresh results after the stale ones, so
/// re-resuming from the same journal sees the newest outcome.
pub(crate) fn replay_map(entries: Vec<JournalEntry>) -> HashMap<String, JournalEntry> {
    entries
        .into_iter()
        .map(|entry| (record_key(&entry.record), entry))
        .collect()
}

/// Detects and migrates a pre-store bare-JSONL journal: every
/// parseable line becomes a [`LEGACY_SCHEMA_VERSION`] entry and the
/// file is rewritten framed, atomically. Returns whether a migration
/// happened. A framed journal (or an absent/empty file) is left
/// untouched; the sniff is exact because no framed log starts with a
/// `{` byte ([`sttlock_store::FRAME_VERSION`] is `0xA5`).
fn migrate_legacy(path: &Path) -> io::Result<bool> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if bytes.first() != Some(&b'{') {
        return Ok(false);
    }
    let text = String::from_utf8_lossy(&bytes);
    let mut framed = Vec::new();
    let mut migrated = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Unparseable lines (the torn tail of a crashed legacy run)
        // are dropped, exactly as the legacy loader skipped them.
        if let Some(record) = Json::parse(line)
            .ok()
            .and_then(|v| RunRecord::from_json(&v))
        {
            let entry = JournalEntry {
                schema: LEGACY_SCHEMA_VERSION,
                record,
            };
            framed.extend_from_slice(&sttlock_store::frame::encode(&entry.encode()));
            migrated += 1;
        }
    }
    sttlock_store::write_atomic(path, &framed)?;
    sttlock_obs::counter("campaign.journal_migrated", migrated);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunStatus;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-journal-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    fn record(circuit: &str, status: RunStatus) -> RunRecord {
        RunRecord::failure(circuit, "independent", 3, "none", status)
    }

    #[test]
    fn append_and_reopen_round_trips_entries() {
        let path = scratch("roundtrip");
        {
            let mut opened = Journal::open(&path).unwrap();
            assert!(opened.entries.is_empty());
            opened.journal.append(&record("a", RunStatus::Ok)).unwrap();
            opened
                .journal
                .append(&record("b", RunStatus::TimedOut))
                .unwrap();
        }
        let opened = Journal::open(&path).unwrap();
        assert_eq!(opened.entries.len(), 2);
        assert!(opened
            .entries
            .iter()
            .all(|e| e.schema == JOURNAL_SCHEMA_VERSION));
        assert_eq!(opened.entries[0].record.circuit, "a");
        assert_eq!(opened.entries[1].record.status, RunStatus::TimedOut);
        assert!(opened.recovery.is_clean());
        assert!(!opened.migrated_legacy);
    }

    #[test]
    fn a_legacy_jsonl_journal_migrates_to_schema_zero_entries() {
        let path = scratch("legacy");
        let mut text = String::new();
        text.push_str(&format!("{}\n", record("old-a", RunStatus::Ok).to_json()));
        text.push_str(&format!("{}\n", record("old-b", RunStatus::Ok).to_json()));
        text.push_str("{\"torn\":tr"); // a torn legacy tail
        std::fs::write(&path, &text).unwrap();

        let opened = Journal::open(&path).unwrap();
        assert!(opened.migrated_legacy);
        assert_eq!(opened.entries.len(), 2);
        assert!(opened
            .entries
            .iter()
            .all(|e| e.schema == LEGACY_SCHEMA_VERSION));
        drop(opened);

        // The migration is one-shot: a reopen sees a framed journal.
        let again = Journal::open(&path).unwrap();
        assert!(!again.migrated_legacy);
        assert_eq!(again.entries.len(), 2);
    }

    #[test]
    fn replay_map_keeps_the_last_entry_per_cell() {
        let early = JournalEntry {
            schema: JOURNAL_SCHEMA_VERSION,
            record: record("same", RunStatus::TimedOut),
        };
        let late = JournalEntry {
            schema: JOURNAL_SCHEMA_VERSION,
            record: record("same", RunStatus::Ok),
        };
        let map = replay_map(vec![early, late.clone()]);
        assert_eq!(map.len(), 1);
        assert_eq!(map.values().next().unwrap().record.status, RunStatus::Ok);
        let _ = late;
    }

    #[test]
    fn a_torn_framed_tail_heals_on_open() {
        let path = scratch("torn");
        {
            let mut opened = Journal::open(&path).unwrap();
            opened
                .journal
                .append(&record("kept", RunStatus::Ok))
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = sttlock_store::frame::encode(
            &JournalEntry {
                schema: JOURNAL_SCHEMA_VERSION,
                record: record("lost", RunStatus::Ok),
            }
            .encode(),
        );
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let opened = Journal::open(&path).unwrap();
        assert_eq!(opened.entries.len(), 1);
        assert_eq!(opened.entries[0].record.circuit, "kept");
        assert!(opened.recovery.dropped_bytes > 0);
    }
}
