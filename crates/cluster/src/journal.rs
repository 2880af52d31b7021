//! The coordinator's dispatch journal.
//!
//! Every dispatch and completion is appended (fsync-always) to a
//! [`sttlock_store::RecordLog`], so a coordinator that crashes mid-run
//! can `--resume`: completions replay, and only the cells with no
//! durable completion are re-dispatched. Completed records are stamped
//! with the campaign journal schema ([`JOURNAL_SCHEMA_VERSION`]) — a
//! journal written by an incompatible build refuses to replay, exactly
//! like the single-node resume path.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use sttlock_campaign::journal::replayable;
use sttlock_campaign::json::Json;
use sttlock_campaign::{RunRecord, JOURNAL_SCHEMA_VERSION};
use sttlock_store::{FsyncPolicy, OpenedLog, Record, RecordLog, RecoveryReport};

/// One dispatch-journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchEntry {
    /// A cell left for a worker; until a matching `Completed` lands the
    /// cell is in flight (and incomplete for resume purposes).
    Dispatched {
        /// The cell's journal key ([`sttlock_campaign::cell_journal_key`]).
        key: String,
        /// The worker it went to.
        worker: String,
    },
    /// A worker returned a record for the cell.
    Completed {
        /// The cell's journal key.
        key: String,
        /// Campaign journal schema the record was written under.
        schema: u32,
        /// The record, verbatim (boxed: a full record dwarfs the
        /// two-string `Dispatched` variant).
        record: Box<RunRecord>,
    },
}

impl Record for DispatchEntry {
    fn encode(&self) -> Vec<u8> {
        match self {
            DispatchEntry::Dispatched { key, worker } => Json::obj([
                ("type", Json::from("dispatched")),
                ("key", Json::from(key.as_str())),
                ("worker", Json::from(worker.as_str())),
            ]),
            DispatchEntry::Completed {
                key,
                schema,
                record,
            } => Json::obj([
                ("type", Json::from("completed")),
                ("key", Json::from(key.as_str())),
                ("schema", Json::from(u64::from(*schema))),
                ("record", record.to_json()),
            ]),
        }
        .to_string()
        .into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let v = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
        let key = v.get("key")?.as_str()?.to_owned();
        match v.get("type")?.as_str()? {
            "dispatched" => Some(DispatchEntry::Dispatched {
                key,
                worker: v.get("worker")?.as_str()?.to_owned(),
            }),
            "completed" => Some(DispatchEntry::Completed {
                key,
                schema: v.get("schema")?.as_u64()? as u32,
                record: Box::new(RunRecord::from_json(v.get("record")?)?),
            }),
            _ => None,
        }
    }
}

/// The open dispatch journal, positioned for appends.
pub struct DispatchJournal {
    log: RecordLog<DispatchEntry>,
}

/// The result of opening a dispatch journal.
pub struct OpenedDispatchJournal {
    /// The journal, ready to append.
    pub journal: DispatchJournal,
    /// Recovered entries, in append order.
    pub entries: Vec<DispatchEntry>,
    /// What the store's tail-heal recovery found.
    pub recovery: RecoveryReport,
}

impl DispatchJournal {
    /// Opens (creating if absent) the journal at `path`, healing any
    /// torn tail. Appends fsync per record — the journal exists to
    /// survive `kill -9`.
    pub fn open(path: &Path) -> io::Result<OpenedDispatchJournal> {
        let OpenedLog {
            log,
            records,
            recovery,
        } = RecordLog::open(path, FsyncPolicy::Always)?;
        Ok(OpenedDispatchJournal {
            journal: DispatchJournal { log },
            entries: records,
            recovery,
        })
    }

    /// Appends one entry and fsyncs.
    pub fn append(&mut self, entry: &DispatchEntry) -> io::Result<()> {
        self.log.append(entry)
    }

    /// Journals a completion under the current campaign schema.
    pub fn complete(&mut self, key: &str, record: &RunRecord) -> io::Result<()> {
        self.append(&DispatchEntry::Completed {
            key: key.to_owned(),
            schema: JOURNAL_SCHEMA_VERSION,
            record: Box::new(record.clone()),
        })
    }
}

/// Collapses journal entries to the last completion per cell that
/// passes the campaign's [`replayable`] rule — the same rule the
/// single-node `--resume` applies. Anything else (failures,
/// version-skewed completions, bare dispatches) leaves the cell
/// incomplete, so the coordinator re-dispatches exactly those.
pub fn completed_map(entries: &[DispatchEntry]) -> HashMap<String, RunRecord> {
    let mut out = HashMap::new();
    for entry in entries {
        if let DispatchEntry::Completed {
            key,
            schema,
            record,
        } = entry
        {
            if replayable(*schema, record) {
                out.insert(key.clone(), record.as_ref().clone());
            } else {
                out.remove(key);
                sttlock_obs::counter("cluster.skewed_replays", 1);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_campaign::RunStatus;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-cluster-journal-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("dispatch.log")
    }

    fn ok_record(circuit: &str) -> RunRecord {
        let mut r = RunRecord::failure(circuit, "independent", 1, "none", RunStatus::Ok);
        r.flow = Some(sttlock_campaign::FlowMetrics {
            perf_pct: 0.0,
            power_pct: 0.0,
            leakage_pct: 0.0,
            area_pct: 0.0,
            stt_count: 1,
            selection_ms: 0.0,
            n_indep_log10: 1.0,
            n_dep_log10: 1.0,
            n_bf_log10: 1.0,
        });
        r
    }

    #[test]
    fn entries_round_trip_through_reopen() {
        let path = scratch("roundtrip");
        {
            let mut opened = DispatchJournal::open(&path).unwrap();
            opened
                .journal
                .append(&DispatchEntry::Dispatched {
                    key: "k1".into(),
                    worker: "w1".into(),
                })
                .unwrap();
            opened.journal.complete("k1", &ok_record("a")).unwrap();
        }
        let opened = DispatchJournal::open(&path).unwrap();
        assert_eq!(opened.entries.len(), 2);
        assert!(opened.recovery.is_clean());
        assert!(matches!(
            &opened.entries[0],
            DispatchEntry::Dispatched { key, worker } if key == "k1" && worker == "w1"
        ));
        assert!(matches!(
            &opened.entries[1],
            DispatchEntry::Completed { key, schema, .. }
                if key == "k1" && *schema == JOURNAL_SCHEMA_VERSION
        ));
    }

    #[test]
    fn completed_map_replays_only_clean_current_schema_ok_records() {
        let dispatched = DispatchEntry::Dispatched {
            key: "pending".into(),
            worker: "w".into(),
        };
        let clean = DispatchEntry::Completed {
            key: "clean".into(),
            schema: JOURNAL_SCHEMA_VERSION,
            record: Box::new(ok_record("clean")),
        };
        let failed = DispatchEntry::Completed {
            key: "failed".into(),
            schema: JOURNAL_SCHEMA_VERSION,
            record: Box::new(RunRecord::failure(
                "f",
                "independent",
                1,
                "none",
                RunStatus::TimedOut,
            )),
        };
        let skewed = DispatchEntry::Completed {
            key: "skewed".into(),
            schema: JOURNAL_SCHEMA_VERSION + 1,
            record: Box::new(ok_record("skewed")),
        };
        let map = completed_map(&[dispatched, clean, failed, skewed]);
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("clean"));
    }

    #[test]
    fn a_later_bad_completion_reopens_the_cell() {
        // A cell completed cleanly, then a newer entry for the same key
        // is skewed (e.g. a re-run under a different build): last wins,
        // the cell must re-dispatch rather than replay stale data.
        let good = DispatchEntry::Completed {
            key: "k".into(),
            schema: JOURNAL_SCHEMA_VERSION,
            record: Box::new(ok_record("k")),
        };
        let bad = DispatchEntry::Completed {
            key: "k".into(),
            schema: JOURNAL_SCHEMA_VERSION + 1,
            record: Box::new(ok_record("k")),
        };
        assert!(completed_map(&[good, bad]).is_empty());
    }
}
