//! The typed append-only record log: open-with-recovery, append with
//! a configurable fsync policy, atomic compaction, and a tail-heal
//! path for appends that fail partway.

use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::frame::{self, CorruptKind};
use crate::fs::{Fs, KillPoint, LogFile, StdFs};

/// When the log fsyncs after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every record — the journal setting: a record that
    /// was reported appended survives `kill -9`.
    Always,
    /// Never fsync implicitly (only on [`RecordLog::sync`]) — for
    /// caches whose loss costs only a recomputation.
    Never,
}

/// A value that can live in a [`RecordLog`].
pub trait Record: Sized {
    /// Serializes the record to a payload. The framing (length, CRC,
    /// version) is the log's job — encode only the record itself.
    fn encode(&self) -> Vec<u8>;
    /// Deserializes a payload. `None` marks a payload whose CRC was
    /// valid but whose contents this version cannot read — the log
    /// skips it and counts it, rather than failing the open.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl Record for Vec<u8> {
    fn encode(&self) -> Vec<u8> {
        self.clone()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl Record for String {
    fn encode(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// What opening a log found and did. Derives `PartialEq` so campaign
/// results that embed it stay comparable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Records successfully recovered (decoded entries kept).
    pub records: usize,
    /// Bytes of valid log retained.
    pub kept_bytes: usize,
    /// Bytes truncated off the corrupt tail (0 for a clean log).
    pub dropped_bytes: usize,
    /// Why the tail was invalid, when it was.
    pub corruption: Option<CorruptKind>,
    /// CRC-valid payloads this version could not decode (skipped).
    pub undecodable: usize,
}

impl RecoveryReport {
    /// Whether the open found anything abnormal worth surfacing.
    pub fn is_clean(&self) -> bool {
        self.dropped_bytes == 0 && self.undecodable == 0
    }

    /// One-line human summary for logs and recovery reports.
    pub fn summary(&self) -> String {
        match self.corruption {
            Some(kind) => format!(
                "recovered {} records ({} bytes), dropped {} corrupt tail bytes ({}), {} undecodable",
                self.records,
                self.kept_bytes,
                self.dropped_bytes,
                kind.tag(),
                self.undecodable
            ),
            None => format!(
                "clean log: {} records ({} bytes), {} undecodable",
                self.records, self.kept_bytes, self.undecodable
            ),
        }
    }
}

/// The result of [`RecordLog::open`]: the log plus everything that
/// was already in it.
pub struct OpenedLog<T: Record> {
    /// The open log, positioned for appends.
    pub log: RecordLog<T>,
    /// The recovered records, in append order.
    pub records: Vec<T>,
    /// What recovery found and truncated.
    pub recovery: RecoveryReport,
}

/// A checksummed, length-framed append-only log of `T` records.
pub struct RecordLog<T: Record> {
    fs: Arc<dyn Fs>,
    path: PathBuf,
    file: Option<Box<dyn LogFile>>,
    policy: FsyncPolicy,
    /// Bytes known to be on disk and frame-valid; the truncate target
    /// if an append fails partway.
    len: u64,
    poisoned: bool,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Record> RecordLog<T> {
    /// Opens (creating if absent) the log at `path` on the real
    /// filesystem, healing any torn or corrupt tail first.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> io::Result<OpenedLog<T>> {
        Self::open_with(Arc::new(StdFs), path, policy)
    }

    /// [`RecordLog::open`] over an explicit filesystem — the chaos
    /// harness's entry point.
    pub fn open_with(
        fs: Arc<dyn Fs>,
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> io::Result<OpenedLog<T>> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs.create_dir_all(parent)?;
            }
        }
        let bytes = match fs.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = frame::scan(&bytes);
        let mut records = Vec::with_capacity(scan.payloads.len());
        let mut undecodable = 0usize;
        for payload in &scan.payloads {
            match T::decode(payload) {
                Some(record) => records.push(record),
                None => undecodable += 1,
            }
        }
        let dropped = bytes.len() - scan.valid_len;
        if dropped > 0 {
            // Heal the tail on disk before taking the append handle,
            // so the next frame never lands after garbage.
            fs.truncate(&path, scan.valid_len as u64)?;
            sttlock_obs::counter("store.recoveries", 1);
            sttlock_obs::counter("store.recovered_bytes", dropped as u64);
        }
        sttlock_obs::counter("store.recovered_records", records.len() as u64);
        if undecodable > 0 {
            sttlock_obs::counter("store.undecodable_records", undecodable as u64);
        }
        let recovery = RecoveryReport {
            records: records.len(),
            kept_bytes: scan.valid_len,
            dropped_bytes: dropped,
            corruption: if dropped > 0 { scan.corruption } else { None },
            undecodable,
        };
        let file = fs.open_append(&path)?;
        Ok(OpenedLog {
            log: RecordLog {
                fs,
                path,
                file: Some(file),
                policy,
                len: scan.valid_len as u64,
                poisoned: false,
                _marker: PhantomData,
            },
            records,
            recovery,
        })
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of frame-valid log currently on disk.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Appends one record, framed and checksummed, then fsyncs
    /// according to the policy. If the write fails partway, the tail
    /// is truncated back to the last whole record before returning the
    /// error, so a later append never lands after torn bytes.
    pub fn append(&mut self, record: &T) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "record log is poisoned: a previous append failed and the tail could not be healed",
            ));
        }
        let framed = frame::encode(&record.encode());
        let result = self.append_framed(&framed);
        if let Err(e) = result {
            // Self-heal: drop whatever prefix of the frame landed.
            match self.fs.truncate(&self.path, self.len) {
                Ok(()) => {
                    // Reopen the handle; the old one's cursor is past
                    // the truncation point.
                    match self.fs.open_append(&self.path) {
                        Ok(file) => self.file = Some(file),
                        Err(_) => self.poisoned = true,
                    }
                }
                Err(_) => self.poisoned = true,
            }
            return Err(e);
        }
        self.len += framed.len() as u64;
        sttlock_obs::counter("store.appends", 1);
        if self.policy == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    fn append_framed(&mut self, framed: &[u8]) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| io::Error::other("record log has no open file"))?;
        if self.fs.split_appends() && framed.len() > 1 {
            // Two-part write with a crash checkpoint between the
            // halves: the on-disk state at the checkpoint is a torn
            // frame, exactly what recovery must heal.
            let cut = framed.len() / 2;
            file.append(&framed[..cut])?;
            self.fs.checkpoint(KillPoint::MidRecord)?;
            file.append(&framed[cut..])?;
        } else {
            file.append(framed)?;
        }
        self.fs.checkpoint(KillPoint::PreSync)?;
        Ok(())
    }

    /// Forces an fsync regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| io::Error::other("record log has no open file"))?;
        file.sync()
    }

    /// Atomically rewrites the log to contain exactly `records`
    /// (snapshot semantics: temp file + fsync + rename), then reopens
    /// for appending. Used for compaction after dedup, so a log of
    /// last-wins updates shrinks to its live set.
    pub fn compact(&mut self, records: &[T]) -> io::Result<()> {
        let mut bytes = Vec::new();
        for record in records {
            bytes.extend_from_slice(&frame::encode(&record.encode()));
        }
        // Drop the append handle first; on non-POSIX systems renaming
        // over an open file is not guaranteed.
        self.file = None;
        crate::fs::write_atomic_with(self.fs.as_ref(), &self.path, &bytes)?;
        self.file = Some(self.fs.open_append(&self.path)?);
        self.len = bytes.len() as u64;
        self.poisoned = false;
        sttlock_obs::counter("store.compactions", 1);
        Ok(())
    }
}

/// Reads every valid record from the log at `path` without opening it
/// for writes and without healing the tail — a read-only scan for
/// inspection tools.
pub fn read_all<T: Record>(path: &Path) -> io::Result<(Vec<T>, RecoveryReport)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let scan = frame::scan(&bytes);
    let mut records = Vec::with_capacity(scan.payloads.len());
    let mut undecodable = 0usize;
    for payload in &scan.payloads {
        match T::decode(payload) {
            Some(record) => records.push(record),
            None => undecodable += 1,
        }
    }
    let dropped = bytes.len() - scan.valid_len;
    let report = RecoveryReport {
        records: records.len(),
        kept_bytes: scan.valid_len,
        dropped_bytes: dropped,
        corruption: if dropped > 0 { scan.corruption } else { None },
        undecodable,
    };
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosFs};

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-store-log-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log")
    }

    #[test]
    fn append_reopen_round_trips_records() {
        let path = tmp_path("roundtrip");
        {
            let mut opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
            assert!(opened.records.is_empty());
            assert!(opened.recovery.is_clean());
            opened.log.append(&"one".to_owned()).unwrap();
            opened.log.append(&"two".to_owned()).unwrap();
        }
        let opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(opened.records, vec!["one", "two"]);
        assert!(opened.recovery.is_clean());
    }

    #[test]
    fn a_torn_tail_is_truncated_and_reported() {
        let path = tmp_path("torn");
        {
            let mut opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
            opened.log.append(&"kept".to_owned()).unwrap();
        }
        // Simulate a crash mid-append: glue half a frame on the end.
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        let torn = frame::encode(b"lost-record");
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&path, &bytes).unwrap();

        let opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(opened.records, vec!["kept"]);
        assert_eq!(opened.recovery.dropped_bytes, torn.len() - 3);
        assert_eq!(opened.recovery.corruption, Some(CorruptKind::TornPayload));
        // The heal is durable: the file itself is clean again.
        assert_eq!(std::fs::read(&path).unwrap().len(), good_len);
    }

    #[test]
    fn appends_after_recovery_continue_the_log() {
        let path = tmp_path("continue");
        {
            let mut opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
            opened.log.append(&"a".to_owned()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[frame::FRAME_VERSION, 9, 0]); // torn header
        std::fs::write(&path, &bytes).unwrap();
        {
            let mut opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(opened.recovery.corruption, Some(CorruptKind::TornHeader));
            opened.log.append(&"b".to_owned()).unwrap();
        }
        let opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(opened.records, vec!["a", "b"]);
        assert!(opened.recovery.is_clean());
    }

    #[test]
    fn a_failed_append_heals_the_tail_and_the_log_stays_usable() {
        let path = tmp_path("heal");
        // Chaos splits each record into two physical appends, so
        // every=3 tears the first half of the second record.
        let fs = ChaosFs::new(ChaosConfig {
            seed: 11,
            torn_write_every: 3,
            fail_sync_every: 0,
            kill_at: None,
        });
        let mut opened =
            RecordLog::<String>::open_with(Arc::new(fs), &path, FsyncPolicy::Always).unwrap();
        opened.log.append(&"first".to_owned()).unwrap();
        // Chaos splits appends, so the tear schedule counts halves;
        // keep appending until one fails, then verify the heal.
        let mut failed = false;
        for i in 0..8 {
            if opened.log.append(&format!("record-{i}")).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "chaos schedule should tear one append");
        // The on-disk bytes are frame-clean right now (no reopen).
        let on_disk = std::fs::read(&path).unwrap();
        let scan = frame::scan(&on_disk);
        assert_eq!(scan.corruption, None);
        // And the same handle keeps working.
        opened.log.append(&"after-heal".to_owned()).unwrap();
        let (records, report) = read_all::<String>(&path).unwrap();
        assert_eq!(records.last().unwrap(), "after-heal");
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn compaction_rewrites_to_the_live_set_atomically() {
        let path = tmp_path("compact");
        let mut opened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
        for i in 0..10 {
            opened.log.append(&format!("v{i}")).unwrap();
        }
        let before = std::fs::read(&path).unwrap().len();
        opened.log.compact(&["v9".to_owned()]).unwrap();
        assert!(std::fs::read(&path).unwrap().len() < before);
        // Appends keep working after compaction.
        opened.log.append(&"v10".to_owned()).unwrap();
        let reopened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(reopened.records, vec!["v9", "v10"]);
    }

    #[test]
    fn undecodable_payloads_are_skipped_and_counted() {
        struct EvenOnly(u8);
        impl Record for EvenOnly {
            fn encode(&self) -> Vec<u8> {
                vec![self.0]
            }
            fn decode(bytes: &[u8]) -> Option<Self> {
                match bytes {
                    [b] if b % 2 == 0 => Some(EvenOnly(*b)),
                    _ => None,
                }
            }
        }
        let path = tmp_path("undecodable");
        {
            let mut opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Always).unwrap();
            opened.log.append(&vec![2]).unwrap();
            opened.log.append(&vec![3]).unwrap();
            opened.log.append(&vec![4]).unwrap();
        }
        let opened = RecordLog::<EvenOnly>::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(
            opened.records.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert_eq!(opened.recovery.undecodable, 1);
        assert!(!opened.recovery.is_clean());
        // Undecodable is not corruption: nothing was truncated.
        assert_eq!(opened.recovery.dropped_bytes, 0);
    }

    #[test]
    fn a_chaos_kill_mid_record_recovers_to_the_previous_record() {
        let path = tmp_path("kill-mid");
        let fs = ChaosFs::new(ChaosConfig {
            seed: 5,
            torn_write_every: 0,
            fail_sync_every: 0,
            kill_at: Some((KillPoint::MidRecord, 2)),
        });
        let chaos = fs.clone();
        let mut opened =
            RecordLog::<String>::open_with(Arc::new(fs), &path, FsyncPolicy::Always).unwrap();
        opened.log.append(&"survives".to_owned()).unwrap();
        let err = opened.log.append(&"dies".to_owned()).unwrap_err();
        assert!(err.to_string().contains("death"), "{err}");
        assert!(chaos.is_dead());
        // The "process" is dead: the heal could not run (truncate
        // fails too), so the disk holds a torn frame — recovery at
        // next open must handle it.
        chaos.revive();
        let reopened = RecordLog::<String>::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(reopened.records, vec!["survives"]);
        assert!(reopened.recovery.dropped_bytes > 0);
    }
}
