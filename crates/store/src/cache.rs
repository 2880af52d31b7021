//! The workspace's result cache: a key → body map persisted on one
//! [`RecordLog`].
//!
//! Every stored body is appended as a `CacheEntry`; on open the log is
//! replayed last-wins into an in-memory map, so a restarted process
//! answers repeats from the warm-loaded cache without recomputing them.
//! Warm entries that hit report `store.cache_warm_hits`.
//!
//! Durability is [`FsyncPolicy::Never`]: losing a cache entry costs a
//! recomputation, never correctness, so the log rides the OS page
//! cache. A torn tail from a crash mid-append is healed by the log's
//! own recovery on the next open. Each cache is opened at a caller
//! version; entries recorded under another version are skipped at load
//! (the caller's keying or body layout changed under them). When the
//! replay finds dead weight — stale versions, duplicate keys,
//! undecodable payloads — the log is compacted back to the live set.
//!
//! A cache file belongs to one process at a time: a second process
//! appending to it, or compacting it at boot, would lose entries.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::log::{FsyncPolicy, Record, RecordLog, RecoveryReport};

/// One persisted body: the version it was recorded under, its key
/// (hex), and the body text.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheEntry {
    version: u32,
    key_hex: String,
    body: String,
}

// Payload layout: [u32 version LE][u16 key_len LE][key][body]. The
// frame already carries the total length and CRC, so the body needs
// no terminator.
impl Record for CacheEntry {
    fn encode(&self) -> Vec<u8> {
        let key = self.key_hex.as_bytes();
        let mut out = Vec::with_capacity(6 + key.len() + self.body.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<CacheEntry> {
        let (header, rest) = (bytes.get(..6)?, &bytes[6..]);
        let version = u32::from_le_bytes(header[..4].try_into().ok()?);
        let key_len = u16::from_le_bytes(header[4..6].try_into().ok()?) as usize;
        if rest.len() < key_len {
            return None;
        }
        Some(CacheEntry {
            version,
            key_hex: String::from_utf8(rest[..key_len].to_vec()).ok()?,
            body: String::from_utf8(rest[key_len..].to_vec()).ok()?,
        })
    }
}

struct Slot {
    body: String,
    /// True for entries replayed from disk at open; a hit on one is a
    /// cross-restart hit and counts `store.cache_warm_hits`.
    warm: bool,
}

struct Inner {
    log: RecordLog<CacheEntry>,
    map: HashMap<String, Slot>,
}

/// A persistent, versioned key → body cache. Lookups and stores go
/// through the in-memory map; stores also append to the log so the map
/// survives a restart.
pub struct Cache {
    inner: Mutex<Inner>,
    version: u32,
    recovery: RecoveryReport,
}

impl Cache {
    /// Opens (creating if needed) the cache log at `path` and
    /// warm-loads its `version` entries. Callers treat an error as "run
    /// uncached": the cache is an accelerator, never a correctness
    /// dependency.
    pub fn open(path: impl Into<PathBuf>, version: u32) -> io::Result<Cache> {
        let opened = RecordLog::<CacheEntry>::open(path, FsyncPolicy::Never)?;
        let entries = opened.records.len();
        let mut log = opened.log;
        let mut map: HashMap<String, Slot> = HashMap::new();
        let mut stale = 0usize;
        for entry in opened.records {
            if entry.version != version {
                stale += 1;
                continue;
            }
            map.insert(
                entry.key_hex,
                Slot {
                    body: entry.body,
                    warm: true,
                },
            );
        }
        sttlock_obs::counter("store.cache_warm_loaded", map.len() as u64);
        if stale > 0 {
            sttlock_obs::counter("store.cache_stale_entries", stale as u64);
        }
        // Replay found dead weight (stale versions, overwritten keys,
        // undecodable payloads): rewrite the log to the live set so it
        // stays proportional to the cache, not its history.
        if map.len() < entries || opened.recovery.undecodable > 0 {
            let live: Vec<CacheEntry> = map
                .iter()
                .map(|(key_hex, slot)| CacheEntry {
                    version,
                    key_hex: key_hex.clone(),
                    body: slot.body.clone(),
                })
                .collect();
            let _ = log.compact(&live);
        }
        Ok(Cache {
            inner: Mutex::new(Inner { log, map }),
            version,
            recovery: opened.recovery,
        })
    }

    /// What opening the log recovered (clean after a graceful exit).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Looks up a cached body. A hit on an entry warm-loaded from a
    /// previous process life reports `store.cache_warm_hits`.
    pub fn lookup(&self, key_hex: &str) -> Option<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let slot = inner.map.get(key_hex)?;
        if slot.warm {
            sttlock_obs::counter("store.cache_warm_hits", 1);
        }
        Some(slot.body.clone())
    }

    /// Stores `body` under `key_hex`: into the map immediately, and
    /// appended to the log for the next process life. Append failures
    /// are swallowed — the cache is an accelerator, never a correctness
    /// dependency.
    pub fn store(&self, key_hex: &str, body: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let _ = inner.log.append(&CacheEntry {
            version: self.version,
            key_hex: key_hex.to_owned(),
            body: body.to_owned(),
        });
        inner.map.insert(
            key_hex.to_owned(),
            Slot {
                body: body.to_owned(),
                warm: false,
            },
        );
    }

    /// Best-effort fsync of the log, for graceful shutdown: a clean
    /// exit leaves a durable cache even under `FsyncPolicy::Never`.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let _ = inner.log.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const VERSION: u32 = 2;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-store-cache-tests")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("cache.log")
    }

    fn open(path: &Path) -> Cache {
        Cache::open(path, VERSION).unwrap()
    }

    fn key(n: u64) -> String {
        format!("{n:032x}")
    }

    /// One harden-cache file as the serve layer wrote it before the
    /// cache moved into this crate: a single frame holding
    /// `[u32 version=2][u16 key_len=32][key][body]`.
    const GOLDEN_KEY: &str = "36ddf42a8fdd88f2b0c1f6f40bdf0ca3";
    const GOLDEN_BODY: &str = "{\"cached\":false,\"x\":\"é\"}";
    const GOLDEN_LOG: [u8; 72] = [
        165, 63, 0, 0, 0, 176, 7, 232, 157, 2, 0, 0, 0, 32, 0, 51, 54, 100, 100, 102, 52, 50, 97,
        56, 102, 100, 100, 56, 56, 102, 50, 98, 48, 99, 49, 102, 54, 102, 52, 48, 98, 100, 102, 48,
        99, 97, 51, 123, 34, 99, 97, 99, 104, 101, 100, 34, 58, 102, 97, 108, 115, 101, 44, 34,
        120, 34, 58, 34, 195, 169, 34, 125,
    ];

    #[test]
    fn the_on_disk_layout_matches_the_golden_bytes() {
        let path = tmp_path("golden-write");
        {
            let cache = open(&path);
            cache.store(GOLDEN_KEY, GOLDEN_BODY);
            cache.flush();
        }
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_LOG);
    }

    #[test]
    fn a_golden_log_warm_loads() {
        let path = tmp_path("golden-read");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, GOLDEN_LOG).unwrap();
        let cache = open(&path);
        assert!(cache.recovery().is_clean());
        assert_eq!(cache.lookup(GOLDEN_KEY).as_deref(), Some(GOLDEN_BODY));
    }

    #[test]
    fn entries_round_trip_through_the_record_codec() {
        let entry = CacheEntry {
            version: VERSION,
            key_hex: key(1),
            body: "{\"cached\":false}".to_owned(),
        };
        assert_eq!(CacheEntry::decode(&entry.encode()), Some(entry));
        assert_eq!(CacheEntry::decode(&[1, 2, 3]), None); // short header
    }

    #[test]
    fn stores_survive_a_reopen_as_warm_entries() {
        let path = tmp_path("warm");
        {
            let cache = open(&path);
            cache.store(&key(1), "body-1");
            cache.store(&key(2), "body-2");
            // Same-life hits are not warm hits.
            assert_eq!(cache.lookup(&key(1)).as_deref(), Some("body-1"));
        }
        let cache = open(&path);
        assert!(cache.recovery().is_clean());
        assert_eq!(cache.lookup(&key(1)).as_deref(), Some("body-1"));
        assert_eq!(cache.lookup(&key(2)).as_deref(), Some("body-2"));
        assert_eq!(cache.lookup(&key(3)), None);
    }

    #[test]
    fn version_skewed_entries_are_invisible_and_compacted_away() {
        let path = tmp_path("skew");
        {
            let cache = open(&path);
            let mut inner = cache.inner.lock().unwrap();
            inner
                .log
                .append(&CacheEntry {
                    version: VERSION + 1,
                    key_hex: key(7),
                    body: "from-the-future".to_owned(),
                })
                .unwrap();
        }
        {
            let cache = open(&path);
            assert_eq!(cache.lookup(&key(7)), None);
            cache.store(&key(8), "live");
        }
        // The stale entry was compacted out, not just hidden: the
        // reopened log holds only the live record.
        let (entries, _) = crate::read_all::<CacheEntry>(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].body, "live");
    }

    #[test]
    fn overwrites_replay_last_wins_and_compact_on_boot() {
        let path = tmp_path("dedup");
        {
            let cache = open(&path);
            cache.store(&key(5), "old");
            cache.store(&key(5), "new");
        }
        let before = std::fs::metadata(&path).unwrap().len();
        {
            let cache = open(&path);
            assert_eq!(cache.lookup(&key(5)).as_deref(), Some("new"));
        }
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "boot-time compaction should drop the overwritten entry"
        );
        // And the compacted log still replays correctly.
        let cache = open(&path);
        assert_eq!(cache.lookup(&key(5)).as_deref(), Some("new"));
    }

    #[test]
    fn a_torn_tail_heals_and_the_rest_of_the_cache_survives() {
        let path = tmp_path("torn");
        {
            let cache = open(&path);
            cache.store(&key(1), "kept");
            cache.flush();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[crate::FRAME_VERSION, 200, 0]);
        std::fs::write(&path, &bytes).unwrap();

        let cache = open(&path);
        assert!(!cache.recovery().is_clean());
        assert!(cache.recovery().dropped_bytes > 0);
        assert_eq!(cache.lookup(&key(1)).as_deref(), Some("kept"));
    }
}
