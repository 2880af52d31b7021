//! Content-hash result caching for campaign cells, on the store's
//! [`Cache`].
//!
//! A cell's cache key hashes everything that determines its outcome:
//!
//! * a format-version salt ([`CACHE_VERSION`]) so stale layouts are
//!   invisible rather than misparsed,
//! * the cell descriptor (circuit label, algorithm, seed, attack kind
//!   *with its limits*),
//! * the generated netlist's `.bench` text — the actual input of the
//!   flow. If the generator, the profile table or the seed scheme
//!   changes, the text changes and every affected cell re-runs; cells
//!   whose circuits are byte-identical keep hitting.
//!
//! Keys are 128-bit [`sttlock_exec::CacheKey`]s (two independent
//! FNV-1a streams); the keying scheme itself lives in the exec runtime
//! and is shared with serve's response cache. Records live as JSON
//! bodies in `<cache_dir>/campaign-cache.log`, stamped with
//! [`CACHE_VERSION`]. Only [`RunStatus::Ok`](crate::RunStatus::Ok)
//! records are stored: failures, panics and timeouts always
//! re-execute, because they are exactly the cells one is trying to
//! fix. A body that no longer parses as a record reads as a miss.

use std::path::Path;
use std::sync::Arc;

use sttlock_exec::KeyBuilder;
use sttlock_store::Cache;

use crate::json::Json;
use crate::record::RunRecord;

pub use sttlock_exec::CacheKey;

/// Bump when the record layout or keying scheme changes.
pub const CACHE_VERSION: u32 = 1;

/// Computes the key for one cell from its descriptor and the generated
/// netlist text.
///
/// The raw-chunk feed hashes `v{CACHE_VERSION}\x1f`, the descriptor,
/// `\x1f`, then the bench text.
pub fn cell_key(descriptor: &str, bench_text: &str) -> CacheKey {
    KeyBuilder::new(CACHE_VERSION)
        .chunk(descriptor.as_bytes())
        .chunk(b"\x1f")
        .chunk(bench_text.as_bytes())
        .finish()
}

/// Opens the campaign cache under `dir`. `None` (an unopenable
/// directory) means the campaign runs uncached rather than failing.
pub(crate) fn open(dir: &Path) -> Option<Arc<Cache>> {
    Cache::open(dir.join("campaign-cache.log"), CACHE_VERSION)
        .ok()
        .map(Arc::new)
}

/// Looks up a cached record; an unparseable body reads as a miss.
pub(crate) fn lookup(cache: &Cache, key: CacheKey) -> Option<RunRecord> {
    let text = cache.lookup(&key.hex())?;
    RunRecord::from_json(&Json::parse(&text).ok()?)
}

/// Stores a successful record; any other status is not cached.
pub(crate) fn store(cache: &Cache, key: CacheKey, record: &RunRecord) {
    if record.status.is_ok() {
        cache.store(&key.hex(), &record.to_json().to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunStatus;

    fn tmp_cache(name: &str) -> Arc<Cache> {
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-cache-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        open(&dir).unwrap()
    }

    fn ok_record() -> RunRecord {
        RunRecord {
            status: RunStatus::Ok,
            flow: Some(crate::record::FlowMetrics::default()),
            wall_ms: 5,
            ..RunRecord::failure("s27", "independent", 42, "none", RunStatus::Ok)
        }
    }

    #[test]
    fn keys_separate_descriptor_and_content() {
        let k = cell_key("s27|independent|42|none", "INPUT(a)\n");
        assert_eq!(k, cell_key("s27|independent|42|none", "INPUT(a)\n"));
        assert_ne!(k, cell_key("s27|independent|43|none", "INPUT(a)\n"));
        assert_ne!(k, cell_key("s27|independent|42|none", "INPUT(b)\n"));
        // The separator prevents boundary ambiguity.
        assert_ne!(
            cell_key("ab", "c"),
            cell_key("a", "bc"),
            "descriptor/content boundary must be keyed"
        );
        assert_eq!(k.hex().len(), 32);
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = tmp_cache("roundtrip");
        let key = cell_key("d", "t");
        assert_eq!(lookup(&cache, key), None);
        let r = ok_record();
        store(&cache, key, &r);
        assert_eq!(lookup(&cache, key), Some(r));
    }

    #[test]
    fn failures_are_never_cached() {
        let cache = tmp_cache("failures");
        let key = cell_key("d", "t");
        for status in [
            RunStatus::Failed("x".into()),
            RunStatus::Panicked("y".into()),
            RunStatus::TimedOut,
        ] {
            store(
                &cache,
                key,
                &RunRecord::failure("c", "a", 1, "none", status),
            );
            assert_eq!(lookup(&cache, key), None);
        }
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = tmp_cache("corrupt");
        let key = cell_key("d", "t");
        cache.store(&key.hex(), "not json{");
        assert_eq!(lookup(&cache, key), None);
    }
}
