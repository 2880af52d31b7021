//! Deterministic chaos-IO: a [`Fs`] implementation that injects
//! short writes, torn writes at arbitrary byte offsets, failed fsyncs
//! and simulated process deaths on a seeded schedule.
//!
//! Everything is driven by an FNV-1a stream over the seed, so a given
//! `ChaosConfig` replays the exact same fault sequence every run —
//! a failing chaos test is reproducible from its seed alone. The
//! simulated death latches: once the configured kill-point is crossed,
//! *every* subsequent operation fails, which is how a dead process
//! looks to the bytes it already put on disk.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use sttlock_exec::{fnv1a, FNV_OFFSET_BASIS};

use crate::fs::{Fs, KillPoint, LogFile, StdFs};

/// Fault schedule for a [`ChaosFs`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Tear every nth append at a seeded byte offset (0 disables).
    /// A torn append writes a strict prefix of the bytes, then fails.
    pub torn_write_every: u32,
    /// Fail every nth fsync (0 disables). The bytes stay written —
    /// only durability is denied — matching a full disk or a dying
    /// device better than losing the write outright.
    pub fail_sync_every: u32,
    /// Simulate death at the nth crossing (1-based) of a kill-point.
    /// After death, every operation returns `ErrorKind::Other`.
    pub kill_at: Option<(KillPoint, u64)>,
}

impl ChaosConfig {
    /// A schedule that injects nothing — useful as a baseline in
    /// differential tests.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            torn_write_every: 0,
            fail_sync_every: 0,
            kill_at: None,
        }
    }
}

#[derive(Debug)]
struct ChaosState {
    stream: u64,
    draws: u64,
    appends: u64,
    syncs: u64,
    checkpoint_hits: u64,
    dead: bool,
}

/// A deterministic fault-injecting filesystem wrapping [`StdFs`].
/// Cloneable via `Arc`; all clones share one fault schedule, the way
/// every file handle in one process shares one fate.
#[derive(Debug, Clone)]
pub struct ChaosFs {
    config: ChaosConfig,
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosFs {
    /// Builds a chaos filesystem from a fault schedule.
    pub fn new(config: ChaosConfig) -> ChaosFs {
        let state = ChaosState {
            stream: config.seed ^ FNV_OFFSET_BASIS,
            draws: 0,
            appends: 0,
            syncs: 0,
            checkpoint_hits: 0,
            dead: false,
        };
        ChaosFs {
            config,
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// Whether the simulated process has died (a kill-point fired).
    pub fn is_dead(&self) -> bool {
        self.state.lock().unwrap().dead
    }

    /// Clears the death latch — the test's stand-in for restarting
    /// the process over the same on-disk bytes.
    pub fn revive(&self) {
        self.state.lock().unwrap().dead = false;
    }

    fn dead_err() -> io::Error {
        io::Error::other("chaos: simulated process death")
    }

    fn guard(&self) -> io::Result<()> {
        if self.state.lock().unwrap().dead {
            Err(Self::dead_err())
        } else {
            Ok(())
        }
    }

    /// Draws the next value from the FNV-1a stream: fold the draw
    /// index into the seeded state byte by byte. Folding a counter
    /// (rather than the state's own bytes) keeps nearby seeds from
    /// collapsing onto the same stream.
    fn draw(state: &mut ChaosState) -> u64 {
        state.draws += 1;
        state.stream = fnv1a(state.stream, &state.draws.to_le_bytes());
        state.stream
    }
}

struct ChaosLogFile {
    inner: Box<dyn LogFile>,
    fs: ChaosFs,
    path: PathBuf,
}

impl LogFile for ChaosLogFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fs.guard()?;
        let torn_prefix = {
            let mut state = self.fs.state.lock().unwrap();
            state.appends += 1;
            let every = self.fs.config.torn_write_every;
            if every != 0 && state.appends.is_multiple_of(u64::from(every)) && !bytes.is_empty() {
                // A strict prefix: at least 0, at most len-1 bytes land.
                Some((ChaosFs::draw(&mut state) % bytes.len() as u64) as usize)
            } else {
                None
            }
        };
        match torn_prefix {
            Some(cut) => {
                self.inner.append(&bytes[..cut])?;
                // The torn bytes are on disk; durability of the tear is
                // the worst case for recovery, so force it visible.
                let _ = self.inner.sync();
                Err(io::Error::other(format!(
                    "chaos: torn write at byte {cut} of {} (path {})",
                    bytes.len(),
                    self.path.display()
                )))
            }
            None => self.inner.append(bytes),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fs.guard()?;
        let fail = {
            let mut state = self.fs.state.lock().unwrap();
            state.syncs += 1;
            let every = self.fs.config.fail_sync_every;
            every != 0 && state.syncs.is_multiple_of(u64::from(every))
        };
        if fail {
            return Err(io::Error::other("chaos: fsync failed"));
        }
        self.inner.sync()
    }
}

impl Fs for ChaosFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.guard()?;
        StdFs.read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        self.guard()?;
        Ok(Box::new(ChaosLogFile {
            inner: StdFs.open_append(path)?,
            fs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.guard()?;
        StdFs.truncate(path, len)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.guard()?;
        StdFs.write(path, bytes)
    }

    fn sync_path(&self, path: &Path) -> io::Result<()> {
        self.guard()?;
        StdFs.sync_path(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.guard()?;
        StdFs.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.guard()?;
        StdFs.create_dir_all(path)
    }

    fn checkpoint(&self, point: KillPoint) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        if state.dead {
            return Err(Self::dead_err());
        }
        if let Some((armed, nth)) = self.config.kill_at {
            if armed == point {
                state.checkpoint_hits += 1;
                if state.checkpoint_hits == nth.max(1) {
                    state.dead = true;
                    return Err(Self::dead_err());
                }
            }
        }
        Ok(())
    }

    fn split_appends(&self) -> bool {
        // Chaos runs always split so the mid-record checkpoint sits on
        // a real byte boundary inside the frame.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-store-chaos-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn the_fault_stream_is_pinned() {
        // Captured before the FNV-1a copies were folded into
        // `sttlock_exec::fnv1a`: every chaos schedule replays from
        // these draws.
        let fs = ChaosFs::new(ChaosConfig::quiet(11));
        let mut state = fs.state.lock().unwrap();
        let draws = [ChaosFs::draw(&mut state), ChaosFs::draw(&mut state)];
        assert_eq!(draws, [0xde93be8c95731f0f, 0x60176b7809f3c2ad]);
    }

    #[test]
    fn torn_writes_fire_on_schedule_and_leave_a_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("log");
        let fs = ChaosFs::new(ChaosConfig {
            seed: 7,
            torn_write_every: 2,
            fail_sync_every: 0,
            kill_at: None,
        });
        let mut f = fs.open_append(&path).unwrap();
        f.append(b"aaaaaaaa").unwrap();
        let err = f.append(b"bbbbbbbb").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 16, "second append must be torn");
        assert!(on_disk.starts_with(b"aaaaaaaa"));
        assert!(b"bbbbbbbb".starts_with(&on_disk[8..]));
    }

    #[test]
    fn the_fault_schedule_is_deterministic_in_the_seed() {
        let tear_lengths = |seed: u64| -> Vec<usize> {
            let dir = tmp_dir(&format!("det-{seed}"));
            let path = dir.join("log");
            let fs = ChaosFs::new(ChaosConfig {
                seed,
                torn_write_every: 1,
                fail_sync_every: 0,
                kill_at: None,
            });
            let mut lens = Vec::new();
            for i in 0..8 {
                let mut f = fs.open_append(&path).unwrap();
                let before = std::fs::read(&path).unwrap().len();
                let _ = f.append(format!("record-{i}-payload").as_bytes());
                lens.push(std::fs::read(&path).unwrap().len() - before);
            }
            lens
        };
        assert_eq!(tear_lengths(42), tear_lengths(42));
        assert_ne!(tear_lengths(42), tear_lengths(43));
    }

    #[test]
    fn kill_point_latches_death_until_revived() {
        let dir = tmp_dir("kill");
        let path = dir.join("log");
        let fs = ChaosFs::new(ChaosConfig {
            seed: 1,
            torn_write_every: 0,
            fail_sync_every: 0,
            kill_at: Some((KillPoint::PreSync, 2)),
        });
        fs.checkpoint(KillPoint::PreSync).unwrap();
        assert!(fs.checkpoint(KillPoint::PreSync).is_err());
        assert!(fs.is_dead());
        assert!(fs.write(&path, b"x").is_err());
        assert!(fs.open_append(&path).is_err());
        fs.revive();
        fs.write(&path, b"x").unwrap();
        // A different kill-point never fires.
        fs.checkpoint(KillPoint::MidRecord).unwrap();
    }

    #[test]
    fn failed_fsyncs_fire_on_schedule() {
        let dir = tmp_dir("sync");
        let path = dir.join("log");
        let fs = ChaosFs::new(ChaosConfig {
            seed: 3,
            torn_write_every: 0,
            fail_sync_every: 3,
            kill_at: None,
        });
        let mut f = fs.open_append(&path).unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        f.sync().unwrap();
        assert!(f.sync().is_err());
        f.sync().unwrap();
    }
}
