//! Crash-safe durable state for the sttlock workspace.
//!
//! Every durable artifact the toolchain writes — campaign journals,
//! fault journals, the result caches, trace exports — goes through one
//! of two primitives in this crate:
//!
//! - [`RecordLog`], a checksummed, length-framed append-only log with
//!   truncate-to-last-valid recovery of torn or corrupt tails, a
//!   configurable [`FsyncPolicy`], and atomic compaction;
//! - [`write_atomic`], a temp-file + fsync + rename snapshot write
//!   that leaves either the old bytes or the new, never a mix.
//!
//! [`Cache`], the workspace's one result cache (serve's harden
//! responses, the campaign's cell records), is a versioned key → body
//! map on a [`RecordLog`].
//!
//! Both are built over the [`Fs`] trait so the deterministic chaos
//! harness ([`ChaosFs`]) can inject short writes, torn writes, failed
//! fsyncs, and simulated mid-write deaths under the production code
//! paths, and so real processes can be killed at named byte positions
//! via `STTLOCK_KILL_POINT` ([`KillPoint`]).
//!
//! The crate is zero-dependency (workspace `obs` and `exec` aside) by
//! design: it sits below `campaign`, `serve`, and `cli` in the
//! dependency graph, above `exec` and `obs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod frame;
pub mod fs;
pub mod log;

pub use cache::Cache;
pub use chaos::{ChaosConfig, ChaosFs};
pub use frame::{CorruptKind, FRAME_VERSION, HEADER_LEN, MAX_RECORD_LEN};
pub use fs::{write_atomic, write_atomic_with, Fs, KillPoint, LogFile, StdFs};
pub use log::{read_all, FsyncPolicy, OpenedLog, Record, RecordLog, RecoveryReport};
