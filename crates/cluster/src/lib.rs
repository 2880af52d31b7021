//! Distributed campaign execution: a coordinator/worker cluster on the
//! serve HTTP stack.
//!
//! One coordinator process owns the campaign grid; any number of
//! worker processes join it by heartbeating it over HTTP
//! (`POST /cluster/heartbeat`, which doubles as registration). The
//! coordinator keeps one dispatch lane per live worker, the lanes pull
//! pending cells from one queue in grid order, and each cell ships as a
//! [`protocol::CellRequest`]. Everything else — the
//! campaign journal every returned record is appended to, the replay
//! rule and the merge in grid order — is [`sttlock_campaign::GridRun`],
//! the bookkeeping a single-node [`sttlock_campaign::execute`] run uses
//! too, so the merged JSONL is byte-identical to a single-node run
//! (modulo wall-clock fields), which the integration tests assert byte
//! for byte.
//!
//! Failure is the normal case the design is built around: a worker
//! that dies, hangs, answers under a skewed protocol version or with
//! another cell's record is evicted and its in-flight cells
//! re-dispatched with capped exponential backoff; a coordinator that
//! crashes re-opens its journal with `resume` and re-dispatches only
//! the cells without a replayable entry. The journal is the one
//! `campaign --journal` writes, so either command resumes the other's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{start_coordinator, Coordinator, CoordinatorConfig};
pub use protocol::PROTOCOL_VERSION;
pub use worker::{start_worker, Worker, WorkerConfig};
