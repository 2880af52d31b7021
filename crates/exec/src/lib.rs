//! Unified execution runtime for the sttlock stack.
//!
//! Before this crate existed, four independent concurrency mechanisms
//! had grown side by side: the attack's private step/wall budget, the
//! campaign runner's `Arc<AtomicBool>` cancel flag, serve's
//! hand-threaded per-request deadline, and the repair loop's
//! uninterruptible backoff sleeps. None of them could see the others,
//! so a blown HTTP deadline returned a 504 while the abandoned
//! selection/attack/STA work kept burning cores.
//!
//! This crate is the single replacement:
//!
//! * [`Budget`] — a hierarchical deadline + step budget + cooperative
//!   cancellation cell. [`Budget::child`] derivation takes
//!   min-of-deadlines semantics, [`Budget::charge`] bills work up the
//!   whole ancestor chain (so sibling budgets draw from one shared
//!   parent pool), and cancelling any node cancels every descendant.
//!   [`CancelToken`] is the cancel-only handle for owners that stop
//!   work without bounding it.
//! * [`Pool`] — a bounded job pool with `catch_unwind` panic isolation
//!   and queue-wait accounting, plus [`scoped_map`], its borrow-friendly
//!   work-stealing sibling for fork/join parallelism over in-scope data,
//!   and [`panic_message`], which every caught panic is reported through.
//! * [`KeyBuilder`]/[`CacheKey`] — the typed 128-bit content-hash key
//!   scheme shared by the campaign result cache and serve's response
//!   cache, over the workspace's one [`fnv1a`].
//!
//! Everything is observable: budget trips surface as
//! `exec.budget.{cancelled,deadline,steps}` counters, charged steps as
//! `exec.steps`, and the pool reports `exec.pool.{jobs,panics}` and an
//! `exec.pool.queue_wait` histogram — which is how an operator (and the
//! serve smoke test) can see that deep work actually observed a cancel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod budget;
mod key;
mod pool;

pub use backoff::Backoff;
pub use budget::{Budget, BudgetError, CancelToken};
pub use key::{fnv1a, CacheKey, KeyBuilder, FNV_OFFSET_BASIS};
pub use pool::{panic_message, scoped_map, Pool, PoolFull};
