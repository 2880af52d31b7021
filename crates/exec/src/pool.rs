//! Bounded job pool and scoped work-stealing map.
//!
//! [`Pool`] is the long-lived form: a fixed set of worker threads
//! behind a bounded queue, for owners that dispatch `'static` jobs over
//! time (the serve request pool). Admission is non-blocking —
//! [`Pool::try_execute`] reports [`PoolFull`] instead of queueing
//! unboundedly, which is what lets an accept loop answer a canned 429
//! without ever touching a worker. Jobs are `catch_unwind`-isolated, so
//! a panicking job takes out neither its worker nor the pool.
//!
//! [`scoped_map`] is the fork/join form: run one closure over `0..n`
//! item indices on a fixed number of scoped worker threads pulling from
//! a shared work-stealing counter. Because the threads are scoped, the
//! closure may borrow from the caller's stack — this is what the
//! campaign grid runs on. Per-item panics are captured and returned,
//! not propagated mid-scope.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The pool's queue is full; the job was **not** accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull;

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("pool queue is full")
    }
}

impl std::error::Error for PoolFull {}

struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    enqueued: Instant,
}

/// A bounded pool of named worker threads with panic isolation and
/// queue-wait accounting (`exec.pool.queue_wait` histogram,
/// `exec.pool.{jobs,panics}` counters).
///
/// Dropping (or [`Pool::shutdown`]ting) the pool closes the queue,
/// drains the jobs already admitted, and joins every worker — a
/// graceful drain by construction.
#[derive(Debug)]
pub struct Pool {
    tx: Option<mpsc::SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads (at least one) behind a queue holding
    /// at most `queue_depth` waiting jobs.
    pub fn new(workers: usize, queue_depth: usize) -> Pool {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("exec-pool-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Pool {
            tx: Some(tx),
            workers,
        }
    }

    /// Admits a job without blocking. `Err(PoolFull)` means the queue
    /// is at capacity (or the pool is shutting down) and the job was
    /// dropped — the caller owns the rejection path.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolFull> {
        let Some(tx) = &self.tx else {
            return Err(PoolFull);
        };
        tx.try_send(Job {
            run: Box::new(job),
            enqueued: Instant::now(),
        })
        .map_err(|e| {
            debug_assert!(matches!(e, TrySendError::Full(_)));
            PoolFull
        })
    }

    /// Closes the queue, drains already-admitted jobs, joins workers.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else {
            return; // queue closed and drained
        };
        let waited = job.enqueued.elapsed();
        sttlock_obs::observe_us(
            "exec.pool.queue_wait",
            u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
        );
        if catch_unwind(AssertUnwindSafe(job.run)).is_err() {
            sttlock_obs::counter("exec.pool.panics", 1);
        }
        sttlock_obs::counter("exec.pool.jobs", 1);
    }
}

/// The text of a caught panic payload: the message of a `panic!` with
/// a literal or formatted string, else a fixed placeholder. The one
/// formatter for every `catch_unwind` site that reports what panicked.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f(i)` for every `i in 0..n` on up to `workers` scoped threads
/// pulling indices from a shared work-stealing counter, and returns the
/// results in index order.
///
/// Each item runs under `catch_unwind`: a panicking item yields
/// `Err(payload)` in its slot while its worker moves on to the next
/// index. Callers that cannot tolerate a lost item re-raise with
/// `std::panic::resume_unwind`; callers that isolate per-item failures
/// (the campaign grid) map `Err` to a structured record.
pub fn scoped_map<R, F>(
    workers: usize,
    n: usize,
    f: F,
) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    type Slot<R> = Mutex<Option<Result<R, Box<dyn std::any::Any + Send>>>>;
    let workers = workers.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(i)));
                if r.is_err() {
                    sttlock_obs::counter("exec.pool.panics", 1);
                }
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index below n is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let caught = |f: fn()| catch_unwind(f).expect_err("the closure panics");
        assert_eq!(panic_message(&*caught(|| panic!("literal"))), "literal");
        assert_eq!(
            panic_message(&*caught(|| panic!("formatted {}", 7))),
            "formatted 7"
        );
        assert_eq!(
            panic_message(&*caught(|| std::panic::panic_any(7u8))),
            "non-string panic payload"
        );
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_shutdown() {
        let pool = Pool::new(3, 64);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            pool.try_execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown(); // joins after draining
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn full_queue_is_a_fast_rejection() {
        let pool = Pool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            let _ = release_rx.recv();
        })
        .unwrap();
        // Give the worker a moment to pick up the blocker, then fill
        // the single queue slot.
        std::thread::sleep(Duration::from_millis(50));
        pool.try_execute(|| {}).unwrap();
        assert_eq!(pool.try_execute(|| {}), Err(PoolFull));
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = Pool::new(1, 8);
        pool.try_execute(|| panic!("boom")).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_execute(move || tx.send(7).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
        pool.shutdown();
    }

    #[test]
    fn scoped_map_covers_every_index_in_order() {
        let out = scoped_map(4, 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * i);
        }
    }

    #[test]
    fn scoped_map_borrows_from_the_caller() {
        let data = [1u64, 2, 3, 4, 5];
        let out = scoped_map(2, data.len(), |i| data[i] * 10);
        let sum: u64 = out.into_iter().map(|r| r.unwrap()).sum();
        assert_eq!(sum, 150);
    }

    #[test]
    fn scoped_map_isolates_per_item_panics() {
        let out = scoped_map(3, 10, |i| {
            if i == 4 {
                panic!("item 4 exploded");
            }
            i
        });
        for (i, r) in out.into_iter().enumerate() {
            if i == 4 {
                assert!(r.is_err());
            } else {
                assert_eq!(r.unwrap(), i);
            }
        }
    }

    #[test]
    fn scoped_map_handles_zero_items_and_more_workers_than_items() {
        assert!(scoped_map(8, 0, |i| i).is_empty());
        let out = scoped_map(8, 2, |i| i + 1);
        assert_eq!(
            out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }
}
