//! Hierarchical budgets and cooperative cancellation.
//!
//! A [`Budget`] is a node in a tree. Each node carries:
//!
//! * an optional wall-clock **deadline** — pre-minimised against the
//!   parent's at derivation time, so a child can only ever tighten it;
//! * a **step count** — a measure of work done, never a limit (the
//!   attack bills simulated test clocks, activity estimation and repair
//!   bill simulated vectors, the selection bills timing probes).
//!   [`Budget::charge`] bills the node *and every ancestor*, so a parent
//!   counts the work of all its descendants;
//! * a **cancel flag** — checking walks the ancestor chain, so
//!   cancelling any node cancels its whole subtree without bookkeeping.
//!
//! Checks are cooperative and cheap (a few relaxed atomic loads plus
//! one `Instant::now()` when a deadline exists); deep loops call
//! [`Budget::exhausted`] at natural step boundaries exactly like they
//! polled their private flags before. The first failed check per node
//! increments one of the `exec.budget.{cancelled,deadline}` counters
//! so cancellation is visible in `/metrics`.
//!
//! Waits block instead: [`Budget::sleep`] and [`CancelToken::wait`]
//! park on one process-wide condition variable that every cancel
//! notifies, so a sleeper wakes the moment any node on its chain is
//! cancelled. Checks never touch it.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a [`Budget`] refused further work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// This budget, or an ancestor, was explicitly cancelled.
    Cancelled,
    /// The (inherited-minimum) wall-clock deadline has passed.
    DeadlineExpired,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Cancelled => f.write_str("cancelled"),
            BudgetError::DeadlineExpired => f.write_str("deadline expired"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Serializes a cancel's notify against a sleeper's check-then-wait, so
/// no wake-up falls between them. It guards no data.
static WAKE_LOCK: Mutex<()> = Mutex::new(());
/// Notified by every cancel; each waiter re-checks its own chain.
static WAKE: Condvar = Condvar::new();

/// The earlier of two optional instants (`None`: never).
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[derive(Debug)]
struct Inner {
    parent: Option<Arc<Inner>>,
    cancelled: AtomicBool,
    /// Effective deadline: already the minimum over this node and all
    /// ancestors (maintained at derivation time).
    deadline: Option<Instant>,
    steps: AtomicU64,
    /// One-shot latch so each node reports its trip reason only once.
    tripped: AtomicBool,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        let mut cur = self;
        loop {
            if cur.cancelled.load(Ordering::Relaxed) {
                return true;
            }
            match &cur.parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    fn cancel(&self) {
        // Relaxed suffices: a waiter re-checks the flag under
        // `WAKE_LOCK`, which this store precedes.
        self.cancelled.store(true, Ordering::Relaxed);
        let _lock = WAKE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        WAKE.notify_all();
    }

    /// Blocks until this node or an ancestor is cancelled, or until
    /// `until` passes (`None`: no time limit).
    fn wait_until(&self, until: Option<Instant>) {
        let lock = WAKE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let live = |_: &mut ()| !self.is_cancelled();
        // The lock guards no data, so a poisoned result is as good.
        match until {
            None => drop(WAKE.wait_while(lock, live)),
            Some(t) => {
                let left = t.saturating_duration_since(Instant::now());
                drop(WAKE.wait_timeout_while(lock, left, live));
            }
        }
    }

    fn note_trip(&self, err: BudgetError) {
        if !self.tripped.swap(true, Ordering::Relaxed) {
            sttlock_obs::counter(
                match err {
                    BudgetError::Cancelled => "exec.budget.cancelled",
                    BudgetError::DeadlineExpired => "exec.budget.deadline",
                },
                1,
            );
        }
    }
}

/// A deadline + cancel latch + step count. Cloning shares the same
/// node; [`Budget::child`]/[`Budget::child_with`] derive a new
/// subordinate node.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Budget {
    fn node(parent: Option<Arc<Inner>>, deadline: Option<Instant>) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                parent,
                cancelled: AtomicBool::new(false),
                deadline,
                steps: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            }),
        }
    }

    /// A budget with no deadline — cancellable only.
    pub fn unbounded() -> Budget {
        Budget::node(None, None)
    }

    /// A root budget that expires at `deadline`.
    pub fn deadline_at(deadline: Instant) -> Budget {
        Budget::node(None, Some(deadline))
    }

    /// A root budget that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::deadline_at(Instant::now() + timeout)
    }

    /// Derives a child inheriting this budget's deadline, with its own
    /// step counter. Charges on the child still bill this node;
    /// cancelling this node cancels the child.
    pub fn child(&self) -> Budget {
        self.child_with(None)
    }

    /// Derives a child with a deadline of its own: the child's
    /// effective deadline is `min(parent, own)`.
    pub fn child_with(&self, deadline: Option<Instant>) -> Budget {
        Budget::node(
            Some(Arc::clone(&self.inner)),
            earliest(self.inner.deadline, deadline),
        )
    }

    /// Bills `n` steps of work to this node and every ancestor, and to
    /// the global `exec.steps` counter (how a metrics scrape sees deep
    /// work advance — or stop).
    pub fn charge(&self, n: u64) {
        let mut cur: &Inner = &self.inner;
        loop {
            cur.steps.fetch_add(n, Ordering::Relaxed);
            match &cur.parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        sttlock_obs::counter("exec.steps", n);
    }

    /// Steps billed through this node so far (including descendants).
    pub fn steps_spent(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// The effective deadline (already minimised over ancestors).
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left until the effective deadline; `None` when unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Cancels this budget and, transitively, every descendant, waking
    /// every [`Budget::sleep`] and [`CancelToken::wait`] in the subtree.
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// True when this node or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Full cooperative check: cancellation (whole chain), then the
    /// deadline.
    pub fn check(&self) -> Result<(), BudgetError> {
        if self.is_cancelled() {
            self.inner.note_trip(BudgetError::Cancelled);
            return Err(BudgetError::Cancelled);
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.inner.note_trip(BudgetError::DeadlineExpired);
                return Err(BudgetError::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// `check().is_err()` — the polling form deep loops use.
    pub fn exhausted(&self) -> bool {
        self.check().is_err()
    }

    /// A cancel-only handle onto this budget (for owners that stop
    /// work they do not otherwise bound — e.g. a timeout watchdog).
    pub fn token(&self) -> CancelToken {
        CancelToken {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Cancel-aware sleep: blocks until `dur` has passed, the deadline
    /// passes or a node on the chain is cancelled, whichever comes
    /// first. Returns `true` when the full duration elapsed, `false`
    /// when the budget tripped. This is what makes repair backoff
    /// interruptible.
    pub fn sleep(&self, dur: Duration) -> bool {
        let wake = Instant::now().checked_add(dur);
        self.inner.wait_until(earliest(wake, self.inner.deadline));
        !self.exhausted()
    }
}

/// A cloneable cancel-only handle over a [`Budget`] node. Everything a
/// long-lived owner needs to stop a subtree — without being able to
/// charge or re-bound it.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A standalone token with no deadline: a server's stop signal,
    /// which `POST /admin/shutdown`, the CLI's stdin watcher and the
    /// server's own shutdown cancel, and which the server's wait and a
    /// cluster worker's heartbeat loop block on.
    pub fn new() -> CancelToken {
        Budget::unbounded().token()
    }

    /// Cancels the underlying budget node and all its descendants.
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// True when the node or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Blocks until the node or an ancestor is cancelled, or until
    /// `timeout` has passed (`None` waits without limit). Returns
    /// [`CancelToken::is_cancelled`]. The node's deadline plays no part.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        self.inner
            .wait_until(timeout.and_then(|t| Instant::now().checked_add(t)));
        self.is_cancelled()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips_on_its_own() {
        let b = Budget::unbounded();
        b.charge(1 << 40);
        assert_eq!(b.check(), Ok(()));
        assert!(!b.exhausted());
    }

    #[test]
    fn deadline_trips_and_remaining_saturates() {
        let b = Budget::deadline_at(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check(), Err(BudgetError::DeadlineExpired));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn child_deadline_is_min_of_parent_and_own() {
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() + Duration::from_secs(60);
        let parent = Budget::deadline_at(near);
        assert_eq!(parent.child_with(Some(far)).deadline(), Some(near));
        let parent = Budget::deadline_at(far);
        assert_eq!(parent.child_with(Some(near)).deadline(), Some(near));
        assert_eq!(parent.child().deadline(), Some(far));
        assert_eq!(Budget::unbounded().child().deadline(), None);
    }

    #[test]
    fn cancelling_a_parent_cancels_descendants_not_vice_versa() {
        let root = Budget::unbounded();
        let mid = root.child();
        let leaf = mid.child();
        mid.cancel();
        assert!(!root.is_cancelled());
        assert!(mid.is_cancelled());
        assert!(leaf.is_cancelled());
        assert_eq!(leaf.check(), Err(BudgetError::Cancelled));
        assert_eq!(root.check(), Ok(()));
    }

    #[test]
    fn sibling_charges_pool_on_the_parent() {
        let parent = Budget::unbounded();
        let a = parent.child();
        let b = parent.child();
        a.charge(60);
        b.charge(60);
        // Each sibling counts its own charges; the parent counts both.
        assert_eq!(a.steps_spent(), 60);
        assert_eq!(b.steps_spent(), 60);
        assert_eq!(parent.steps_spent(), 120);
    }

    #[test]
    fn token_cancel_reaches_the_subtree() {
        let b = Budget::unbounded();
        let t = b.token();
        let leaf = b.child();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(b.is_cancelled());
        assert!(leaf.is_cancelled());
    }

    #[test]
    fn sleep_completes_when_unbothered_and_breaks_on_cancel() {
        let b = Budget::unbounded();
        assert!(b.sleep(Duration::from_millis(5)));

        let c = b.child();
        let t = c.token();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t.cancel();
        });
        let t0 = Instant::now();
        assert!(!c.sleep(Duration::from_secs(30)));
        assert!(t0.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn cancelling_an_ancestor_wakes_descendant_sleeps_and_token_waits() {
        let root = Budget::unbounded();
        let mid = root.child();
        let sleeper = mid.child();
        let waiter = mid.child().token();
        let (started, ready) = std::sync::mpsc::channel();
        let sleeping = {
            let started = started.clone();
            std::thread::spawn(move || {
                started.send(()).unwrap();
                sleeper.sleep(Duration::from_secs(30))
            })
        };
        let waiting = std::thread::spawn(move || {
            started.send(()).unwrap();
            waiter.wait(None)
        });
        ready.recv().unwrap();
        ready.recv().unwrap();
        // Either order of cancel and park must end both waits; the pause
        // makes the parked one the likely case.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        root.cancel();
        assert!(
            !sleeping.join().unwrap(),
            "the sleep must report the cancel"
        );
        assert!(waiting.join().unwrap(), "the wait must report the cancel");
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn sleep_ends_at_the_deadline_and_a_token_wait_at_its_timeout() {
        let t0 = Instant::now();
        let b = Budget::with_timeout(Duration::from_millis(20));
        assert!(!b.sleep(Duration::from_secs(30)));
        assert_eq!(b.check(), Err(BudgetError::DeadlineExpired));
        assert!(!CancelToken::new().wait(Some(Duration::from_millis(5))));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
