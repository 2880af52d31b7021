//! Hierarchical budgets and cooperative cancellation.
//!
//! A [`Budget`] is a node in a tree. Each node carries:
//!
//! * an optional wall-clock **deadline** — pre-minimised against the
//!   parent's at derivation time, so a child can only ever tighten it;
//! * an optional **step budget** — an abstract work limit (the attack
//!   bills simulated test clocks, activity estimation and repair bill
//!   simulated vectors, the selection bills timing probes).
//!   [`Budget::charge`] bills the node *and every ancestor*, which makes
//!   sibling budgets disjoint draws on one shared parent pool;
//! * a **cancel flag** — checking walks the ancestor chain, so
//!   cancelling any node cancels its whole subtree without bookkeeping.
//!
//! Checks are cooperative and cheap (a few relaxed atomic loads plus
//! one `Instant::now()` when a deadline exists); deep loops call
//! [`Budget::exhausted`] at natural step boundaries exactly like they
//! polled their private flags before. The first failed check per node
//! increments one of the `exec.budget.{cancelled,deadline,steps}`
//! counters so cancellation is visible in `/metrics`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`Budget`] refused further work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// This budget, or an ancestor, was explicitly cancelled.
    Cancelled,
    /// The (inherited-minimum) wall-clock deadline has passed.
    DeadlineExpired,
    /// This budget's, or an ancestor's, step allowance is spent.
    StepsExhausted,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Cancelled => f.write_str("cancelled"),
            BudgetError::DeadlineExpired => f.write_str("deadline expired"),
            BudgetError::StepsExhausted => f.write_str("step budget exhausted"),
        }
    }
}

impl std::error::Error for BudgetError {}

#[derive(Debug)]
struct Inner {
    parent: Option<Arc<Inner>>,
    cancelled: AtomicBool,
    /// Effective deadline: already the minimum over this node and all
    /// ancestors (maintained at derivation time).
    deadline: Option<Instant>,
    /// `u64::MAX` means unbounded.
    max_steps: u64,
    steps: AtomicU64,
    /// One-shot latch so each node reports its trip reason only once.
    tripped: AtomicBool,
}

impl Inner {
    fn note_trip(&self, err: BudgetError) {
        if !self.tripped.swap(true, Ordering::Relaxed) {
            sttlock_obs::counter(
                match err {
                    BudgetError::Cancelled => "exec.budget.cancelled",
                    BudgetError::DeadlineExpired => "exec.budget.deadline",
                    BudgetError::StepsExhausted => "exec.budget.steps",
                },
                1,
            );
        }
    }
}

/// A deadline + step budget + cancellation cell. Cloning shares the
/// same node; [`Budget::child`]/[`Budget::child_with`] derive a new
/// subordinate node.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Budget {
    fn root(deadline: Option<Instant>, max_steps: Option<u64>) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                parent: None,
                cancelled: AtomicBool::new(false),
                deadline,
                max_steps: max_steps.unwrap_or(u64::MAX),
                steps: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            }),
        }
    }

    /// A budget with no deadline and no step limit — cancellable only.
    pub fn unbounded() -> Budget {
        Budget::root(None, None)
    }

    /// A root budget from explicit limits. `None` means unbounded on
    /// that axis.
    pub fn new(deadline: Option<Instant>, max_steps: Option<u64>) -> Budget {
        Budget::root(deadline, max_steps)
    }

    /// A root budget that expires at `deadline`.
    pub fn deadline_at(deadline: Instant) -> Budget {
        Budget::root(Some(deadline), None)
    }

    /// A root budget that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::root(Some(Instant::now() + timeout), None)
    }

    /// Derives a child inheriting this budget's deadline, with its own
    /// (unbounded) step counter. Charges on the child still bill this
    /// node; cancelling this node cancels the child.
    pub fn child(&self) -> Budget {
        self.child_with(None, None)
    }

    /// Derives a child with additional limits of its own. The child's
    /// effective deadline is `min(parent, own)`; its step cap applies
    /// to work charged through *it* (and its descendants) only, while
    /// every charge also bills this node's pool.
    pub fn child_with(&self, deadline: Option<Instant>, max_steps: Option<u64>) -> Budget {
        let deadline = match (self.inner.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget {
            inner: Arc::new(Inner {
                parent: Some(Arc::clone(&self.inner)),
                cancelled: AtomicBool::new(false),
                deadline,
                max_steps: max_steps.unwrap_or(u64::MAX),
                steps: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            }),
        }
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

    /// Cancels this budget and, transitively, every descendant.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True when this node or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut cur: &Inner = &self.inner;
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

    /// Full cooperative check: cancellation (whole chain), step caps
    /// (each level against its own counter), then the deadline.
    pub fn check(&self) -> Result<(), BudgetError> {
        let mut cur: &Inner = &self.inner;
        loop {
            if cur.cancelled.load(Ordering::Relaxed) {
                self.inner.note_trip(BudgetError::Cancelled);
                return Err(BudgetError::Cancelled);
            }
            if cur.steps.load(Ordering::Relaxed) >= cur.max_steps {
                self.inner.note_trip(BudgetError::StepsExhausted);
                return Err(BudgetError::StepsExhausted);
            }
            match &cur.parent {
                Some(p) => cur = p,
                None => break,
            }
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

    /// Cancel-aware sleep: naps in short slices, waking early if the
    /// budget trips. Returns `true` when the full duration elapsed,
    /// `false` when interrupted. This is what makes repair backoff
    /// interruptible.
    pub fn sleep(&self, dur: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(10);
        let wake = Instant::now() + dur;
        loop {
            if self.exhausted() {
                return false;
            }
            let now = Instant::now();
            if now >= wake {
                return true;
            }
            std::thread::sleep((wake - now).min(SLICE));
        }
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
    /// A standalone token with no deadline or step semantics (the
    /// serve stop flag, the stdin watcher).
    pub fn new() -> CancelToken {
        Budget::unbounded().token()
    }

    /// Cancels the underlying budget node and all its descendants.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True when the node or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut cur: &Inner = &self.inner;
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
    fn step_budget_trips_at_exactly_the_cap() {
        let b = Budget::new(None, Some(100));
        b.charge(99);
        assert_eq!(b.check(), Ok(()));
        b.charge(1);
        assert_eq!(b.check(), Err(BudgetError::StepsExhausted));
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
        assert_eq!(parent.child_with(Some(far), None).deadline(), Some(near));
        let parent = Budget::deadline_at(far);
        assert_eq!(parent.child_with(Some(near), None).deadline(), Some(near));
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
        let parent = Budget::new(None, Some(100));
        let a = parent.child();
        let b = parent.child();
        a.charge(60);
        assert_eq!(b.check(), Ok(()), "sibling b has spent nothing itself");
        b.charge(60);
        // Each sibling is fine by its own (unbounded) cap, but the
        // shared parent pool is now overdrawn — both observe it.
        assert_eq!(parent.steps_spent(), 120);
        assert_eq!(a.check(), Err(BudgetError::StepsExhausted));
        assert_eq!(b.check(), Err(BudgetError::StepsExhausted));
    }

    #[test]
    fn child_step_cap_binds_independently_of_a_rich_parent() {
        let parent = Budget::new(None, Some(1_000_000));
        let child = parent.child_with(None, Some(10));
        child.charge(10);
        assert_eq!(child.check(), Err(BudgetError::StepsExhausted));
        assert_eq!(parent.check(), Ok(()));
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
}
