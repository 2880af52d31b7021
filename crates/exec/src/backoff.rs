//! Capped exponential backoff schedules.
//!
//! The retry loops in this stack (the cluster coordinator re-dispatching
//! cells after a worker dies, a worker re-registering after its
//! coordinator restarts, the repair loop re-programming faulty LUTs)
//! all want the same delay shape: start small,
//! double per consecutive failure, clamp at a ceiling so a long outage
//! never grows the wait unboundedly. [`Backoff`] is that schedule as a
//! value — deterministic (no jitter, so tests can assert the exact
//! delays) and side-effect free; callers pair it with a cancel-aware
//! [`crate::Budget::sleep`] so a shutdown interrupts the wait.

use std::time::Duration;

/// A capped exponential backoff schedule.
///
/// `delay(0)` is the base; each subsequent attempt doubles it until the
/// cap, and no delay ever exceeds the cap (a cap below the base makes
/// the schedule a constant cap). The schedule itself is stateless —
/// callers track the attempt count, which lets a success reset the
/// count without touching this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
}

impl Backoff {
    /// A schedule starting at `base` and clamped at `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap }
    }

    /// The delay before retry number `attempt` (0-based): `base << attempt`,
    /// saturating, clamped at the cap.
    pub fn delay(&self, attempt: u32) -> Duration {
        let doubled = self
            .base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.cap);
        doubled.min(self.cap)
    }
}

impl Default for Backoff {
    /// 50 ms doubling to a 2 s ceiling — snappy enough for in-process
    /// tests, bounded enough for real outages.
    fn default() -> Backoff {
        Backoff::new(Duration::from_millis(50), Duration::from_secs(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_doubles_then_clamps() {
        let b = Backoff::new(Duration::from_millis(100), Duration::from_secs(1));
        assert_eq!(b.delay(0), Duration::from_millis(100));
        assert_eq!(b.delay(1), Duration::from_millis(200));
        assert_eq!(b.delay(2), Duration::from_millis(400));
        assert_eq!(b.delay(3), Duration::from_millis(800));
        assert_eq!(b.delay(4), Duration::from_secs(1), "clamped");
        assert_eq!(b.delay(40), Duration::from_secs(1), "still clamped");
        assert_eq!(b.delay(u32::MAX), Duration::from_secs(1), "no overflow");
        // A base whose first doubling already overflows `Duration`
        // clamps at the cap instead of panicking in the multiply.
        let cap = Duration::from_secs(60);
        let huge = Backoff::new(Duration::MAX / 2, cap);
        for attempt in 0..64 {
            assert_eq!(huge.delay(attempt), cap, "attempt {attempt}");
        }
    }

    #[test]
    fn a_cap_below_the_base_degrades_to_a_constant_schedule() {
        let b = Backoff::new(Duration::from_secs(1), Duration::from_millis(1));
        assert_eq!(b.delay(0), Duration::from_millis(1));
        assert_eq!(b.delay(9), Duration::from_millis(1));
    }
}
