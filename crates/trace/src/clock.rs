//! Injectable time sources.
//!
//! Everything in the workspace that asks "what time is it?" goes through
//! the [`Clock`] trait so tests can substitute a [`TestClock`] and become
//! sleep-free and exact. Production code uses [`monotonic()`], a
//! process-wide [`MonotonicClock`] anchored at first use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic time source.
///
/// `now_nanos` is nanoseconds since an arbitrary (per-clock) epoch; only
/// differences are meaningful. Implementations must be monotone
/// non-decreasing.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's epoch.
    fn now_nanos(&self) -> u64;
}

/// Shared handle to a clock; cheap to clone and store in request state.
pub type SharedClock = Arc<dyn Clock>;

/// The real monotonic clock, anchored at a process-global `Instant` taken
/// the first time any `MonotonicClock` is read. All instances share the
/// anchor, so nanos from different handles are directly comparable.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        anchor().elapsed().as_nanos() as u64
    }
}

/// The process-wide shared real clock.
pub fn monotonic() -> SharedClock {
    static SHARED: OnceLock<SharedClock> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(MonotonicClock)))
}

/// A deterministic clock for tests: time moves only when the test says so,
/// so code that polls a deadline runs in zero wall time while still
/// observing the exact durations it asked for.
#[derive(Debug, Default)]
pub struct TestClock {
    nanos: AtomicU64,
}

impl TestClock {
    /// A fresh clock at t=0, ready to be shared as a [`SharedClock`].
    pub fn new() -> Arc<TestClock> {
        Arc::new(TestClock::default())
    }

    /// Move time forward by `d`.
    pub fn advance(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Time elapsed since t=0.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

impl Clock for TestClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = monotonic();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn test_clock_is_deterministic() {
        let c = TestClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now_nanos(), 5_000_000);
        c.advance(Duration::from_micros(3));
        assert_eq!(c.elapsed(), Duration::from_micros(5003));
    }
}
