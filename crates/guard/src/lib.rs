//! Request lifecycle primitives for the WALRUS reproduction.
//!
//! Dependency-free building blocks threaded through the whole pipeline:
//!
//! - [`CancelToken`] — shared atomic cancellation flag; cloning is cheap and
//!   all clones observe a single `cancel()`.
//! - [`Deadline`] — monotonic point in time measured on an injectable
//!   [`Clock`] (immune to wall-clock jumps; deterministic under a
//!   [`TestClock`]).
//! - [`Guard`] — the per-request bundle the hot paths poll between work
//!   chunks. `poll()` is a few atomic loads when armed and almost free when
//!   not, so it is safe to call in inner loops. The guard also carries the
//!   request's optional [`TraceContext`], so every `*_guarded` API
//!   transports observability state without signature changes.
//! - [`Budgets`] — per-request resource ceilings enforced at decode,
//!   extraction, probe, and WAL-append time.
//!
//! The crate's only dependency is `walrus-trace` (itself dependency-free),
//! so every layer — `parallel`, `wavelet`, `birch`, `core`, `cli` — can use
//! it without cycles.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use walrus_trace::{
    monotonic, Clock, MonotonicClock, SharedClock, Span, SpanRecord, TestClock, TraceContext,
    TraceReport,
};

/// Why a guarded computation stopped early.
///
/// Ordered so that `Cancelled` (an explicit caller decision) takes precedence
/// over `DeadlineExceeded` when both are observable in the same poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The request's [`CancelToken`] was cancelled.
    Cancelled,
    /// The request's [`Deadline`] passed.
    DeadlineExceeded,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "request cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// Shared cancellation flag.
///
/// Clones share the flag: cancelling any clone cancels them all. Cancellation
/// is sticky — there is deliberately no `reset`, a token represents one
/// request.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A monotonic deadline on an injectable clock.
///
/// Cloning is cheap (an `Arc` bump); clones observe the same clock, so a
/// deadline built on a [`TestClock`] expires exactly when the test advances
/// time past it — no sleeping, no flakes.
#[derive(Clone, Debug)]
pub struct Deadline {
    at_nanos: u64,
    clock: SharedClock,
}

impl Deadline {
    /// Deadline `timeout` from now on the process monotonic clock.
    pub fn after(timeout: Duration) -> Self {
        Deadline::after_on(monotonic(), timeout)
    }

    /// Deadline `timeout` from now, measured on `clock`.
    pub fn after_on(clock: SharedClock, timeout: Duration) -> Self {
        let timeout = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        let at_nanos = clock.now_nanos().saturating_add(timeout);
        Deadline { at_nanos, clock }
    }

    pub fn expired(&self) -> bool {
        self.clock.now_nanos() >= self.at_nanos
    }

    /// Time left before expiry; zero once expired.
    pub fn remaining(&self) -> Duration {
        Duration::from_nanos(self.at_nanos.saturating_sub(self.clock.now_nanos()))
    }
}

/// Deterministic interrupt source for tests: trips after N successful polls.
#[derive(Debug)]
struct Trip {
    remaining: AtomicUsize,
    kind: Interrupt,
}

/// Per-request guard polled by the hot paths between work chunks.
///
/// A default (`Guard::none()`) guard never trips and its `poll()` is a handful
/// of branches on `None`, so guarded code paths can be used unconditionally.
///
/// The guard is `Clone` and clones share the underlying token/trip state, so a
/// guard can be handed to every worker thread of a parallel stage.
#[derive(Clone, Debug, Default)]
pub struct Guard {
    token: Option<CancelToken>,
    deadline: Option<Deadline>,
    trip: Option<Arc<Trip>>,
    trace: Option<TraceContext>,
}

impl Guard {
    /// A guard that never interrupts.
    pub fn none() -> Self {
        Guard::default()
    }

    /// Guard with a deadline `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Guard::none().deadline(Deadline::after(timeout))
    }

    /// Guard with a deadline `timeout` from now, measured on `clock`.
    pub fn with_timeout_on(clock: SharedClock, timeout: Duration) -> Self {
        Guard::none().deadline(Deadline::after_on(clock, timeout))
    }

    /// Guard tied to a cancellation token.
    pub fn with_token(token: CancelToken) -> Self {
        Guard::none().token(token)
    }

    /// Per-request construction: the shape a server builds for every incoming
    /// request — an optional timeout from "now" (request admission, not
    /// connection accept) on `clock` plus an optional cancellation token
    /// shared with the connection/shutdown machinery. `(None, None)` yields
    /// an unarmed guard, so callers can use this unconditionally. The clock
    /// is the injection point that lets servers and tests drive request
    /// timeouts from a [`TestClock`].
    pub fn for_request_on(
        clock: SharedClock,
        timeout: Option<Duration>,
        token: Option<CancelToken>,
    ) -> Self {
        let mut guard = Guard::none();
        if let Some(timeout) = timeout {
            guard = guard.deadline(Deadline::after_on(clock, timeout));
        }
        if let Some(token) = token {
            guard = guard.token(token);
        }
        guard
    }

    /// Attach (or replace) a deadline.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach (or replace) a cancellation token.
    pub fn token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Deterministic test aid: the guard reports `kind` once `polls` calls to
    /// [`Guard::poll`] have succeeded (across all clones), independent of
    /// wall-clock time. Sticky once tripped.
    pub fn trip_after(mut self, polls: usize, kind: Interrupt) -> Self {
        self.trip = Some(Arc::new(Trip { remaining: AtomicUsize::new(polls), kind }));
        self
    }

    /// Attach (or replace) a per-request trace. Pipeline stages reached
    /// through this guard will record spans and counters into it.
    pub fn tracing(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached trace, if any.
    pub fn trace(&self) -> Option<&TraceContext> {
        self.trace.as_ref()
    }

    /// Open a named span on the attached trace (`None` when untraced).
    ///
    /// Spans must only be opened from the stage's orchestrating thread —
    /// never from parallel workers — so the recorded tree is identical
    /// regardless of thread count; worker clones should carry
    /// [`Guard::without_trace`].
    pub fn span(&self, name: &'static str) -> Option<Span> {
        self.trace.as_ref().map(|t| t.span(name))
    }

    /// A clone that shares every interrupt source but drops the trace:
    /// the guard handed to parallel workers, which must poll but must not
    /// open spans (span order would then depend on thread scheduling).
    pub fn without_trace(&self) -> Guard {
        let mut clone = self.clone();
        clone.trace = None;
        clone
    }

    /// True if any interrupt source is armed; lets callers skip guarded
    /// bookkeeping entirely for plain requests.
    pub fn is_armed(&self) -> bool {
        self.token.is_some() || self.deadline.is_some() || self.trip.is_some()
    }

    /// Check every interrupt source without consuming a trip count.
    ///
    /// Cancellation outranks the deadline so an explicit `cancel()` is never
    /// misreported as a timeout.
    pub fn interrupted(&self) -> Option<Interrupt> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(trip) = &self.trip {
            if trip.remaining.load(Ordering::Acquire) == 0 {
                return Some(trip.kind);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(Interrupt::DeadlineExceeded);
            }
        }
        None
    }

    /// Poll for an interrupt. Hot paths call this between chunks of work;
    /// `Ok(())` means keep going.
    pub fn poll(&self) -> Result<(), Interrupt> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(trip) = &self.trip {
            // Count down; once zero, stay tripped (checked_sub fails at 0 and
            // fetch_update leaves the value unchanged).
            let tripped = trip
                .remaining
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_err();
            if tripped {
                return Err(trip.kind);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Time remaining before the deadline, if one is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.as_ref().map(|d| d.remaining())
    }
}

/// Per-request resource ceilings.
///
/// Defaults are generous production values sized for the ROADMAP north-star
/// workload; `unlimited()` restores pre-guard behaviour for tests and tools
/// that deliberately process huge inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budgets {
    /// Maximum pixels (width × height) a single decoded image may have.
    /// Enforced before raster allocation in the PPM decoder and again at
    /// extraction time.
    pub max_decoded_pixels: usize,
    /// Maximum regions BIRCH pre-clustering may produce for one image.
    pub max_regions_per_image: usize,
    /// Maximum total R*-tree candidate hits a single query may fan out to
    /// scoring (summed over all query-region probes, before dedup).
    pub max_index_candidates: usize,
    /// Maximum encoded size of one WAL record (header + payload), bytes.
    pub max_wal_record_bytes: usize,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            // 64M pixels ≈ a 8192×8192 image; far above the paper's corpus
            // but small enough to stop decompression bombs.
            max_decoded_pixels: 64 << 20,
            max_regions_per_image: 4096,
            max_index_candidates: 1 << 20,
            max_wal_record_bytes: 256 << 20,
        }
    }
}

impl Budgets {
    /// No limits — pre-guard behaviour.
    pub fn unlimited() -> Self {
        Budgets {
            max_decoded_pixels: usize::MAX,
            max_regions_per_image: usize::MAX,
            max_index_candidates: usize::MAX,
            max_wal_record_bytes: usize::MAX,
        }
    }

    /// `Err((used, limit))` when `used` exceeds the given limit.
    pub fn check(used: usize, limit: usize) -> Result<(), (usize, usize)> {
        if used > limit {
            Err((used, limit))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_guard_never_trips() {
        let guard = Guard::none();
        assert!(!guard.is_armed());
        for _ in 0..10_000 {
            assert_eq!(guard.poll(), Ok(()));
        }
        assert_eq!(guard.interrupted(), None);
        assert_eq!(guard.remaining(), None);
    }

    #[test]
    fn for_request_combines_sources() {
        let request = |timeout, token| Guard::for_request_on(monotonic(), timeout, token);
        assert!(!request(None, None).is_armed());

        let timed = request(Some(Duration::ZERO), None);
        assert_eq!(timed.poll(), Err(Interrupt::DeadlineExceeded));

        let token = CancelToken::new();
        let both = request(Some(Duration::from_secs(3600)), Some(token.clone()));
        assert_eq!(both.poll(), Ok(()));
        token.cancel();
        assert_eq!(both.poll(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let token = CancelToken::new();
        let guard = Guard::with_token(token.clone());
        let clone = guard.clone();
        assert_eq!(guard.poll(), Ok(()));
        token.cancel();
        assert_eq!(guard.poll(), Err(Interrupt::Cancelled));
        assert_eq!(clone.poll(), Err(Interrupt::Cancelled));
        assert_eq!(clone.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_expires() {
        let guard = Guard::with_timeout(Duration::ZERO);
        assert!(guard.is_armed());
        assert_eq!(guard.poll(), Err(Interrupt::DeadlineExceeded));
        assert_eq!(guard.interrupted(), Some(Interrupt::DeadlineExceeded));
        assert_eq!(guard.remaining(), Some(Duration::ZERO));

        let far = Guard::with_timeout(Duration::from_secs(3600));
        assert_eq!(far.poll(), Ok(()));
        assert!(far.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::with_token(token).deadline(Deadline::after(Duration::ZERO));
        assert_eq!(guard.poll(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn trip_after_is_deterministic_and_sticky() {
        let guard = Guard::none().trip_after(3, Interrupt::DeadlineExceeded);
        assert_eq!(guard.poll(), Ok(()));
        assert_eq!(guard.poll(), Ok(()));
        assert_eq!(guard.poll(), Ok(()));
        assert_eq!(guard.poll(), Err(Interrupt::DeadlineExceeded));
        assert_eq!(guard.poll(), Err(Interrupt::DeadlineExceeded));
        assert_eq!(guard.interrupted(), Some(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn trip_counts_shared_across_clones() {
        let guard = Guard::none().trip_after(2, Interrupt::Cancelled);
        let clone = guard.clone();
        assert_eq!(guard.poll(), Ok(()));
        assert_eq!(clone.poll(), Ok(()));
        assert_eq!(guard.poll(), Err(Interrupt::Cancelled));
        assert_eq!(clone.poll(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_on_test_clock_expires_exactly_when_advanced() {
        let clock = TestClock::new();
        let guard = Guard::with_timeout_on(clock.clone(), Duration::from_millis(5));
        assert_eq!(guard.poll(), Ok(()));
        assert_eq!(guard.remaining(), Some(Duration::from_millis(5)));

        clock.advance(Duration::from_millis(4));
        assert_eq!(guard.poll(), Ok(()));
        assert_eq!(guard.remaining(), Some(Duration::from_millis(1)));

        clock.advance(Duration::from_millis(1));
        assert_eq!(guard.poll(), Err(Interrupt::DeadlineExceeded));
        assert_eq!(guard.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn guard_span_records_only_when_traced() {
        assert!(Guard::none().span("query").is_none());

        let trace = TraceContext::new(TestClock::new());
        let guard = Guard::none().tracing(trace.clone());
        {
            let span = guard.span("query").expect("traced guard opens spans");
            span.add("hits", 3);
        }
        assert!(guard.without_trace().span("query").is_none());
        let report = trace.report();
        assert_eq!(report.counter("query", "hits"), Some(3));
    }

    #[test]
    fn budgets_defaults_and_check() {
        let budgets = Budgets::default();
        assert_eq!(budgets.max_decoded_pixels, 64 << 20);
        assert!(Budgets::check(10, 10).is_ok());
        assert_eq!(Budgets::check(11, 10), Err((11, 10)));
        let unlimited = Budgets::unlimited();
        assert!(Budgets::check(usize::MAX, unlimited.max_decoded_pixels).is_ok());
    }
}
