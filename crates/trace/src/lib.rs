//! # walrus-trace
//!
//! Dependency-free observability primitives for the WALRUS engine:
//!
//! * [`Clock`] — an injectable monotonic time source with a real
//!   implementation ([`MonotonicClock`], shared via [`monotonic()`]) and a
//!   deterministic [`TestClock`] that moves only when a test advances it,
//!   so deadline/latency/percentile tests run in zero wall time.
//! * [`TraceContext`] / [`Span`] — per-request span trees with counters,
//!   opened only by the orchestrating thread so the recorded tree is
//!   bit-identical at every worker-thread count.
//! * [`Histogram`] — a lock-free fixed-bucket (powers-of-two microseconds)
//!   latency histogram with commutative/associative merge and nearest-rank
//!   quantiles, for per-stage aggregation in the server's `/metrics`.
//!
//! This crate sits below `walrus-guard` in the dependency graph and
//! deliberately has no dependencies of its own.

mod clock;
mod histogram;
mod span;

pub use clock::{monotonic, Clock, MonotonicClock, SharedClock, TestClock};
pub use histogram::{bucket_bound_micros, Histogram, HISTOGRAM_BUCKETS};
pub use span::{Span, SpanRecord, TraceContext, TraceReport};
