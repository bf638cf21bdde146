//! Plain-text service counters and latency histograms.
//!
//! No external metrics stack exists in this environment, so the server keeps
//! a small set of atomics plus lock-free [`Histogram`]s and renders them in
//! the Prometheus text-exposition style (`name value` lines) at
//! `GET /metrics`. Every latency, per request and per stage, is that one
//! fixed-bucket type (DESIGN.md §12): recording is a few relaxed atomic
//! adds, memory is constant, and a quantile is the upper bound of the
//! power-of-two bucket holding the nearest-rank sample since start.
//!
//! Per-pipeline-stage timings come from the request [`TraceReport`]s: each
//! traced request folds its stage durations into a fixed set of histograms,
//! so `/metrics` can answer stage-level p50/p95/p99 without retaining
//! per-request data. Every declared stage is rendered even before its first
//! sample — scrapers can rely on the full set being present from the first
//! scrape.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use walrus_trace::{monotonic, Histogram, SharedClock, TraceReport};

/// Pipeline stages with a dedicated duration histogram. Every name here is
/// rendered in `/metrics` whether or not it has samples yet, so scrape-side
/// dashboards and the CI invariant checker can rely on the complete set.
/// Order matches the pipeline: query stages first, then the ingest-only WAL
/// stage, then the serving-layer cache stage (a cache-hit query spends its
/// whole life there — it is *not* folded into `rstar_probe` or any other
/// engine stage it never ran).
pub const STAGE_NAMES: [&str; 7] =
    ["decode", "wavelet", "birch", "rstar_probe", "match", "wal_append", "cache"];

/// One lock-free duration histogram per declared pipeline stage.
#[derive(Debug, Default)]
pub struct StageMetrics {
    histograms: [Histogram; STAGE_NAMES.len()],
}

impl StageMetrics {
    /// Folds every stage duration of `report` into the matching histogram.
    /// Spans whose name is not in [`STAGE_NAMES`] (the `query`/`ingest`
    /// roots, future stages) are skipped — the roots are covered by the
    /// request latency histograms already.
    pub fn record_report(&self, report: &TraceReport) {
        for (name, micros) in report.stage_durations_micros() {
            if let Some(i) = STAGE_NAMES.iter().position(|s| *s == name) {
                self.histograms[i].record_micros(micros);
            }
        }
    }

    /// The histogram for `stage`, if declared.
    pub fn histogram(&self, stage: &str) -> Option<&Histogram> {
        STAGE_NAMES.iter().position(|s| *s == stage).map(|i| &self.histograms[i])
    }

    fn render_into(&self, out: &mut String) {
        for (name, h) in STAGE_NAMES.iter().zip(&self.histograms) {
            out.push_str(&format!("walrus_stage_{name}_count {}\n", h.count()));
            out.push_str(&format!("walrus_stage_{name}_sum_us {}\n", h.sum_micros()));
            push_quantiles(out, &format!("walrus_stage_{name}"), h);
        }
    }
}

/// `{prefix}_p50_us`/`_p95_us`/`_p99_us` lines of `h` (0 while empty).
fn push_quantiles(out: &mut String, prefix: &str, h: &Histogram) {
    for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        out.push_str(&format!("{prefix}_{label}_us {}\n", h.quantile_micros(q).unwrap_or(0)));
    }
}

/// Bounded ring of rendered trace reports, keyed by request id, behind
/// `GET /trace/{id}`. Old traces are evicted FIFO; memory stays bounded no
/// matter how many requests flow through.
#[derive(Debug)]
pub struct TraceStore {
    ring: Mutex<VecDeque<(u64, String)>>,
    capacity: usize,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new(Self::DEFAULT_CAPACITY)
    }
}

impl TraceStore {
    /// Traces retained by default.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A store retaining the last `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceStore { ring: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// Stores the rendered trace of request `id`, evicting the oldest entry
    /// when full.
    pub fn insert(&self, id: u64, rendered: String) {
        let mut ring = self.ring.lock().expect("trace ring lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((id, rendered));
    }

    /// The rendered trace of request `id`, if still retained.
    pub fn get(&self, id: u64) -> Option<String> {
        let ring = self.ring.lock().expect("trace ring lock");
        ring.iter().rev().find(|(rid, _)| *rid == id).map(|(_, t)| t.clone())
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring lock").len()
    }

    /// True when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII in-flight marker: increments `walrus_in_flight` on construction and
/// decrements on drop, so the gauge covers the *entire* window in which a
/// response is being produced and written — including error responses and
/// unwinding — and can never leak an increment or under-report during
/// graceful drain.
#[derive(Debug)]
pub struct InFlight<'a>(&'a Metrics);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// All counters the server exposes. One instance per server, shared across
/// workers; everything is lock-free.
#[derive(Debug)]
pub struct Metrics {
    clock: SharedClock,
    started_nanos: u64,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Connections bounced with 503 because the worker queue was full.
    pub rejected_total: AtomicU64,
    /// Requests fully parsed and routed.
    pub requests_total: AtomicU64,
    /// Responses by class.
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    pub responses_5xx: AtomicU64,
    /// Queries answered `206`/`Partial` because their deadline expired.
    pub partial_total: AtomicU64,
    /// Queries answered `206`/`Degraded` because shards were quarantined.
    pub degraded_total: AtomicU64,
    /// Requests currently being handled (gauge).
    pub in_flight: AtomicU64,
    /// `POST /ingest` requests and images ingested through them.
    pub ingest_requests_total: AtomicU64,
    pub ingest_images_total: AtomicU64,
    /// `POST /query` requests.
    pub query_requests_total: AtomicU64,
    /// Checkpoints taken via `POST /admin/checkpoint` or shutdown.
    pub checkpoints_total: AtomicU64,
    /// Shard-layout migrations committed via `POST /admin/rebalance`.
    pub rebalances_total: AtomicU64,
    /// Index candidates rejected by the binary-signature prefilter before
    /// any exact geometry test, summed over traced requests.
    pub signatures_rejected_total: AtomicU64,
    /// Index candidates that reached the exact geometry test, summed over
    /// traced requests (the prefilter's denominator).
    pub candidates_exact_total: AtomicU64,
    /// Query-result cache outcomes: hits served from memory, misses that
    /// ran the engine, entries evicted by LRU pressure, and entries
    /// invalidated because the store's content stamp moved on.
    pub cache_hits_total: AtomicU64,
    pub cache_misses_total: AtomicU64,
    pub cache_evictions_total: AtomicU64,
    pub cache_invalidations_total: AtomicU64,
    /// Query / ingest handler latencies.
    pub query_latency: Histogram,
    pub ingest_latency: Histogram,
    /// Per-pipeline-stage duration histograms, fed by request traces.
    pub stages: StageMetrics,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::with_clock(monotonic())
    }
}

impl Metrics {
    /// Metrics timed on an explicit clock — uptime and (via the caller)
    /// request latencies become deterministic under a
    /// [`TestClock`](walrus_trace::TestClock).
    pub fn with_clock(clock: SharedClock) -> Self {
        Metrics {
            started_nanos: clock.now_nanos(),
            clock,
            connections_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            partial_total: AtomicU64::new(0),
            degraded_total: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            ingest_requests_total: AtomicU64::new(0),
            ingest_images_total: AtomicU64::new(0),
            query_requests_total: AtomicU64::new(0),
            checkpoints_total: AtomicU64::new(0),
            rebalances_total: AtomicU64::new(0),
            signatures_rejected_total: AtomicU64::new(0),
            candidates_exact_total: AtomicU64::new(0),
            cache_hits_total: AtomicU64::new(0),
            cache_misses_total: AtomicU64::new(0),
            cache_evictions_total: AtomicU64::new(0),
            cache_invalidations_total: AtomicU64::new(0),
            query_latency: Histogram::default(),
            ingest_latency: Histogram::default(),
            stages: StageMetrics::default(),
        }
    }

    /// The clock this instance measures on.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Marks one request as in flight for the lifetime of the returned
    /// guard.
    pub fn begin_request(&self) -> InFlight<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlight(self)
    }

    /// Classifies a response status into the 2xx/4xx/5xx counters.
    pub fn count_response(&self, status: u16) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Total error responses (4xx + 5xx).
    pub fn errors_total(&self) -> u64 {
        self.responses_4xx.load(Ordering::Relaxed) + self.responses_5xx.load(Ordering::Relaxed)
    }

    /// Renders the plain-text exposition. `gauges` carries point-in-time
    /// values owned by the caller (store size, pool shape, ...) as
    /// `(name, value)` pairs appended verbatim.
    pub fn render(&self, gauges: &[(&str, u64)]) -> String {
        self.render_with(gauges, self.in_flight.load(Ordering::Relaxed))
    }

    /// [`render`](Metrics::render) for a scrape served over HTTP:
    /// identical, except `walrus_in_flight` excludes the scrape request
    /// itself (which holds an [`InFlight`] marker while this runs), so an
    /// otherwise-idle server reports 0 rather than perpetually observing
    /// its own observer.
    pub fn render_for_scrape(&self, gauges: &[(&str, u64)]) -> String {
        self.render_with(gauges, self.in_flight.load(Ordering::Relaxed).saturating_sub(1))
    }

    fn render_with(&self, gauges: &[(&str, u64)], in_flight: u64) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::with_capacity(1024);
        out.push_str("walrus_up 1\n");
        let uptime_nanos = self.clock.now_nanos().saturating_sub(self.started_nanos);
        out.push_str(&format!(
            "walrus_uptime_seconds {}\n",
            Duration::from_nanos(uptime_nanos).as_secs()
        ));
        out.push_str(&format!("walrus_connections_total {}\n", load(&self.connections_total)));
        out.push_str(&format!("walrus_rejected_total {}\n", load(&self.rejected_total)));
        out.push_str(&format!("walrus_requests_total {}\n", load(&self.requests_total)));
        out.push_str(&format!("walrus_responses_2xx_total {}\n", load(&self.responses_2xx)));
        out.push_str(&format!("walrus_responses_4xx_total {}\n", load(&self.responses_4xx)));
        out.push_str(&format!("walrus_responses_5xx_total {}\n", load(&self.responses_5xx)));
        out.push_str(&format!("walrus_errors_total {}\n", self.errors_total()));
        out.push_str(&format!("walrus_partial_results_total {}\n", load(&self.partial_total)));
        out.push_str(&format!("walrus_degraded_results_total {}\n", load(&self.degraded_total)));
        out.push_str(&format!("walrus_in_flight {in_flight}\n"));
        out.push_str(&format!(
            "walrus_ingest_requests_total {}\n",
            load(&self.ingest_requests_total)
        ));
        out.push_str(&format!(
            "walrus_ingest_images_total {}\n",
            load(&self.ingest_images_total)
        ));
        out.push_str(&format!(
            "walrus_query_requests_total {}\n",
            load(&self.query_requests_total)
        ));
        out.push_str(&format!("walrus_checkpoints_total {}\n", load(&self.checkpoints_total)));
        out.push_str(&format!("walrus_rebalances_total {}\n", load(&self.rebalances_total)));
        out.push_str(&format!(
            "walrus_signatures_rejected_total {}\n",
            load(&self.signatures_rejected_total)
        ));
        out.push_str(&format!(
            "walrus_candidates_exact_total {}\n",
            load(&self.candidates_exact_total)
        ));
        out.push_str(&format!("walrus_cache_hits_total {}\n", load(&self.cache_hits_total)));
        out.push_str(&format!("walrus_cache_misses_total {}\n", load(&self.cache_misses_total)));
        out.push_str(&format!(
            "walrus_cache_evictions_total {}\n",
            load(&self.cache_evictions_total)
        ));
        out.push_str(&format!(
            "walrus_cache_invalidations_total {}\n",
            load(&self.cache_invalidations_total)
        ));
        for (h, what) in [(&self.query_latency, "query"), (&self.ingest_latency, "ingest")] {
            // Rendered from the first sample on; the stage lines are always there.
            if h.count() > 0 {
                push_quantiles(&mut out, &format!("walrus_{what}_latency"), h);
                out.push_str(&format!("walrus_{what}_latency_samples {}\n", h.count()));
            }
        }
        self.stages.render_into(&mut out);
        for (name, value) in gauges {
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_counters_and_gauges() {
        let metrics = Metrics::default();
        metrics.count_response(200);
        metrics.count_response(404);
        metrics.count_response(500);
        metrics.query_latency.record(Duration::from_micros(123));
        let text = metrics.render(&[("walrus_images", 7)]);
        assert!(text.contains("walrus_up 1\n"));
        assert!(text.contains("walrus_requests_total 3\n"));
        assert!(text.contains("walrus_responses_4xx_total 1\n"));
        assert!(text.contains("walrus_errors_total 2\n"));
        // 123 µs reports as the upper bound of its bucket, [64, 128).
        assert!(text.contains("walrus_query_latency_p50_us 127\n"));
        assert!(text.contains("walrus_query_latency_samples 1\n"));
        assert!(!text.contains("walrus_ingest_latency"), "no ingest sample yet: {text}");
        assert!(text.contains("walrus_images 7\n"));
    }

    #[test]
    fn every_stage_histogram_renders_even_when_empty() {
        let text = Metrics::default().render(&[]);
        for stage in STAGE_NAMES {
            assert!(text.contains(&format!("walrus_stage_{stage}_count 0\n")), "{text}");
            assert!(text.contains(&format!("walrus_stage_{stage}_p99_us 0\n")), "{text}");
        }
    }

    #[test]
    fn stage_metrics_fold_trace_reports() {
        use walrus_trace::{TestClock, TraceContext};
        let clock = TestClock::new();
        let ctx = TraceContext::new(clock.clone());
        {
            let _root = ctx.span("query");
            let decode = ctx.span("decode");
            clock.advance(Duration::from_micros(100));
            drop(decode);
            let _unknown = ctx.span("not_a_stage");
        }
        let metrics = Metrics::default();
        metrics.stages.record_report(&ctx.report());
        let h = metrics.stages.histogram("decode").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_micros(), 100);
        // Root spans and unknown names are not stage samples.
        for stage in STAGE_NAMES.iter().filter(|s| **s != "decode") {
            assert_eq!(metrics.stages.histogram(stage).unwrap().count(), 0);
        }
    }

    #[test]
    fn uptime_follows_injected_clock() {
        use walrus_trace::TestClock;
        let clock = TestClock::new();
        let metrics = Metrics::with_clock(clock.clone());
        assert!(metrics.render(&[]).contains("walrus_uptime_seconds 0\n"));
        clock.advance(Duration::from_secs(42));
        assert!(metrics.render(&[]).contains("walrus_uptime_seconds 42\n"));
    }

    #[test]
    fn trace_store_evicts_fifo_and_finds_by_id() {
        let store = TraceStore::new(2);
        store.insert(1, "one".into());
        store.insert(2, "two".into());
        store.insert(3, "three".into());
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2).as_deref(), Some("two"));
        assert_eq!(store.get(3).as_deref(), Some("three"));
    }

    #[test]
    fn in_flight_guard_balances_on_all_paths() {
        let metrics = Metrics::default();
        {
            let _a = metrics.begin_request();
            let _b = metrics.begin_request();
            assert_eq!(metrics.in_flight.load(Ordering::Acquire), 2);
        }
        assert_eq!(metrics.in_flight.load(Ordering::Acquire), 0);
        // Unwinding also releases the marker.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = metrics.begin_request();
            panic!("boom");
        }));
        assert!(caught.is_err());
        assert_eq!(metrics.in_flight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn scrape_render_excludes_the_scrape_itself() {
        let metrics = Metrics::default();
        // Idle server, scrape in progress: raw gauge 1, scrape reports 0.
        let scrape = metrics.begin_request();
        assert!(metrics.render(&[]).contains("walrus_in_flight 1\n"));
        assert!(metrics.render_for_scrape(&[]).contains("walrus_in_flight 0\n"));
        // One genuinely concurrent request is still visible to the scrape.
        let _other = metrics.begin_request();
        assert!(metrics.render_for_scrape(&[]).contains("walrus_in_flight 1\n"));
        drop(scrape);
        // Outside any request, the saturating exclusion cannot underflow.
        drop(_other);
        assert!(metrics.render_for_scrape(&[]).contains("walrus_in_flight 0\n"));
    }
}
