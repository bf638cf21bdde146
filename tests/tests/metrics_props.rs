//! Property tests for the one observability primitive: the fixed-bucket
//! [`Histogram`] behind every latency series on `/metrics` — per-stage and
//! per-request alike.
//!
//! Written with a small in-file seeded PRNG rather than `proptest` so the
//! cases are fully deterministic, shrink-free, and runnable in environments
//! where the external dev-dependencies are unavailable.

use std::time::Duration;

use walrus_server::Metrics;
use walrus_trace::{bucket_bound_micros, Histogram, HISTOGRAM_BUCKETS};

/// SplitMix64: tiny, deterministic, well-distributed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Values spanning many orders of magnitude (so every histogram bucket
    /// range gets exercised): 2^[0,40) scaled by a small factor.
    fn wide(&mut self) -> u64 {
        let exp = self.below(40);
        let base = 1u64 << exp;
        base + self.below(base.max(1))
    }
}

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::default();
    for &v in values {
        h.record_micros(v);
    }
    h
}

#[test]
fn bucket_bounds_are_monotone_and_exhaustive() {
    // Bounds strictly increase, so cumulative bucket walks terminate at a
    // unique quantile; the last bucket absorbs everything.
    let mut prev = bucket_bound_micros(0);
    assert_eq!(prev, 0);
    for i in 1..HISTOGRAM_BUCKETS {
        let bound = bucket_bound_micros(i);
        assert!(bound > prev, "bucket {i} bound {bound} <= {prev}");
        prev = bound;
    }
    assert_eq!(bucket_bound_micros(HISTOGRAM_BUCKETS - 1), u64::MAX);
}

#[test]
fn count_and_sum_are_exact_for_random_samples() {
    let mut rng = Rng(0xA11CE);
    for _ in 0..20 {
        let n = 1 + rng.below(300) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.wide()).collect();
        let h = hist_of(&values);
        assert_eq!(h.count(), n as u64);
        assert_eq!(h.sum_micros(), values.iter().sum::<u64>());
        assert_eq!(h.snapshot().iter().sum::<u64>(), n as u64);
    }
}

#[test]
fn merge_is_commutative_and_associative() {
    let mut rng = Rng(0xBEEF);
    for _ in 0..10 {
        let mk = |rng: &mut Rng| -> Vec<u64> {
            let n = rng.below(100) as usize;
            (0..n).map(|_| rng.wide()).collect()
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));

        // (a + b) vs (b + a).
        let ab = hist_of(&a);
        ab.merge_from(&hist_of(&b));
        let ba = hist_of(&b);
        ba.merge_from(&hist_of(&a));
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.sum_micros(), ba.sum_micros());

        // ((a + b) + c) vs (a + (b + c)).
        let ab_c = hist_of(&a);
        ab_c.merge_from(&hist_of(&b));
        ab_c.merge_from(&hist_of(&c));
        let bc = hist_of(&b);
        bc.merge_from(&hist_of(&c));
        let a_bc = hist_of(&a);
        a_bc.merge_from(&bc);
        assert_eq!(ab_c.snapshot(), a_bc.snapshot());
        assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);

        // Merging is bucket-wise, so every quantile of the merge matches
        // between the two association orders.
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ab_c.quantile_micros(q), a_bc.quantile_micros(q));
        }
    }
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut rng = Rng(0xCAFE);
    for _ in 0..20 {
        let n = 1 + rng.below(500) as usize;
        let h = hist_of(&(0..n).map(|_| rng.wide()).collect::<Vec<_>>());
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile_micros(q).expect("non-empty histogram");
            assert!(v >= prev, "quantile({q}) = {v} < quantile at lower q = {prev}");
            prev = v;
        }
    }
}

/// The histogram quantile answers the inclusive upper bound of the bucket
/// holding the true nearest-rank sample: exact for values of the form
/// 2^k - 1 (and 0), otherwise within one power of two above the truth.
/// Only holds below the overflow bucket, whose bound is u64::MAX.
/// `sorted` is the ascending sample list the estimate was taken over.
fn assert_brackets_nearest_rank(sorted: &[u64], q: f64, est: u64) {
    let n = sorted.len();
    let truth = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
    assert!(est >= truth, "q={q}: estimate {est} below true {truth}");
    assert!(
        est <= truth.saturating_mul(2).max(1),
        "q={q}: estimate {est} more than a bucket above true {truth}"
    );
}

#[test]
fn quantile_brackets_the_true_nearest_rank_value() {
    let cap = bucket_bound_micros(HISTOGRAM_BUCKETS - 2);
    let mut rng = Rng(0xD15C0);
    for _ in 0..20 {
        let n = 1 + rng.below(200) as usize;
        let mut values: Vec<u64> = (0..n).map(|_| rng.wide().min(cap)).collect();
        let h = hist_of(&values);
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_brackets_nearest_rank(&values, q, h.quantile_micros(q).unwrap());
        }
    }
}

#[test]
fn bucket_boundary_values_are_exact() {
    // 0 and every 2^k - 1 are bucket upper bounds, so a histogram of such
    // values reproduces them exactly at the matching quantiles.
    let values: Vec<u64> = std::iter::once(0).chain((1..20).map(|k| (1u64 << k) - 1)).collect();
    let h = hist_of(&values);
    for (i, &v) in values.iter().enumerate() {
        // Mid-rank q avoids float round-off at exact rank boundaries:
        // ceil(q * n) = i + 1 for q = (i + 0.5) / n.
        let q = (i as f64 + 0.5) / values.len() as f64;
        assert_eq!(h.quantile_micros(q), Some(v), "boundary value {v} at q={q}");
    }
}

#[test]
fn empty_and_single_sample_edges() {
    let h = Histogram::default();
    assert_eq!(h.count(), 0);
    assert_eq!(h.quantile_micros(0.5), None);
    assert_eq!(h.quantile_micros(1.0), None);

    h.record_micros(7);
    for q in [0.0, 0.001, 0.5, 1.0] {
        assert_eq!(h.quantile_micros(q), Some(7), "single-sample q={q}");
    }

    // Zero is representable exactly (bucket 0).
    let z = Histogram::default();
    z.record_micros(0);
    assert_eq!(z.quantile_micros(0.5), Some(0));
    assert_eq!(z.sum_micros(), 0);
}

#[test]
fn overflow_values_land_in_the_last_bucket() {
    let h = Histogram::default();
    h.record_micros(u64::MAX);
    h.record_micros(1u64 << 60);
    assert_eq!(h.count(), 2);
    let snap = h.snapshot();
    assert_eq!(snap[HISTOGRAM_BUCKETS - 1], 2);
    assert_eq!(h.quantile_micros(1.0), Some(u64::MAX));
}

#[test]
fn rendered_request_latencies_are_ordered_bracketed_and_counted() {
    // What `/metrics` prints for the request-level latencies is the same
    // estimator: p50 <= p95 <= p99, each within its power-of-two bucket of
    // the true nearest-rank sample over *every* recording (no window), and
    // `_samples` is the uncapped number of recordings.
    let mut rng = Rng(0x5EED);
    for round in 0..10 {
        let metrics = Metrics::default();
        let n = 1 + rng.below(2200) as usize;
        let mut sorted: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        for &us in &sorted {
            metrics.query_latency.record(Duration::from_micros(us));
        }
        sorted.sort_unstable();
        let text = metrics.render(&[]);
        let line = |name: &str| -> u64 {
            let prefix = format!("walrus_query_latency_{name} ");
            let value = text.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
            value.unwrap_or_else(|| panic!("round {round}: no {prefix}line")).parse().unwrap()
        };
        let (p50, p95, p99) = (line("p50_us"), line("p95_us"), line("p99_us"));
        assert!(p50 <= p95 && p95 <= p99, "round {round}: {p50} {p95} {p99}");
        for (q, est) in [(0.50, p50), (0.95, p95), (0.99, p99)] {
            assert_brackets_nearest_rank(&sorted, q, est);
        }
        assert_eq!(line("samples"), n as u64, "round {round}");
    }
}
