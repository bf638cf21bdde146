//! Binary-signature prefilter: admissibility and bit-identity.
//!
//! The quantized 128-bit region signature is a *lossy* summary, so the only
//! thing that makes it safe is the lower-bound guarantee: a popcount
//! rejection must prove the exact test could not have matched. These tests
//! pin that guarantee from two sides:
//!
//! 1. property tests: a random region/query pair rejected by the code can
//!    never pass the exact centroid (L2) or bbox (rect) test;
//! 2. seeded sweeps: rankings are bit-identical with the prefilter on and
//!    off, across thread counts and shard counts.

use std::sync::Arc;

use proptest::prelude::*;
use walrus_core::bitmap::RegionBitmap;
use walrus_core::storage::FaultIo;
use walrus_core::{
    Guard, ImageDatabase, QueryOutcome, Region, ShardedStore, TestClock, TraceContext,
    WalrusParams,
};
use walrus_imagery::{ColorSpace, Image};
use walrus_wavelet::sliding::l2_distance;
use walrus_wavelet::{QueryCode, SlidingParams};

/// Slack the engine adds to the quantization interval on top of `ε` (must
/// cover f32 rounding and the BIRCH centroid-vs-bbox slop; see
/// `PREFILTER_SLACK` in walrus-core).
const SLACK: f32 = 1e-4;

fn params(prefilter: Option<bool>, threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
        prefilter,
        threads,
        ..WalrusParams::paper_defaults()
    }
}

/// The deterministic 16×16 block pattern the golden-trace suite ingests.
fn seeded_image(seed: usize) -> Image {
    Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, c| {
        ((x / 4 + y / 4 + c + seed) % 4) as f32 / 3.0
    })
    .unwrap()
}

fn seeded_items() -> Vec<(String, Image)> {
    (0..16).map(|seed| (format!("img-{seed}"), seeded_image(seed))).collect()
}

fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, ctx: &str) {
    assert_eq!(a.stats, b.stats, "{ctx}: stats diverged");
    assert_eq!(a.status, b.status, "{ctx}: status diverged");
    assert_eq!(a.matches.len(), b.matches.len(), "{ctx}: match count diverged");
    for (x, y) in a.matches.iter().zip(&b.matches) {
        assert_eq!(x.image_id, y.image_id, "{ctx}: ranking diverged");
        assert_eq!(x.name, y.name, "{ctx}: name diverged");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{ctx}: similarity of {} diverged",
            x.name
        );
        assert_eq!(x.matched_pairs, y.matched_pairs, "{ctx}: matched pairs of {}", x.name);
    }
}

// ---------------------------------------------------------------------------
// 1. Admissibility: a rejection is a proof, never a guess.
// ---------------------------------------------------------------------------

/// Builds a region whose bbox brackets its centroid per dimension — the
/// shape every extractor-produced region has — from raw per-dim triples.
fn region_from(triples: &[(f32, f32, f32)]) -> Region {
    let mut lo = Vec::new();
    let mut mid = Vec::new();
    let mut hi = Vec::new();
    for &(a, b, c) in triples {
        let mut v = [a, b, c];
        v.sort_by(f32::total_cmp);
        lo.push(v[0]);
        mid.push(v[1]);
        hi.push(v[2]);
    }
    let n = lo.len();
    Region::new(mid, lo, hi, RegionBitmap::new(16, 16, 4), n)
}

proptest! {
    #[test]
    fn centroid_rejection_implies_l2_exceeds_epsilon(
        triples in proptest::collection::vec(
            (-0.5f32..1.0, -0.5f32..1.0, -0.5f32..1.0), 2..12),
        center_raw in proptest::collection::vec(-0.5f32..1.0, 12),
        eps in 0.01f32..0.4,
    ) {
        let region = region_from(&triples);
        let center = &center_raw[..triples.len()];
        let code = QueryCode::around(center, eps + SLACK);
        if code.certainly_disjoint(&region.signature) {
            let d = l2_distance(center, &region.centroid);
            prop_assert!(
                d > eps,
                "prefilter rejected a true match: d={d} eps={eps} center={center:?} \
                 centroid={:?}",
                region.centroid
            );
        }
    }

    #[test]
    fn bbox_rejection_implies_extended_rects_disjoint(
        pairs in proptest::collection::vec(
            ((-0.5f32..1.0, -0.5f32..1.0, -0.5f32..1.0),
             (-0.5f32..1.0, -0.5f32..1.0, -0.5f32..1.0)), 2..12),
        eps in 0.01f32..0.4,
    ) {
        let dims = pairs.len();
        let region = region_from(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let query = region_from(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        let lo: Vec<f32> = query.bbox_min.iter().map(|v| v - (eps + SLACK)).collect();
        let hi: Vec<f32> = query.bbox_max.iter().map(|v| v + (eps + SLACK)).collect();
        let code = QueryCode::from_interval(&lo, &hi);
        if code.certainly_disjoint(&region.signature) {
            let intersects = (0..dims).all(|d| {
                query.bbox_min[d] - eps <= region.bbox_max[d]
                    && query.bbox_max[d] + eps >= region.bbox_min[d]
            });
            prop_assert!(
                !intersects,
                "prefilter rejected intersecting boxes: eps={eps} q=[{:?},{:?}] t=[{:?},{:?}]",
                query.bbox_min, query.bbox_max, region.bbox_min, region.bbox_max
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Bit-identity: prefilter on/off × threads × shards.
// ---------------------------------------------------------------------------

#[test]
fn rankings_bit_identical_with_prefilter_on_and_off_across_threads_and_shards() {
    let items = seeded_items();
    let refs: Vec<(&str, &Image)> = items.iter().map(|(n, i)| (n.as_str(), i)).collect();
    let queries = [seeded_image(0), seeded_image(3)];

    // Reference: monolithic, single-threaded, prefilter off.
    let mut reference_db = ImageDatabase::new(params(Some(false), 1)).unwrap();
    reference_db.insert_images_batch_guarded(&refs, &Guard::none()).unwrap();
    let reference: Vec<QueryOutcome> =
        queries.iter().map(|q| reference_db.query(q).unwrap()).collect();
    assert!(
        reference.iter().all(|o| !o.matches.is_empty()),
        "the seeded queries must match something"
    );

    for prefilter in [Some(false), Some(true)] {
        for threads in [1, 8] {
            let p = params(prefilter, threads);
            let mut db = ImageDatabase::new(p).unwrap();
            db.insert_images_batch_guarded(&refs, &Guard::none()).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                let got = db.query(q).unwrap();
                assert_outcomes_identical(
                    &reference[qi],
                    &got,
                    &format!("monolithic prefilter={prefilter:?} threads={threads} query={qi}"),
                );
            }
            for shards in [1, 4] {
                let io = Arc::new(FaultIo::new());
                let (store, _) = ShardedStore::open_with(io, "db", p, shards).unwrap();
                store.insert_images_batch_guarded(&refs, &Guard::none()).unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    let got = store.query(q).unwrap();
                    assert_outcomes_identical(
                        &reference[qi],
                        &got,
                        &format!(
                            "sharded={shards} prefilter={prefilter:?} threads={threads} query={qi}"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn prefilter_counters_report_rejections_on_the_seeded_workload() {
    let items = seeded_items();
    let refs: Vec<(&str, &Image)> = items.iter().map(|(n, i)| (n.as_str(), i)).collect();

    let trace_counters = |prefilter: bool| -> (u64, u64) {
        let io = Arc::new(FaultIo::new());
        let (store, _) =
            ShardedStore::open_with(io, "db", params(Some(prefilter), 1), 4).unwrap();
        store.insert_images_batch_guarded(&refs, &Guard::none()).unwrap();
        let trace = TraceContext::new(TestClock::new());
        let guard = Guard::none().tracing(trace.clone());
        store.query_guarded(&seeded_image(0), &guard).unwrap();
        let report = trace.report();
        let sum = |counter: &str| -> u64 {
            report
                .spans
                .iter()
                .flat_map(|s| s.counters.iter())
                .filter(|(name, _)| *name == counter)
                .map(|(_, v)| *v)
                .sum()
        };
        (sum("signatures_rejected"), sum("candidates_exact"))
    };

    let (rejected_on, exact_on) = trace_counters(true);
    let (rejected_off, exact_off) = trace_counters(false);
    assert!(rejected_on > 0, "prefilter rejected nothing on the seeded workload");
    assert!(exact_on > 0, "no candidate reached the exact test");
    assert_eq!(rejected_off, 0, "prefilter off must not reject");
    assert_eq!(
        exact_off,
        exact_on + rejected_on,
        "every rejected candidate must otherwise have reached the exact test"
    );
    // A filter that is wired in but prunes next to nothing is a regression
    // too: it must spare at least a third of the exact tests (this store
    // measures 208 → 64, 3.25×).
    assert!(
        2 * exact_off >= 3 * exact_on,
        "prefilter cut exact tests only {exact_off} -> {exact_on}, below the 1.5x floor"
    );
}
