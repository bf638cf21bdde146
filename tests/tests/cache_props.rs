//! Property test for the query-result cache: over **any** interleaving of
//! ingest, checkpoint, rebalance, and query operations, the cached serving
//! path must never return a stale ranking — every `/query` answer must be
//! byte-identical to a fresh, uncached engine run against the store as it
//! is *right now*.
//!
//! Every generated interleaving runs once per `(threads, shards)` pair of
//! the matrix, so the same oracle holds across the serial/parallel ×
//! 1-shard/4-shard sweep in one `cargo test`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use walrus_core::{
    CancelToken, Guard, QueryOptions, ShardedStore, SlidingParams, WalrusParams,
};
use walrus_imagery::ppm::write_ppm;
use walrus_imagery::{ColorSpace, Image};
use walrus_integration_tests::threads_by_shards;
use walrus_server::router::{handle, outcome_json};
use walrus_server::{AppState, Metrics, QueryCache, Request, TraceStore};

fn test_params(threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
        threads,
        ..WalrusParams::paper_defaults()
    }
}

fn ppm_bytes(seed: usize) -> Vec<u8> {
    let img = Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, c| {
        ((x / 4 + 2 * (y / 4) + c + seed) % 5) as f32 / 4.0
    })
    .unwrap();
    let mut buf = Vec::new();
    write_ppm(&img, &mut buf).unwrap();
    buf
}

fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("walrus_cache_props_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn state_over(dir: &std::path::Path, threads: usize, shards: usize) -> AppState {
    let (store, _) = ShardedStore::open(dir, test_params(threads), shards).unwrap();
    AppState {
        store: Arc::new(store),
        metrics: Metrics::default(),
        clock: walrus_core::monotonic(),
        traces: TraceStore::default(),
        request_ids: AtomicU64::new(0),
        default_timeout: None,
        cancel: CancelToken::new(),
        stopping: Arc::new(AtomicBool::new(false)),
        pool_threads: 2,
        pool_queue_depth: 8,
        cache: QueryCache::new(QueryCache::DEFAULT_CAPACITY),
    }
}

fn request(method: &str, target: &str, body: Vec<u8>) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect(),
        ),
        None => (target.to_string(), Vec::new()),
    };
    Request {
        method: method.to_string(),
        path,
        query,
        headers: Vec::new(),
        body,
        keep_alive: true,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Ingest(usize),
    Checkpoint,
    Rebalance(usize),
    Query { seed: usize, k: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Queries get double weight so most interleavings actually probe the
    // cache between mutations.
    let op = (0usize..5, 0usize..6, 1usize..4).prop_map(|(which, seed, k)| match which {
        0 => Op::Ingest(seed),
        1 => Op::Checkpoint,
        2 => Op::Rebalance([1, 2, 4][seed % 3]),
        _ => Op::Query { seed, k },
    });
    proptest::collection::vec(op, 3..12)
}

/// Response body with its `request_id` suffix removed — the only
/// per-request part of a query answer.
fn strip_id(body: &[u8]) -> String {
    let text = String::from_utf8(body.to_vec()).unwrap();
    match text.rfind(",\"request_id\":") {
        Some(at) => format!("{}{}", &text[..at], "}"),
        None => text,
    }
}

proptest! {
    // Each case opens (and migrates) real durable stores, so keep the case
    // count modest; the op-sequence space is still covered across runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_interleaving_never_serves_a_stale_ranking(ops in ops()) {
        for (threads, shards) in threads_by_shards() {
            let dir = tmp_dir();
            let state = state_over(&dir, threads, shards);
            let mut queries = 0u64;
            for op in &ops {
                match op {
                    Op::Ingest(seed) => {
                        let resp = handle(&state, &request("POST", "/ingest", ppm_bytes(*seed)));
                        prop_assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                    }
                    Op::Checkpoint => {
                        let resp =
                            handle(&state, &request("POST", "/admin/checkpoint", Vec::new()));
                        prop_assert_eq!(resp.status, 200);
                    }
                    Op::Rebalance(target) => {
                        let resp = handle(
                            &state,
                            &request("POST", &format!("/admin/rebalance?shards={target}"), Vec::new()),
                        );
                        // Migrating to the current shard count is refused; any
                        // other target must commit.
                        prop_assert!(
                            resp.status == 200 || resp.status == 400,
                            "rebalance to {} answered {}: {}",
                            target,
                            resp.status,
                            String::from_utf8_lossy(&resp.body)
                        );
                    }
                    Op::Query { seed, k } => {
                        queries += 1;
                        let body = ppm_bytes(*seed);
                        let resp =
                            handle(&state, &request("POST", &format!("/query?k={k}"), body.clone()));
                        prop_assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                        // Fresh uncached oracle: run the engine directly against
                        // the store as it is *now*. If the cache ever served a
                        // ranking recorded before an ingest or rebalance, this
                        // comparison catches it.
                        let query = walrus_imagery::ppm::parse_netpbm(&body).unwrap();
                        let opts = QueryOptions { k: Some(*k), ..QueryOptions::default() };
                        let fresh = state
                            .store
                            .query_with_options_guarded(&query, &opts, &Guard::none())
                            .unwrap();
                        prop_assert_eq!(
                            strip_id(&resp.body),
                            outcome_json(&fresh),
                            "threads {} shards {}: cached answer diverged from a fresh engine run",
                            threads,
                            shards
                        );
                    }
                }
            }
            // Accounting: every query either hit or missed, nothing double
            // counted, and hits never exceed total queries.
            let hits = state.metrics.cache_hits_total.load(Ordering::Relaxed);
            let misses = state.metrics.cache_misses_total.load(Ordering::Relaxed);
            prop_assert_eq!(hits + misses, queries);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
