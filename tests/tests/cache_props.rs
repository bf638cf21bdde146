//! Property test for the query-result cache: over **any** interleaving of
//! ingest (one image or two), `DELETE`, checkpoint, rebalance, and query
//! operations (with `k`, `eps`, `min_sim`, or none), the cached serving path
//! must never return a stale ranking — every `/query` answer must be
//! byte-identical to a fresh, uncached engine run against the store as it
//! is *right now*. Each re-ask must also be the kind of cache answer the
//! mutations since call for: a hit after none, a revalidation (splice)
//! after inserts only, an invalidation after a removal or a rebalance.
//!
//! Every generated interleaving runs once per `(threads, shards)` pair of
//! the matrix, so the same oracle holds across the serial/parallel ×
//! 1-shard/4-shard sweep in one `cargo test`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestCaseError;
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

/// How a query is asked: its `/query` parameters, which shape the cache
/// key, and the same options for the fresh engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ask {
    K(usize),
    /// `k=3` with a narrower and a wider querying ε.
    Eps(bool),
    /// An explicit similarity floor, no `k`.
    MinSim,
    /// No parameter at all: every image with a matched region.
    Bare,
}

impl Ask {
    fn target(self) -> String {
        match self {
            Ask::K(k) => format!("/query?k={k}"),
            Ask::Eps(wide) => format!("/query?k=3&eps={}", if wide { "0.2" } else { "0.05" }),
            Ask::MinSim => "/query?min_sim=0.3".to_string(),
            Ask::Bare => "/query".to_string(),
        }
    }

    fn options(self) -> QueryOptions {
        let none = QueryOptions::default();
        match self {
            Ask::K(k) => QueryOptions { k: Some(k), ..none },
            Ask::Eps(wide) => {
                QueryOptions { k: Some(3), epsilon: Some(if wide { 0.2 } else { 0.05 }), ..none }
            }
            Ask::MinSim => QueryOptions { min_similarity: Some(0.3), ..none },
            Ask::Bare => none,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Ingest(usize),
    /// Two images in one request.
    IngestPair(usize, usize),
    /// `DELETE /image/{id}` of the `n`-th id handed out so far (wrapping).
    Delete(usize),
    Checkpoint,
    Rebalance(usize),
    Query { seed: usize, ask: Ask },
    /// The most recent query again, so re-asks land across mutations.
    Reask,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Queries get the most weight, and half of them re-ask the last one, so
    // most interleavings re-ask a cached query across mutations.
    let ask = (0usize..6, 1usize..4).prop_map(|(shape, k)| match shape {
        0 => Ask::Eps(k % 2 == 0),
        1 => Ask::MinSim,
        2 => Ask::Bare,
        _ => Ask::K(k),
    });
    let op = (0usize..12, 0usize..6, ask).prop_map(|(which, seed, ask)| match which {
        0 | 1 => Op::Ingest(seed),
        2 => Op::IngestPair(seed, (seed + 1) % 6),
        3 => Op::Delete(seed),
        4 => Op::Checkpoint,
        5 => Op::Rebalance([1, 2, 4][seed % 3]),
        6..=8 => Op::Query { seed: seed % 3, ask },
        _ => Op::Reask,
    });
    proptest::collection::vec(op, 4..20)
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

/// The cache counters `(hits, misses, splices, invalidations)`.
fn counts(state: &AppState) -> [u64; 4] {
    let m = &state.metrics;
    [
        &m.cache_hits_total,
        &m.cache_misses_total,
        &m.cache_splices_total,
        &m.cache_invalidations_total,
    ]
    .map(|c| c.load(Ordering::Relaxed))
}

/// What the store went through since a query was last asked, in
/// increasing order of what it does to a cached answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Since {
    Nothing,
    Inserts,
    /// A removal or a committed rebalance.
    More,
}

impl Since {
    /// The counter deltas `[hits, misses, splices, invalidations]` a
    /// re-ask after this must show.
    fn expected(self) -> [u64; 4] {
        match self {
            Since::Nothing => [1, 0, 0, 0],
            Since::Inserts => [1, 0, 1, 0],
            Since::More => [0, 1, 0, 1],
        }
    }
}

/// Asks `ask` of query `seed` through the router and checks the answer
/// against a fresh engine run on the store as it is *now*. If the cache
/// ever served a ranking recorded before a mutation, or spliced one
/// wrongly, this comparison catches it.
fn ask_and_check(
    state: &AppState,
    seed: usize,
    ask: Ask,
    label: &str,
) -> Result<(), TestCaseError> {
    let body = ppm_bytes(seed);
    let resp = handle(state, &request("POST", &ask.target(), body.clone()));
    prop_assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let query = walrus_imagery::ppm::parse_netpbm(&body).unwrap();
    let fresh =
        state.store.query_with_options_guarded(&query, &ask.options(), &Guard::none()).unwrap();
    prop_assert_eq!(
        strip_id(&resp.body),
        outcome_json(&fresh),
        "{}: {:?} of body {}: cached answer diverged from a fresh engine run",
        label,
        ask,
        seed
    );
    Ok(())
}

proptest! {
    // Each case opens (and migrates) real durable stores, so keep the case
    // count modest; the op-sequence space is still covered across runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_interleaving_never_serves_a_stale_ranking(ops in ops()) {
        for (threads, shards) in threads_by_shards() {
            let label = format!("threads {threads} shards {shards}");
            let dir = tmp_dir();
            let state = state_over(&dir, threads, shards);
            // Per asked query, what the store went through since.
            let mut asked: HashMap<(usize, Ask), Since> = HashMap::new();
            let mutated = |asked: &mut HashMap<(usize, Ask), Since>, what: Since| {
                asked.values_mut().for_each(|since| *since = (*since).max(what));
            };
            let mut queries = 0u64;
            let mut last = None;
            for op in &ops {
                match op {
                    Op::Ingest(seed) => {
                        let resp = handle(&state, &request("POST", "/ingest", ppm_bytes(*seed)));
                        prop_assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                        mutated(&mut asked, Since::Inserts);
                    }
                    Op::IngestPair(a, b) => {
                        let mut body = ppm_bytes(*a);
                        body.extend_from_slice(&ppm_bytes(*b));
                        let resp = handle(&state, &request("POST", "/ingest", body));
                        prop_assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                        mutated(&mut asked, Since::Inserts);
                    }
                    Op::Delete(n) => {
                        let next = state.store.next_id();
                        if next == 0 {
                            continue;
                        }
                        let path = format!("/image/{}", n % next);
                        let resp = handle(&state, &request("DELETE", &path, Vec::new()));
                        // Deleting an id twice finds nothing the second time.
                        prop_assert!(resp.status == 200 || resp.status == 404);
                        if resp.status == 200 {
                            mutated(&mut asked, Since::More);
                        }
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
                        if resp.status == 200 {
                            mutated(&mut asked, Since::More);
                        }
                    }
                    Op::Query { .. } | Op::Reask => {
                        let (seed, ask) = match op {
                            Op::Query { seed, ask } => (seed, ask),
                            _ => match last {
                                Some(query) => query,
                                None => continue,
                            },
                        };
                        last = Some((seed, ask));
                        queries += 1;
                        let before = counts(&state);
                        ask_and_check(&state, *seed, *ask, &label)?;
                        let after = counts(&state);
                        let delta: Vec<u64> =
                            after.iter().zip(before).map(|(a, b)| a - b).collect();
                        let want = match asked.insert((*seed, *ask), Since::Nothing) {
                            None => [0, 1, 0, 0],
                            Some(since) => since.expected(),
                        };
                        prop_assert_eq!(
                            delta,
                            want.to_vec(),
                            "{}: {:?} of body {} counted wrongly [hits, misses, splices, drops]",
                            label,
                            ask,
                            seed
                        );
                    }
                }
            }
            // Accounting: every query either hit (a revalidation included)
            // or missed, nothing double counted.
            let [hits, misses, splices, _] = counts(&state);
            prop_assert_eq!(hits + misses, queries);
            prop_assert!(splices <= hits);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// One body asked twice with only ingests (and a checkpoint) between is
/// revalidated, also when an ingest repacked a shard's index since; asked
/// around a `DELETE` or a rebalance it is invalidated.
#[test]
fn inserts_revalidate_and_a_delete_or_a_rebalance_invalidates() {
    for (threads, shards) in threads_by_shards() {
        let label = format!("threads {threads} shards {shards}");
        let dir = tmp_dir();
        let state = state_over(&dir, threads, shards);
        let ask = Ask::K(3);
        let step = |op: &str, target: &str, body: Vec<u8>| {
            let resp = handle(&state, &request(op, target, body));
            assert_eq!(resp.status, 200, "{label}: {op} {target}");
        };
        step("POST", "/ingest", ppm_bytes(0));
        ask_and_check(&state, 0, ask, &label).unwrap();
        let start = counts(&state);

        let mut pair = ppm_bytes(1);
        pair.extend_from_slice(&ppm_bytes(2));
        step("POST", "/ingest", pair);
        step("POST", "/admin/checkpoint", Vec::new());
        step("POST", "/ingest", ppm_bytes(0));
        ask_and_check(&state, 0, ask, &label).unwrap();
        let spliced = counts(&state);
        assert_eq!(spliced[2] - start[2], 1, "{label}: splices +1");
        assert_eq!(spliced[3] - start[3], 0, "{label}: invalidations +0");

        step("DELETE", "/image/1", Vec::new());
        ask_and_check(&state, 0, ask, &label).unwrap();
        let deleted = counts(&state);
        assert_eq!((deleted[2], deleted[3] - spliced[3]), (spliced[2], 1), "{label}: DELETE");

        let target = if shards == 1 { 2 } else { 1 };
        step("POST", &format!("/admin/rebalance?shards={target}"), Vec::new());
        ask_and_check(&state, 0, ask, &label).unwrap();
        let rebalanced = counts(&state);
        let moved = (rebalanced[2], rebalanced[3] - deleted[3]);
        assert_eq!(moved, (deleted[2], 1), "{label}: rebalance");

        // Ingests until one repacks a shard, so the re-ask reads images the
        // mark never saw out of that shard's packed tree as well.
        let repacked = (0..64).any(|seed| {
            let resp = handle(&state, &request("POST", "/ingest", ppm_bytes(seed % 6)));
            assert_eq!(resp.status, 200, "{label}: ingest {seed}");
            let body = String::from_utf8(resp.body).unwrap();
            let id = body.rsplit("\"request_id\":").next().unwrap().trim_end_matches('}');
            let trace = handle(&state, &request("GET", &format!("/trace/{id}"), Vec::new()));
            let trace = String::from_utf8(trace.body).unwrap();
            let repacks = trace.split_once("repacks=").expect("an ingest trace counts repacks").1;
            !repacks.starts_with('0')
        });
        assert!(repacked, "{label}: 64 ingests and no repack");
        ask_and_check(&state, 0, ask, &label).unwrap();
        let spliced_over_a_repack = counts(&state);
        assert_eq!(spliced_over_a_repack[2] - rebalanced[2], 1, "{label}: repack splices +1");
        assert_eq!(spliced_over_a_repack[3] - rebalanced[3], 0, "{label}: repack invalidations +0");
        std::fs::remove_dir_all(&dir).ok();
    }
}
