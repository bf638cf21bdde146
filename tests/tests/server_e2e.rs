//! End-to-end proof that the HTTP path is the library path: a live
//! `walrus-server` on an ephemeral port must answer queries **bit-identical**
//! (`f64::to_bits` of every similarity) to an in-process database holding
//! the same images — under concurrency, for deadline-partial answers, and
//! again after the store is shut down and recovered from disk — at every
//! engine thread count of the matrix. The rest
//! pins the serving shell over real sockets: injected-clock timing, load
//! shedding, idle-yield, drain on shutdown, the result cache on `/metrics`.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use walrus_core::{
    monotonic, Guard, ImageDatabase, QueryOptions, ResultStatus, ShardedStore, SharedClock,
    SlidingParams, TestClock, WalrusParams,
};
use walrus_imagery::ppm::{parse_netpbm, write_ppm};
use walrus_imagery::{ColorSpace, Image};
use walrus_integration_tests::THREAD_COUNTS;
use walrus_server::{Client, Server, ServerConfig, ServerHandle};

const NUM_IMAGES: usize = 4;
const QUERY_THREADS: usize = 4;

fn test_params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

/// PPM bytes for a deterministic 16x16 test pattern. Both sides of the
/// comparison decode *these bytes* (write_ppm quantizes to 8 bits, so the
/// float image and its PPM round-trip differ).
fn ppm_bytes(seed: usize) -> Vec<u8> {
    let img = Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, c| {
        ((x / 4 + 2 * (y / 4) + c + seed) % 5) as f32 / 4.0
    })
    .unwrap();
    let mut buf = Vec::new();
    write_ppm(&img, &mut buf).unwrap();
    buf
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walrus_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Extracts every `"key":<integer>` occurrence, in order.
fn extract_ints(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
    }
    out
}

/// `(image_id, similarity_bits)` pairs from a ranked source, the common
/// currency of every comparison below.
fn reference_ranking(db: &ImageDatabase, query: &Image, k: usize) -> Vec<(u64, u64)> {
    let opts = QueryOptions { k: Some(k), ..QueryOptions::default() };
    let outcome = db.query_with_options_guarded(query, &opts, &Guard::none()).unwrap();
    assert_eq!(outcome.status, ResultStatus::Complete);
    outcome
        .matches
        .iter()
        .map(|m| (m.image_id as u64, m.similarity.to_bits()))
        .collect()
}

fn http_ranking(body: &str) -> Vec<(u64, u64)> {
    let ids = extract_ints(body, "id");
    let bits = extract_ints(body, "similarity_bits");
    assert_eq!(ids.len(), bits.len(), "malformed response: {body}");
    ids.into_iter().zip(bits).collect()
}

#[test]
fn http_answers_are_bit_identical_to_in_process_and_survive_recovery() {
    for threads in THREAD_COUNTS {
        http_answers_are_bit_identical_at(WalrusParams { threads, ..test_params() });
    }
}

fn http_answers_are_bit_identical_at(params: WalrusParams) {
    let dir = tmp_dir(&format!("main_{}", params.threads));
    let images: Vec<Vec<u8>> = (0..NUM_IMAGES).map(ppm_bytes).collect();

    // In-process reference database, built from the same decoded bytes in
    // the same order.
    let mut reference = ImageDatabase::new(params).unwrap();
    for (i, bytes) in images.iter().enumerate() {
        let decoded = parse_netpbm(bytes).unwrap();
        let id = reference.insert_image(&format!("img-{i}"), &decoded).unwrap();
        assert_eq!(id, i);
    }

    // Live server over a fresh durable store — the one a command creates
    // when nobody asks for a shard count.
    let (store, _) = ShardedStore::open(&dir, params, 0).unwrap();
    assert_eq!(store.shard_count(), 1);
    // Thread-per-connection: a keep-alive connection holds its worker while
    // open (or is closed, if idle while another waits for one), so the pool
    // must cover every concurrent connection this test makes (1 ingest
    // client + QUERY_THREADS query clients) regardless of the core count.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: QUERY_THREADS + 2,
        queue_depth: 8,
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let addr = handle.addr();

    // Sequential HTTP ingest pins the id order to the reference's.
    let mut client = Client::connect(addr).unwrap();
    for (i, bytes) in images.iter().enumerate() {
        let resp = client
            .request("POST", &format!("/ingest?name=img-{i}"), bytes)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(resp.text().contains(&format!("\"ids\":[{i}]")), "{}", resp.text());
    }

    // Concurrent queries from N threads, each with its own connection, must
    // all match the single-threaded in-process answer bit for bit.
    let expected: Vec<Vec<(u64, u64)>> = images
        .iter()
        .map(|bytes| reference_ranking(&reference, &parse_netpbm(bytes).unwrap(), NUM_IMAGES))
        .collect();
    let images = Arc::new(images);
    let expected = Arc::new(expected);
    let mut workers = Vec::new();
    for t in 0..QUERY_THREADS {
        let images = Arc::clone(&images);
        let expected = Arc::clone(&expected);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for round in 0..3 {
                let which = (t + round) % NUM_IMAGES;
                let resp = client
                    .request("POST", &format!("/query?k={NUM_IMAGES}"), &images[which])
                    .unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
                let body = resp.text();
                assert!(body.contains("\"status\":\"complete\""), "{body}");
                assert_eq!(
                    http_ranking(&body),
                    expected[which],
                    "thread {t} round {round} diverged from in-process"
                );
            }
        }));
    }
    for w in workers {
        w.join().expect("query thread panicked");
    }

    // Deadline-partial parity: timeout_ms=0 expires before extraction, so
    // both paths must produce the same empty partial answer.
    let resp = client
        .request("POST", "/query?timeout_ms=0", &images[0])
        .unwrap();
    assert_eq!(resp.status, 206, "{}", resp.text());
    assert!(resp.text().contains("\"status\":\"partial\""), "{}", resp.text());
    assert!(resp.text().contains("\"count\":0"), "{}", resp.text());
    let in_process = reference
        .query_with_options_guarded(
            &parse_netpbm(&images[0]).unwrap(),
            &QueryOptions::default(),
            &Guard::with_timeout(Duration::from_millis(0)),
        )
        .unwrap();
    assert_eq!(in_process.status, ResultStatus::Partial);
    assert!(in_process.matches.is_empty());

    // Graceful shutdown, then recover the store from disk: the reopened
    // database must serve the same answers the HTTP path served.
    handle.shutdown().unwrap();
    let (recovered, shards) = ShardedStore::open(&dir, params, 0).unwrap();
    assert_eq!(recovered.len(), NUM_IMAGES);
    let replayed: usize = shards.iter().map(|s| s.report.unwrap().records_replayed).sum();
    assert_eq!(replayed, 0, "shutdown checkpoint should leave nothing to replay");
    for (which, bytes) in images.iter().enumerate() {
        let query = parse_netpbm(bytes).unwrap();
        let opts = QueryOptions { k: Some(NUM_IMAGES), ..QueryOptions::default() };
        let outcome = recovered
            .query_with_options_guarded(&query, &opts, &Guard::none())
            .unwrap();
        let got: Vec<(u64, u64)> = outcome
            .matches
            .iter()
            .map(|m| (m.image_id as u64, m.similarity.to_bits()))
            .collect();
        assert_eq!(got, expected[which], "recovered store diverged for query {which}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_timing_runs_on_the_injected_clock() {
    // Everything time-shaped in the server — uptime, request deadlines —
    // is measured on `ServerConfig::clock`, so a TestClock makes the
    // timing assertions below exact and sleep-free. (The suites' remaining
    // wall-clock timing coverage lives in the tests above, which run on
    // the default monotonic clock.)
    let dir = tmp_dir("testclock");
    let (store, _) = ShardedStore::open(&dir, test_params(), 1).unwrap();
    let clock = TestClock::new();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        clock: clock.clone(),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    // Uptime is frozen at 0 until the clock is advanced, then reads the
    // advance exactly — no "roughly n seconds" margins.
    let resp = client.request("GET", "/metrics", &[]).unwrap();
    assert!(resp.text().contains("walrus_uptime_seconds 0\n"), "{}", resp.text());
    clock.advance(Duration::from_secs(90));
    let resp = client.request("GET", "/metrics", &[]).unwrap();
    assert!(resp.text().contains("walrus_uptime_seconds 90\n"), "{}", resp.text());

    // Request deadlines are armed on the same clock: `timeout_ms=0` is
    // expired at admission and degrades to 206 Partial in zero wall time.
    let resp = client.request("POST", "/query?timeout_ms=0", &ppm_bytes(0)).unwrap();
    assert_eq!(resp.status, 206, "{}", resp.text());
    assert!(resp.text().contains("\"status\":\"partial\""), "{}", resp.text());

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_503_not_collapse() {
    // A tiny pool with a tiny queue: blast connections and require that
    // every one either gets served or gets an explicit 503 — and that the
    // server still works afterwards.
    let dir = tmp_dir("overload");
    let (store, _) = ShardedStore::open(&dir, test_params(), 1).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let addr = handle.addr();

    let mut workers = Vec::new();
    for _ in 0..16 {
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).ok()?;
            let resp = client.request("GET", "/healthz", &[]).ok()?;
            Some(resp.status)
        }));
    }
    let mut served = 0;
    let mut shed = 0;
    for w in workers {
        match w.join().expect("client thread panicked") {
            Some(200) => served += 1,
            Some(503) | None => shed += 1,
            Some(other) => panic!("unexpected status {other}"),
        }
    }
    assert!(served >= 1, "nothing was served (served={served}, shed={shed})");
    // Afterwards the server must be fully responsive again.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("GET", "/healthz", &[]).unwrap().status, 200);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A live 2-worker server over a fresh 1-shard store.
fn start_two_workers(tag: &str, clock: SharedClock) -> (ServerHandle, SocketAddr, PathBuf) {
    let dir = tmp_dir(tag);
    let (store, _) = ShardedStore::open(&dir, test_params(), 1).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 8,
        drain_timeout: Duration::from_secs(5),
        clock,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let addr = handle.addr();
    (handle, addr, dir)
}

#[test]
fn idle_keep_alive_connection_yields_its_worker_to_a_queued_one() {
    // The clock never advances, so `idle_timeout` cannot be what frees a
    // worker here.
    let (handle, addr, dir) = start_two_workers("idle_yield", TestClock::new());

    // Two clients finish a request and stay open: both workers are parked.
    let mut parked: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
    for client in &mut parked {
        assert_eq!(client.request("GET", "/healthz", &[]).unwrap().status, 200);
    }

    // A third connection waits in the pool queue; within a few 100 ms poll
    // ticks an idle connection must hand its worker over. The read timeout
    // turns "never served" into a failed assertion instead of a stuck suite.
    let mut third = Client::connect(addr).unwrap();
    third.stream_mut().set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let resp = third.request("GET", "/healthz", &[]);
    assert_eq!(resp.expect("third client starved by idle connections").status, 200);

    // The worker came from a parked client, which sees a clean EOF — no
    // error response, no reset (a still-open one times the read out).
    let read: Vec<usize> = parked
        .iter_mut()
        .filter_map(|client| {
            client.stream_mut().set_read_timeout(Some(Duration::from_millis(300))).unwrap();
            client.stream_mut().read(&mut [0u8; 16]).ok()
        })
        .collect();
    assert!(read == [0] || read == [0, 0], "no parked connection closed cleanly: {read:?}");

    // Closed is not banned: a reconnect queues behind two parked
    // connections again and is served the same way.
    let mut again = Client::connect(addr).unwrap();
    again.stream_mut().set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    assert_eq!(again.request("GET", "/healthz", &[]).unwrap().status, 200);

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_idle_connections_and_checkpoints() {
    let (handle, addr, dir) = start_two_workers("drain", monotonic());
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("POST", "/ingest", &ppm_bytes(0)).unwrap().status, 200);
    // An idle connection is open during shutdown; the drain must close it
    // promptly instead of waiting out the idle timeout.
    let _idle = TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    handle.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "drain took {:?} with only idle connections open",
        started.elapsed()
    );
    // The final checkpoint happened: recovery has nothing to replay.
    let (recovered, shards) = ShardedStore::open(&dir, test_params(), 0).unwrap();
    assert_eq!(recovered.len(), 1);
    let replayed: usize = shards.iter().map(|s| s.report.unwrap().records_replayed).sum();
    assert_eq!(replayed, 0, "shutdown checkpoint missing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_hit_is_visible_on_metrics_and_invalidated_by_ingest() {
    let (handle, addr, dir) = start_two_workers("cache", monotonic());
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("POST", "/ingest", &ppm_bytes(0)).unwrap().status, 200);

    let first = client.request("POST", "/query?k=2", &ppm_bytes(0)).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    let second = client.request("POST", "/query?k=2", &ppm_bytes(0)).unwrap();
    assert_eq!(second.status, 200);
    // Identical modulo the (monotonically fresh) request id.
    let strip = |s: String| s[..s.rfind(",\"request_id\":").unwrap()].to_string();
    let first_body = strip(first.text());
    assert_eq!(first_body, strip(second.text()));

    let text = client.request("GET", "/metrics", &[]).unwrap().text();
    assert!(text.contains("walrus_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_misses_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_entries 1\n"), "{text}");
    // Every probe records into the `cache` trace/histogram stage: the
    // miss's key + lookup and the hit's key + lookup + splice.
    assert!(text.contains("walrus_stage_cache_count 2\n"), "{text}");

    // Ingest moves the LSN: the cached ranking is stale and must never be
    // served again. Only an insert happened, so the entry is revalidated —
    // the new image scored and spliced in — which counts as a hit and
    // answers what a computed query (a never-reached timeout makes a fresh
    // key) answers.
    assert_eq!(client.request("POST", "/ingest", &ppm_bytes(3)).unwrap().status, 200);
    let third = client.request("POST", "/query?k=2", &ppm_bytes(0)).unwrap();
    assert_eq!(third.status, 200);
    assert_ne!(first_body, strip(third.text()));
    let computed = client.request("POST", "/query?k=2&timeout_ms=3600000", &ppm_bytes(0));
    assert_eq!(strip(third.text()), strip(computed.unwrap().text()));
    let text = client.request("GET", "/metrics", &[]).unwrap().text();
    assert!(text.contains("walrus_cache_hits_total 2\n"), "{text}");
    assert!(text.contains("walrus_cache_splices_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_invalidations_total 0\n"), "{text}");

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delete_removes_the_image_and_invalidates_cached_answers() {
    let (handle, addr, dir) = start_two_workers("delete", monotonic());
    let mut client = Client::connect(addr).unwrap();
    let mut reference = ImageDatabase::new(test_params()).unwrap();
    for seed in 0..3 {
        let name = format!("img-{seed}");
        let resp = client.request("POST", &format!("/ingest?name={name}"), &ppm_bytes(seed));
        assert_eq!(resp.unwrap().status, 200);
        reference.insert_image(&name, &parse_netpbm(&ppm_bytes(seed)).unwrap()).unwrap();
    }

    // Miss, then hit.
    let strip = |s: String| s[..s.rfind(",\"request_id\":").unwrap()].to_string();
    let first = client.request("POST", "/query?k=3", &ppm_bytes(0)).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    let ranked = http_ranking(&first.text());
    assert!(ranked.len() >= 2, "the query must rank something besides its victim: {ranked:?}");
    let second = client.request("POST", "/query?k=3", &ppm_bytes(0)).unwrap();
    assert_eq!(strip(first.text()), strip(second.text()));
    let text = client.request("GET", "/metrics", &[]).unwrap().text();
    assert!(text.contains("walrus_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_invalidations_total 0\n"), "{text}");

    // Remove the top-ranked image: once, and only once.
    let victim = ranked[0].0;
    let resp = client.request("DELETE", &format!("/image/{victim}"), &[]).unwrap();
    assert_eq!((resp.status, resp.text()), (200, format!("{{\"removed\":{victim}}}")));
    assert_eq!(client.request("DELETE", &format!("/image/{victim}"), &[]).unwrap().status, 404);
    assert_eq!(client.request("GET", &format!("/image/{victim}"), &[]).unwrap().status, 404);

    // The removal moved the shard's LSN: the cached ranking is stale, the
    // same query is recomputed, and what it answers is what an in-process
    // engine holding the surviving images answers — byte for byte.
    let third = client.request("POST", "/query?k=3", &ppm_bytes(0)).unwrap();
    assert_eq!(third.status, 200);
    assert!(http_ranking(&third.text()).iter().all(|(id, _)| *id != victim), "{}", third.text());
    let text = client.request("GET", "/metrics", &[]).unwrap().text();
    assert!(text.contains("walrus_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_invalidations_total 1\n"), "{text}");
    reference.remove_image(victim as usize).unwrap();
    let opts = QueryOptions { k: Some(3), ..QueryOptions::default() };
    let query = parse_netpbm(&ppm_bytes(0)).unwrap();
    let outcome = reference.query_with_options_guarded(&query, &opts, &Guard::none()).unwrap();
    let fresh = walrus_server::router::outcome_json(&outcome);
    assert_eq!(strip(third.text()), fresh[..fresh.len() - 1]);

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
