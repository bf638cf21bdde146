//! End-to-end parity proof for the epoll reactor backend: a `walrus-server`
//! started with `reactor: true` must be **byte-identical** on the wire to
//! the threaded thread-per-connection backend — same response bodies for the
//! same request sequence (request ids included), same hostile-input
//! behaviour, same graceful drain — while holding more simultaneous
//! keep-alive connections than the worker pool has threads.
//!
//! Also exercises the query-result cache over real HTTP: a repeated query
//! must hit (visible on `/metrics`) and answer byte-identically, and an
//! ingest must invalidate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use walrus_core::{ShardedStore, SlidingParams, WalrusParams};
use walrus_imagery::ppm::write_ppm;
use walrus_imagery::{ColorSpace, Image};
use walrus_server::{Client, Server, ServerConfig, ServerHandle};

fn test_params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walrus_reactor_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(tag: &str, reactor: bool) -> (ServerHandle, SocketAddr, PathBuf) {
    let dir = tmp_dir(tag);
    let (store, _) = ShardedStore::open(&dir, test_params(), 1).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        read_timeout: Duration::from_millis(600),
        idle_timeout: Duration::from_secs(3),
        drain_timeout: Duration::from_secs(5),
        reactor,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let addr = handle.addr();
    (handle, addr, dir)
}

/// Runs one fixed request sequence against a server and returns every
/// response as `(status, body)` — including bodies with request ids, which
/// both backends must mint identically for identical sequences.
fn transcript(addr: SocketAddr) -> Vec<(u16, String)> {
    let mut client = Client::connect(addr).unwrap();
    let mut out = Vec::new();
    let mut push = |resp: walrus_server::ClientResponse| {
        out.push((resp.status, resp.text().to_string()));
    };
    push(client.request("GET", "/healthz", &[]).unwrap());
    for i in 0..3 {
        push(client.request("POST", &format!("/ingest?name=img-{i}"), &ppm_bytes(i)).unwrap());
    }
    push(client.request("POST", "/query?k=3", &ppm_bytes(0)).unwrap());
    push(client.request("POST", "/query?k=3", &ppm_bytes(0)).unwrap()); // cache hit
    push(client.request("POST", "/query?k=1&min_sim=0.1", &ppm_bytes(1)).unwrap());
    push(client.request("POST", "/query?timeout_ms=0", &ppm_bytes(2)).unwrap()); // 206
    push(client.request("POST", "/query", &[]).unwrap()); // 400 empty body
    push(client.request("POST", "/query?k=frog", &ppm_bytes(0)).unwrap()); // 400 param
    push(client.request("GET", "/image/0", &[]).unwrap());
    push(client.request("GET", "/image/99", &[]).unwrap()); // 404
    push(client.request("GET", "/nope", &[]).unwrap()); // 404
    push(client.request("DELETE", "/ingest", &[]).unwrap()); // 405
    out
}

#[test]
fn reactor_transcript_is_byte_identical_to_threaded() {
    let (threaded, threaded_addr, dir_a) = start("threaded", false);
    let (reactor, reactor_addr, dir_b) = start("reactor", true);

    let want = transcript(threaded_addr);
    let got = transcript(reactor_addr);
    assert_eq!(want.len(), got.len());
    for (i, (want, got)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(want, got, "request #{i} diverged between backends");
    }
    // The repeated query really was a cache hit on both backends (so the
    // identity above covers the cached path, not two engine runs).
    for handle in [&threaded, &reactor] {
        assert_eq!(
            handle
                .state()
                .metrics
                .cache_hits_total
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    threaded.shutdown().unwrap();
    reactor.shutdown().unwrap();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn reactor_holds_more_connections_than_pool_threads() {
    // 32 simultaneous keep-alive connections over a 2-thread pool: the
    // threaded backend would park a worker per connection; the reactor
    // holds them all as fds and serves each in turn.
    let (handle, addr, dir) = start("many_conns", true);
    let mut clients: Vec<Client> = (0..32).map(|_| Client::connect(addr).unwrap()).collect();
    // Every connection is open at once; now each serves a request while
    // the other 31 stay open (idle fds, not blocked threads).
    for (i, client) in clients.iter_mut().enumerate() {
        let resp = client.request("GET", "/healthz", &[]).unwrap();
        assert_eq!(resp.status, 200, "connection {i}");
    }
    // And a second round proves keep-alive survived the interleaving.
    for client in clients.iter_mut() {
        assert_eq!(client.request("GET", "/metrics", &[]).unwrap().status, 200);
    }
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Fires raw bytes and returns the response status (None = clean close).
fn raw_status(addr: SocketAddr, payload: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    parse_status(&out)
}

fn parse_status(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    let line = text.lines().next()?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn reactor_survives_hostile_inputs() {
    let (handle, addr, dir) = start("hostile", true);
    // The same corpus the threaded backend faces in http_hostile.rs; the
    // shared parser must answer with the same statuses.
    let cases: &[(&[u8], &[u16])] = &[
        (b"\x00\x01\x02\x03\xff\xfe\r\n\r\n", &[400]),
        (b"GET / HTTP/2.0\r\n\r\n", &[505]),
        (b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", &[411]),
        (b"POST /ingest HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n", &[400]),
        (b"POST /ingest HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", &[413]),
        (b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde", &[400]),
        (b"GET / HTTP/1.1 trailing-junk\r\n\r\n", &[400]),
        (b"get /healthz HTTP/1.1\r\n\r\n", &[400]),
        (b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n", &[400]),
        (b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\nP6 oops", &[400]),
    ];
    for (payload, expected) in cases {
        let status = raw_status(addr, payload);
        let ok = match status {
            Some(code) => expected.contains(&code),
            None => true,
        };
        assert!(
            ok,
            "payload {:?}: expected one of {expected:?} or close, got {status:?}",
            String::from_utf8_lossy(&payload[..payload.len().min(40)])
        );
    }
    // Oversized request line dies at a cap, never buffers the megabyte.
    let mut payload = b"GET /".to_vec();
    payload.extend_from_slice(&vec![b'a'; 1 << 20]);
    payload.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert!(matches!(raw_status(addr, &payload), Some(431) | Some(414) | None));
    // Connect-then-quit probe is a non-event.
    drop(TcpStream::connect(addr).unwrap());
    // The server survived all of it with nothing leaked.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.request("GET", "/healthz", &[]).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"images\":0"), "{}", resp.text());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let in_flight =
            handle.state().metrics.in_flight.load(std::sync::atomic::Ordering::Relaxed);
        if in_flight == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "leaked in-flight slot: {in_flight}");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reactor_slowloris_dribble_times_out() {
    let (handle, addr, dir) = start("slowloris", true);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let started = Instant::now();
    for b in b"GET /healthz HTTP/1.1\r\nHost: walrus\r\n\r\n" {
        if stream.write_all(&[*b]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(150));
        if started.elapsed() > Duration::from_secs(8) {
            panic!("reactor tolerated the dribble for too long");
        }
    }
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    let status = parse_status(&out);
    assert!(matches!(status, Some(408) | None), "expected 408/close, got {status:?}");
    assert!(started.elapsed() < Duration::from_secs(8));
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reactor_drains_idle_connections_and_checkpoints_on_shutdown() {
    let (handle, addr, dir) = start("drain", true);
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("POST", "/ingest", &ppm_bytes(0)).unwrap().status, 200);
    // An idle keep-alive connection is open during shutdown; the drain
    // must close it promptly instead of waiting out the idle timeout.
    let _idle = TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    handle.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "drain took {:?} with only an idle connection open",
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
fn reactor_cache_hit_is_visible_on_metrics_and_invalidated_by_ingest() {
    let (handle, addr, dir) = start("cache", true);
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("POST", "/ingest", &ppm_bytes(0)).unwrap().status, 200);

    let first = client.request("POST", "/query?k=2", &ppm_bytes(0)).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    let first_body = first.text().to_string();
    let second = client.request("POST", "/query?k=2", &ppm_bytes(0)).unwrap();
    assert_eq!(second.status, 200);
    let second_body = second.text().to_string();
    // Identical modulo the (monotonically fresh) request id.
    let strip = |s: &str| s[..s.rfind(",\"request_id\":").unwrap()].to_string();
    assert_eq!(strip(&first_body), strip(&second_body));

    let metrics = client.request("GET", "/metrics", &[]).unwrap();
    let text = metrics.text().to_string();
    assert!(text.contains("walrus_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_misses_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_entries 1\n"), "{text}");
    // The cache-hit fast path records into its own trace/histogram stage.
    assert!(text.contains("walrus_stage_cache_count 1\n"), "{text}");

    // Ingest moves the LSN: the cached ranking is stale and must never be
    // served again.
    assert_eq!(client.request("POST", "/ingest", &ppm_bytes(3)).unwrap().status, 200);
    let third = client.request("POST", "/query?k=2", &ppm_bytes(0)).unwrap();
    assert_eq!(third.status, 200);
    assert_ne!(strip(&first_body), strip(&third.text().to_string()));
    let metrics = client.request("GET", "/metrics", &[]).unwrap();
    let text = metrics.text().to_string();
    assert!(text.contains("walrus_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("walrus_cache_invalidations_total 1\n"), "{text}");

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
