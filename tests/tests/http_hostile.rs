//! Hostile-input defense for the HTTP service layer, mirroring
//! `ppm_hostile.rs` one level up the stack: every case throws malformed or
//! abusive bytes at a *live* `walrus-server` over a real socket and asserts
//! the server answers 4xx (or closes cleanly), never panics, never leaks an
//! in-flight slot, and never mutates the store.
//!
//! Every case runs against a server at each worker count of the matrix: a
//! single worker, where one stuck connection would starve the rest, and a
//! pool of several.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use walrus_core::{ShardedStore, SlidingParams, WalrusParams};
use walrus_integration_tests::THREAD_COUNTS;
use walrus_server::{Client, HttpLimits, Server, ServerConfig, ServerHandle};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walrus_hostile_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(tag: &str, threads: usize) -> (ServerHandle, SocketAddr, PathBuf) {
    let dir = tmp_dir(&format!("{tag}_{threads}"));
    let params = WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
        ..WalrusParams::paper_defaults()
    };
    let (store, _) = ShardedStore::open(&dir, params, 1).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        queue_depth: 16,
        read_timeout: Duration::from_millis(600),
        idle_timeout: Duration::from_secs(3),
        drain_timeout: Duration::from_secs(5),
        limits: HttpLimits::default(),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let addr = handle.addr();
    (handle, addr, dir)
}

/// Fires raw bytes at the server and returns the response status, or `None`
/// when the server closed without answering (a clean close). Write errors
/// (server hung up mid-send) also count as a clean close.
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

/// The server survived: it still answers /healthz with an untouched store
/// and no leaked in-flight slot.
fn assert_still_healthy(handle: &ServerHandle, addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("server must still accept");
    let resp = client.request("GET", "/healthz", &[]).expect("healthz must answer");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"images\":0"), "store mutated: {}", resp.text());
    // The hostile connection's handler may still be unwinding on another
    // thread (especially on single-core machines); give the RAII decrement
    // a bounded moment before calling the slot leaked.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let in_flight = handle.state().metrics.in_flight.load(Ordering::Relaxed);
        if in_flight == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "leaked in-flight slot: {in_flight}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn oversized_request_line_is_bounded() {
    for threads in THREAD_COUNTS {
        let (handle, addr, dir) = start_server("reqline", threads);
        // 1 MiB request line: must die at the head cap (431) or the line cap
        // (414) — long before a megabyte is buffered per the limits.
        let mut payload = b"GET /".to_vec();
        payload.extend_from_slice(&vec![b'a'; 1 << 20]);
        payload.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let status = raw_status(addr, &payload);
        assert!(
            matches!(status, Some(431) | Some(414) | None),
            "expected 431/414/close, got {status:?}"
        );
        assert_still_healthy(&handle, addr);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn header_bomb_is_bounded() {
    for threads in THREAD_COUNTS {
        let (handle, addr, dir) = start_server("headers", threads);
        let mut payload = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..10_000 {
            payload.extend_from_slice(format!("x-bomb-{i}: {i}\r\n").as_bytes());
        }
        payload.extend_from_slice(b"\r\n");
        let status = raw_status(addr, &payload);
        assert!(
            matches!(status, Some(431) | None),
            "expected 431/close, got {status:?}"
        );
        assert_still_healthy(&handle, addr);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn truncated_body_is_a_400_not_a_hang() {
    for threads in THREAD_COUNTS {
        let (handle, addr, dir) = start_server("truncated", threads);
        let started = Instant::now();
        let status = raw_status(addr, b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\nP6 oops");
        assert_eq!(status, Some(400), "truncated body must answer 400");
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "server sat on a truncated body for {:?}",
            started.elapsed()
        );
        assert_still_healthy(&handle, addr);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn slowloris_dribble_times_out() {
    for threads in THREAD_COUNTS {
        let (handle, addr, dir) = start_server("slowloris", threads);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let started = Instant::now();
        // One byte per 150 ms never completes a request; the 600 ms read budget
        // runs from the first byte, so the server must cut us off quickly even
        // though data keeps arriving.
        for b in b"GET /healthz HTTP/1.1\r\nHost: walrus\r\n\r\n" {
            if stream.write_all(&[*b]).is_err() {
                break; // server already hung up — that's the point
            }
            std::thread::sleep(Duration::from_millis(150));
            if started.elapsed() > Duration::from_secs(8) {
                panic!("server tolerated the dribble for too long");
            }
        }
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        let status = parse_status(&out);
        assert!(
            matches!(status, Some(408) | None),
            "expected 408/close, got {status:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(8));
        assert_still_healthy(&handle, addr);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn protocol_garbage_is_4xx_or_clean_close() {
    for threads in THREAD_COUNTS {
        let (handle, addr, dir) = start_server("garbage", threads);
        let cases: &[(&[u8], &[u16])] = &[
            (b"\x00\x01\x02\x03\xff\xfe\r\n\r\n", &[400]),
            (b"GET / HTTP/2.0\r\n\r\n", &[505]),
            (b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", &[411]),
            (b"POST /ingest HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n", &[400]),
            (b"POST /ingest HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", &[413]),
            (b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde", &[400]),
            (b"GET / HTTP/1.1 trailing-junk\r\n\r\n", &[400]),
            (b"get /healthz HTTP/1.1\r\n\r\n", &[400]), // lowercase method token
            (b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n", &[400]),
        ];
        for (payload, expected) in cases {
            let status = raw_status(addr, payload);
            let ok = match status {
                Some(code) => expected.contains(&code),
                None => true, // clean close is always acceptable
            };
            assert!(
                ok,
                "payload {:?}: expected one of {expected:?} or close, got {status:?}",
                String::from_utf8_lossy(&payload[..payload.len().min(40)])
            );
        }
        // A connect-then-quit probe (load balancer style) must be a non-event.
        drop(TcpStream::connect(addr).unwrap());
        assert_still_healthy(&handle, addr);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hostile_bodies_never_mutate_the_store() {
    for threads in THREAD_COUNTS {
        let (handle, addr, dir) = start_server("bodies", threads);
        let mut client = Client::connect(addr).unwrap();
        // Well-framed HTTP around hostile PPM payloads: the decoder layer must
        // bounce each one and the store must stay empty.
        let bodies: &[&[u8]] = &[
            b"not a ppm at all",
            b"P6\n999999999 999999999\n255\n\x00\x00\x00",
            b"P6\n4 4\n255\n\x00",                  // truncated raster
            b"P9\n4 4\n255\n0123456789ab",          // bogus magic
            b"P6\n-4 4\n255\n0123456789ab",         // negative dims
        ];
        for body in bodies {
            let resp = client.request("POST", "/ingest", body).unwrap();
            assert!(
                (400..500).contains(&resp.status),
                "hostile body answered {}: {}",
                resp.status,
                resp.text()
            );
        }
        // Oversize-by-budget: a legitimate image that exceeds a tiny request
        // budget is 413, and still no mutation.
        let resp = client
            .request("POST", "/ingest?max_pixels=4", b"P2\n8 8\n255\n0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7\n")
            .unwrap();
        assert_eq!(resp.status, 413, "{}", resp.text());
        assert_still_healthy(&handle, addr);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
