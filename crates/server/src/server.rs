//! The serving shell: TCP accept loop, worker pool, graceful shutdown.
//!
//! Threading model (DESIGN.md §11): one accept thread owns the non-blocking
//! listener and is the **only** job submitter; a fixed
//! [`WorkerPool`](walrus_parallel::WorkerPool) runs one connection per job.
//! A connection holds its worker while it is open, with one exception: an
//! *idle* keep-alive connection closes on its next read tick when other
//! connections are queued for a worker, so parked clients cannot starve new
//! ones (busy connections are never pre-empted).
//! Backpressure is explicit — when the pool queue is full the accept thread
//! answers `503` itself and closes, so overload degrades into fast rejections
//! instead of unbounded queues.
//!
//! Shutdown ordering (SIGTERM / ctrl-c via [`signals`], or
//! [`ServerHandle::shutdown`]):
//!
//! 1. flip the `stopping` flag — the accept thread exits (new connections
//!    are refused by the dead listener), idle keep-alive connections close
//!    on their next read tick, busy ones finish their current request and
//!    close;
//! 2. drain the pool under `drain_timeout`;
//! 3. if the drain deadline passes, cancel the shared request token — every
//!    in-flight guarded engine call aborts with `Cancelled` (HTTP 503);
//! 4. join the workers and take a final checkpoint so recovery replays an
//!    empty WAL.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use walrus_core::{monotonic, CancelToken, Result, ShardedStore, SharedClock, WalrusError};
use walrus_parallel::{resolve_threads, WorkerPool};

use crate::cache::QueryCache;
use crate::http::{Conn, HttpLimits, ParseError, ReadOpts, Response};
use crate::metrics::{Metrics, TraceStore};
use crate::router::{self, AppState};

/// Everything tunable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8167` (port `0` = ephemeral).
    pub addr: String,
    /// Worker threads; `0` resolves via the engine-wide policy
    /// ([`resolve_threads`]: request > `WALRUS_THREADS` > cores).
    pub threads: usize,
    /// Connections that may wait for a worker before new ones get `503`.
    pub queue_depth: usize,
    /// Default per-request deadline when the client sends no `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Wall-clock budget for receiving one complete request (slowloris cap).
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection is kept open.
    pub idle_timeout: Duration,
    /// Drain budget during graceful shutdown before in-flight requests are
    /// cancelled.
    pub drain_timeout: Duration,
    /// Requests served per connection before it is closed (keep-alive cap).
    pub keep_alive_max: usize,
    /// HTTP parse limits.
    pub limits: HttpLimits,
    /// Time source for request deadlines, read pacing, latency metrics, and
    /// trace spans. Production uses the process-wide monotonic clock; tests
    /// inject a [`TestClock`](walrus_core::TestClock) to drive timeouts
    /// without sleeping. (Socket poll ticks still ride the OS timer — the
    /// clock decides *whether* a deadline has passed, not when reads wake.)
    pub clock: SharedClock,
    /// Query-result cache entries (0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8167".to_string(),
            threads: 0,
            queue_depth: 64,
            default_timeout: None,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(15),
            drain_timeout: Duration::from_secs(10),
            keep_alive_max: 1000,
            limits: HttpLimits::default(),
            clock: monotonic(),
            cache_capacity: QueryCache::DEFAULT_CAPACITY,
        }
    }
}

/// Socket poll granularity: how often blocked reads wake up to check
/// deadlines, the stopping flag and the pool queue.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// The server. [`Server::start`] returns a handle; the listener and workers
/// run on background threads until [`ServerHandle::shutdown`].
pub struct Server;

impl Server {
    /// Binds the listener, spins up the pool, and starts accepting.
    pub fn start(config: ServerConfig, store: ShardedStore) -> Result<ServerHandle> {
        Server::start_arc(config, Arc::new(store))
    }

    /// [`Server::start`] over an already-shared store.
    pub fn start_arc(config: ServerConfig, store: Arc<ShardedStore>) -> Result<ServerHandle> {
        let io = |context: &str, source| WalrusError::Io { context: context.to_string(), source };
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| io(&format!("bind {}", config.addr), e))?;
        let addr = listener.local_addr().map_err(|e| io("local_addr", e))?;
        listener.set_nonblocking(true).map_err(|e| io("set_nonblocking", e))?;

        // Shared with the accept thread for submission; the handle keeps it
        // for drain/shutdown.
        let pool =
            Arc::new(WorkerPool::new(resolve_threads(config.threads), config.queue_depth));
        let state = Arc::new(AppState {
            store,
            metrics: Metrics::with_clock(config.clock.clone()),
            clock: config.clock.clone(),
            traces: TraceStore::default(),
            request_ids: AtomicU64::new(0),
            default_timeout: config.default_timeout,
            cancel: CancelToken::new(),
            stopping: Arc::new(AtomicBool::new(false)),
            pool_threads: pool.threads(),
            pool_queue_depth: pool.capacity(),
            cache: QueryCache::new(config.cache_capacity),
        });

        let accept = {
            let pool = Arc::clone(&pool);
            let state = Arc::clone(&state);
            let config = config.clone();
            std::thread::Builder::new()
                .name("walrus-accept".to_string())
                .spawn(move || accept_loop(listener, pool, state, config))
                .map_err(|e| io("spawn accept thread", e))?
        };

        Ok(ServerHandle {
            addr,
            state,
            accept_thread: Some(accept),
            pool: Some(pool),
            drain_timeout: config.drain_timeout,
            finished: false,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    state: Arc<AppState>,
    config: ServerConfig,
) {
    while !state.is_stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                // Load-shedding: the accept thread is the only submitter, so
                // this check is not racy — the queue can only drain between
                // here and try_execute.
                if pool.pending() >= pool.capacity() {
                    state.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                    reject_overload(stream);
                    continue;
                }
                let conn_state = Arc::clone(&state);
                let conn_config = config.clone();
                // Weak: a job that owned the pool could end up dropping —
                // and so joining — it from one of its own workers.
                let conn_pool = Arc::downgrade(&pool);
                let submitted = pool.try_execute(move || {
                    let others_waiting =
                        || conn_pool.upgrade().is_some_and(|pool| pool.pending() > 0);
                    handle_connection(conn_state, stream, &conn_config, &others_waiting);
                });
                if submitted.is_err() {
                    // Only reachable when shutdown won the race; the closure
                    // (and its stream) is dropped, which closes the socket.
                    state.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, ...);
                // back off briefly rather than spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Answers `503` from the accept thread when the pool is saturated.
fn reject_overload(stream: TcpStream) {
    let mut conn = Conn::new(stream);
    let mut resp = Response::error(503, "server overloaded; retry later");
    resp.close = true;
    let _ = conn.write_response(&resp);
}

/// Serves one connection until it closes, errors, asks to close, hits the
/// keep-alive cap, goes idle while `others_waiting` for a worker, or the
/// server starts stopping. Generic over the stream so tests can drive it
/// with scripted in-memory connections.
fn handle_connection<S: Read + Write>(
    state: Arc<AppState>,
    stream: S,
    config: &ServerConfig,
    others_waiting: &dyn Fn() -> bool,
) {
    let mut conn = Conn::new(stream);
    let stopping = || state.is_stopping() || state.cancel.is_cancelled();
    for served in 0..config.keep_alive_max {
        let opts = ReadOpts {
            idle_timeout: config.idle_timeout,
            read_timeout: config.read_timeout,
            stopping: &stopping,
            others_waiting,
            clock: config.clock.as_ref(),
        };
        match conn.read_request(&config.limits, &opts) {
            Ok(req) => {
                // The in-flight gauge covers routing *and* the response
                // write: a `/metrics` scrape during graceful drain must see
                // stragglers until their bytes are out (RAII also keeps the
                // gauge balanced if response writing panics).
                let in_flight = state.metrics.begin_request();
                let mut resp = router::handle(&state, &req);
                resp.close = !req.keep_alive
                    || state.is_stopping()
                    || served + 1 == config.keep_alive_max;
                let write = conn.write_response(&resp);
                drop(in_flight);
                if write.is_err() || resp.close {
                    return;
                }
            }
            Err(ParseError::Closed) | Err(ParseError::Io(_)) => return,
            Err(ParseError::Bad { status, message }) => {
                // Protocol violations get one best-effort answer, then the
                // connection closes — framing can no longer be trusted. The
                // answer is a response in flight like any other: without the
                // marker, a drain-time scrape would under-report while these
                // 503s/4xxs are written.
                let in_flight = state.metrics.begin_request();
                state.metrics.count_response(status);
                let mut resp = Response::error(status, &message);
                resp.close = true;
                let _ = conn.write_response(&resp);
                drop(in_flight);
                return;
            }
        }
    }
}

/// Handle to a running server. Dropping it shuts the server down
/// (best-effort); call [`ServerHandle::shutdown`] for the checked path.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
    drain_timeout: Duration,
    finished: bool,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state — tests and the CLI read metrics and store size here.
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Graceful shutdown; see the module docs for the ordering. Returns once
    /// the workers are joined and the final checkpoint is on disk.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;

        self.state.stopping.store(true, Ordering::Release);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(pool) = self.pool.take() {
            if !pool.wait_idle(self.drain_timeout) {
                // Drain budget exhausted: abort stragglers. Guarded engine
                // calls observe the token within a chunk; connection reads
                // observe it within one poll interval.
                self.state.cancel.cancel();
                pool.wait_idle(Duration::from_secs(5));
            }
            // The accept thread is joined, so this is the last long-lived
            // Arc; a straggling connection may hold one more for the length
            // of a `pending()` call, which is waited out.
            let mut pool = pool;
            let mut pool = loop {
                match Arc::try_unwrap(pool) {
                    Ok(pool) => break pool,
                    Err(shared) => pool = shared,
                }
                std::thread::yield_now();
            };
            pool.shutdown();
        }
        // Rolling per-shard checkpoint; on a degraded store the healthy
        // shards still land their snapshots.
        self.state.store.checkpoint()?;
        self.state.metrics.checkpoints_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Process signal plumbing for `walrus serve`, dependency-free via the libc
/// `signal(2)` symbol every unix target links anyway. The handler only flips
/// an atomic — the serve loop polls [`shutdown_requested`] and runs the
/// normal graceful path, so no async-signal-unsafe work happens in handler
/// context.
///
/// [`shutdown_requested`]: signals::shutdown_requested
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // `signal(2)`; the handler slot is declared as a proper function
        // pointer so no integer casts are needed. The previous-handler
        // return value is ignored, so its type is left opaque.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs SIGINT + SIGTERM handlers that request shutdown.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// True once SIGINT or SIGTERM has been received.
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Stub for non-unix targets: signals never fire, `walrus serve` runs until
/// killed.
#[cfg(not(unix))]
pub mod signals {
    pub fn install() {}
    pub fn shutdown_requested() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use walrus_core::{SlidingParams, WalrusParams};

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue_depth: 8,
            read_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        }
    }

    fn test_store(tag: &str) -> (ShardedStore, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("walrus_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let params = WalrusParams {
            sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
            ..WalrusParams::paper_defaults()
        };
        let (store, _) = ShardedStore::open(&dir, params, 1).unwrap();
        (store, dir)
    }

    /// Regression (in-flight under-report during graceful drain): a
    /// half-received request answered `503` while the server is stopping
    /// must be visible in `walrus_in_flight` for the whole response write.
    /// Before the RAII marker, this error path never touched the gauge, so
    /// a drain-time `/metrics` scrape read 0 while 503s were still being
    /// written.
    #[test]
    fn drain_time_error_responses_are_counted_in_flight() {
        let (store, dir) = test_store("inflight");
        let state = Arc::new(AppState {
            store: Arc::new(store),
            metrics: Metrics::default(),
            clock: monotonic(),
            traces: TraceStore::default(),
            request_ids: AtomicU64::new(0),
            default_timeout: None,
            cancel: walrus_core::CancelToken::new(),
            // Drain in progress from the first read tick.
            stopping: Arc::new(AtomicBool::new(true)),
            pool_threads: 1,
            pool_queue_depth: 1,
            cache: QueryCache::new(QueryCache::DEFAULT_CAPACITY),
        });

        /// Half a request head, then endless ticks; the write side records
        /// what the in-flight gauge said while the response went out.
        struct HalfRequest {
            state: Arc<AppState>,
            sent: bool,
            observed: Arc<AtomicU64>,
        }
        impl Read for HalfRequest {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.sent {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.sent = true;
                let head = b"POST /query HTTP/1.1\r\n";
                buf[..head.len()].copy_from_slice(head);
                Ok(head.len())
            }
        }
        impl Write for HalfRequest {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.observed
                    .store(self.state.metrics.in_flight.load(Ordering::Acquire), Ordering::Release);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let observed = Arc::new(AtomicU64::new(u64::MAX));
        let stream = HalfRequest {
            state: Arc::clone(&state),
            sent: false,
            observed: Arc::clone(&observed),
        };
        handle_connection(Arc::clone(&state), stream, &test_config(), &|| false);

        assert_eq!(
            observed.load(Ordering::Acquire),
            1,
            "the drain-time 503 must be in flight while its bytes are written"
        );
        assert_eq!(
            state.metrics.in_flight.load(Ordering::Acquire),
            0,
            "the gauge must return to zero once the response is out"
        );
        assert_eq!(state.metrics.responses_5xx.load(Ordering::Acquire), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn starts_serves_healthz_and_shuts_down() {
        let (store, dir) = test_store("basic");
        let handle = Server::start(test_config(), store).unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0);

        let mut client = Client::connect(addr).unwrap();
        let resp = client.request("GET", "/healthz", &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("\"status\":\"ok\""));
        // Keep-alive: a second request on the same connection works.
        let resp = client.request("GET", "/metrics", &[]).unwrap();
        assert_eq!(resp.status, 200);

        handle.shutdown().unwrap();
        // The listener is gone after shutdown.
        assert!(TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly; a request must at least fail.
            Client::connect(addr)
                .and_then(|mut c| c.request("GET", "/healthz", &[]))
                .is_err()
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_checkpoints_the_store() {
        let (store, dir) = test_store("ckpt");
        let handle = Server::start(test_config(), store).unwrap();
        let addr = handle.addr();
        // Ingest one tiny image over HTTP so the WAL is non-empty.
        let body = b"P2\n8 8\n255\n0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 \
                     24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 \
                     49 50 51 52 53 54 55 56 57 58 59 60 61 62 63\n";
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request("POST", "/ingest?name=seed", body).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        let state = handle.state();
        handle.shutdown().unwrap();
        assert_eq!(
            state.store.records_since_checkpoint(),
            0,
            "shutdown must leave a fresh checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
