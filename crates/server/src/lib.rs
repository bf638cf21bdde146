//! # walrus-server
//!
//! A dependency-free network service layer for the WALRUS engine: concurrent
//! ingest and region-similarity queries over HTTP/1.1 on `std::net`.
//!
//! The container (and the paper-era spirit of this reproduction) rules out
//! async runtimes and HTTP frameworks, so everything here is hand-rolled on
//! blocking sockets:
//!
//! * [`http`] — a strict HTTP/1.1 request parser with hard size limits,
//!   keep-alive, `Content-Length`-only framing, and slowloris defense;
//! * [`router`] — maps endpoints onto the engine, translating per-request
//!   `timeout_ms`/budget knobs into the same [`Guard`]/[`QueryOptions`]
//!   machinery in-process callers use, so HTTP answers are bit-identical to
//!   library answers (deadline-partial `206`s included);
//! * [`metrics`] — lock-free counters and latency histograms behind
//!   `GET /metrics`;
//! * [`cache`] — an LSN-invalidated query-result cache: repeat queries are
//!   answered byte-identically from memory until the store's
//!   [`content_stamp`](walrus_core::ShardedStore::content_stamp) moves;
//! * [`server`] — the accept loop feeding a bounded
//!   [`WorkerPool`](walrus_parallel::WorkerPool) one connection per job
//!   (an idle keep-alive connection hands its worker back when others are
//!   queued), explicit `503` load-shedding, and graceful drain-then-cancel
//!   shutdown ending in a final checkpoint;
//! * [`client`] — a tiny blocking client used by the e2e tests.
//!
//! [`Guard`]: walrus_core::Guard
//! [`QueryOptions`]: walrus_core::QueryOptions
//!
//! ## Quick start
//!
//! ```no_run
//! use walrus_core::{ShardedStore, WalrusParams};
//! use walrus_server::{Server, ServerConfig};
//!
//! // 0 shards: adopt the store's manifest, or create a 1-shard store.
//! let (store, _shards) = ShardedStore::open("./store", WalrusParams::paper_defaults(), 0)?;
//! let handle = Server::start(ServerConfig::default(), store)?;
//! println!("listening on {}", handle.addr());
//! // ... serve until told otherwise ...
//! handle.shutdown()?;
//! # Ok::<(), walrus_core::WalrusError>(())
//! ```

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;

pub use cache::QueryCache;
pub use client::{Client, ClientResponse};
pub use http::{HttpLimits, Request, Response};
pub use metrics::{InFlight, Metrics, StageMetrics, TraceStore, STAGE_NAMES};
pub use router::AppState;
pub use server::{signals, Server, ServerConfig, ServerHandle};
