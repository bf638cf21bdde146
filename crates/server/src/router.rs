//! Request routing: maps parsed HTTP requests onto the WALRUS engine.
//!
//! Endpoints (see the README "Serving" section for curl examples):
//!
//! | Method | Path                | Purpose                                   |
//! |--------|---------------------|-------------------------------------------|
//! | POST   | `/ingest`           | Durable ingest of 1..n concatenated PPMs  |
//! | POST   | `/query`            | Region-similarity query (PPM body)        |
//! | GET    | `/image/{id}`       | Metadata of one indexed image             |
//! | GET    | `/healthz`          | Liveness + store size                     |
//! | GET    | `/metrics`          | Plain-text counters                       |
//! | POST   | `/admin/checkpoint` | Force a snapshot + WAL truncation         |
//! | POST   | `/admin/rebalance`  | Online shard-count migration (`?shards=M`)|
//!
//! Per-request knobs arrive as query parameters (`k`, `timeout_ms`, `eps`,
//! `min_sim`, `max_pixels`, `max_candidates`) and are mapped onto a
//! [`Guard`] + [`QueryOptions`] pair, so the HTTP path executes exactly the
//! same engine code as in-process callers — including the degradation
//! policy: a deadline-truncated query answers `206 Partial Content` with the
//! best-so-far ranking ([`ResultStatus::Partial`] on the wire as
//! `"status":"partial"`), cancellation (shutdown) answers `503`, and budget
//! breaches answer `413`.
//!
//! Responses carry `similarity` twice: as a JSON number for humans and as
//! `similarity_bits` (`f64::to_bits`) for clients that need the exact value
//! — floating-point JSON round-trips are not trusted for bit-identity.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use walrus_core::{
    Budgets, CancelToken, CompactRegions, Guard, QueryOptions, QueryOutcome, ResultStatus,
    SharedClock, ShardedStore, TraceContext, WalrusError,
};
use walrus_imagery::ppm::{parse_netpbm_limited, parse_netpbm_limited_prefix};
use walrus_imagery::{Image, ImageError};

use crate::cache::{KeyHasher, Lookup, QueryCache, Recorded};
use crate::http::{json_string, Request, Response};
use crate::metrics::{Metrics, TraceStore};

/// Everything a worker needs to answer requests. One instance per server,
/// shared via `Arc`.
pub struct AppState {
    /// The WAL-durable store all mutations and queries go through.
    pub store: Arc<ShardedStore>,
    pub metrics: Metrics,
    /// Time source for request deadlines, latency samples, and trace spans.
    pub clock: SharedClock,
    /// Recent request traces, served at `GET /trace/{request_id}`.
    pub traces: TraceStore,
    /// Monotone request-id source; ids are echoed in `/query` and `/ingest`
    /// responses so clients can fetch the matching trace.
    pub request_ids: AtomicU64,
    /// Applied when a request carries no `timeout_ms` of its own.
    pub default_timeout: Option<Duration>,
    /// Cloned into every request guard; cancelled when graceful shutdown
    /// runs out of drain budget, so stragglers abort as `503`.
    pub cancel: CancelToken,
    /// Set the moment shutdown begins: connections stop keep-alive and idle
    /// reads return immediately.
    pub stopping: Arc<AtomicBool>,
    /// Pool shape, exposed as gauges in `/metrics`.
    pub pool_threads: usize,
    pub pool_queue_depth: usize,
    /// Query-result cache, keyed by query-body hash + params fingerprint
    /// and kept fresh by [`ShardedStore::content_stamp`]: a stale entry is
    /// revalidated or dropped. Capacity 0 disables.
    pub cache: QueryCache,
}

impl AppState {
    /// True once graceful shutdown has begun.
    pub fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Allocates the next request id (ids start at 1).
    fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Finalizes one traced request: folds its stage durations into the
    /// `/metrics` histograms and retains the rendered span tree for
    /// `GET /trace/{id}`.
    fn finish_trace(&self, request_id: u64, trace: &TraceContext) {
        let report = trace.report();
        self.metrics.stages.record_report(&report);
        // Prefilter effectiveness counters, summed over every probe span in
        // the tree (the store records one per shard).
        let sum = |counter: &str| -> u64 {
            report
                .spans
                .iter()
                .flat_map(|s| s.counters.iter())
                .filter(|(name, _)| *name == counter)
                .map(|(_, v)| *v)
                .sum()
        };
        self.metrics
            .signatures_rejected_total
            .fetch_add(sum("signatures_rejected"), Ordering::Relaxed);
        self.metrics.candidates_exact_total.fetch_add(sum("candidates_exact"), Ordering::Relaxed);
        self.traces.insert(request_id, report.render());
    }
}

/// Routes one request and updates the response-class counters.
pub fn handle(state: &AppState, req: &Request) -> Response {
    let resp = route(state, req);
    state.metrics.count_response(resp.status);
    resp
}

fn route(state: &AppState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics_text(state),
        ("POST", "/ingest") => ingest(state, req),
        ("POST", "/query") => query(state, req),
        ("POST", "/admin/checkpoint") => checkpoint(state),
        ("POST", "/admin/rebalance") => rebalance(state, req),
        ("GET", path) if path.starts_with("/image/") => image_meta(state, path),
        ("DELETE", path) if path.starts_with("/image/") => remove_image(state, path),
        ("GET", path) if path.starts_with("/trace/") => trace_text(state, path),
        // Known paths with the wrong method get 405, everything else 404.
        (
            _,
            "/healthz" | "/metrics" | "/ingest" | "/query" | "/admin/checkpoint"
            | "/admin/rebalance",
        ) => {
            Response::error(405, "method not allowed")
        }
        (_, path) if path.starts_with("/image/") || path.starts_with("/trace/") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

fn healthz(state: &AppState) -> Response {
    let health = state.store.shard_health();
    let rebalance = state.store.rebalance_status();
    let degraded = health.iter().any(|h| !h.healthy);
    let shards: Vec<String> = health
        .iter()
        .map(|h| match &h.error {
            None => format!(
                "{{\"shard\":{},\"healthy\":true,\"images\":{},\"wal_bytes\":{}}}",
                h.shard, h.images, h.wal_bytes
            ),
            // Quarantined counts are the last observed before the failure
            // (0 when the shard never opened), flagged so dashboards can
            // tell "last known" from "live".
            Some(error) => format!(
                "{{\"shard\":{},\"healthy\":false,\"images\":{},\"wal_bytes\":{},\"counts_stale\":true,\"error\":{}}}",
                h.shard,
                h.images,
                h.wal_bytes,
                json_string(error)
            ),
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"status\":{},\"images\":{},\"stopping\":{},\"epoch\":{},\"rebalancing\":{},\"shards\":[{}]}}",
            if degraded { "\"degraded\"" } else { "\"ok\"" },
            state.store.len(),
            state.is_stopping(),
            rebalance.epoch,
            rebalance.rebalancing,
            shards.join(",")
        ),
    )
}

fn metrics_text(state: &AppState) -> Response {
    let health = state.store.shard_health();
    let rebalance = state.store.rebalance_status();
    let mut named: Vec<(String, u64)> = vec![
        ("walrus_images".to_string(), state.store.len() as u64),
        ("walrus_regions".to_string(), state.store.num_regions() as u64),
        ("walrus_wal_bytes".to_string(), state.store.wal_len()),
        (
            "walrus_wal_records_since_checkpoint".to_string(),
            state.store.records_since_checkpoint() as u64,
        ),
        ("walrus_pool_threads".to_string(), state.pool_threads as u64),
        ("walrus_pool_queue_capacity".to_string(), state.pool_queue_depth as u64),
        ("walrus_shards".to_string(), health.len() as u64),
        (
            "walrus_shards_quarantined".to_string(),
            health.iter().filter(|h| !h.healthy).count() as u64,
        ),
        ("walrus_rebalance_epoch".to_string(), rebalance.epoch),
        ("walrus_rebalancing".to_string(), rebalance.rebalancing as u64),
        ("walrus_shards_migrated".to_string(), rebalance.shards_migrated as u64),
        ("walrus_cache_entries".to_string(), state.cache.len() as u64),
        ("walrus_cache_capacity".to_string(), state.cache.capacity() as u64),
    ];
    // Process-wide, like the helper threads themselves: a flat
    // `threads_started_total` under load is the "no thread creation on the
    // request path" invariant, observable.
    let parallel = walrus_parallel::stats();
    named.extend([
        ("walrus_parallel_helpers".to_string(), parallel.helpers as u64),
        ("walrus_parallel_threads_started_total".to_string(), parallel.threads_started as u64),
        ("walrus_parallel_sections_inline_total".to_string(), parallel.sections_inline as u64),
        ("walrus_parallel_sections_shared_total".to_string(), parallel.sections_shared as u64),
    ]);
    for h in &health {
        named.push((format!("walrus_shard_healthy{{shard=\"{}\"}}", h.shard), h.healthy as u64));
        named.push((format!("walrus_shard_images{{shard=\"{}\"}}", h.shard), h.images as u64));
        named
            .push((format!("walrus_shard_wal_bytes{{shard=\"{}\"}}", h.shard), h.wal_bytes));
    }
    let gauges: Vec<(&str, u64)> = named.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    Response::text(200, state.metrics.render_for_scrape(&gauges))
}

fn image_meta(state: &AppState, path: &str) -> Response {
    let id_str = path.trim_start_matches("/image/");
    let Ok(id) = id_str.parse::<usize>() else {
        return Response::error(400, "image id must be a non-negative integer");
    };
    match state.store.image_meta(id) {
        Ok(Some(meta)) => Response::json(
            200,
            format!(
                "{{\"id\":{},\"name\":{},\"width\":{},\"height\":{},\"regions\":{}}}",
                meta.id,
                json_string(&meta.name),
                meta.width,
                meta.height,
                meta.regions
            ),
        ),
        Ok(None) => Response::error(404, "unknown image id"),
        Err(e) => engine_error(&e),
    }
}

/// `DELETE /image/{id}`: durably removes one image. The removal advances its
/// shard's LSN, so every cached ranking goes stale with it.
fn remove_image(state: &AppState, path: &str) -> Response {
    let Ok(id) = path.trim_start_matches("/image/").parse::<usize>() else {
        return Response::error(400, "image id must be a non-negative integer");
    };
    match state.store.remove_image(id) {
        Ok(()) => Response::json(200, format!("{{\"removed\":{id}}}")),
        Err(e) => engine_error(&e),
    }
}

/// `GET /trace/{request_id}`: the rendered span tree of a recent request.
/// Traces are kept in a bounded ring, so old ids answer `404` once evicted.
fn trace_text(state: &AppState, path: &str) -> Response {
    let id_str = path.trim_start_matches("/trace/");
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::error(400, "request id must be a non-negative integer");
    };
    match state.traces.get(id) {
        Some(rendered) => Response::text(200, rendered),
        None => Response::error(404, "no trace retained for this request id"),
    }
}

/// `POST /admin/checkpoint`: a rolling per-shard checkpoint. The response
/// reports, per shard, the LSN its snapshot now covers and how long the fold
/// took; quarantined shards are absent (they were skipped, not stopped on).
fn checkpoint(state: &AppState) -> Response {
    match state.store.checkpoint() {
        Ok(reports) => {
            state.metrics.checkpoints_total.fetch_add(1, Ordering::Relaxed);
            let shards: Vec<String> = reports
                .iter()
                .map(|r| {
                    format!(
                        "{{\"shard\":{},\"last_lsn\":{},\"duration_us\":{}}}",
                        r.shard,
                        r.last_lsn,
                        r.duration.as_micros()
                    )
                })
                .collect();
            Response::json(
                200,
                format!(
                    "{{\"checkpointed\":true,\"shards\":[{}],\"wal_records_since_checkpoint\":{}}}",
                    shards.join(","),
                    state.store.records_since_checkpoint()
                ),
            )
        }
        Err(e) => engine_error(&e),
    }
}

/// `POST /admin/rebalance?shards=M`: crash-safe online migration to `M`
/// shards. Queries keep answering (bit-identically) from the source layout
/// while it runs; mutations are shed with `503 {"rebalancing":true}` until
/// the new layout commits.
fn rebalance(state: &AppState, req: &Request) -> Response {
    let target = match parse_param::<usize>(req, "shards") {
        Ok(Some(v)) => v,
        Ok(None) => {
            return Response::error(400, "missing query parameter \"shards\" (the target count)")
        }
        Err(resp) => return resp,
    };
    match state.store.rebalance(target) {
        Ok(report) => {
            state.metrics.rebalances_total.fetch_add(1, Ordering::Relaxed);
            Response::json(
                200,
                format!(
                    "{{\"rebalanced\":true,\"from_shards\":{},\"to_shards\":{},\"epoch\":{},\"images\":{}}}",
                    report.from_shards, report.to_shards, report.epoch, report.images
                ),
            )
        }
        Err(e) => engine_error(&e),
    }
}

fn ingest(state: &AppState, req: &Request) -> Response {
    let started = state.clock.now_nanos();
    state.metrics.ingest_requests_total.fetch_add(1, Ordering::Relaxed);
    let request_id = state.next_request_id();
    let trace = TraceContext::new(state.clock.clone());
    let guard = match request_guard(state, req) {
        Ok(g) => g.tracing(trace.clone()),
        Err(resp) => return resp,
    };
    let budgets = match request_budgets(state, req) {
        Ok(b) => b.unwrap_or_else(|| state.store.params().budgets),
        Err(resp) => return resp,
    };
    if req.body.is_empty() {
        return Response::error(400, "empty body; expected one or more PPM images");
    }

    // Peel concatenated netpbm images off the body; the wire format is
    // simply PPMs back to back (netpbm rasters are self-delimiting).
    let mut images: Vec<Image> = Vec::new();
    let mut rest: &[u8] = &req.body;
    loop {
        while let Some((first, tail)) = rest.split_first() {
            if first.is_ascii_whitespace() {
                rest = tail;
            } else {
                break;
            }
        }
        if rest.is_empty() {
            break;
        }
        match parse_netpbm_limited_prefix(rest, budgets.max_decoded_pixels) {
            Ok((image, used)) => {
                images.push(image);
                rest = &rest[used..];
            }
            Err(e @ ImageError::TooLarge { .. }) => {
                return Response::error(413, &format!("image {}: {e}", images.len()));
            }
            Err(e) => {
                return Response::error(400, &format!("image {}: {e}", images.len()));
            }
        }
    }
    if images.is_empty() {
        return Response::error(400, "no images in body");
    }

    let base = req.query_param("name").unwrap_or("img");
    let names: Vec<String> = if images.len() == 1 {
        vec![base.to_string()]
    } else {
        (0..images.len()).map(|i| format!("{base}-{i}")).collect()
    };
    let items: Vec<(&str, &Image)> =
        names.iter().map(String::as_str).zip(images.iter()).collect();
    let result = state.store.insert_images_batch_guarded(&items, &guard);
    state.finish_trace(request_id, &trace);
    match result {
        Ok(ids) => {
            state
                .metrics
                .ingest_images_total
                .fetch_add(ids.len() as u64, Ordering::Relaxed);
            state
                .metrics
                .ingest_latency
                .record(Duration::from_nanos(state.clock.now_nanos().saturating_sub(started)));
            let ids_json: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
            Response::json(
                200,
                format!(
                    "{{\"ids\":[{}],\"count\":{},\"request_id\":{request_id}}}",
                    ids_json.join(","),
                    ids.len()
                ),
            )
        }
        Err(e) => engine_error(&e),
    }
}

fn query(state: &AppState, req: &Request) -> Response {
    let started = state.clock.now_nanos();
    state.metrics.query_requests_total.fetch_add(1, Ordering::Relaxed);
    let request_id = state.next_request_id();
    let trace = TraceContext::new(state.clock.clone());
    let guard = match request_guard(state, req) {
        Ok(g) => g.tracing(trace.clone()),
        Err(resp) => return resp,
    };
    let budgets = match request_budgets(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let opts = QueryOptions {
        k: match parse_param::<usize>(req, "k") {
            Ok(v) => v,
            Err(resp) => return resp,
        },
        epsilon: match parse_param::<f32>(req, "eps") {
            Ok(v) => v,
            Err(resp) => return resp,
        },
        min_similarity: match parse_param::<f64>(req, "min_sim") {
            Ok(v) => v,
            Err(resp) => return resp,
        },
        budgets,
        scene: None,
    };
    let decode_pixels =
        budgets.unwrap_or_else(|| state.store.params().budgets).max_decoded_pixels;
    if req.body.is_empty() {
        return Response::error(400, "empty body; expected one PPM query image");
    }

    // Result-cache probe. The key covers everything request-side that can
    // change the answer (raw body bytes + raw parameter strings); the mark
    // covers everything store-side (shard count, per-shard LSNs, slots and
    // removals, quarantine, rebalance epoch). A hit skips decode and the
    // whole engine — an entry can only exist if these exact bytes were once
    // a valid query whose `Complete` answer was produced under this stamp,
    // so replaying the cached body is byte-identical by construction. A
    // stale entry is revalidated when only inserts happened since it was
    // recorded, and dropped otherwise. The `cache` stage covers key, mark
    // and lookup on every probe, plus the id splice on a hit and the
    // revalidation.
    let cache_span = trace.span("cache");
    let key = query_cache_key(req);
    let mark = state.store.content_mark();
    let stamp = mark.stamp();
    let cached = match state.cache.lookup(key, stamp) {
        Lookup::Hit(cached) => Some(cached),
        Lookup::Revalidate(recorded) => match revalidate(state, &recorded, &guard) {
            Some(outcome) => {
                state.metrics.cache_splices_total.fetch_add(1, Ordering::Relaxed);
                let body = outcome_json(&outcome);
                let Recorded { opts, query, .. } = *recorded;
                let recorded = Recorded { mark: mark.clone(), outcome, opts, query };
                remember(state, key, stamp, body.clone(), recorded);
                Some(body)
            }
            None => {
                state.metrics.cache_invalidations_total.fetch_add(1, Ordering::Relaxed);
                None
            }
        },
        Lookup::Stale => {
            state.metrics.cache_invalidations_total.fetch_add(1, Ordering::Relaxed);
            None
        }
        Lookup::Absent => None,
    };
    if let Some(cached) = cached {
        state.metrics.cache_hits_total.fetch_add(1, Ordering::Relaxed);
        let body = append_request_id(&cached, request_id);
        drop(cache_span);
        state.finish_trace(request_id, &trace);
        state
            .metrics
            .query_latency
            .record(Duration::from_nanos(state.clock.now_nanos().saturating_sub(started)));
        return Response::json(200, body);
    }
    state.metrics.cache_misses_total.fetch_add(1, Ordering::Relaxed);
    drop(cache_span);

    let image = match parse_netpbm_limited(&req.body, decode_pixels) {
        Ok(image) => image,
        Err(e @ ImageError::TooLarge { .. }) => {
            return Response::error(413, &format!("query image: {e}"));
        }
        Err(e) => return Response::error(400, &format!("query image: {e}")),
    };
    let result = state.store.query_with_regions_guarded(&image, &opts, &guard);
    state.finish_trace(request_id, &trace);
    match result {
        Ok((mut outcome, regions)) => {
            state
                .metrics
                .query_latency
                .record(Duration::from_nanos(state.clock.now_nanos().saturating_sub(started)));
            // Both degradation flavors answer 206: the ranking is honest but
            // incomplete — deadline-truncated (partial) or missing the
            // quarantined shards' images (degraded).
            let status = match &outcome.status {
                ResultStatus::Complete => 200,
                ResultStatus::Partial => {
                    state.metrics.partial_total.fetch_add(1, Ordering::Relaxed);
                    206
                }
                ResultStatus::Degraded { .. } => {
                    state.metrics.degraded_total.fetch_add(1, Ordering::Relaxed);
                    206
                }
            };
            let response = Response::json(status, outcome_json_with_id(&outcome, Some(request_id)));
            // Only `Complete` answers are cacheable. The ranking was cut to
            // `k` in a buffer that held every shard's best `k`; the entry
            // keeps k.
            if status == 200 {
                outcome.matches.shrink_to_fit();
                let query = CompactRegions::new(
                    &regions,
                    state.store.params().signature_kind,
                    image.area(),
                );
                let body = outcome_json(&outcome);
                remember(state, key, stamp, body, Recorded { mark, outcome, opts, query });
            }
            response
        }
        Err(e) => engine_error(&e),
    }
}

/// The recorded answer brought up to date: the images committed since it
/// was recorded, queried by [`ShardedStore::score_since`], spliced into the
/// recorded ranking in rank order and cut to `k`. `None` when that cannot
/// stand in for running the query: the store changed by more than inserts,
/// the run was cut short, or the old and new hits together exceed the
/// candidate budget (the query itself then answers `413`).
fn revalidate(state: &AppState, recorded: &Recorded, guard: &Guard) -> Option<QueryOutcome> {
    // Untraced: a hit's trace is the `cache` stage alone, revalidated or not.
    let guard = guard.without_trace();
    let new = state.store.score_since(&recorded.mark, &recorded.opts, &recorded.query, &guard)?;
    let new = new.ok().filter(|new| new.status == ResultStatus::Complete)?;
    let outcome = recorded.outcome.splice(new, recorded.opts.k);
    let budgets = recorded.opts.budgets.unwrap_or_else(|| state.store.params().budgets);
    (outcome.stats.total_matching_regions <= budgets.max_index_candidates).then_some(outcome)
}

/// Caches `body` with its `recorded` answer if the store content is still
/// exactly `stamp`, the stamp taken before the answer was computed — a
/// mutation committed meanwhile must not publish this body under the new
/// stamp.
fn remember(state: &AppState, key: u64, stamp: u64, body: String, recorded: Recorded) {
    if state.store.content_stamp() == stamp && state.cache.insert_recorded(key, body, recorded) {
        state.metrics.cache_evictions_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Builds the cache key for a `/query` request: the process-seeded
/// [`KeyHasher`] over the raw body bytes, then each answer-shaping query
/// parameter (presence + raw string, in fixed order — raw strings, so no
/// normalization step can ever make two semantically different requests
/// collide). Store content, shard count included, is deliberately NOT part
/// of the key: freshness is the stamp's job, so a rebalance or ingest
/// surfaces as an invalidation rather than a silent key change.
fn query_cache_key(req: &Request) -> u64 {
    let mut h = KeyHasher::default();
    h.write_bytes(&req.body);
    for name in ["k", "eps", "min_sim", "timeout_ms", "max_pixels", "max_candidates"] {
        match req.query_param(name) {
            Some(v) => {
                h.write_u64(1);
                h.write_bytes(v.as_bytes());
            }
            None => {
                h.write_u64(0);
            }
        }
    }
    h.finish()
}

/// Splices a fresh `request_id` into a cached body (stored without one):
/// the id field sits between the closing brace of `stats` and the root
/// closing brace, exactly where [`outcome_json_with_id`] puts it.
fn append_request_id(body: &str, request_id: u64) -> String {
    let trimmed = body.strip_suffix('}').unwrap_or(body);
    format!("{trimmed},\"request_id\":{request_id}}}")
}

/// Serializes a [`QueryOutcome`]. Similarities are emitted both as JSON
/// numbers and as `f64::to_bits` integers for bit-exact consumers.
pub fn outcome_json(outcome: &QueryOutcome) -> String {
    outcome_json_with_id(outcome, None)
}

/// [`outcome_json`] with an optional `"request_id"` field appended — the id
/// clients pass to `GET /trace/{id}`.
fn outcome_json_with_id(outcome: &QueryOutcome, request_id: Option<u64>) -> String {
    let matches: Vec<String> = outcome
        .matches
        .iter()
        .map(|m| {
            format!(
                "{{\"id\":{},\"name\":{},\"similarity\":{},\"similarity_bits\":{},\"matched_pairs\":{}}}",
                m.image_id,
                json_string(&m.name),
                m.similarity,
                m.similarity.to_bits(),
                m.matched_pairs
            )
        })
        .collect();
    let id_field = match request_id {
        Some(id) => format!(",\"request_id\":{id}"),
        None => String::new(),
    };
    let (status_field, degraded_field) = match &outcome.status {
        ResultStatus::Complete => ("\"complete\"", String::new()),
        ResultStatus::Partial => ("\"partial\"", String::new()),
        ResultStatus::Degraded { shards_unavailable } => {
            let shards: Vec<String> =
                shards_unavailable.iter().map(|s| s.to_string()).collect();
            (
                "\"degraded\"",
                format!(",\"shards_unavailable\":[{}]", shards.join(",")),
            )
        }
    };
    format!(
        "{{\"status\":{}{},\"count\":{},\"matches\":[{}],\"stats\":{{\"query_regions\":{},\"total_matching_regions\":{},\"avg_regions_per_query_region\":{},\"distinct_images\":{}}}{}}}",
        status_field,
        degraded_field,
        outcome.matches.len(),
        matches.join(","),
        outcome.stats.query_regions,
        outcome.stats.total_matching_regions,
        outcome.stats.avg_regions_per_query_region,
        outcome.stats.distinct_images,
        id_field
    )
}

/// Builds the per-request [`Guard`]: `timeout_ms` (or the server default)
/// plus the shared shutdown cancellation token.
fn request_guard(state: &AppState, req: &Request) -> Result<Guard, Response> {
    let timeout = parse_param::<u64>(req, "timeout_ms")?
        .map(Duration::from_millis)
        .or(state.default_timeout);
    Ok(Guard::for_request_on(state.clock.clone(), timeout, Some(state.cancel.clone())))
}

/// Per-request [`Budgets`] overrides (`max_pixels`, `max_candidates`) on top
/// of the store-wide defaults; `None` when the request overrides nothing.
fn request_budgets(state: &AppState, req: &Request) -> Result<Option<Budgets>, Response> {
    let max_pixels = parse_param::<usize>(req, "max_pixels")?;
    let max_candidates = parse_param::<usize>(req, "max_candidates")?;
    if max_pixels.is_none() && max_candidates.is_none() {
        return Ok(None);
    }
    let mut budgets = state.store.params().budgets;
    if let Some(v) = max_pixels {
        budgets.max_decoded_pixels = v;
    }
    if let Some(v) = max_candidates {
        budgets.max_index_candidates = v;
    }
    Ok(Some(budgets))
}

fn parse_param<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, Response> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
            Response::error(400, &format!("invalid value for query parameter {name:?}"))
        }),
    }
}

/// Maps engine errors onto HTTP statuses. The degradation policy mirrors the
/// in-process one: deadline on a *query* never reaches here (it becomes a
/// `206` partial), deadline on *ingest* is `504` (the batch was rolled back),
/// cancellation is `503` (shutdown), budget breaches are `413`.
fn engine_error(err: &WalrusError) -> Response {
    // A quarantined shard sheds the request with a typed body naming the
    // shard, so clients (and the load balancer) can distinguish "this store
    // is degraded" from a generic overload 503.
    if let WalrusError::ShardUnavailable { shard } = err {
        return Response::json(
            503,
            format!(
                "{{\"error\":{},\"shard_unavailable\":{shard}}}",
                json_string(&err.to_string())
            ),
        );
    }
    // A mid-rebalance store sheds mutations with a typed body so clients
    // can tell "retry shortly, the layout is changing" from overload.
    if matches!(err, WalrusError::Rebalancing) {
        return Response::json(
            503,
            format!("{{\"error\":{},\"rebalancing\":true}}", json_string(&err.to_string())),
        );
    }
    let status = match err {
        WalrusError::Image(_) | WalrusError::BadParams(_) => 400,
        WalrusError::UnknownImage(_) => 404,
        WalrusError::BudgetExceeded { .. } => 413,
        WalrusError::Cancelled => 503,
        WalrusError::DeadlineExceeded => 504,
        _ => 500,
    };
    Response::error(status, &err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use walrus_core::{SlidingParams, WalrusParams};
    use walrus_imagery::ppm::write_ppm;
    use walrus_imagery::ColorSpace;

    fn test_params() -> WalrusParams {
        WalrusParams {
            sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
            ..WalrusParams::paper_defaults()
        }
    }

    /// State over the store a command creates by default: one shard.
    fn test_state(dir: &std::path::Path) -> AppState {
        sharded_state(dir, 1)
    }

    fn request(method: &str, target: &str, body: Vec<u8>) -> Request {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (
                p.to_string(),
                q.split('&')
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                        (k.to_string(), v.to_string())
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

    fn ppm_bytes(seed: usize) -> Vec<u8> {
        let img = Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, c| {
            ((x / 4 + y / 4 + c + seed) % 4) as f32 / 3.0
        })
        .unwrap();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        buf
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("walrus_router_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_query_image_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let state = test_state(&dir);

        // Batch body: two concatenated PPMs.
        let mut body = ppm_bytes(0);
        body.extend_from_slice(&ppm_bytes(9));
        let resp = handle(&state, &request("POST", "/ingest?name=pair", body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"ids\":[0,1]"), "{text}");
        assert_eq!(state.store.len(), 2);

        let resp = handle(&state, &request("GET", "/image/0", Vec::new()));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"name\":\"pair-0\""), "{text}");
        assert_eq!(handle(&state, &request("GET", "/image/99", Vec::new())).status, 404);

        let resp = handle(&state, &request("POST", "/query?k=1", ppm_bytes(0)));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"status\":\"complete\""), "{text}");
        assert!(text.contains("\"similarity_bits\":"), "{text}");

        // DELETE removes exactly that image; a second one finds nothing, and
        // the path answers 405 to the methods it does not have.
        let resp = handle(&state, &request("DELETE", "/image/0", Vec::new()));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"removed\":0}");
        assert_eq!(state.store.len(), 1);
        assert_eq!(handle(&state, &request("GET", "/image/0", Vec::new())).status, 404);
        assert_eq!(handle(&state, &request("DELETE", "/image/0", Vec::new())).status, 404);
        assert_eq!(handle(&state, &request("DELETE", "/image/frog", Vec::new())).status, 400);
        assert_eq!(handle(&state, &request("POST", "/image/1", Vec::new())).status, 405);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_timeout_query_is_partial_206() {
        let dir = tmp_dir("partial");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(1)));
        let resp = handle(&state, &request("POST", "/query?timeout_ms=0", ppm_bytes(1)));
        assert_eq!(resp.status, 206, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"status\":\"partial\""), "{text}");
        assert_eq!(
            state.metrics.partial_total.load(Ordering::Relaxed),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_inputs_are_4xx_and_do_not_mutate() {
        let dir = tmp_dir("hostile");
        let state = test_state(&dir);
        assert_eq!(handle(&state, &request("POST", "/ingest", Vec::new())).status, 400);
        assert_eq!(
            handle(&state, &request("POST", "/ingest", b"not a ppm".to_vec())).status,
            400
        );
        assert_eq!(
            handle(&state, &request("POST", "/ingest?max_pixels=4", ppm_bytes(0))).status,
            413
        );
        assert_eq!(
            handle(&state, &request("POST", "/query?k=frog", ppm_bytes(0))).status,
            400
        );
        assert_eq!(handle(&state, &request("GET", "/image/frog", Vec::new())).status, 400);
        assert_eq!(handle(&state, &request("GET", "/nope", Vec::new())).status, 404);
        assert_eq!(handle(&state, &request("DELETE", "/ingest", Vec::new())).status, 405);
        assert_eq!(state.store.len(), 0, "hostile requests must not mutate the store");
        assert_eq!(state.metrics.errors_total(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_store_answers_503() {
        let dir = tmp_dir("cancel");
        let state = test_state(&dir);
        state.cancel.cancel();
        let resp = handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        assert_eq!(resp.status, 503);
        assert_eq!(state.store.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_requests_expose_span_trees_and_stage_histograms() {
        let dir = tmp_dir("trace");
        let state = test_state(&dir);

        let resp = handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"request_id\":1"), "{text}");

        let resp = handle(&state, &request("POST", "/query?k=1", ppm_bytes(0)));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"request_id\":2"), "{text}");

        // The ingest trace shows the extraction + WAL stages...
        let resp = handle(&state, &request("GET", "/trace/1", Vec::new()));
        assert_eq!(resp.status, 200);
        let trace = String::from_utf8(resp.body).unwrap();
        for span in ["ingest", "extract", "wal_append"] {
            assert!(trace.contains(span), "missing {span} in:\n{trace}");
        }
        // ...and the query trace shows all five pipeline stages.
        let resp = handle(&state, &request("GET", "/trace/2", Vec::new()));
        assert_eq!(resp.status, 200);
        let trace = String::from_utf8(resp.body).unwrap();
        for span in ["query", "decode", "wavelet", "birch", "rstar_probe", "match"] {
            assert!(trace.contains(span), "missing {span} in:\n{trace}");
        }

        // Unknown / malformed trace ids.
        assert_eq!(handle(&state, &request("GET", "/trace/999", Vec::new())).status, 404);
        assert_eq!(handle(&state, &request("GET", "/trace/frog", Vec::new())).status, 400);
        assert_eq!(handle(&state, &request("POST", "/trace/1", Vec::new())).status, 405);

        // Stage histograms saw the samples; `cache` counts the miss's key
        // and lookup too, not only hits.
        let metrics = String::from_utf8(
            handle(&state, &request("GET", "/metrics", Vec::new())).body,
        )
        .unwrap();
        for stage in ["decode", "wavelet", "birch", "rstar_probe", "match", "wal_append", "cache"] {
            assert!(
                metrics.contains(&format!("walrus_stage_{stage}_count 1\n")),
                "stage {stage} missing a sample in:\n{metrics}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sharded_state(dir: &std::path::Path, shards: usize) -> AppState {
        let (store, _) = ShardedStore::open(dir, test_params(), shards).unwrap();
        state_over(Arc::new(store), QueryCache::DEFAULT_CAPACITY)
    }

    fn state_over(store: Arc<ShardedStore>, cache_capacity: usize) -> AppState {
        AppState {
            store,
            metrics: Metrics::default(),
            clock: walrus_core::monotonic(),
            traces: TraceStore::default(),
            request_ids: AtomicU64::new(0),
            default_timeout: None,
            cancel: CancelToken::new(),
            stopping: Arc::new(AtomicBool::new(false)),
            pool_threads: 2,
            pool_queue_depth: 8,
            cache: QueryCache::new(cache_capacity),
        }
    }

    /// The uncached answer to a query: the same request through a state
    /// over the same store with the cache off.
    fn uncached(state: &AppState, target: &str, seed: usize) -> Response {
        handle(&state_over(state.store.clone(), 0), &request("POST", target, ppm_bytes(seed)))
    }

    /// [`uncached`]'s body without its request id.
    fn fresh_answer(state: &AppState, target: &str, seed: usize) -> String {
        answer_of_body(&uncached(state, target, seed).body)
    }

    /// The cache counters `(hits, splices, invalidations)`.
    fn cache_counts(state: &AppState) -> (u64, u64, u64) {
        let m = &state.metrics;
        (
            m.cache_hits_total.load(Ordering::Relaxed),
            m.cache_splices_total.load(Ordering::Relaxed),
            m.cache_invalidations_total.load(Ordering::Relaxed),
        )
    }

    /// A field of a query answer's `stats` object.
    fn stat(body: &[u8], name: &str) -> usize {
        let text = String::from_utf8(body.to_vec()).unwrap();
        let at = text.find(&format!("\"{name}\":")).unwrap() + name.len() + 3;
        let digits = text[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap();
        digits.parse().unwrap()
    }

    #[test]
    fn a_revalidation_over_the_candidate_budget_answers_as_the_query_does() {
        let dir = tmp_dir("cache_budget");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        let hits = stat(&uncached(&state, "/query?k=3", 0).body, "total_matching_regions");
        assert!(hits > 0);
        // The recorded answer fits the budget exactly...
        let target = format!("/query?k=3&max_candidates={hits}");
        assert_eq!(handle(&state, &request("POST", &target, ppm_bytes(0))).status, 200);
        // ...and an identical image doubles the hits past it.
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        let resp = handle(&state, &request("POST", &target, ppm_bytes(0)));
        let fresh = uncached(&state, &target, 0);
        assert_eq!(fresh.status, 413);
        assert_eq!((resp.status, &resp.body), (fresh.status, &fresh.body));
        assert_eq!(cache_counts(&state), (0, 0, 1), "dropped, not spliced");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_quarantined_then_recovered_shard_drops_the_entry() {
        use walrus_core::storage::{Fault, FaultIo, FaultKind};
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", test_params(), 1).unwrap();
        let state = state_over(Arc::new(store), QueryCache::DEFAULT_CAPACITY);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        assert_eq!(handle(&state, &request("POST", "/query?k=3", ppm_bytes(0))).status, 200);
        // A failing checkpoint quarantines the shard; recovery swaps it back
        // in with the same content and the same LSN.
        io.arm_fault_at_path("db/shard-000", Fault { at_op: 0, kind: FaultKind::Transient });
        assert_ne!(handle(&state, &request("POST", "/admin/checkpoint", Vec::new())).status, 200);
        assert_eq!(state.store.quarantined_shards(), vec![0]);
        io.clear_path_faults();
        state.store.recover_shard(0).unwrap();
        let resp = handle(&state, &request("POST", "/query?k=3", ppm_bytes(0)));
        assert_eq!(resp.status, 200);
        assert_eq!(answer_of_body(&resp.body), fresh_answer(&state, "/query?k=3", 0));
        assert_eq!(cache_counts(&state), (0, 0, 1), "a replaced slot is not revalidated");
    }

    /// A 32×16 PPM whose left and right halves are flat `left` and `right`.
    fn halves(left: [f32; 3], right: [f32; 3]) -> Vec<u8> {
        let img = Image::from_fn(32, 16, ColorSpace::Rgb, |x, _, c| {
            if x < 16 { left[c] } else { right[c] }
        })
        .unwrap();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_new_image_that_outranks_the_kth_match_appears_at_its_rank() {
        let dir = tmp_dir("cache_rank");
        let state = sharded_state(&dir, 4);
        let (red, green) = ([0.9, 0.1, 0.1], [0.1, 0.9, 0.1]);
        let query = halves(red, green);
        // Three images sharing only the query's red half.
        let mut body = Vec::new();
        for blue in [0.5, 0.7, 0.9] {
            body.extend_from_slice(&halves(red, [0.1, 0.1, blue]));
        }
        assert_eq!(handle(&state, &request("POST", "/ingest", body)).status, 200);
        let ask = || handle(&state, &request("POST", "/query?k=2", query.clone()));
        let before = answer_of_body(&ask().body);
        assert!(before.contains("\"count\":2"), "{before}");
        // The query image itself scores 1, so it ranks first and the old
        // second match falls off the top 2.
        let resp = handle(&state, &request("POST", "/ingest?name=same", query.clone()));
        assert!(String::from_utf8(resp.body).unwrap().contains("\"ids\":[3]"));
        let after = answer_of_body(&ask().body);
        assert_eq!(cache_counts(&state), (1, 1, 0));
        let top = "\"matches\":[{\"id\":3,\"name\":\"same\",\"similarity\":1,";
        assert!(after.contains(top), "{after}");
        let uncached = state_over(state.store.clone(), 0);
        let fresh = handle(&uncached, &request("POST", "/query?k=2", query));
        assert_eq!(after, answer_of_body(&fresh.body));
        assert_ne!(after, before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_answer_under_the_similarity_floor_revalidates_too() {
        let dir = tmp_dir("cache_tau");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(1)));
        assert_eq!(handle(&state, &request("POST", "/query", ppm_bytes(0))).status, 200);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        let resp = handle(&state, &request("POST", "/query", ppm_bytes(0)));
        assert_eq!(resp.status, 200);
        assert_eq!(cache_counts(&state), (1, 1, 0));
        let text = answer_of_body(&resp.body);
        assert!(text.contains("\"id\":1,"), "{text}");
        assert_eq!(text, fresh_answer(&state, "/query", 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A query response body with its request id stripped, for comparing
    /// answers (which embed `similarity_bits`) across a rebalance.
    fn answer_of(resp: Response) -> String {
        let text = String::from_utf8(resp.body).unwrap();
        text.split_once(",\"request_id\"").map(|(a, _)| a.to_string()).unwrap_or(text)
    }

    #[test]
    fn rebalance_endpoint_migrates_and_keeps_answers_bit_identical() {
        let dir = tmp_dir("rebalance");
        let state = sharded_state(&dir, 4);
        let mut body = ppm_bytes(0);
        body.extend_from_slice(&ppm_bytes(7));
        assert_eq!(handle(&state, &request("POST", "/ingest", body)).status, 200);
        let before = answer_of(handle(&state, &request("POST", "/query", ppm_bytes(0))));

        let resp = handle(&state, &request("POST", "/admin/rebalance?shards=2", Vec::new()));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"from_shards\":4"), "{text}");
        assert!(text.contains("\"to_shards\":2"), "{text}");
        assert!(text.contains("\"epoch\":1"), "{text}");

        // Same ranked answer, bit for bit, from the new layout.
        let after = answer_of(handle(&state, &request("POST", "/query", ppm_bytes(0))));
        assert_eq!(before, after);
        // The store still ingests after the commit.
        assert_eq!(handle(&state, &request("POST", "/ingest", ppm_bytes(3))).status, 200);

        // Health and metrics surface the committed epoch.
        let health =
            String::from_utf8(handle(&state, &request("GET", "/healthz", Vec::new())).body)
                .unwrap();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"epoch\":1"), "{health}");
        assert!(health.contains("\"rebalancing\":false"), "{health}");
        let metrics =
            String::from_utf8(handle(&state, &request("GET", "/metrics", Vec::new())).body)
                .unwrap();
        assert!(metrics.contains("walrus_rebalance_epoch 1\n"), "{metrics}");
        assert!(metrics.contains("walrus_shards_migrated 2\n"), "{metrics}");
        assert!(metrics.contains("walrus_rebalances_total 1\n"), "{metrics}");
        assert!(metrics.contains("walrus_shards 2\n"), "{metrics}");

        // Parameter and method errors.
        assert_eq!(
            handle(&state, &request("POST", "/admin/rebalance", Vec::new())).status,
            400,
            "missing shards parameter"
        );
        assert_eq!(
            handle(&state, &request("POST", "/admin/rebalance?shards=frog", Vec::new())).status,
            400
        );
        assert_eq!(
            handle(&state, &request("GET", "/admin/rebalance?shards=2", Vec::new())).status,
            405
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeat_query_hits_cache_byte_identically() {
        let dir = tmp_dir("cache_hit");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));

        let first = handle(&state, &request("POST", "/query?k=1", ppm_bytes(0)));
        assert_eq!(first.status, 200);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 1);

        let second = handle(&state, &request("POST", "/query?k=1", ppm_bytes(0)));
        assert_eq!(second.status, 200);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 1);
        // Byte-identical modulo the fresh request id: strip the id field
        // (which is the only per-request part of the body) and compare.
        assert_eq!(answer_of_body(&first.body), answer_of_body(&second.body));
        // The spliced id is present and correct on the cached answer.
        assert!(String::from_utf8(second.body.clone())
            .unwrap()
            .ends_with(&format!("\"request_id\":{}}}", 3)));

        // Different params → different key → miss.
        let third = handle(&state, &request("POST", "/query?k=2", ppm_bytes(0)));
        assert_eq!(third.status, 200);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_invalidates_cached_answers_but_checkpoint_does_not() {
        let dir = tmp_dir("cache_inval");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        handle(&state, &request("POST", "/query?k=5", ppm_bytes(0)));

        // Checkpoint rewrites bytes, not answers: the entry survives.
        assert_eq!(handle(&state, &request("POST", "/admin/checkpoint", Vec::new())).status, 200);
        handle(&state, &request("POST", "/query?k=5", ppm_bytes(0)));
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 1);

        // Ingest moves the stamp: the cached body is stale and is not served
        // as it is. Only an insert happened, so the entry is revalidated by
        // scoring the one new image — the answer a fresh run gives, which
        // sees the new image — rather than dropped.
        assert_eq!(handle(&state, &request("POST", "/ingest", ppm_bytes(3))).status, 200);
        let spliced = handle(&state, &request("POST", "/query?k=5", ppm_bytes(0)));
        assert_eq!(spliced.status, 200);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 2);
        assert_eq!(state.metrics.cache_splices_total.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_invalidations_total.load(Ordering::Relaxed), 0);
        let text = String::from_utf8(spliced.body.clone()).unwrap();
        assert!(text.contains("\"distinct_images\":2"), "{text}");
        assert_eq!(answer_of_body(&spliced.body), fresh_answer(&state, "/query?k=5", 0));
        // The revalidated entry is current again: the next ask is a plain hit.
        handle(&state, &request("POST", "/query?k=5", ppm_bytes(0)));
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 3);
        assert_eq!(state.metrics.cache_splices_total.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_invalidates_cached_answers() {
        let dir = tmp_dir("cache_rebalance");
        let state = sharded_state(&dir, 4);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        let first = handle(&state, &request("POST", "/query?k=5", ppm_bytes(0)));
        assert_eq!(first.status, 200);
        let resp = handle(&state, &request("POST", "/admin/rebalance?shards=2", Vec::new()));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // The epoch bump stales the entry: the repeat is an invalidation,
        // not a hit, and the fresh answer is still bit-identical.
        let after = handle(&state, &request("POST", "/query?k=5", ppm_bytes(0)));
        assert_eq!(after.status, 200);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.cache_invalidations_total.load(Ordering::Relaxed), 1);
        assert_eq!(answer_of_body(&first.body), answer_of_body(&after.body));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_answers_are_not_cached() {
        let dir = tmp_dir("cache_partial");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(1)));
        let resp = handle(&state, &request("POST", "/query?timeout_ms=0", ppm_bytes(1)));
        assert_eq!(resp.status, 206);
        assert!(state.cache.is_empty(), "a deadline-truncated 206 must not be cached");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Body with its `request_id` field removed.
    fn answer_of_body(body: &[u8]) -> String {
        let text = String::from_utf8(body.to_vec()).unwrap();
        let at = text.rfind(",\"request_id\":").unwrap();
        format!("{}{}", &text[..at], "}")
    }

    #[test]
    fn metrics_and_healthz_render() {
        let dir = tmp_dir("metrics");
        let state = test_state(&dir);
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        let resp = handle(&state, &request("GET", "/healthz", Vec::new()));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"images\":1"));
        let resp = handle(&state, &request("GET", "/metrics", Vec::new()));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("walrus_up 1\n"), "{text}");
        assert!(text.contains("walrus_images 1\n"), "{text}");
        assert!(text.contains("walrus_ingest_images_total 1\n"), "{text}");
        assert!(text.contains("walrus_pool_threads 2\n"), "{text}");
        let resp = handle(&state, &request("POST", "/admin/checkpoint", Vec::new()));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"wal_records_since_checkpoint\":0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_pool_counters_render_and_are_monotone() {
        const NAMES: [&str; 4] = [
            "walrus_parallel_helpers",
            "walrus_parallel_threads_started_total",
            "walrus_parallel_sections_inline_total",
            "walrus_parallel_sections_shared_total",
        ];
        let dir = tmp_dir("metrics-parallel");
        let state = test_state(&dir);
        let scrape = || {
            let resp = handle(&state, &request("GET", "/metrics", Vec::new()));
            let text = String::from_utf8(resp.body).unwrap();
            NAMES.map(|name| {
                let value = text
                    .lines()
                    .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                    .unwrap_or_else(|| panic!("{name} missing from:\n{text}"));
                value.parse::<u64>().unwrap()
            })
        };
        let before = scrape();
        handle(&state, &request("POST", "/ingest", ppm_bytes(0)));
        assert_eq!(handle(&state, &request("POST", "/query?k=3", ppm_bytes(0))).status, 200);
        let after = scrape();
        assert_eq!(after[0], before[0], "the helper set never resizes");
        assert!(after[1] <= after[0], "at most one thread per helper, ever");
        for i in 1..NAMES.len() {
            assert!(after[i] >= before[i], "{} went backwards", NAMES[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
