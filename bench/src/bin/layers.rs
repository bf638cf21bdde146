//! Traced replay: the per-layer half of the benchmark.
//!
//! Replays the first [`REPLAY_OPS`] requests of a workload on one thread,
//! in-process, against a 2-shard `ShardedStore` over the same corpus and
//! the `WalrusParams` the CLI builds, and times calls into each crate's
//! public functions. Spans are recorded here, around those calls; the
//! program itself is not instrumented. A request's inner layers are timed
//! by calling them again on the same input (`router::handle` is opaque), so
//! a child span repeats part of its parent's work rather than running
//! inside it; a layer's self time is its span minus its child spans.
//!
//! The replayed `router::handle` answers are also the in-process oracle the
//! subprocess run's first answers are compared with.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use walrus_core::sharded::shard_of;
use walrus_core::{
    extract_regions, CancelToken, DiskIo, Guard, ImageDatabase, QueryOptions, Region, ShardedStore,
    SignatureKind, StorageIo, WalrusParams,
};
use walrus_e2e_bench::inputs::{self, Mix, Op, Stream, Workload, K, REPLAY_OPS};
use walrus_e2e_bench::json::{self, Value};
use walrus_e2e_bench::report::{mean, median, print_metrics, result_line, Metric};
use walrus_e2e_bench::{ranking, Ranking};
use walrus_imagery::ppm::parse_netpbm;
use walrus_imagery::{ColorSpace, Image};
use walrus_rstar::RStarTree;
use walrus_server::cache::{KeyHasher, Lookup};
use walrus_server::http::{encode_response, parse_request_bytes, ParseStep};
use walrus_server::{router, AppState, HttpLimits, Metrics, QueryCache, Request, TraceStore};
use walrus_wavelet::sliding::compute_signatures_with_threads;
use walrus_wavelet::{BinarySignature, QueryCode, SlidingParams};

type Res<T> = Result<T, String>;

const SHARDS: usize = 2;
/// `walrus_core::database`'s private prefilter slack, mirrored so the
/// harness tree probes exactly as the engine does.
const PREFILTER_SLACK: f32 = 1e-4;

// ------------------------------------------------------------------ tracing

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
}

/// Spans in memory, written out when the replay ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// The request the next spans belong to.
    request: usize,
}

impl Tracer {
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: self.request,
        });
        (out, self.spans.len() - 1)
    }

    fn us(&self, span: usize) -> f64 {
        (self.spans[span].end_ns - self.spans[span].start_ns) as f64 / 1e3
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Observations per metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Counts and times what the store asks of the disk, through the public
/// `StorageIo` trait.
#[derive(Debug, Default)]
struct TimedIo {
    inner: DiskIo,
    fsyncs: AtomicU64,
    appends: AtomicU64,
    bytes: AtomicU64,
    fsync_us: Mutex<Vec<f64>>,
}

impl TimedIo {
    fn counts(&self) -> [u64; 3] {
        [&self.fsyncs, &self.appends, &self.bytes].map(|c| c.load(Ordering::Relaxed))
    }
}

impl StorageIo for TimedIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(path, bytes)
    }
    fn fsync(&self, path: &Path) -> std::io::Result<()> {
        let started = Instant::now();
        let result = self.inner.fsync(path);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_us
            .lock()
            .expect("fsync samples")
            .push(started.elapsed().as_secs_f64() * 1e6);
        result
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.file_len(path)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }
}

// ------------------------------------------------------------------ harness

/// `(image id, region index, prefilter signature)`: what the engine's own
/// index stores per region.
type TreeEntry = (usize, usize, BinarySignature);

/// The store under test plus harness-owned mirrors of each shard's index,
/// so the probe and probe+match layers can be called on their own.
struct Harness {
    params: WalrusParams,
    io: Arc<TimedIo>,
    store: Arc<ShardedStore>,
    state: AppState,
    /// One `ImageDatabase` per shard, ids padded with tombstones so they
    /// agree with the store's global ids.
    dbs: Vec<ImageDatabase>,
    /// One tree of region centroids per shard.
    trees: Vec<RStarTree<TreeEntry>>,
    /// Mirrors the router's result cache: same capacity, same stamps, same
    /// sequence of lookups and inserts.
    cache: QueryCache,
    tracer: Tracer,
    samples: Samples,
}

/// The parameters `walrus serve` runs with (`params_for` in the CLI), but
/// one thread: the replay times layers, not the pool.
fn cli_params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams {
            s: 2,
            omega_min: 8,
            omega_max: 32,
            stride: 4,
        },
        color_space: ColorSpace::Ycc,
        threads: 1,
        ..WalrusParams::paper_defaults()
    }
}

impl Harness {
    fn open(dir: &Path) -> Res<Harness> {
        let params = cli_params();
        if params.signature_kind != SignatureKind::Centroid {
            return Err("the harness tree mirrors centroid signatures only".to_string());
        }
        let io = Arc::new(TimedIo::default());
        let (store, _) =
            ShardedStore::open_with(io.clone(), dir, params, SHARDS).map_err(|e| e.to_string())?;
        let store = Arc::new(store);
        let state = AppState {
            store: store.clone(),
            metrics: Metrics::default(),
            clock: walrus_core::monotonic(),
            traces: TraceStore::default(),
            request_ids: AtomicU64::new(0),
            default_timeout: None,
            cancel: CancelToken::new(),
            stopping: Arc::new(AtomicBool::new(false)),
            pool_threads: 2,
            pool_queue_depth: 64,
            cache: QueryCache::new(QueryCache::DEFAULT_CAPACITY),
        };
        let dims = params.signature_dims();
        Ok(Harness {
            params,
            io,
            store,
            state,
            dbs: (0..SHARDS)
                .map(|_| ImageDatabase::new(params))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?,
            trees: (0..SHARDS)
                .map(|_| RStarTree::with_dims(dims))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?,
            cache: QueryCache::new(QueryCache::DEFAULT_CAPACITY),
            tracer: Tracer {
                epoch: Instant::now(),
                spans: Vec::new(),
                request: 0,
            },
            samples: Samples::default(),
        })
    }

    /// `extract_regions`, and — for replayed requests — its three children
    /// run again on their own.
    fn extract(
        &mut self,
        image: &Image,
        parent: Option<usize>,
        children: bool,
    ) -> Res<(Vec<Region>, usize)> {
        let params = self.params;
        let (regions, ex) = self
            .tracer
            .time("core.extract", parent, || extract_regions(image, &params));
        let regions = regions.map_err(|e| e.to_string())?;
        self.samples.push("core.extract_us", self.tracer.us(ex));
        self.samples
            .push("core.regions_per_image", regions.len() as f64);
        if children {
            let (converted, a) = self.tracer.time("imagery.to_space", Some(ex), || {
                image.to_space(params.color_space)
            });
            let converted = converted.map_err(|e| e.to_string())?;
            let (signatures, b) = self.tracer.time("wavelet.signatures", Some(ex), || {
                let planes: Vec<&[f32]> =
                    converted.channels().iter().map(|c| c.as_slice()).collect();
                compute_signatures_with_threads(
                    &planes,
                    converted.width(),
                    converted.height(),
                    &params.sliding,
                    1,
                )
            });
            let signatures = signatures.map_err(|e| e.to_string())?;
            let (clustering, c) = self.tracer.time("birch.precluster", Some(ex), || {
                let points: Vec<Vec<f32>> = signatures.iter().map(|s| s.coeffs.clone()).collect();
                walrus_birch::precluster(
                    &points,
                    params.cluster_epsilon,
                    params.max_regions_per_image,
                )
            });
            let clustering = clustering.map_err(|e| e.to_string())?;
            let (a, b, c) = (self.tracer.us(a), self.tracer.us(b), self.tracer.us(c));
            self.samples.push("imagery.to_space_us", a);
            self.samples.push("wavelet.signatures_us", b);
            self.samples
                .push("wavelet.windows", signatures.len() as f64);
            self.samples.push("birch.precluster_us", c);
            self.samples
                .push("birch.us_per_window", c / signatures.len().max(1) as f64);
            self.samples
                .push("birch.clusters", clustering.clusters.len() as f64);
            self.samples.push("birch.splits", clustering.splits as f64);
            self.samples
                .push("birch.rebuilds", clustering.rebuilds as f64);
            self.samples
                .push("core.extract_self_us", self.tracer.us(ex) - a - b - c);
        }
        Ok((regions, ex))
    }

    /// Durable insert of already-extracted regions: what `insert_image`
    /// does after `extract_regions` (index + WAL encode + append + fsync).
    fn store_insert(
        &mut self,
        name: &str,
        image: &Image,
        regions: Vec<Region>,
        extract_span: usize,
        parent: Option<usize>,
    ) -> Res<usize> {
        let before = self.io.counts();
        let store = self.store.clone();
        let (id, ins) = self.tracer.time("core.store.insert_regions", parent, || {
            store.insert_regions(name, image.width(), image.height(), regions)
        });
        let id = id.map_err(|e| e.to_string())?;
        let after = self.io.counts();
        self.samples
            .push("core.store.insert_self_us", self.tracer.us(ins));
        self.samples.push(
            "core.store.insert_us",
            self.tracer.us(extract_span) + self.tracer.us(ins),
        );
        self.samples.push(
            "core.storage.fsyncs_per_ingest",
            (after[0] - before[0]) as f64,
        );
        self.samples.push(
            "core.storage.appends_per_ingest",
            (after[1] - before[1]) as f64,
        );
        self.samples.push(
            "core.storage.bytes_per_ingest",
            (after[2] - before[2]) as f64,
        );
        Ok(id)
    }

    /// Adds an image the store holds under `id` to the harness mirrors.
    fn mirror(
        &mut self,
        id: usize,
        name: &str,
        image: &Image,
        regions: Vec<Region>,
        parent: Option<usize>,
    ) -> Res<()> {
        let shard = shard_of(id, SHARDS);
        let kind = self.params.signature_kind;
        let tree = &mut self.trees[shard];
        let (inserted, span) = self.tracer.time("rstar.insert", parent, || {
            regions
                .iter()
                .enumerate()
                .try_for_each(|(ri, r)| tree.insert(r.index_rect(kind), (id, ri, r.signature)))
        });
        inserted.map_err(|e| e.to_string())?;
        self.samples.push(
            "rstar.insert_us",
            self.tracer.us(span) / regions.len().max(1) as f64,
        );
        let mut regions = Some(regions);
        for (s, db) in self.dbs.iter_mut().enumerate() {
            if s == shard {
                let regions = regions.take().expect("one shard owns the image");
                let got = db
                    .insert_regions(name, image.width(), image.height(), regions)
                    .map_err(|e| e.to_string())?;
                if got != id {
                    return Err(format!(
                        "harness shard {s} assigned id {got}, store assigned {id}"
                    ));
                }
            } else {
                db.insert_tombstone();
            }
        }
        Ok(())
    }

    fn load_corpus(&mut self, seed: u64, images: usize) -> Res<()> {
        for i in 0..images {
            self.tracer.request = i;
            let image =
                parse_netpbm(&inputs::body(seed, Stream::Corpus, i)).map_err(|e| e.to_string())?;
            let (regions, ex) = self.extract(&image, None, false)?;
            let name = format!("c{}-{}", i / inputs::SETUP_BATCH, i % inputs::SETUP_BATCH);
            let id = self.store_insert(&name, &image, regions.clone(), ex, None)?;
            self.mirror(id, &name, &image, regions, None)?;
        }
        Ok(())
    }

    /// Replays one request; returns the ranking for a query.
    fn replay(&mut self, seed: u64, op: &Op) -> Res<Option<Ranking>> {
        let raw = inputs::raw_request("POST", &op.target(), &inputs::op_body(seed, op));
        let limits = HttpLimits::default();
        let (step, parse) = self.tracer.time("server.http.parse", None, || {
            parse_request_bytes(&raw, &limits)
        });
        let ParseStep::Ready { req, .. } = step else {
            return Err("the server's parser did not accept a benchmark request".to_string());
        };
        let state = &self.state;
        let (resp, handle) = self
            .tracer
            .time("server.router.handle", None, || router::handle(state, &req));
        let (wire, encode) = self
            .tracer
            .time("server.http.encode", None, || encode_response(&resp));
        drop(wire);
        if resp.status != 200 {
            return Err(format!(
                "replayed {op:?} answered {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        let answer = json::parse(&String::from_utf8_lossy(&resp.body))?;
        let (parse_us, handle_us, encode_us) = (
            self.tracer.us(parse),
            self.tracer.us(handle),
            self.tracer.us(encode),
        );
        self.samples.push("server.http.parse_us", parse_us);
        self.samples.push("server.http.encode_us", encode_us);
        self.samples.push("server.router.handle_us", handle_us);

        let (image, decode) = self
            .tracer
            .time("imagery.decode", Some(handle), || parse_netpbm(&req.body));
        let image = image.map_err(|e| e.to_string())?;
        let decode_us = self.tracer.us(decode);
        self.samples.push("imagery.decode_us", decode_us);

        let Op::Query { .. } = op else {
            // An ingest: `handle` stored the image once; extract it again
            // under trace and store a second copy through the bare store
            // call, so every insert-side layer sees this image too.
            let id = answer
                .get("ids")
                .and_then(Value::as_array)
                .and_then(|ids| ids.first()?.as_u64())
                .ok_or("ingest answer without an id")? as usize;
            let (regions, ex) = self.extract(&image, Some(handle), true)?;
            self.mirror(id, "replayed", &image, regions.clone(), Some(handle))?;
            let copy =
                self.store_insert("replayed-copy", &image, regions.clone(), ex, Some(handle))?;
            self.mirror(copy, "replayed-copy", &image, regions, Some(handle))?;
            self.samples
                .push("request_total_us", parse_us + handle_us + encode_us);
            return Ok(None);
        };

        let ranking = ranking(&answer).ok_or("query answer without a ranking")?;

        // The cache layer, on the mirror cache (which is in the state the
        // router's cache was in when `handle` looked).
        let (key, key_span) = self
            .tracer
            .time("server.cache.key", Some(handle), || cache_key(&req));
        let stamp = self.store.content_stamp();
        let cache = &self.cache;
        let (found, lookup_span) = self.tracer.time("server.cache.lookup", Some(handle), || {
            cache.lookup(key, stamp)
        });
        let (key_us, lookup_us) = (self.tracer.us(key_span), self.tracer.us(lookup_span));
        self.samples.push("server.cache.key_us", key_us);
        self.samples.push("server.cache.lookup_us", lookup_us);
        self.samples
            .push("request_total_us", parse_us + handle_us + encode_us);
        if matches!(found, Lookup::Hit(_)) {
            self.samples.push("server.router.hit_us", handle_us);
            return Ok(Some(ranking));
        }
        self.cache
            .insert(key, stamp, String::from_utf8_lossy(&resp.body).into_owned());

        // A miss: the engine ran. Time the store call, then its layers.
        let opts = QueryOptions {
            k: Some(K),
            ..QueryOptions::default()
        };
        let store = self.store.clone();
        let (outcome, query) = self.tracer.time("core.store.query", Some(handle), || {
            store.query_with_options_guarded(&image, &opts, &Guard::none())
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let (regions, ex) = self.extract(&image, Some(query), true)?;
        let dbs = &self.dbs;
        // `k` drops the similarity floor to 0 (QueryOptions::resolve).
        let (shard_outcomes, probe_match) =
            self.tracer.time("core.probe_match", Some(query), || {
                dbs.iter()
                    .map(|db| db.query_regions(&regions, image.area(), 0.0))
                    .collect::<Result<Vec<_>, _>>()
            });
        let shard_outcomes = shard_outcomes.map_err(|e| e.to_string())?;
        let (eps, prefilter, trees) = (
            self.params.query_epsilon,
            self.params.prefilter_enabled(),
            &self.trees,
        );
        let (probe_stats, probe) = self.tracer.time("rstar.probe", Some(probe_match), || {
            let mut totals = [0usize; 4];
            for tree in trees {
                for region in &regions {
                    let code = QueryCode::around(&region.centroid, eps + PREFILTER_SLACK);
                    let (hits, stats) = tree
                        .search_within_filtered_stats(&region.centroid, eps, |(_, _, sig)| {
                            !prefilter || !code.certainly_disjoint(sig)
                        })
                        .expect("query regions have the tree's dimensionality");
                    totals[0] += stats.nodes_visited;
                    totals[1] += stats.exact_tested;
                    totals[2] += stats.prefilter_rejected;
                    totals[3] += hits.len();
                }
            }
            totals
        });
        let (query_us, extract_us, pm_us, probe_us) = (
            self.tracer.us(query),
            self.tracer.us(ex),
            self.tracer.us(probe_match),
            self.tracer.us(probe),
        );
        self.samples.push("core.store.query_us", query_us);
        self.samples.push(
            "core.store.query_overhead_us",
            query_us - extract_us - pm_us,
        );
        self.samples.push("core.probe_match_us", pm_us);
        self.samples.push("core.match_us", pm_us - probe_us);
        self.samples.push(
            "core.match_candidates",
            shard_outcomes
                .iter()
                .map(|o| o.stats.distinct_images)
                .sum::<usize>() as f64,
        );
        self.samples.push("rstar.probe_us", probe_us);
        self.samples
            .push("rstar.nodes_visited", probe_stats[0] as f64);
        self.samples
            .push("rstar.candidates_exact", probe_stats[1] as f64);
        self.samples
            .push("rstar.signatures_rejected", probe_stats[2] as f64);
        self.samples.push("rstar.hits", probe_stats[3] as f64);
        self.samples.push(
            "server.router.miss_self_us",
            handle_us - key_us - lookup_us - decode_us - query_us,
        );
        // Directly timed pieces of this miss against the opaque handle call.
        self.samples.push("miss_handle_us", handle_us);
        self.samples.push(
            "miss_accounted_us",
            key_us + lookup_us + decode_us + extract_us + pm_us,
        );

        // The harness mirrors must agree with the store, or their timings
        // describe a different index.
        if outcome.stats.total_matching_regions != probe_stats[3] {
            return Err(format!(
                "harness trees found {} matching regions, the store {}",
                probe_stats[3], outcome.stats.total_matching_regions
            ));
        }
        Ok(Some(ranking))
    }
}

/// `router::query_cache_key` (private), restated: FNV-1a over the body,
/// then presence + raw value of each answer-shaping parameter.
fn cache_key(req: &Request) -> u64 {
    let mut h = KeyHasher::default();
    h.write_bytes(&req.body);
    for name in [
        "k",
        "eps",
        "min_sim",
        "timeout_ms",
        "max_pixels",
        "max_candidates",
    ] {
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

// ---------------------------------------------------------------------- main

struct Args {
    workload: &'static Workload,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = 1;
    let mut out = PathBuf::from("bench/out");
    for (flag, value) in &walrus_e2e_bench::cli_flags()? {
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    inputs::workload(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: cannot parse {value:?}"))?
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        out,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-op medians for timings, per-op means for counts (a count that only
/// moves on the expensive class still moves its mean).
const TIMINGS: [(&str, &str); 25] = [
    ("imagery.decode_us", "us"),
    ("imagery.to_space_us", "us"),
    ("wavelet.signatures_us", "us"),
    ("birch.precluster_us", "us"),
    ("birch.us_per_window", "us"),
    ("core.extract_us", "us"),
    ("core.extract_self_us", "us"),
    ("rstar.probe_us", "us"),
    ("rstar.insert_us", "us"),
    ("core.probe_match_us", "us"),
    ("core.match_us", "us"),
    ("core.store.query_us", "us"),
    ("core.store.query_overhead_us", "us"),
    ("core.store.insert_us", "us"),
    ("core.store.insert_self_us", "us"),
    ("core.storage.fsync_us", "us"),
    ("server.http.parse_us", "us"),
    ("server.http.encode_us", "us"),
    ("server.cache.key_us", "us"),
    ("server.cache.lookup_us", "us"),
    ("server.router.handle_us", "us"),
    ("server.router.hit_us", "us"),
    ("server.router.miss_self_us", "us"),
    ("core.store.checkpoint_ms", "ms"),
    ("core.store.replay_us_per_record", "us"),
];
const COUNTS: [&str; 13] = [
    "wavelet.windows",
    "birch.clusters",
    "birch.splits",
    "birch.rebuilds",
    "core.regions_per_image",
    "rstar.nodes_visited",
    "rstar.candidates_exact",
    "rstar.signatures_rejected",
    "rstar.hits",
    "core.match_candidates",
    "core.storage.fsyncs_per_ingest",
    "core.storage.appends_per_ingest",
    "core.storage.bytes_per_ingest",
];

fn run(args: &Args) -> Res<()> {
    let w = args.workload;
    let handoff_path = args.out.join(format!("e2e-{}.json", w.name));
    let handoff = std::fs::read_to_string(&handoff_path)
        .map_err(|e| format!("read {} (run e2e first): {e}", handoff_path.display()))?;
    let e2e = json::parse(&handoff)?;
    if e2e.get("seed").and_then(Value::as_u64) != Some(args.seed) {
        return Err(format!(
            "{} was written for another seed",
            handoff_path.display()
        ));
    }

    let dir = args.out.join(format!("replay-{}", w.name));
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = Harness::open(&dir)?;
    h.load_corpus(args.seed, w.corpus)?;

    let ops: Vec<Op> = inputs::plan(w, args.seed).take(REPLAY_OPS).collect();
    let mut rankings = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        h.tracer.request = w.corpus + i;
        rankings.push(h.replay(args.seed, op)?);
    }

    // Recovery and checkpoint, on the store the replay filled: reopen
    // replays every WAL record (nothing was checkpointed), then fold.
    let Harness {
        io,
        store,
        state,
        mut tracer,
        mut samples,
        params,
        ..
    } = h;
    drop(state);
    drop(store);
    tracer.request = w.corpus + ops.len();
    let (reopened, reopen) = tracer.time("core.store.reopen", None, || {
        ShardedStore::open_with(io.clone(), &dir, params, 0)
    });
    let (reopened, _) = reopened.map_err(|e| e.to_string())?;
    let records = reopened.records_since_checkpoint();
    samples.push(
        "core.store.replay_us_per_record",
        tracer.us(reopen) / records.max(1) as f64,
    );
    let (checkpointed, checkpoint) =
        tracer.time("core.store.checkpoint", None, || reopened.checkpoint());
    checkpointed.map_err(|e| e.to_string())?;
    samples.push("core.store.checkpoint_ms", tracer.us(checkpoint) / 1e3);
    drop(reopened);
    for us in io.fsync_us.lock().expect("fsync samples").iter() {
        samples.push("core.storage.fsync_us", *us);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let spans_path = args.out.join(format!("spans-{}.json", w.name));
    tracer
        .write(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    // Oracle: the subprocess run's first answers against the replay's.
    let mut compared = 0usize;
    let mut mismatched = 0usize;
    if w.mix == Mix::Cold {
        for entry in e2e.get("answers").and_then(Value::as_array).unwrap_or(&[]) {
            let pair = entry.as_array().unwrap_or(&[]);
            let (Some(index), Some(pairs)) = (
                pair.first().and_then(Value::as_u64),
                pair.get(1).and_then(Value::as_array),
            ) else {
                return Err("malformed answers in the e2e hand-off".to_string());
            };
            let served: Option<Ranking> = pairs
                .iter()
                .map(|p| {
                    Some((
                        p.as_array()?.first()?.as_u64()?,
                        p.as_array()?.get(1)?.as_u64()?,
                    ))
                })
                .collect();
            compared += 1;
            if served.as_ref() != rankings.get(index as usize).and_then(Option::as_ref) {
                mismatched += 1;
                eprintln!("layers: {}: CHECK FAILED: op {index}: served ranking differs from the in-process oracle", w.name);
            }
        }
        if compared < REPLAY_OPS {
            mismatched += 1;
            eprintln!("layers: {}: CHECK FAILED: the e2e run handed over {compared} answers, expected {REPLAY_OPS}", w.name);
        }
    }

    // From the subprocess run: cache behaviour and load-generator health.
    let from_e2e = |path: &[&str]| {
        path.iter()
            .try_fold(&e2e, |v, k| v.get(k))
            .and_then(Value::as_f64)
    };
    let request_total = median(samples.get("request_total_us"));
    let residual = from_e2e(&["latency_p50_ms"]).unwrap_or(0.0) * 1e3 - request_total;

    let mut metrics: Vec<Metric> = Vec::new();
    for (name, unit) in TIMINGS {
        let v = samples.get(name);
        metrics.push(Metric::new(name, median(v), unit, v.len()));
    }
    for name in COUNTS {
        let v = samples.get(name);
        metrics.push(Metric::new(name, mean(v), "count", v.len()));
    }
    let handled: f64 = samples.get("miss_handle_us").iter().sum();
    let accounted = if handled > 0.0 {
        samples.get("miss_accounted_us").iter().sum::<f64>() / handled
    } else {
        0.0
    };
    metrics.push(Metric::new(
        "server.router.miss_accounted_share",
        accounted,
        "ratio",
        samples.get("miss_handle_us").len(),
    ));
    metrics.push(Metric::new(
        "server.cache.hit_ratio",
        from_e2e(&["cache", "hit_ratio"]).unwrap_or(0.0),
        "ratio",
        1,
    ));
    metrics.push(Metric::new(
        "server.cache.invalidations",
        from_e2e(&["cache", "invalidations"]).unwrap_or(0.0),
        "events",
        1,
    ));
    metrics.push(Metric::new(
        "server.cache.evictions",
        from_e2e(&["cache", "evictions"]).unwrap_or(0.0),
        "events",
        1,
    ));
    metrics.push(Metric::new(
        "loadgen.socket_residual_us",
        residual,
        "us",
        samples.get("request_total_us").len(),
    ));

    // Reconciliation, report only: the server's own stage means from the
    // subprocess run beside the replay's. A stage the server no longer
    // exports reads n/a.
    let shards = SHARDS as f64;
    for (stage, ours, spans_per_op) in [
        ("decode", "imagery.to_space_us", 1.0),
        ("wavelet", "wavelet.signatures_us", 1.0),
        ("birch", "birch.precluster_us", 1.0),
        ("rstar_probe", "rstar.probe_us", shards),
        ("match", "core.match_us", shards),
        ("wal_append", "core.store.insert_self_us", 1.0),
        ("cache", "server.cache.lookup_us", 1.0),
    ] {
        let server = match (
            from_e2e(&["stages", stage, "sum_us"]),
            from_e2e(&["stages", stage, "count"]),
        ) {
            (Some(sum), Some(count)) if count > 0.0 => format!("{:.1} us (n={count})", sum / count),
            _ => "n/a".to_string(),
        };
        let v = samples.get(ours);
        let replay = if v.is_empty() {
            "n/a".to_string()
        } else {
            format!("{:.1} us (n={})", mean(v) / spans_per_op, v.len())
        };
        println!("{:<14} reconcile walrus_stage_{stage:<12} server mean {server:<24} replay mean {replay} [{ours}]", w.name);
    }

    let correct = e2e.get("correct") == Some(&Value::Bool(true)) && mismatched == 0;
    let attempted = e2e.get("attempted").and_then(Value::as_u64).unwrap_or(0) as usize + compared;
    let failed = e2e.get("failed").and_then(Value::as_u64).unwrap_or(0) as usize + mismatched;
    print_metrics(w.name, &metrics);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}
