//! End-to-end run of one workload against the shipped `walrus` binary as a
//! subprocess: set-up (timed, repeated), crash recovery (timed), warm-up,
//! the timed phase from one load-generator process with two keep-alive
//! connections, answer checks, checkpoint + disk footprint, clean SIGTERM.
//!
//! Control requests (`/healthz`, `/metrics`, `/admin/checkpoint`) are sent
//! only between phases, after the load connections are closed: the server
//! runs two workers and both belong to the load connections during a run.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use walrus_e2e_bench::http::{Client, Reply};
use walrus_e2e_bench::inputs::{
    self, Bodies, Mix, Op, Plan, Stream, Workload, HOT_BODIES, K, QUERY_TARGET, REPLAY_OPS,
    SETUP_BATCH, WARMUP_OPS,
};
use walrus_e2e_bench::json::{self, Value};
use walrus_e2e_bench::report::{
    mean, median, percentile, print_metrics, result_line, sorted, Metric,
};
use walrus_e2e_bench::{ranking, Ranking};

type Res<T> = Result<T, String>;

/// Load connections (= server workers = `--threads`). Two on purpose: the
/// reference host has two CPUs; keep it at or below `nproc`.
const CLIENTS: usize = 2;
/// Cold answers re-asked sequentially after the timed phase and compared
/// with what the concurrent run returned.
const RECHECK_OPS: usize = 24;
/// Linux reports process CPU time in USER_HZ ticks, 100 per second on
/// every architecture.
const TICKS_PER_S: f64 = 100.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    /// `--trace 1`: this run only feeds the traced replay, which prints the
    /// result; set up once and print no result line.
    trace: bool,
    out: PathBuf,
    walrus: PathBuf,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = PathBuf::from("bench/out");
    let mut walrus = PathBuf::from("target/release/walrus");
    for (flag, value) in &walrus_e2e_bench::cli_flags()? {
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: cannot parse {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    inputs::workload(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--out" => out = PathBuf::from(value),
            "--walrus" => walrus = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
        walrus,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- server

/// The `walrus … serve` subprocess. Dropping it kills and reaps the
/// process, so no error path leaves a server behind.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server on `dir` and waits for its first `200 /healthz`.
    /// Returns the server, the images it reports, and spawn-to-healthy
    /// seconds (on a directory with a WAL that is the recovery time).
    fn start(args: &Args, dir: &Path) -> Res<(Server, u64, f64)> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(args.out.join(format!("server-{}.log", args.workload.name)))
            .map_err(|e| format!("open server log: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(&args.walrus)
            .args([
                "--threads",
                "2",
                "--shards",
                "2",
                "--addr",
                "127.0.0.1:0",
                "serve",
            ])
            .arg(dir)
            // The run must measure the defaults, whatever the caller's shell exports.
            .env_remove("WALRUS_THREADS")
            .env_remove("WALRUS_SHARDS")
            .env_remove("WALRUS_REACTOR")
            .env_remove("WALRUS_PREFILTER")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.walrus.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server_addr = None;
        let mut line = String::new();
        while server_addr.is_none() {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("read server stdout: {e}"));
            if !matches!(n, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server exited before its \"serving\" line ({n:?})"));
            }
            if line.starts_with("serving ") {
                server_addr = line
                    .split("http://")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|a| a.parse::<SocketAddr>().ok());
            }
        }
        let server = Server {
            child,
            stdout,
            addr: server_addr.expect("loop ends when set"),
        };
        let images = server.healthz_images()?;
        Ok((server, images, spawned.elapsed().as_secs_f64()))
    }

    fn control(&self) -> Client {
        Client::new(self.addr)
    }

    fn healthz_images(&self) -> Res<u64> {
        let reply = self
            .control()
            .get("/healthz")
            .map_err(|e| format!("/healthz: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/healthz answered {}", reply.status));
        }
        json::parse(&reply.text())?
            .get("images")
            .and_then(Value::as_u64)
            .ok_or_else(|| "/healthz has no \"images\"".to_string())
    }

    /// `/metrics` as name → value. Unknown or missing names are the
    /// caller's problem: nothing here depends on a particular metric.
    fn metrics(&self) -> Res<HashMap<String, f64>> {
        let reply = self
            .control()
            .get("/metrics")
            .map_err(|e| format!("/metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(reply
            .text()
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    fn proc_file(&self, name: &str) -> Res<String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
    }

    /// utime + stime of the server process, in milliseconds.
    fn cpu_ms(&self) -> Res<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line.
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) * 1000.0 / TICKS_PER_S),
            _ => Err("unexpected /proc/<pid>/stat layout".to_string()),
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    fn rss_mb(&self) -> Res<f64> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc/<pid>/status".to_string())
    }

    /// SIGKILL: the crash every recovery measurement starts from. Returns
    /// the peak RSS the process reached.
    fn crash(mut self) -> Res<f64> {
        let rss = self.rss_mb()?;
        self.child.kill().map_err(|e| format!("kill server: {e}"))?;
        self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        Ok(rss)
    }

    /// SIGTERM, then require a drained, checkpointed, exit-0 shutdown.
    fn terminate(mut self) -> Res<()> {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("run kill: {e}"))?;
        if !status.success() {
            return Err("kill -TERM failed".to_string());
        }
        let exit = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !exit.success() {
            return Err(format!("server exited {exit} after SIGTERM"));
        }
        if !rest.contains("drained and checkpointed") {
            return Err(
                "server exited 0 without reporting a drained, checkpointed store".to_string(),
            );
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ------------------------------------------------------------- load phases

/// One request of a timed (or checking) phase, as the client saw it.
struct Record {
    /// Position in the workload's op sequence.
    index: usize,
    op: Op,
    /// Send → full response.
    latency_ms: f64,
    reply: std::io::Result<Reply>,
}

fn send_op(
    client: &mut Client,
    raw: &mut Vec<u8>,
    bodies: &Bodies,
    op: &Op,
) -> std::io::Result<Reply> {
    let body = bodies.of(op);
    raw.clear();
    raw.extend_from_slice(inputs::request_head("POST", &op.target(), body.len()).as_bytes());
    raw.extend_from_slice(body);
    client.send(raw)
}

/// Closed loop: `CLIENTS` clients, each sending the workload's next op as
/// soon as its previous one returned, for `seconds`; stops on a multiple of
/// six ops so every run has the same class mix.
fn closed_loop(addr: SocketAddr, plan: Plan, bodies: &Bodies, seconds: u64) -> (Vec<Record>, f64) {
    let shared = Mutex::new((plan, 0usize));
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut raw = Vec::new();
                    let mut mine = Vec::new();
                    loop {
                        let (index, op) = {
                            let mut guard = shared.lock().expect("plan lock");
                            let (plan, issued) = &mut *guard;
                            if Instant::now() >= deadline && *issued % 6 == 0 {
                                break;
                            }
                            *issued += 1;
                            (*issued - 1, plan.next().expect("plans are endless"))
                        };
                        let sent = Instant::now();
                        let reply = send_op(&mut client, &mut raw, bodies, &op);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        mine.push(Record {
                            index,
                            op,
                            latency_ms,
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load client panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.index);
    (records, wall_s)
}

// ------------------------------------------------------------ answer checks

/// Checks one `/query` answer's shape and returns its ranking: complete,
/// at most `K` matches, `count` agrees, ids inside the store, ordered by
/// similarity descending then id ascending.
fn check_query_answer(reply: &Reply, images: u64) -> Res<Ranking> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let v = json::parse(&reply.text())?;
    if v.get("status").and_then(Value::as_str) != Some("complete") {
        return Err("answer is not \"complete\"".to_string());
    }
    let ranking = ranking(&v).ok_or("no \"matches\", or one without id or similarity_bits")?;
    if ranking.len() > K || v.get("count").and_then(Value::as_u64) != Some(ranking.len() as u64) {
        return Err(format!(
            "{} matches for k={K}, or \"count\" disagrees",
            ranking.len()
        ));
    }
    for pair in ranking.windows(2) {
        let (a, b) = (f64::from_bits(pair[0].1), f64::from_bits(pair[1].1));
        if a < b || (a == b && pair[0].0 >= pair[1].0) {
            return Err("matches out of order".to_string());
        }
    }
    if ranking.iter().any(|(id, _)| *id >= images) {
        return Err("match id outside the store".to_string());
    }
    Ok(ranking)
}

/// Checks one single-image `/ingest` answer and returns the new id.
fn check_ingest_answer(reply: &Reply) -> Res<u64> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let v = json::parse(&reply.text())?;
    match v.get("ids").and_then(Value::as_array) {
        Some([id]) => id.as_u64().ok_or_else(|| "non-integer id".to_string()),
        _ => Err("expected exactly one id".to_string()),
    }
}

/// A query answer with its `request_id` field removed: the only bytes in
/// which a cached and a computed answer may differ.
fn without_request_id(body: &str) -> &str {
    body.rfind(",\"request_id\":")
        .map_or(body, |at| &body[..at])
}

// ------------------------------------------------------------------ the run

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// What set-up leaves behind: the server that carries the run and the
/// samples taken on the way.
struct SetUp {
    server: Server,
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    peak_rss_mb: f64,
}

/// Set-up, `setups` times: fresh directory, start the server, batch-ingest
/// the corpus over one connection; then crash it and time the restart, which
/// replays exactly the corpus WAL (nothing has been checkpointed). The last
/// restarted server carries the run.
fn set_up(args: &Args, store_dir: &Path, batches: &[Vec<u8>], setups: usize) -> Res<SetUp> {
    let corpus = args.workload.corpus as u64;
    let mut setup_s = Vec::new();
    let mut recovery_s = Vec::new();
    let mut peak_rss_mb: f64 = 0.0;
    let mut live = None;
    for _ in 0..setups {
        drop(live.take());
        let _ = std::fs::remove_dir_all(store_dir);
        let began = Instant::now();
        let (server, _, _) = Server::start(args, store_dir)?;
        let mut client = server.control();
        let mut next_id = 0u64;
        for raw in batches {
            let reply = client
                .send(raw)
                .map_err(|e| format!("corpus ingest: {e}"))?;
            let ids: Vec<u64> = json::parse(&reply.text())
                .ok()
                .and_then(|v| {
                    Some(
                        v.get("ids")?
                            .as_array()?
                            .iter()
                            .filter_map(Value::as_u64)
                            .collect(),
                    )
                })
                .unwrap_or_default();
            if reply.status != 200
                || ids.is_empty()
                || ids
                    .iter()
                    .enumerate()
                    .any(|(i, id)| *id != next_id + i as u64)
            {
                return Err(format!(
                    "corpus ingest answered {}: {}",
                    reply.status,
                    reply.text()
                ));
            }
            next_id += ids.len() as u64;
        }
        setup_s.push(began.elapsed().as_secs_f64());
        drop(client);
        peak_rss_mb = peak_rss_mb.max(server.crash()?);
        let (server, images, recovered_in) = Server::start(args, store_dir)?;
        if images != corpus {
            return Err(format!(
                "{images} images after crash + restart, {corpus} were acknowledged"
            ));
        }
        recovery_s.push(recovered_in);
        live = Some(server);
    }
    Ok(SetUp {
        server: live.ok_or("a workload sets up at least once")?,
        setup_s,
        recovery_s,
        peak_rss_mb,
    })
}

/// The untimed warm-up ops, split over the load connections.
fn warm_up(addr: SocketAddr, workload: &Workload, bodies: &Bodies) {
    let warm = inputs::warmup(workload);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let warm = &warm;
            scope.spawn(move || {
                let mut client = Client::new(addr);
                let mut raw = Vec::new();
                for op in warm.iter().skip(c).step_by(CLIENTS) {
                    let _ = send_op(&mut client, &mut raw, bodies, op);
                }
            });
        }
    });
}

fn run(args: &Args) -> Res<()> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let store_dir = args.out.join(format!("store-{}", w.name));
    // Failed checks that are not one op's; each counts as one failure.
    let mut failures: Vec<String> = Vec::new();

    // Inputs, generated before anything is timed.
    let bodies = Bodies::generate(args.seed, w);
    let corpus: Vec<Vec<u8>> = (0..w.corpus)
        .map(|i| inputs::body(args.seed, Stream::Corpus, i))
        .collect();
    let batches: Vec<Vec<u8>> = corpus
        .chunks(SETUP_BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            inputs::raw_request("POST", &format!("/ingest?name=c{b}"), &chunk.concat())
        })
        .collect();

    let SetUp {
        mut server,
        setup_s,
        recovery_s,
        mut peak_rss_mb,
    } = set_up(
        args,
        &store_dir,
        &batches,
        if args.trace { 1 } else { w.setups },
    )?;
    drop(batches);
    warm_up(server.addr, w, &bodies);
    let mut images = w.corpus as u64
        + if w.mix == Mix::Ingest {
            WARMUP_OPS as u64
        } else {
            0
        };
    peak_rss_mb = peak_rss_mb.max(server.rss_mb()?);

    // Timed phase.
    let before = server.metrics()?;
    let cpu_before = server.cpu_ms()?;
    let (records, wall_s) = closed_loop(
        server.addr,
        inputs::plan(w, args.seed),
        &bodies,
        args.seconds,
    );
    let cpu_after = server.cpu_ms()?;
    let after = server.metrics()?;
    let delta = |name: &str| Some(after.get(name)? - before.get(name)?);

    // Every answer is checked; a failed check is a failed op.
    let attempted = records.len();
    let mut failed = 0usize;
    let mut completed = 0usize;
    let mut latencies = Vec::new();
    let mut rankings: Vec<(usize, Ranking)> = Vec::new();
    let mut new_ids = Vec::new();
    let ingested_in_phase = records.iter().filter(|r| !r.op.is_query()).count() as u64;
    for r in &records {
        let checked = match &r.reply {
            Err(e) => Err(format!("I/O: {e}")),
            // Ids acknowledged during this phase are valid match ids too.
            Ok(reply) if r.op.is_query() => check_query_answer(reply, images + ingested_in_phase)
                .map(|ranking| rankings.push((r.index, ranking))),
            Ok(reply) => check_ingest_answer(reply).map(|id| new_ids.push(id)),
        };
        match checked {
            Ok(()) => {
                completed += 1;
                // Latency is reported for the workload's own kind of op.
                if r.op.is_query() == w.mix.times_queries() {
                    latencies.push(r.latency_ms);
                }
            }
            Err(e) => {
                failed += 1;
                if failed <= 5 {
                    eprintln!(
                        "e2e: {}: CHECK FAILED: op {} ({:?}): {e}",
                        w.name, r.index, r.op
                    );
                }
            }
        }
    }
    images += new_ids.len() as u64;
    new_ids.sort_unstable();
    if new_ids.windows(2).any(|p| p[0] == p[1]) {
        failures.push("two ingests were given the same id".to_string());
    }
    if latencies.len() < 20 {
        return Err(format!(
            "only {} good ops in the timed phase",
            latencies.len()
        ));
    }
    let hit_ratio = match (
        delta("walrus_cache_hits_total"),
        delta("walrus_cache_misses_total"),
    ) {
        (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
        _ => None,
    };

    // Workload-specific answer checks, untimed, on one connection.
    let mut check = server.control();
    match w.mix {
        Mix::Cold => {
            if hit_ratio != Some(0.0) {
                failures.push(format!(
                    "cold workload saw cache hit ratio {hit_ratio:?}, expected 0"
                ));
            }
            // The concurrent run's answers must equal a sequential re-ask.
            for (index, ranking) in rankings.iter().take(RECHECK_OPS) {
                let op = Op::Query {
                    stream: Stream::Cold,
                    index: index % inputs::COLD_BODIES,
                };
                let again = check
                    .post(QUERY_TARGET, bodies.of(&op))
                    .map_err(|e| e.to_string())
                    .and_then(|reply| check_query_answer(&reply, images));
                if again.as_ref() != Ok(ranking) {
                    failures.push(format!(
                        "op {index}: re-asked answer differs: {again:?} vs {ranking:?}"
                    ));
                }
            }
        }
        Mix::HotMixed => {
            if !hit_ratio.is_some_and(|r| r > 0.5) {
                failures.push(format!(
                    "hot workload saw cache hit ratio {hit_ratio:?}, expected > 0.5"
                ));
            }
            // A cached answer must equal a computed one byte for byte
            // (modulo request_id). A never-reached timeout changes the cache
            // key but not the answer, which forces the second to compute.
            for index in 0..HOT_BODIES {
                let body = bodies.of(&Op::Query {
                    stream: Stream::Hot,
                    index,
                });
                let _prime = check.post(QUERY_TARGET, body);
                let hot = check.post(QUERY_TARGET, body).map_err(|e| e.to_string())?;
                let cold = check
                    .post(&format!("{QUERY_TARGET}&timeout_ms=3600000"), body)
                    .map_err(|e| e.to_string())?;
                if hot.status != 200
                    || without_request_id(&hot.text()) != without_request_id(&cold.text())
                {
                    failures.push(format!(
                        "hot body {index}: cached answer differs from computed answer"
                    ));
                }
            }
            let gained = server
                .metrics()?
                .get("walrus_cache_hits_total")
                .copied()
                .unwrap_or(0.0)
                - after.get("walrus_cache_hits_total").copied().unwrap_or(0.0);
            if gained < HOT_BODIES as f64 {
                failures.push(format!(
                    "hot/cold check produced {gained} cache hits, expected {HOT_BODIES}"
                ));
            }
        }
        Mix::Ingest => {
            // Durability: every acknowledged ingest survives SIGKILL.
            drop(check);
            server.crash()?;
            let (restarted, survived, _) = Server::start(args, &store_dir)?;
            server = restarted;
            if survived != images {
                failures.push(format!(
                    "{survived} images after SIGKILL + restart, {images} were acknowledged"
                ));
            }
            check = server.control();
        }
    }

    // Footprint after a checkpoint, then a clean shutdown.
    let reply = check
        .post("/admin/checkpoint", b"")
        .map_err(|e| format!("/admin/checkpoint: {e}"))?;
    if reply.status != 200 {
        failures.push(format!("/admin/checkpoint answered {}", reply.status));
    }
    drop(check);
    let disk_bytes = dir_bytes(&store_dir)?;
    let final_images = server.healthz_images()?;
    if final_images != images {
        failures.push(format!(
            "/healthz reports {final_images} images, expected {images}"
        ));
    }
    // A timed ingest phase grows the store by as many images as the server
    // had time for, so its memory is not comparable between two runs; there
    // the peak is taken over set-up, recovery and warm-up only.
    if w.mix != Mix::Ingest {
        peak_rss_mb = peak_rss_mb.max(server.rss_mb()?);
    }
    if let Err(e) = server.terminate() {
        failures.push(e);
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    // Report.
    let lat = sorted(latencies);
    let metrics = [
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("ops_s", completed as f64 / wall_s, "1/s", completed),
        Metric::new("latency_p50_ms", percentile(&lat, 0.50), "ms", lat.len()),
        Metric::new("latency_p95_ms", percentile(&lat, 0.95), "ms", lat.len()),
        Metric::new("latency_mean_ms", mean(&lat), "ms", lat.len()),
        Metric::new(
            "server_cpu_ms_per_op",
            (cpu_after - cpu_before) / completed.max(1) as f64,
            "ms",
            completed,
        ),
        Metric::new("server_rss_mb", peak_rss_mb, "MiB", 1),
        Metric::new("recovery_s", median(&recovery_s), "s", recovery_s.len()),
        Metric::new(
            "disk_bytes_per_image",
            disk_bytes as f64 / final_images.max(1) as f64,
            "B",
            final_images as usize,
        ),
    ];
    for f in &failures {
        eprintln!("e2e: {}: CHECK FAILED: {f}", w.name);
    }
    let failed = failed + failures.len();
    let correct = failed == 0;

    // What the traced replay needs from this run.
    let stages: Vec<String> = [
        "decode",
        "wavelet",
        "birch",
        "rstar_probe",
        "match",
        "wal_append",
        "cache",
    ]
    .iter()
    .filter_map(|s| {
        let sum = delta(&format!("walrus_stage_{s}_sum_us"))?;
        let count = delta(&format!("walrus_stage_{s}_count"))?;
        Some(format!(
            "\"{s}\": {{\"sum_us\": {sum}, \"count\": {count}}}"
        ))
    })
    .collect();
    let number = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let answers: Vec<String> = rankings
        .iter()
        .filter(|(index, _)| *index < REPLAY_OPS)
        .map(|(index, ranking)| {
            let pairs: Vec<String> = ranking
                .iter()
                .map(|(id, bits)| format!("[{id},{bits}]"))
                .collect();
            format!("[{index},[{}]]", pairs.join(","))
        })
        .collect();
    let handoff = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed},\n \"latency_p50_ms\": {},\n \"cache\": {{\"hit_ratio\": {}, \"invalidations\": {}, \"evictions\": {}}},\n \"stages\": {{{}}},\n \"answers\": [{}]}}\n",
        w.name,
        args.seed,
        percentile(&lat, 0.50),
        number(hit_ratio),
        number(delta("walrus_cache_invalidations_total")),
        number(delta("walrus_cache_evictions_total")),
        stages.join(", "),
        answers.join(","),
    );
    let handoff_path = args.out.join(format!("e2e-{}.json", w.name));
    std::fs::write(&handoff_path, handoff)
        .map_err(|e| format!("write {}: {e}", handoff_path.display()))?;

    print_metrics(w.name, &metrics);
    if !args.trace {
        println!("{}", result_line(correct, attempted, failed, &metrics));
    }
    Ok(())
}
