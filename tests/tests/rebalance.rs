//! Online-rebalancing integration suite: the crash-safety contract of
//! `walrus rebalance` end to end.
//!
//! 1. **Fault sweeps** — `Error` / `ShortWrite` injected at *every* I/O
//!    operation index of the whole migration (manifest writes, target shard
//!    builds, GC), under every [`CrashMode`], for (N,M) ∈ {1→4, 4→2, 4→8},
//!    at every worker-thread count of the matrix:
//!    the store always reopens (rolling an uncommitted migration back),
//!    never quarantines a shard, lands on exactly the source or the target
//!    layout, answers queries bit-identical to a never-migrated oracle,
//!    accepts writes, and passes a full scrub.
//! 2. **Mid-migration serving** — a gated I/O wrapper freezes the migration
//!    inside the first target-shard build: queries keep answering from the
//!    source layout bit-identically, ingest and checkpoints shed with the
//!    typed [`WalrusError::Rebalancing`], and progress is visible through
//!    `rebalance_status`. Releasing the gate commits; the new layout serves
//!    the same answers and survives a reopen. Also at every thread count.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use walrus_core::sharded::{read_manifest, shard_dir_name_at};
use walrus_core::storage::{Fault, FaultIo, FaultKind, ALL_CRASH_MODES};
use walrus_core::{
    extract_regions, scrub_store, QueryOutcome, Region, Result, ShardedStore, StorageIo,
    WalrusError, WalrusParams,
};
use walrus_imagery::synth::scene::{Scene, SceneObject};
use walrus_imagery::synth::shapes::Shape;
use walrus_imagery::synth::texture::{Rgb, Texture};
use walrus_imagery::Image;
use walrus_integration_tests::THREAD_COUNTS;

fn sweep_params(threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: walrus_wavelet::SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
        threads,
        ..WalrusParams::paper_defaults()
    }
}

fn scene(hue: f32) -> Image {
    Scene::new(Texture::Solid(Rgb(hue, 0.4, 0.3)))
        .with(SceneObject::new(
            Shape::Ellipse { rx: 0.5, ry: 0.5 },
            Texture::Solid(Rgb(0.9, 0.2, 0.2)),
            (0.5, 0.5),
            0.4,
        ))
        .render(32, 32)
        .unwrap()
}

/// Pre-extracted regions for the workload images, so the hundreds of sweep
/// iterations skip the deterministic wavelet work.
struct Fixtures {
    regions: Vec<(String, Vec<Region>)>,
}

impl Fixtures {
    fn new() -> Self {
        let p = sweep_params(1);
        let regions = (0..6)
            .map(|i| {
                let name = format!("img{i}");
                let r = extract_regions(&scene(0.1 + 0.11 * i as f32), &p).unwrap();
                (name, r)
            })
            .collect();
        Self { regions }
    }

    fn insert(&self, store: &ShardedStore, i: usize) -> Result<()> {
        let (name, regions) = &self.regions[i];
        store.insert_regions(name, 32, 32, regions.clone())?;
        Ok(())
    }
}

/// The pre-migration workload: six inserts spread over the shards by the id
/// hash, plus one remove so the migration must carry a tombstone (sparse
/// ids survive the re-hash).
fn apply_workload(fx: &Fixtures, store: &ShardedStore) {
    for i in 0..6 {
        fx.insert(store, i).unwrap();
    }
    store.remove_image(2).unwrap();
}

fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, ctx: &str) {
    assert_eq!(a.status, b.status, "{ctx}: status diverged");
    assert_eq!(a.stats, b.stats, "{ctx}: query stats diverged");
    assert_eq!(a.matches.len(), b.matches.len(), "{ctx}: match count diverged");
    for (x, y) in a.matches.iter().zip(&b.matches) {
        assert_eq!(x.image_id, y.image_id, "{ctx}: ranking diverged");
        assert_eq!(x.name, y.name, "{ctx}: name diverged");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{ctx}: similarity of {} diverged",
            x.name
        );
        assert_eq!(x.matched_pairs, y.matched_pairs, "{ctx}: matched pairs of {}", x.name);
    }
}

// ---------------------------------------------------------------------------
// 1. Fault sweeps: every op index of the migration, every crash mode.
// ---------------------------------------------------------------------------

/// Ops the clean migration performs under the store root (a never-firing
/// sentinel fault arms the prefix counter after the workload, so only the
/// rebalance itself is counted).
fn clean_rebalance_op_count(fx: &Fixtures, params: WalrusParams, from: usize, to: usize) -> usize {
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", params, from).unwrap();
    apply_workload(fx, &store);
    io.arm_fault_at_path("db", Fault { at_op: usize::MAX, kind: FaultKind::Error });
    store.rebalance(to).unwrap();
    io.op_count_at_path("db")
}

/// The sweep: for every op index of the migration, both halting fault
/// kinds, and every crash mode, the interrupted store must reopen healthy
/// on the source or target layout, answer the oracle's exact bits, accept
/// writes, and scrub clean.
fn rebalance_fault_sweep(from: usize, to: usize) {
    for threads in THREAD_COUNTS {
        rebalance_fault_sweep_at(sweep_params(threads), from, to);
    }
}

fn rebalance_fault_sweep_at(params: WalrusParams, from: usize, to: usize) {
    let fx = Fixtures::new();
    let query = scene(0.15);

    // Never-migrated oracle: the same workload on the source layout.
    let oracle = {
        let io = Arc::new(FaultIo::new());
        let (store, _) =
            ShardedStore::open_with(io, "db", params, from).unwrap();
        apply_workload(&fx, &store);
        store.query(&query).unwrap()
    };
    assert!(!oracle.matches.is_empty(), "the oracle matched nothing — the sweep is vacuous");

    let ops = clean_rebalance_op_count(&fx, params, from, to);
    assert!(ops > 0, "the migration must perform I/O");

    for at_op in 0..ops {
        for kind in [FaultKind::Error, FaultKind::ShortWrite] {
            for mode in ALL_CRASH_MODES {
                let ctx = format!(
                    "{from}->{to} on {} thread(s), fault {kind:?} at op {at_op}, crash {mode:?}",
                    params.threads
                );
                let io = Arc::new(FaultIo::new());
                let (store, _) =
                    ShardedStore::open_with(io.clone(), "db", params, from).unwrap();
                apply_workload(&fx, &store);
                io.arm_fault_at_path("db", Fault { at_op, kind });
                let result = store.rebalance(to);
                assert!(io.is_halted(), "{ctx}: the armed fault never fired");
                drop(store);
                io.crash(mode);

                // Crash at ANY op leaves the store openable: an uncommitted
                // migration rolls back, quarantining nothing.
                let (store, recoveries) =
                    ShardedStore::open_with(io.clone(), "db", params, 0)
                        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
                assert!(
                    recoveries.iter().all(|r| r.error.is_none()),
                    "{ctx}: reopen quarantined a shard: {recoveries:?}"
                );
                let count = store.shard_count();
                assert!(
                    count == from || count == to,
                    "{ctx}: reopened on an impossible layout of {count} shards"
                );
                if result.is_ok() {
                    assert_eq!(count, to, "{ctx}: a committed rebalance was lost on reopen");
                }

                // Bit-identity to the never-migrated oracle.
                let outcome = store
                    .query(&query)
                    .unwrap_or_else(|e| panic!("{ctx}: post-reopen query failed: {e}"));
                assert_outcomes_identical(&oracle, &outcome, &ctx);

                // Writes are restored (the migration flag never leaks).
                let before = store.len();
                fx.insert(&store, 0)
                    .unwrap_or_else(|e| panic!("{ctx}: post-reopen ingest failed: {e}"));
                assert_eq!(store.len(), before + 1, "{ctx}: post-reopen insert lost");
                drop(store);

                // The surviving layout is fully intact on disk: a stable
                // manifest and every shard's snapshot + WAL CRC-clean.
                let manifest = read_manifest(&*io, Path::new("db"))
                    .unwrap_or_else(|e| panic!("{ctx}: manifest unreadable: {e}"));
                assert!(
                    manifest.staged == 0,
                    "{ctx}: reopen left the manifest migrating"
                );
                let verdicts = scrub_store(&*io, Path::new("db"), None)
                    .unwrap_or_else(|e| panic!("{ctx}: scrub refused the store: {e}"));
                for v in &verdicts {
                    assert!(
                        v.scrub.clean(),
                        "{ctx}: shard {} failed scrub: {:?}",
                        v.shard,
                        v.scrub
                    );
                }
            }
        }
    }
}

#[test]
fn fault_sweep_scale_out_from_one_shard() {
    rebalance_fault_sweep(1, 4);
}

#[test]
fn fault_sweep_scale_in() {
    rebalance_fault_sweep(4, 2);
}

#[test]
fn fault_sweep_scale_out() {
    rebalance_fault_sweep(4, 8);
}

// ---------------------------------------------------------------------------
// 2. Mid-migration serving: queries identical, ingest shed, then commit.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    entered: bool,
    released: bool,
}

/// I/O wrapper that blocks the first write under one directory prefix
/// (once armed) until released — freezes the migration inside a target
/// shard build without sleeping.
#[derive(Debug)]
struct GateIo {
    inner: Arc<FaultIo>,
    gate_prefix: PathBuf,
    armed: AtomicBool,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl GateIo {
    fn new(inner: Arc<FaultIo>, gate_prefix: PathBuf) -> Self {
        Self {
            inner,
            gate_prefix,
            armed: AtomicBool::new(false),
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Blocks the calling (migration) thread at the gate until released.
    fn block_if_gated(&self, path: &Path) {
        if !self.armed.load(Ordering::Acquire) || !path.starts_with(&self.gate_prefix) {
            return;
        }
        let mut st = self.state.lock().unwrap();
        st.entered = true;
        self.cv.notify_all();
        while !st.released {
            let (next, timeout) =
                self.cv.wait_timeout(st, Duration::from_secs(30)).unwrap();
            st = next;
            assert!(!timeout.timed_out(), "gate never released — test deadlock");
        }
    }

    /// Waits until the migration thread is parked inside the gate.
    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.entered {
            let (next, timeout) =
                self.cv.wait_timeout(st, Duration::from_secs(30)).unwrap();
            st = next;
            assert!(
                !timeout.timed_out(),
                "the migration never reached the gated target-shard write"
            );
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.released = true;
        self.cv.notify_all();
    }
}

impl StorageIo for GateIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.block_if_gated(path);
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.inner.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
}

#[test]
fn queries_serve_the_source_layout_while_the_migration_runs() {
    for threads in THREAD_COUNTS {
        queries_serve_the_source_layout_while_the_migration_runs_at(sweep_params(threads));
    }
}

fn queries_serve_the_source_layout_while_the_migration_runs_at(params: WalrusParams) {
    const FROM: usize = 4;
    const TO: usize = 2;
    let fx = Fixtures::new();
    let query = scene(0.15);
    let fault = Arc::new(FaultIo::new());
    let (store, _) =
        ShardedStore::open_with(fault.clone(), "db", params, FROM).unwrap();
    apply_workload(&fx, &store);
    let reference = store.query(&query).unwrap();
    assert!(!reference.matches.is_empty(), "the scenario matched nothing");
    drop(store);

    // Gate the first write inside target shard 0's build (epoch-1 dirs),
    // freezing the migration after it durably declared itself.
    let gate = Arc::new(GateIo::new(
        fault.clone(),
        Path::new("db").join(shard_dir_name_at(1, 0)),
    ));
    let (store, _) = ShardedStore::open_with(gate.clone(), "db", params, 0).unwrap();
    let store = Arc::new(store);
    gate.armed.store(true, Ordering::Release);

    let rebalancer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.rebalance(TO))
    };
    gate.wait_entered();

    // The migration is mid-flight: progress is visible...
    let status = store.rebalance_status();
    assert!(status.rebalancing, "status must show the live migration");
    assert_eq!(status.target_shards, TO);
    assert_eq!(status.epoch, 0, "the epoch bumps only at commit");

    // ...queries answer from the source layout, bit for bit...
    let outcome = store.query(&query).unwrap();
    assert_outcomes_identical(&reference, &outcome, "mid-migration query");

    // ...and every mutation path sheds with the typed error.
    match fx.insert(&store, 0) {
        Err(WalrusError::Rebalancing) => {}
        other => panic!("mid-migration ingest must shed with Rebalancing, got {other:?}"),
    }
    match store.checkpoint() {
        Err(WalrusError::Rebalancing) => {}
        other => panic!("mid-migration checkpoint must shed with Rebalancing, got {other:?}"),
    }
    match store.rebalance(8) {
        Err(WalrusError::Rebalancing) => {}
        other => panic!("concurrent rebalance must shed with Rebalancing, got {other:?}"),
    }

    gate.release();
    let report = rebalancer.join().unwrap().unwrap();
    assert_eq!((report.from_shards, report.to_shards, report.epoch), (FROM, TO, 1));

    // Committed: same answers from the new layout, writes restored.
    let status = store.rebalance_status();
    assert!(!status.rebalancing);
    assert_eq!(status.epoch, 1);
    assert_eq!(status.shards_migrated, TO);
    let outcome = store.query(&query).unwrap();
    assert_outcomes_identical(&reference, &outcome, "post-commit query");
    let id = store.insert_regions("after-commit", 32, 32, fx.regions[0].1.clone()).unwrap();
    let with_insert = store.query(&query).unwrap();
    drop(store);

    // The commit and the post-commit write are durable across a reopen.
    let (store, recoveries) =
        ShardedStore::open_with(fault, "db", params, 0).unwrap();
    assert!(recoveries.iter().all(|r| r.error.is_none()), "{recoveries:?}");
    assert_eq!(store.shard_count(), TO);
    assert_eq!(store.image_meta(id).unwrap().unwrap().name, "after-commit");
    let outcome = store.query(&query).unwrap();
    assert_outcomes_identical(&with_insert, &outcome, "post-reopen query");
}
