//! Sharded-store integration suite: the robustness contract of
//! [`ShardedStore`] end to end.
//!
//! 1. **Bit-identity** — scatter-gather answers over every shard count ×
//!    thread count of the matrix are bit-identical (ids, names, similarity
//!    bits, stats, status) to the in-memory `ImageDatabase` oracle, before
//!    and after a reopen — whole-image queries and user-specified scenes.
//! 2. **Multi-shard fault sweep** — `Error` / `ShortWrite` injected at
//!    *every* I/O operation index of *every* shard of a mixed
//!    insert/remove/checkpoint workload, under every [`CrashMode`]: the
//!    store always reopens with at most the faulted shard quarantined,
//!    every healthy shard in a committed state, and `recover_shard`
//!    always restores a writable, committed store.
//! 3. **Torn WAL, one shard** — mid-log corruption in exactly one shard's
//!    WAL quarantines that shard only; healthy shards' files are
//!    byte-identical to a clean reopen; queries answer `Degraded`; ingest
//!    sheds with a typed error; repair + re-ingest succeed.
//! 4. **Rolling checkpoint** — a scripted interleaving (gated I/O) proves
//!    an ingest on shard A commits while shard B is mid-checkpoint.
//! 5. **Degraded HTTP smoke** — a live server over a store with one
//!    quarantined shard reports per-shard health, answers queries `206
//!    "degraded"`, and sheds ingest with a typed `503` body.
//!
//! The fault sweep, the HTTP smoke and the other store-level tests run at
//! every shard count of the matrix, so the degenerate 1-shard store walks
//! the same assertions as the 4-shard one.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use walrus_core::recovery::WAL_FILE;
use walrus_core::scene_query::SceneRect;
use walrus_core::sharded::{shard_dir_name, shard_of};
use walrus_core::storage::{CrashMode, Fault, FaultIo, FaultKind, ALL_CRASH_MODES};
use walrus_core::wal::WAL_HEADER_LEN;
use walrus_core::{
    extract_regions, DurableDatabase, Guard, ImageDatabase, QueryOptions, QueryOutcome, Region,
    Result, ResultStatus, ShardedStore, StorageIo, WalrusError, WalrusParams,
};
use walrus_imagery::ppm::write_ppm;
use walrus_imagery::synth::dataset::{
    flower_query_scenario, DatasetSpec, ImageClass, SyntheticDataset,
};
use walrus_imagery::synth::scene::{Scene, SceneObject};
use walrus_imagery::synth::shapes::Shape;
use walrus_imagery::synth::texture::{Rgb, Texture};
use walrus_imagery::{ColorSpace, Image};
use walrus_integration_tests::{threads_by_shards, SHARD_COUNTS, THREAD_COUNTS};
use walrus_server::{Client, Server, ServerConfig};

fn sweep_params() -> WalrusParams {
    WalrusParams {
        sliding: walrus_wavelet::SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
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

fn shard_prefix(root: &str, shard: usize) -> PathBuf {
    Path::new(root).join(shard_dir_name(shard))
}

// ---------------------------------------------------------------------------
// 1. Bit-identity: sharded == monolithic, for every shard and thread count.
// ---------------------------------------------------------------------------

fn engine_params() -> WalrusParams {
    WalrusParams {
        sliding: walrus_wavelet::SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
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

#[test]
fn sharded_answers_are_bit_identical_to_monolithic() {
    let params = engine_params();
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 1,
        width: 128,
        height: 96,
        seed: 0x5AD5,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap();
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|i| (i.name.as_str(), &i.image)).collect();

    let mut mono = ImageDatabase::new(params).unwrap();
    mono.insert_images_batch_guarded(&items, &Guard::none()).unwrap();

    let (query, variants) = flower_query_scenario(0x53, 128, 96, 1).unwrap();
    let queries: Vec<&Image> = std::iter::once(&query).chain(variants.iter()).collect();
    let reference: Vec<QueryOutcome> = queries.iter().map(|q| mono.query(q).unwrap()).collect();
    assert!(
        reference.iter().any(|o| !o.matches.is_empty()),
        "the reference sweep matched nothing — the scenario is vacuous"
    );

    for (threads, shards) in threads_by_shards() {
        let params = WalrusParams { threads, ..params };
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params, shards).unwrap();
        store.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
        assert_eq!(store.len(), mono.len(), "shards {shards}");
        assert_eq!(store.num_regions(), mono.num_regions(), "shards {shards}");
        for (qi, q) in queries.iter().enumerate() {
            let outcome = store.query(q).unwrap();
            assert_outcomes_identical(
                &reference[qi],
                &outcome,
                &format!("threads {threads}, shards {shards}, query {qi}"),
            );
        }

        // The identity must survive a shutdown + WAL replay.
        drop(store);
        let (store, recoveries) = ShardedStore::open_with(io, "db", params, 0).unwrap();
        assert!(
            recoveries.iter().all(|r| r.error.is_none()),
            "shards {shards}: clean reopen quarantined a shard: {recoveries:?}"
        );
        for (qi, q) in queries.iter().enumerate() {
            let outcome = store.query(q).unwrap();
            assert_outcomes_identical(
                &reference[qi],
                &outcome,
                &format!("threads {threads}, shards {shards} after reopen, query {qi}"),
            );
        }
    }
}

/// The paper's title feature on the store `serve` runs: a query by a marked
/// scene answers, at every shard and thread count of the matrix, exactly
/// what `ImageDatabase::query_scene` answers over the same images; is
/// refused for the same rectangles and coverages with the same words; and
/// degrades the same way under a deadline.
#[test]
fn scene_queries_on_the_store_match_the_in_memory_engine() {
    for (threads, shards) in threads_by_shards() {
        scene_queries_match_at(threads, shards);
    }
}

fn scene_queries_match_at(threads: usize, shards: usize) {
    let params = WalrusParams { threads, ..engine_params() };
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 1,
        width: 128,
        height: 96,
        seed: 0x5AD5,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap();
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|i| (i.name.as_str(), &i.image)).collect();
    let mut mono = ImageDatabase::new(params).unwrap();
    mono.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io, "db", params, shards).unwrap();
    store.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
    let ctx = format!("threads {threads}, shards {shards}");

    let (query, _) = flower_query_scenario(0x53, 128, 96, 0).unwrap();
    let on_store = |scene: SceneRect, min_coverage: f64, guard: &Guard| {
        let opts = QueryOptions {
            scene: Some(scene),
            min_similarity: Some(min_coverage),
            ..QueryOptions::default()
        };
        store.query_with_options_guarded(&query, &opts, guard)
    };
    let scenes = [
        SceneRect { x: 16, y: 16, width: 64, height: 48 },
        SceneRect { x: 72, y: 40, width: 32, height: 32 },
        SceneRect::full(&query),
    ];
    let mut matched = 0;
    for scene in scenes {
        for min_coverage in [0.0, 0.3, 1.0] {
            let want = mono.query_scene(&query, scene, min_coverage).unwrap();
            let got = on_store(scene, min_coverage, &Guard::none()).unwrap();
            let at = format!("{ctx}: {scene:?} at {min_coverage}");
            assert_outcomes_identical(&want, &got, &at);
            matched += got.matches.len();
        }
    }
    assert!(matched > 0, "{ctx}: no scene matched anything — the scenario is vacuous");

    let refused = [
        (SceneRect { x: 0, y: 0, width: 0, height: 10 }, 0.5),
        (SceneRect { x: 100, y: 0, width: 64, height: 32 }, 0.5),
        (SceneRect { x: 0, y: 0, width: 4, height: 4 }, 0.5),
        (SceneRect::full(&query), 1.5),
        (SceneRect::full(&query), -0.1),
        (SceneRect::full(&query), f64::NAN),
    ];
    for (scene, min_coverage) in refused {
        let want = mono.query_scene(&query, scene, min_coverage).unwrap_err();
        let got = on_store(scene, min_coverage, &Guard::none()).unwrap_err();
        assert!(
            matches!(got, WalrusError::BadParams(_)),
            "{ctx}: {scene:?} at {min_coverage}: {got}"
        );
        assert_eq!(got.to_string(), want.to_string());
    }

    // A deadline that expires during the scene's extraction: an empty
    // partial answer, not an error.
    let out = on_store(scenes[0], 0.0, &Guard::with_timeout(Duration::ZERO)).unwrap();
    assert_eq!(out.status, ResultStatus::Partial, "{ctx}");
    assert!(out.matches.is_empty(), "{ctx}");
    assert_eq!(out.stats.query_regions, 0, "{ctx}");
}

fn flower(cx: f32, cy: f32, scale: f32) -> Image {
    Scene::new(Texture::Solid(Rgb(0.1, 0.5, 0.15)))
        .with(SceneObject::new(
            Shape::Flower { petals: 6, core_radius: 0.3, petal_len: 0.95, petal_width: 0.22 },
            Texture::Solid(Rgb(0.85, 0.12, 0.18)),
            (cx, cy),
            scale,
        ))
        .render(64, 64)
        .unwrap()
}

/// A query with `k` answers exactly the first `k` of the same query's
/// whole ranking — the shards' own cuts lose nothing — for `k` of 1, 10 and
/// past the candidate count, at shard counts 1, 2 and 4 × the thread
/// counts. Twelve copies of the query image tie at similarity 1.0 and
/// spread over the shards, so the cut falls inside a tie that only the
/// id order breaks, and that order spans shards.
#[test]
fn top_k_is_the_first_k_of_the_whole_ranking() {
    let same = flower(0.5, 0.5, 0.45);
    let mut images = Vec::new();
    for i in 0..12 {
        images.push((format!("same{i}"), same.clone()));
        let other = flower(0.3 + 0.035 * i as f32, 0.4 + 0.02 * i as f32, 0.3 + 0.02 * i as f32);
        images.push((format!("other{i}"), other));
    }
    let items: Vec<(&str, &Image)> = images.iter().map(|(n, i)| (n.as_str(), i)).collect();
    for shards in [1, 2, 4] {
        for threads in THREAD_COUNTS {
            let params = WalrusParams { threads, ..engine_params() };
            let (store, _) =
                ShardedStore::open_with(Arc::new(FaultIo::new()), "k", params, shards).unwrap();
            store.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
            let ask = |k| {
                let opts = QueryOptions { k, ..QueryOptions::default() };
                store.query_with_options_guarded(&same, &opts, &Guard::none()).unwrap()
            };
            let all = ask(None);
            let ctx = format!("threads {threads}, shards {shards}");
            let tied: Vec<usize> =
                all.matches.iter().filter(|m| m.similarity == 1.0).map(|m| m.image_id).collect();
            assert!(tied.len() >= 12, "{ctx}: {} images tie at 1.0", tied.len());
            let tied_shards: std::collections::BTreeSet<usize> =
                tied.iter().map(|&id| shard_of(id, shards)).collect();
            assert_eq!(tied_shards.len(), shards, "{ctx}: the tie must span every shard");
            assert!(all.matches.len() > 10, "{ctx}: too few candidates to cut");
            for k in [1, 10, all.matches.len() + 3] {
                let top = ask(Some(k));
                let first = QueryOutcome {
                    matches: all.matches[..k.min(all.matches.len())].to_vec(),
                    ..all.clone()
                };
                assert_outcomes_identical(&first, &top, &format!("{ctx}, k {k}"));
            }
        }
    }
}

/// The three runtime-only knobs (`threads`, `budgets`, `prefilter`) are not
/// in a snapshot, so a reopen must take them from its caller — on the
/// single durable shard, on every shard of a store, after `recover_shard` and after a
/// rebalance — while the persisted parameters still win.
#[test]
fn reopen_keeps_the_callers_runtime_knobs() {
    let created = sweep_params();
    let mut reopened = WalrusParams {
        threads: 1,
        prefilter: false,
        // A persisted parameter the store must *not* take from the caller.
        query_epsilon: created.query_epsilon / 2.0,
        ..created
    };
    reopened.budgets.max_decoded_pixels = 16 * 16;
    assert_eq!((created.query_epsilon, reopened.query_epsilon), (0.085, 0.0425));
    let assert_knobs = |got: WalrusParams, ctx: &str| {
        assert_eq!(got.threads, 1, "{ctx}: threads");
        assert_eq!(got.budgets, reopened.budgets, "{ctx}: budgets");
        assert!(!got.prefilter, "{ctx}: prefilter");
        assert_eq!(got.query_epsilon, 0.085, "{ctx}: a persisted parameter must win");
    };
    let assert_refuses_oversized = |result: Result<QueryOutcome>, ctx: &str| match result {
        Err(WalrusError::BudgetExceeded { what: "decoded pixels", used, limit }) => {
            assert_eq!((used, limit), (32 * 32, 16 * 16), "{ctx}");
        }
        other => panic!("{ctx}: expected BudgetExceeded, got {other:?}"),
    };

    // One shard on its own: create → checkpoint → reopen.
    let io = Arc::new(FaultIo::new());
    let (mut mono, _) = DurableDatabase::open_with(io.clone(), "mono", created).unwrap();
    mono.insert_image("a", &scene(0.1)).unwrap();
    mono.checkpoint().unwrap();
    drop(mono);
    let (mono, report) = DurableDatabase::open_with(io, "mono", reopened).unwrap();
    assert!(report.snapshot_loaded);
    assert_knobs(*mono.db().params(), "one shard");
    assert_refuses_oversized(mono.db().query(&scene(0.1)), "one shard");

    // The store: the same, then repair one shard in place and rebalance.
    for shards in SHARD_COUNTS {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", created, shards).unwrap();
        for i in 0..8 {
            store.insert_image(&format!("img{i}"), &scene(i as f32 / 8.0)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);
        let (store, _) = ShardedStore::open_with(io, "db", reopened, 0).unwrap();
        let check = |when: &str| {
            let ctx = format!("{shards} shard(s), {when}");
            assert_knobs(store.params(), &ctx);
            assert_refuses_oversized(store.query(&scene(0.1)), &ctx);
        };
        check("reopened");
        store.recover_shard(0).unwrap();
        check("after recover_shard");
        store.rebalance(shards + 1).unwrap();
        check("after rebalance");
    }
}

/// The shard-parallel batch path must be indistinguishable on disk from
/// serial ingest: per-shard WAL records land in ascending-id order, so every
/// file the two stores write is byte-identical — even though the batch
/// version runs the shards concurrently on the worker pool.
#[test]
fn batch_ingest_wal_bytes_identical_to_serial() {
    let params = engine_params();
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 2,
        width: 64,
        height: 48,
        seed: 0xBA7C,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap();
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|i| (i.name.as_str(), &i.image)).collect();

    for shards in SHARD_COUNTS {
        batch_ingest_matches_serial_bytes_at(&items, params, shards);
    }
}

fn batch_ingest_matches_serial_bytes_at(
    items: &[(&str, &Image)],
    params: WalrusParams,
    shards: usize,
) {
    let batch_io = Arc::new(FaultIo::new());
    let (batch_store, _) = ShardedStore::open_with(batch_io.clone(), "db", params, shards).unwrap();
    let batch_ids = batch_store.insert_images_batch_guarded(items, &Guard::none()).unwrap();

    let serial_io = Arc::new(FaultIo::new());
    let (serial_store, _) =
        ShardedStore::open_with(serial_io.clone(), "db", params, shards).unwrap();
    let serial_ids: Vec<usize> =
        items.iter().map(|(name, image)| serial_store.insert_image(name, image).unwrap()).collect();

    assert_eq!(batch_ids, serial_ids, "{shards} shard(s): batch and serial assigned different ids");
    drop(batch_store);
    drop(serial_store);

    let batch_files: BTreeMap<PathBuf, Vec<u8>> = batch_io
        .file_names()
        .into_iter()
        .map(|p| {
            let bytes = batch_io.file_bytes(&p).unwrap();
            (p, bytes)
        })
        .collect();
    let serial_names: Vec<PathBuf> = serial_io.file_names();
    assert_eq!(
        batch_files.keys().cloned().collect::<Vec<_>>(),
        {
            let mut v = serial_names.clone();
            v.sort();
            v
        },
        "batch and serial ingest produced different file sets"
    );
    for (path, bytes) in &batch_files {
        assert_eq!(
            serial_io.file_bytes(path).as_ref(),
            Some(bytes),
            "{shards} shard(s): {} diverged between batch and serial ingest",
            path.display()
        );
    }
    // Sanity: the comparison actually covered every shard's WAL.
    for shard in 0..shards {
        let wal = shard_prefix("db", shard).join(WAL_FILE);
        assert!(batch_files.contains_key(&wal), "missing WAL for shard {shard}");
    }
}

/// What a storage failure in the middle of a batch leaves behind (the
/// contract documented on the store's commit body). Ids 0..8 over two shards
/// route `[1, 1, 0, 1, 0, 0, 0, 1]`; shard 1's WAL refuses the append of its
/// third record (id 3) once, with the filesystem otherwise healthy.
#[test]
fn mid_batch_failure_commits_a_per_shard_prefix_and_never_reuses_an_id() {
    const VICTIM: usize = 1;
    let params = sweep_params();
    let images: Vec<(String, Image)> =
        (0..8).map(|i| (format!("img{i}"), scene(0.08 + 0.1 * i as f32))).collect();
    let items: Vec<(&str, &Image)> = images.iter().map(|(n, i)| (n.as_str(), i)).collect();
    let routes: Vec<usize> = (0..8).map(|id| shard_of(id, 2)).collect();
    assert_eq!(routes, [1, 1, 0, 1, 0, 0, 0, 1], "the scenario below assumes this routing");

    // The oracle: the same images through a serial loop on a healthy disk.
    let serial_io = Arc::new(FaultIo::new());
    let (serial, _) = ShardedStore::open_with(serial_io.clone(), "db", params, 2).unwrap();
    for (name, image) in &items {
        serial.insert_image(name, image).unwrap();
    }

    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", params, 2).unwrap();
    // A committed record is an append and an fsync, so the victim's third
    // append is operation 4 on its log; the failed append is followed by
    // the truncate + fsync that restore the committed tail.
    let victim_wal = shard_prefix("db", VICTIM).join(WAL_FILE);
    io.arm_fault_at_path(&victim_wal, Fault { at_op: 4, kind: FaultKind::Transient });
    let err = store.insert_images_batch_guarded(&items, &Guard::none()).unwrap_err();
    assert!(
        matches!(&err, WalrusError::Io { context, .. } if context.contains("shard-001")),
        "expected the failed append on the victim's log, got {err}"
    );
    assert_eq!(io.op_count_at_path(&victim_wal), 7, "one attempt, then the tail restored");
    assert!(!io.is_halted(), "a transient fault leaves the filesystem up");
    io.clear_path_faults();

    // The victim stopped at its first failure, keeping what it had already
    // appended; the healthy shard committed its whole group; id 3 is a hole
    // and id 7 (behind the failure on the victim) was never attempted.
    assert_eq!(store.quarantined_shards(), vec![VICTIM]);
    assert_eq!(store.next_id(), 7, "past the highest committed id (6), not the failing one");
    let healthy_wal = shard_prefix("db", 0).join(WAL_FILE);
    assert_eq!(
        io.file_bytes(&healthy_wal),
        serial_io.file_bytes(&healthy_wal),
        "the healthy shard's log is the serial loop's"
    );
    let victim_bytes = io.file_bytes(&victim_wal).unwrap();
    let serial_victim = serial_io.file_bytes(&victim_wal).unwrap();
    assert!(victim_bytes.len() < serial_victim.len() && serial_victim.starts_with(&victim_bytes));

    let repair = store.recover_shard(VICTIM).unwrap();
    assert_eq!((repair.records_kept, repair.truncated_bytes), (2, 0));
    let names = |store: &ShardedStore| -> Vec<Option<String>> {
        (0..store.next_id()).map(|id| store.image_meta(id).unwrap().map(|m| m.name)).collect()
    };
    let live = |ids: &[usize]| -> Vec<Option<String>> {
        (0..7).map(|id| ids.contains(&id).then(|| format!("img{id}"))).collect()
    };
    assert_eq!(names(&store), live(&[0, 1, 2, 4, 5, 6]));

    // A crash and a reopen agree with the store that lived through it, and
    // the next insert takes an id nobody was ever given.
    drop(store);
    io.crash(CrashMode::LoseUnsynced);
    let (store, recoveries) = ShardedStore::open_with(io, "db", params, 0).unwrap();
    assert!(recoveries.iter().all(|r| r.error.is_none()));
    assert_eq!(store.next_id(), 7);
    assert_eq!(names(&store), live(&[0, 1, 2, 4, 5, 6]));
    assert_eq!(store.insert_image("after", &scene(0.95)).unwrap(), 7);
    assert_eq!(store.image_meta(7).unwrap().unwrap().name, "after");
    assert!(store.image_meta(3).unwrap().is_none(), "the failed id stays a hole");
}

// ---------------------------------------------------------------------------
// 2. Fault sweep: every op index of every shard, every crash mode.
// ---------------------------------------------------------------------------

/// Pre-extracted regions for the workload images: extraction is
/// deterministic, so the hundreds of sweep iterations skip the wavelet work.
struct Fixtures {
    regions: Vec<(String, Vec<Region>)>,
}

impl Fixtures {
    fn new() -> Self {
        let p = sweep_params();
        let regions = (0..7)
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

/// The workload: 9 commit points mixing inserts (spread across shards by
/// the id hash), a remove, and a rolling checkpoint.
const STEPS: usize = 9;

fn apply(fx: &Fixtures, store: &ShardedStore, step: usize) -> Result<()> {
    match step {
        0 => fx.insert(store, 0),
        1 => fx.insert(store, 1),
        2 => fx.insert(store, 2),
        3 => store.remove_image(1),
        4 => store.checkpoint().map(|_| ()),
        5 => fx.insert(store, 3),
        6 => fx.insert(store, 4),
        7 => fx.insert(store, 5),
        8 => fx.insert(store, 6),
        _ => unreachable!(),
    }
}

/// Live image names per shard, in id order — the observable state the
/// oracle compares. Quarantined shards read as empty (their ids error).
fn live_by_shard(store: &ShardedStore, shards: usize) -> Vec<Vec<String>> {
    let mut out = vec![Vec::new(); shards];
    for id in 0..store.next_id() {
        if let Ok(Some(meta)) = store.image_meta(id) {
            out[shard_of(id, shards)].push(meta.name);
        }
    }
    out
}

/// Runs the workload fault-free and records the per-shard state after `k`
/// completed steps, for k = 0..=STEPS.
fn committed_states(fx: &Fixtures, shards: usize) -> Vec<Vec<Vec<String>>> {
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io, "db", sweep_params(), shards).unwrap();
    let mut states = vec![live_by_shard(&store, shards)];
    for step in 0..STEPS {
        apply(fx, &store, step).unwrap();
        states.push(live_by_shard(&store, shards));
    }
    states
}

/// Ops the clean workload performs under each shard's directory (a
/// never-firing sentinel fault arms the per-prefix counters).
fn clean_op_counts(fx: &Fixtures, shards: usize) -> Vec<usize> {
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", sweep_params(), shards).unwrap();
    for s in 0..shards {
        io.arm_fault_at_path(
            shard_prefix("db", s),
            Fault { at_op: usize::MAX, kind: FaultKind::Error },
        );
    }
    for step in 0..STEPS {
        apply(fx, &store, step).unwrap();
    }
    (0..shards).map(|s| io.op_count_at_path(shard_prefix("db", s))).collect()
}

#[test]
fn fault_sweep_over_every_op_of_every_shard_recovers_to_a_committed_state() {
    let fx = Fixtures::new();
    for shards in SHARD_COUNTS {
        fault_sweep_at(&fx, shards);
    }
}

fn fault_sweep_at(fx: &Fixtures, shards: usize) {
    let states = committed_states(fx, shards);
    let op_counts = clean_op_counts(fx, shards);
    assert!(
        op_counts.iter().all(|&n| n > 0),
        "every shard must see I/O in the clean run: {op_counts:?}"
    );

    for (shard, &shard_ops) in op_counts.iter().enumerate() {
        for at_op in 0..shard_ops {
            for kind in [FaultKind::Error, FaultKind::ShortWrite] {
                for mode in ALL_CRASH_MODES {
                    let ctx = format!(
                        "{shards} shard(s): shard {shard}, fault {kind:?} at op {at_op}, \
                         crash {mode:?}"
                    );
                    let io = Arc::new(FaultIo::new());
                    let (store, _) =
                        ShardedStore::open_with(io.clone(), "db", sweep_params(), shards)
                            .unwrap();
                    io.arm_fault_at_path(shard_prefix("db", shard), Fault { at_op, kind });

                    let mut completed = 0;
                    for step in 0..STEPS {
                        match apply(fx, &store, step) {
                            Ok(()) => completed += 1,
                            Err(_) => break,
                        }
                    }
                    assert!(io.is_halted(), "{ctx}: the armed fault never fired");
                    assert!(completed < STEPS, "{ctx}: a halting fault left every step Ok");
                    // Fault isolation *during* the run: only the faulted
                    // shard may be quarantined; everyone else is shed
                    // before their I/O runs.
                    let during = store.quarantined_shards();
                    assert!(
                        during.iter().all(|&q| q == shard),
                        "{ctx}: quarantined {during:?} during the run"
                    );

                    drop(store);
                    io.crash(mode);

                    let (store, _) =
                        ShardedStore::open_with(io.clone(), "db", sweep_params(), 0)
                            .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
                    let quarantined = store.quarantined_shards();
                    assert!(
                        quarantined.iter().all(|&q| q == shard),
                        "{ctx}: reopen quarantined {quarantined:?}"
                    );

                    // Every healthy shard must be in a committed state:
                    // after `completed` steps, or one step further if the
                    // in-flight record reached stable storage.
                    let observed = live_by_shard(&store, shards);
                    let lo = &states[completed];
                    let hi = &states[(completed + 1).min(STEPS)];
                    for s in 0..shards {
                        if quarantined.contains(&s) {
                            continue;
                        }
                        assert!(
                            observed[s] == lo[s] || observed[s] == hi[s],
                            "{ctx}: shard {s} holds {:?}, expected {:?} or {:?}",
                            observed[s],
                            lo[s],
                            hi[s]
                        );
                    }

                    // Explicit repair restores a writable store in a
                    // committed state — never a full-database failure.
                    for &q in &quarantined {
                        store
                            .recover_shard(q)
                            .unwrap_or_else(|e| panic!("{ctx}: recover_shard({q}) failed: {e}"));
                    }
                    let repaired = live_by_shard(&store, shards);
                    assert!(
                        repaired == *lo || repaired == *hi,
                        "{ctx}: repaired store holds {repaired:?}, expected {lo:?} or {hi:?}"
                    );
                    let before = store.len();
                    fx.insert(&store, 0).unwrap_or_else(|e| {
                        panic!("{ctx}: ingest after repair failed: {e}")
                    });
                    assert_eq!(store.len(), before + 1, "{ctx}: post-repair insert lost");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Torn WAL in exactly one shard (satellite: quarantine + byte-identity).
// ---------------------------------------------------------------------------

#[test]
fn torn_wal_in_one_shard_quarantines_only_that_shard() {
    const SHARDS: usize = 4;
    let params = sweep_params();
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", params, SHARDS).unwrap();
    for i in 0..8 {
        store.insert_image(&format!("img{i}"), &scene(0.1 + 0.09 * i as f32)).unwrap();
    }
    // Pick the shard holding the most WAL records, so the corruption sits
    // mid-log (a flip in the *last* record is a torn tail, which reopen
    // repairs silently instead of quarantining).
    let victim = (0..SHARDS)
        .max_by_key(|&s| (0..8).filter(|&id| shard_of(id, SHARDS) == s).count())
        .unwrap();
    let victim_ids: Vec<usize> = (0..8).filter(|&id| shard_of(id, SHARDS) == victim).collect();
    assert!(victim_ids.len() >= 2, "need >= 2 records on the victim shard");
    let survivor_id = (0..8).find(|&id| shard_of(id, SHARDS) != victim).unwrap();
    drop(store);

    // Snapshot of every file before the damage: a clean reopen must leave
    // healthy shards' bytes exactly here.
    let clean: BTreeMap<PathBuf, Vec<u8>> = io
        .file_names()
        .into_iter()
        .map(|p| {
            let bytes = io.file_bytes(&p).unwrap();
            (p, bytes)
        })
        .collect();

    // Flip one payload byte of the victim's *first* WAL record.
    let wal_path = shard_prefix("db", victim).join(WAL_FILE);
    assert!(
        io.corrupt_byte(&wal_path, WAL_HEADER_LEN as usize + 8 + 4, 0x01),
        "victim WAL too short to corrupt"
    );

    let (store, recoveries) = ShardedStore::open_with(io.clone(), "db", params, 0).unwrap();
    assert_eq!(store.quarantined_shards(), vec![victim]);
    assert!(
        recoveries[victim].error.is_some(),
        "the victim's recovery must report the corruption: {recoveries:?}"
    );

    // Healthy shards: byte-identical to the clean state.
    let victim_prefix = shard_prefix("db", victim);
    for (path, bytes) in &clean {
        if path.starts_with(&victim_prefix) {
            continue;
        }
        assert_eq!(
            io.file_bytes(path).as_ref(),
            Some(bytes),
            "healthy file {} diverged from the clean reopen",
            path.display()
        );
    }

    // Reads: degraded queries over the healthy shards, typed routing errors
    // for the victim's ids.
    let outcome = store.query(&scene(0.1)).unwrap();
    assert_eq!(
        outcome.status,
        ResultStatus::Degraded { shards_unavailable: vec![victim] }
    );
    assert!(
        outcome.matches.iter().all(|m| shard_of(m.image_id, SHARDS) != victim),
        "a quarantined shard's image leaked into the answer"
    );
    assert!(store.image_meta(survivor_id).unwrap().is_some());
    match store.image_meta(victim_ids[0]) {
        Err(WalrusError::ShardUnavailable { shard }) => assert_eq!(shard, victim),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // Writes: shed with the typed error.
    match store.insert_image("rejected", &scene(0.9)) {
        Err(WalrusError::ShardUnavailable { shard }) => assert_eq!(shard, victim),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // Explicit repair: damage truncated, quarantine lifted, re-ingest works.
    let repair = store.recover_shard(victim).unwrap();
    assert_eq!(repair.shard, victim);
    assert!(repair.truncated_bytes > 0, "repair must drop the damaged suffix");
    assert!(store.quarantined_shards().is_empty());
    let id = store.insert_image("after-repair", &scene(0.95)).unwrap();
    assert_eq!(store.image_meta(id).unwrap().unwrap().name, "after-repair");
    let outcome = store.query(&scene(0.1)).unwrap();
    assert_eq!(outcome.status, ResultStatus::Complete);
}

#[test]
fn quarantined_shard_health_keeps_last_known_counts() {
    const SHARDS: usize = 2;
    let params = sweep_params();
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", params, SHARDS).unwrap();
    for i in 0..8 {
        store.insert_image(&format!("img{i}"), &scene(0.1 + 0.09 * i as f32)).unwrap();
    }
    let before = store.shard_health();
    assert!(
        before.iter().all(|h| h.healthy && h.images > 0 && h.wal_bytes > 0),
        "both shards must hold data before the fault: {before:?}"
    );

    // Fail the next I/O on the shard the next insert routes to; the failed
    // append quarantines it.
    let victim = shard_of(store.next_id(), SHARDS);
    io.arm_fault_at_path(shard_prefix("db", victim), Fault { at_op: 0, kind: FaultKind::Error });
    store.insert_image("boom", &scene(0.9)).unwrap_err();
    assert_eq!(store.quarantined_shards(), vec![victim]);

    // Health keeps the last counts observed while healthy — gauges must not
    // pretend a failed shard lost its images.
    let after = store.shard_health();
    for (b, a) in before.iter().zip(&after) {
        if a.shard == victim {
            assert!(!a.healthy);
            assert!(a.error.is_some());
            assert_eq!(a.images, b.images, "last-known image count lost on quarantine");
            assert_eq!(a.wal_bytes, b.wal_bytes, "last-known WAL size lost on quarantine");
        } else {
            assert_eq!(a, b, "healthy shard's health changed");
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Rolling checkpoint: ingest commits while another shard checkpoints.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    entered: bool,
    released: bool,
}

/// I/O wrapper that blocks the first mutating operation under one shard's
/// directory (once armed) until released — a scripted interleaving that
/// freezes a rolling checkpoint mid-shard without sleeping.
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

    /// Blocks the calling (checkpoint) thread at the gate until released.
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

    /// Waits until the checkpoint thread is parked inside the gate.
    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.entered {
            let (next, timeout) =
                self.cv.wait_timeout(st, Duration::from_secs(30)).unwrap();
            st = next;
            assert!(
                !timeout.timed_out(),
                "checkpoint never reached the gated shard's snapshot write"
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
fn ingest_commits_while_another_shard_is_mid_checkpoint() {
    const SHARDS: usize = 4;
    let fx = Fixtures::new();
    let fault = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(fault.clone(), "db", sweep_params(), SHARDS).unwrap();
    for i in 0..7 {
        fx.insert(&store, i).unwrap();
    }
    let next = store.next_id();
    drop(store);

    // Gate a shard the next insert will NOT touch, so the insert cannot be
    // waiting on the very lock the frozen checkpoint holds.
    let target_shard = shard_of(next, SHARDS);
    let gate_shard = (0..SHARDS).find(|&s| s != target_shard).unwrap();
    let gate = Arc::new(GateIo::new(fault.clone(), shard_prefix("db", gate_shard)));

    let (store, _) =
        ShardedStore::open_with(gate.clone(), "db", sweep_params(), 0).unwrap();
    let store = Arc::new(store);
    gate.armed.store(true, Ordering::Release);

    let checkpointer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.checkpoint())
    };
    gate.wait_entered();
    // Shard `gate_shard` is now mid-checkpoint, its write lock held, its
    // snapshot write frozen. An ingest routed to `target_shard` must
    // commit anyway — the rolling checkpoint never stops the world.
    let id = store.insert_regions("mid-checkpoint", 32, 32, fx.regions[0].1.clone()).unwrap();
    assert_eq!(id, next);
    assert_eq!(shard_of(id, SHARDS), target_shard);
    assert_eq!(store.image_meta(id).unwrap().unwrap().name, "mid-checkpoint");
    assert!(
        !checkpointer.is_finished(),
        "checkpoint finished while gated — the interleaving proves nothing"
    );

    gate.release();
    let reports = checkpointer.join().unwrap().unwrap();
    assert_eq!(reports.len(), SHARDS, "every healthy shard must report a checkpoint");

    // The mid-checkpoint commit is durable: visible after a cold reopen.
    drop(store);
    let (store, recoveries) =
        ShardedStore::open_with(fault, "db", sweep_params(), 0).unwrap();
    assert!(recoveries.iter().all(|r| r.error.is_none()), "{recoveries:?}");
    assert_eq!(store.image_meta(id).unwrap().unwrap().name, "mid-checkpoint");
}

// ---------------------------------------------------------------------------
// 5. Degraded HTTP smoke: per-shard health, 206 queries, typed 503 ingest.
// ---------------------------------------------------------------------------

fn ppm_bytes(seed: usize) -> Vec<u8> {
    let img = Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, c| {
        ((x / 4 + 2 * (y / 4) + c + seed) % 5) as f32 / 4.0
    })
    .unwrap();
    let mut buf = Vec::new();
    write_ppm(&img, &mut buf).unwrap();
    buf
}

fn http_params() -> WalrusParams {
    WalrusParams {
        sliding: walrus_wavelet::SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

#[test]
fn degraded_server_answers_queries_and_sheds_ingest() {
    for shards in SHARD_COUNTS {
        degraded_server_at(shards);
    }
}

fn degraded_server_at(shards: usize) {
    let dir = std::env::temp_dir()
        .join(format!("walrus_sharded_degraded_{}_{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let params = http_params();
    let images: Vec<Image> = (0..6)
        .map(|seed| walrus_imagery::ppm::parse_netpbm(&ppm_bytes(seed)).unwrap())
        .collect();
    {
        let (store, _) = ShardedStore::open(&dir, params, shards).unwrap();
        for (i, img) in images.iter().enumerate() {
            store.insert_image(&format!("img-{i}"), img).unwrap();
        }
    }

    // Corrupt the WAL of the shard holding the most records, mid-log, on
    // the real filesystem this time.
    let victim = (0..shards)
        .max_by_key(|&s| (0..6).filter(|&id| shard_of(id, shards) == s).count())
        .unwrap();
    let wal_path = dir.join(shard_dir_name(victim)).join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[WAL_HEADER_LEN as usize + 8 + 4] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();

    let (store, _) = ShardedStore::open(&dir, params, 0).unwrap();
    assert_eq!(store.quarantined_shards(), vec![victim]);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, store).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Health: overall degraded, per-shard detail.
    let resp = client.request("GET", "/healthz", &[]).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.text();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(
        body.contains(&format!("{{\"shard\":{victim},\"healthy\":false")),
        "{body}"
    );

    // Metrics: per-shard gauges.
    let resp = client.request("GET", "/metrics", &[]).unwrap();
    let body = resp.text();
    assert!(body.contains("walrus_shards_quarantined 1"), "{body}");
    assert!(
        body.contains(&format!("walrus_shard_healthy{{shard=\"{victim}\"}} 0")),
        "{body}"
    );

    // Queries: answered over the healthy shards, marked degraded, 206.
    let resp = client.request("POST", "/query?k=6", &ppm_bytes(0)).unwrap();
    assert_eq!(resp.status, 206, "{}", resp.text());
    let body = resp.text();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(
        body.contains(&format!("\"shards_unavailable\":[{victim}]")),
        "{body}"
    );

    // Ingest: shed with a typed 503 naming the quarantined shard.
    let resp = client
        .request("POST", "/ingest?name=rejected", &ppm_bytes(7))
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.text());
    let body = resp.text();
    assert!(
        body.contains(&format!("\"shard_unavailable\":{victim}")),
        "{body}"
    );

    // Shutdown still drains cleanly: the rolling shutdown checkpoint skips
    // the quarantined shard instead of failing the stop.
    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
