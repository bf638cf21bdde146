//! Parallel == serial consistency for the threaded engine paths.
//!
//! Deterministic seeded sweeps (in place of randomized property tests, so
//! the suite stays dependency-free) asserting that every parallel code
//! path — extraction, batch ingest, query probing/scoring —
//! produces results **bit-identical** to its serial counterpart for
//! `threads ∈ {1, 2, 8}`, plus a concurrency smoke test hammering the
//! durable store with batch inserts and queries from many threads. The
//! store-level tests run at every `(threads, shards)` pair of the matrix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use walrus_core::storage::FaultIo;
use walrus_core::{
    extract_regions, Guard, ImageDatabase, QueryOutcome, Region, ShardedStore, WalrusParams,
};
use walrus_imagery::synth::dataset::{
    flower_query_scenario, DatasetSpec, ImageClass, SyntheticDataset,
};
use walrus_imagery::Image;
use walrus_integration_tests::threads_by_shards;
use walrus_wavelet::SlidingParams;

/// Parallel thread counts compared against the serial (`threads = 1`) run.
const PARALLEL_THREADS: [usize; 2] = [2, 8];

fn engine_params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

fn scene_dataset(seed: u64, images_per_class: usize) -> SyntheticDataset {
    SyntheticDataset::generate(DatasetSpec {
        images_per_class,
        width: 128,
        height: 96,
        seed,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap()
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_regions_identical(serial: &[Region], parallel: &[Region], ctx: &str) {
    assert_eq!(serial.len(), parallel.len(), "{ctx}: region count diverged");
    for (i, (a, b)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(f32_bits(&a.centroid), f32_bits(&b.centroid), "{ctx}: region {i} centroid");
        assert_eq!(f32_bits(&a.bbox_min), f32_bits(&b.bbox_min), "{ctx}: region {i} bbox_min");
        assert_eq!(f32_bits(&a.bbox_max), f32_bits(&b.bbox_max), "{ctx}: region {i} bbox_max");
        assert_eq!(a.bitmap, b.bitmap, "{ctx}: region {i} bitmap");
        assert_eq!(a.window_count, b.window_count, "{ctx}: region {i} window count");
    }
}

fn assert_outcomes_identical(serial: &QueryOutcome, parallel: &QueryOutcome, ctx: &str) {
    assert_eq!(serial.status, parallel.status, "{ctx}: status diverged");
    assert_eq!(serial.stats, parallel.stats, "{ctx}: query stats diverged");
    assert_eq!(serial.matches.len(), parallel.matches.len(), "{ctx}: match count diverged");
    for (a, b) in serial.matches.iter().zip(&parallel.matches) {
        assert_eq!(a.image_id, b.image_id, "{ctx}: ranking diverged");
        assert_eq!(a.name, b.name, "{ctx}: name diverged");
        assert_eq!(
            a.similarity.to_bits(),
            b.similarity.to_bits(),
            "{ctx}: similarity of {} diverged",
            a.name
        );
        assert_eq!(a.matched_pairs, b.matched_pairs, "{ctx}: matched pairs of {}", a.name);
    }
}

#[test]
fn extraction_is_bit_identical_across_thread_counts() {
    // Sweep several synthetic scenes of every class; extraction under any
    // thread count must reproduce the serial output bit for bit.
    let params = |threads| WalrusParams { threads, ..engine_params() };
    for seed in [0x00A1, 0x0B52, 0xC0DE] {
        let dataset = scene_dataset(seed, 1);
        for img in &dataset.images {
            let serial = extract_regions(&img.image, &params(1)).unwrap();
            assert!(!serial.is_empty(), "scene {seed:#x}/{} extracted no regions", img.name);
            for threads in PARALLEL_THREADS {
                let parallel = extract_regions(&img.image, &params(threads)).unwrap();
                assert_regions_identical(
                    &serial,
                    &parallel,
                    &format!("seed {seed:#x}, image {}, threads {threads}", img.name),
                );
            }
        }
    }
}

#[test]
fn batch_ingest_is_bit_identical_to_serial_insert_loop() {
    let dataset = scene_dataset(0xBA7C, 2);
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|i| (i.name.as_str(), &i.image)).collect();
    let (query, _) = flower_query_scenario(0x51, 128, 96, 0).unwrap();

    let mut serial = ImageDatabase::new(engine_params()).unwrap();
    for (name, image) in &items {
        serial.insert_image(name, image).unwrap();
    }
    let reference = serial.query(&query).unwrap();

    for threads in [1, 2, 8] {
        let params = WalrusParams { threads, ..engine_params() };
        let mut batched = ImageDatabase::new(params).unwrap();
        let ids = batched.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
        assert_eq!(ids, (0..items.len()).collect::<Vec<_>>(), "batch ids must be sequential");
        assert_eq!(batched.len(), serial.len());
        assert_eq!(batched.num_regions(), serial.num_regions(), "threads {threads}");
        let outcome = batched.query(&query).unwrap();
        assert_outcomes_identical(&reference, &outcome, &format!("batch threads {threads}"));
    }
}

#[test]
fn query_engine_is_bit_identical_across_thread_counts() {
    let dataset = scene_dataset(0x9E11, 2);
    let mut db = ImageDatabase::new(engine_params()).unwrap();
    for img in &dataset.images {
        db.insert_image(&img.name, &img.image).unwrap();
    }
    let (query, variants) = flower_query_scenario(0x52, 128, 96, 3).unwrap();
    let queries: Vec<&Image> = std::iter::once(&query).chain(variants.iter()).collect();

    for (qi, q) in queries.iter().enumerate() {
        let serial = db.query(q).unwrap();
        assert!(!serial.matches.is_empty(), "query {qi} matched nothing");
        for threads in PARALLEL_THREADS {
            let mut parallel_db = db.clone();
            parallel_db.set_threads(threads);
            let outcome = parallel_db.query(q).unwrap();
            assert_outcomes_identical(
                &serial,
                &outcome,
                &format!("query {qi}, threads {threads}"),
            );
        }
    }
}

#[test]
fn durable_batch_ingest_matches_in_memory_batch() {
    // The WAL-backed batch path (parallel extraction, shard-parallel
    // per-image logging) must land the same state as the in-memory database.
    let dataset = scene_dataset(0xD0B1, 1);
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|i| (i.name.as_str(), &i.image)).collect();
    let params = WalrusParams { threads: 2, ..engine_params() };

    let mut reference = ImageDatabase::new(params).unwrap();
    let reference_ids = reference.insert_images_batch_guarded(&items, &Guard::none()).unwrap();

    let (query, _) = flower_query_scenario(0x53, 128, 96, 0).unwrap();
    let expected = reference.query(&query).unwrap();
    for (threads, shards) in threads_by_shards() {
        let ctx = format!("durable batch, {threads} thread(s), {shards} shard(s)");
        let io = Arc::new(FaultIo::new());
        let params = WalrusParams { threads, ..params };
        let (durable, _) = ShardedStore::open_with(io, "/walrus", params, shards).unwrap();
        let durable_ids = durable.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
        assert_eq!(durable_ids, reference_ids, "{ctx}");
        assert_eq!(durable.len(), reference.len());
        assert_eq!(durable.num_regions(), reference.num_regions());
        let got = durable.query(&query).unwrap();
        assert_outcomes_identical(&expected, &got, &ctx);
    }
}

#[test]
fn shared_database_survives_concurrent_batch_ingest_and_queries() {
    // Smoke test: several writers batch-ingesting disjoint chunks while
    // readers hammer queries and stats concurrently. Whatever the
    // interleaving, the final state must hold every image with the same
    // per-image scores a serial build produces.
    let dataset = scene_dataset(0x5A5A, 4); // 24 images
    let params = WalrusParams { threads: 2, ..engine_params() };
    let (query, _) = flower_query_scenario(0x54, 128, 96, 0).unwrap();

    let mut serial = ImageDatabase::new(params).unwrap();
    for img in &dataset.images {
        serial.insert_image(&img.name, &img.image).unwrap();
    }
    for (threads, shards) in threads_by_shards() {
        concurrent_ingest_matches_serial_at(&dataset, &serial, &query, threads, shards);
    }
}

fn concurrent_ingest_matches_serial_at(
    dataset: &SyntheticDataset,
    serial: &ImageDatabase,
    query: &Image,
    threads: usize,
    shards: usize,
) {
    let reference = serial.query(query).unwrap();
    let io = Arc::new(FaultIo::new());
    let params = WalrusParams { threads, ..*serial.params() };
    let (shared, _) = ShardedStore::open_with(io, "/walrus", params, shards).unwrap();
    let shared = &shared;
    let chunks: Vec<Vec<(&str, &Image)>> = dataset
        .images
        .chunks(6)
        .map(|c| c.iter().map(|i| (i.name.as_str(), &i.image)).collect())
        .collect();
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for chunk in &chunks {
            writers.push(s.spawn(move || {
                let ids = shared.insert_images_batch_guarded(chunk, &Guard::none()).unwrap();
                assert_eq!(ids.len(), chunk.len());
            }));
        }
        for _ in 0..3 {
            let writers_done = &writers_done;
            s.spawn(move || loop {
                let done = writers_done.load(Ordering::Acquire);
                let outcome = shared.query(query).unwrap();
                assert!(outcome.matches.len() <= shared.len());
                assert!(outcome.stats.distinct_images <= shared.len());
                if done {
                    break; // one final query observed the complete database
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
    });

    let ctx = format!("{threads} thread(s), {shards} shard(s)");
    assert_eq!(shared.len(), dataset.images.len(), "{ctx}");
    assert_eq!(shared.num_regions(), serial.num_regions(), "{ctx}");
    // Insert interleaving permutes ids, but every image's score is a
    // function of its own regions — compare (name, similarity, pairs).
    let final_outcome = shared.query(query).unwrap();
    assert_eq!(final_outcome.stats, reference.stats, "{ctx}");
    let mut expected: Vec<(&str, u64, usize)> =
        reference.matches.iter().map(|m| (m.name.as_str(), m.similarity.to_bits(), m.matched_pairs)).collect();
    let mut got: Vec<(&str, u64, usize)> =
        final_outcome.matches.iter().map(|m| (m.name.as_str(), m.similarity.to_bits(), m.matched_pairs)).collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(expected, got, "{ctx}: concurrent ingest changed query results");
}
