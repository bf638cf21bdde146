//! "Open ≡ live": the R\*-tree is derived state, so a store answers the same
//! whether its trees grew by live inserts or were packed from the image
//! table at open — for every way a store can be opened, and for every
//! matching algorithm.
//!
//! Two tests. The first takes the engine alone: the same regions indexed
//! one at a time and packed in one STR build give bit-identical
//! [`QueryOutcome`]s under Quick, Greedy and Exact matching and both
//! signature kinds (the tree's traversal order must not reach a score). The
//! second is a model test over the durable stores: one seeded operation
//! sequence against a never-closed store and against stores reopened from a
//! WAL, a snapshot, a snapshot plus a WAL tail, a shard repair and a
//! rebalance chain — which must agree on every query, then keep agreeing
//! under further live edits of the packed trees.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use walrus_core::params::{MatchingKind, SignatureKind};
use walrus_core::sharded::shard_dir_name_at;
use walrus_core::storage::FaultIo;
use walrus_core::{
    extract_regions, persist, DurableDatabase, Guard, ImageDatabase, QueryOutcome, Region,
    ShardedStore, StorageIo, WalrusParams,
};
use walrus_imagery::Image;
use walrus_imagery::synth::dataset::{DatasetSpec, ImageClass, SyntheticDataset};
use walrus_wavelet::SlidingParams;

fn params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

fn dataset(images_per_class: usize, seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(DatasetSpec {
        images_per_class,
        width: 64,
        height: 48,
        seed,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap()
}

/// Everything a [`QueryOutcome`] says, bit for bit.
fn fingerprint(out: &QueryOutcome) -> String {
    let matches: Vec<(usize, &str, u64, usize)> = out
        .matches
        .iter()
        .map(|m| (m.image_id, m.name.as_str(), m.similarity.to_bits(), m.matched_pairs))
        .collect();
    format!("{matches:?} {:?} {:?}", out.stats, out.status)
}

#[test]
fn rankings_do_not_depend_on_tree_shape() {
    let data = dataset(6, 0x5A9E);
    for kind in [SignatureKind::Centroid, SignatureKind::BoundingBox] {
        for matching in [MatchingKind::Quick, MatchingKind::Greedy, MatchingKind::Exact] {
            // A wide ε and a high pair limit, so candidate images carry
            // several pairs per query region and Exact really runs.
            let params = WalrusParams {
                signature_kind: kind,
                matching,
                query_epsilon: 0.12,
                exact_pair_limit: 12,
                ..params()
            };
            let extracted: Vec<Vec<Region>> = data
                .images
                .iter()
                .map(|img| extract_regions(&img.image, &params).unwrap())
                .collect();
            let mut grown = ImageDatabase::new(params).unwrap();
            for (img, regions) in data.images.iter().zip(&extracted) {
                grown
                    .insert_regions(&img.name, img.image.width(), img.image.height(), regions.clone())
                    .unwrap();
            }
            let packed = persist::load(&persist::save(&grown)).unwrap();
            assert_eq!(packed.num_regions(), grown.num_regions());
            let mut multi_pair_groups = 0;
            for (img, regions) in data.images.iter().zip(&extracted) {
                let a = grown.query_regions(regions, img.image.area(), 0.0).unwrap();
                let b = packed.query_regions(regions, img.image.area(), 0.0).unwrap();
                assert_eq!(
                    fingerprint(&a),
                    fingerprint(&b),
                    "{kind:?}/{matching:?}: query {} ranks differently on the packed tree",
                    img.name
                );
                multi_pair_groups +=
                    a.matches.iter().filter(|m| m.matched_pairs > regions.len()).count();
            }
            assert!(
                multi_pair_groups > 0,
                "{kind:?}/{matching:?}: no image matched one query region twice — \
                 the fixture no longer exercises pair order"
            );
        }
    }
}

/// One step of the model's operation sequence; images are named by their
/// position in the dataset.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Batch(Vec<usize>),
    Remove(usize),
}

/// A seeded sequence over images `from..to`, whose ids start at `next_id`,
/// against a store where the ids in `live` exist: single inserts, batches of
/// two to four, a removal of a random live id every third step, and at the
/// end the removal of the highest id handed out — the one whose loss a reopen
/// could mistake for "never assigned". Returns the ids live afterwards too.
fn op_sequence(
    seed: u64,
    (from, to): (usize, usize),
    mut next_id: usize,
    mut live: Vec<usize>,
) -> (Vec<Op>, Vec<usize>) {
    let mut state = seed;
    let mut below = |n: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let (mut ops, mut at) = (Vec::new(), from);
    while at < to {
        let take = if below(3) == 0 { (2 + below(3)).min(to - at) } else { 1 };
        let images: Vec<usize> = (at..at + take).collect();
        live.extend(next_id..next_id + take);
        (at, next_id) = (at + take, next_id + take);
        ops.push(if take == 1 { Op::Insert(images[0]) } else { Op::Batch(images) });
        if ops.len() % 3 == 0 {
            ops.push(Op::Remove(live.swap_remove(below(live.len()))));
        }
    }
    if let Some(at) = live.iter().position(|&id| id == next_id - 1) {
        ops.push(Op::Remove(live.swap_remove(at)));
    }
    (ops, live)
}

fn apply(store: &ShardedStore, images: &[(&str, &Image)], ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(i) => {
                store.insert_image(images[*i].0, images[*i].1).unwrap();
            }
            Op::Batch(batch) => {
                let items: Vec<(&str, &Image)> = batch.iter().map(|&i| images[i]).collect();
                store.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
            }
            Op::Remove(id) => store.remove_image(*id).unwrap(),
        }
    }
}

fn shards_under_test() -> usize {
    std::env::var("WALRUS_SHARDS").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(4)
}

fn open(io: &Arc<FaultIo>, shards: usize) -> ShardedStore {
    let (store, recoveries) =
        ShardedStore::open_with(io.clone(), "store", params(), shards).unwrap();
    assert!(recoveries.iter().all(|r| r.error.is_none()), "{recoveries:?}");
    store
}

fn shard_file(store: &ShardedStore, shard: usize, file: &str) -> PathBuf {
    Path::new("store").join(shard_dir_name_at(store.epoch(), shard)).join(file)
}

/// Every shard directory of `store`, opened on its own from the same bytes:
/// the packed tree of each must be well formed and hold exactly the shard's
/// regions. (`pack_index` asserts as much in debug builds; this says it out
/// loud, and in release runs too.)
fn check_shard_trees(io: &Arc<FaultIo>, store: &ShardedStore) {
    for shard in 0..store.shard_count() {
        let dir = Path::new("store").join(shard_dir_name_at(store.epoch(), shard));
        let (db, _) = DurableDatabase::open_with(io.clone(), dir, params()).unwrap();
        db.db().check_invariants();
    }
}

#[test]
fn reopened_stores_answer_like_the_never_closed_one() {
    let data = dataset(7, 0x09E4);
    let n = data.images.len();
    // Class by class in the dataset; interleaved here, so that the history
    // and the later edits both draw on every class.
    let classes = ImageClass::ALL.len();
    let data: Vec<(&str, &Image)> = (0..n)
        .map(|i| &data.images[(i % classes) * (n / classes) + i / classes])
        .map(|img| (img.name.as_str(), &img.image))
        .collect();
    let shards = shards_under_test();
    // Two thirds of the images for the history every store shares, the rest
    // for the edits made after the reopen.
    let ids_handed_out = n * 2 / 3;
    let (history, survivors) = op_sequence(0xA11CE, (0, ids_handed_out), 0, Vec::new());
    let (edits, _) = op_sequence(0xB0B, (ids_handed_out, n), ids_handed_out, survivors);
    let (first, second) = history.split_at(history.len() / 2);

    // The oracle: trees grown by live inserts and removes, never packed
    // (beyond a first batch), never closed.
    let live_io = Arc::new(FaultIo::new());
    let live = open(&live_io, shards);
    apply(&live, &data, &history);

    let mut reopened: Vec<(&str, Arc<FaultIo>, ShardedStore)> = Vec::new();

    // (i) The whole history replayed from the WAL.
    let io = Arc::new(FaultIo::new());
    apply(&open(&io, shards), &data, &history);
    reopened.push(("wal only", io.clone(), open(&io, 0)));

    // (ii) The whole history loaded from snapshots.
    let io = Arc::new(FaultIo::new());
    let store = open(&io, shards);
    apply(&store, &data, &history);
    store.checkpoint().unwrap();
    assert_eq!(store.records_since_checkpoint(), 0);
    drop(store);
    reopened.push(("snapshot only", io.clone(), open(&io, 0)));

    // (iii) A snapshot plus a WAL that still lists what the snapshot holds —
    // the crash between a checkpoint's rename and its log reset — ahead of
    // the tail written since: the stale records must be skipped, the tail
    // replayed.
    let io = Arc::new(FaultIo::new());
    let store = open(&io, shards);
    apply(&store, &data, first);
    let stale: Vec<Vec<u8>> = (0..shards)
        .map(|s| io.file_bytes(&shard_file(&store, s, "wal.log")).unwrap_or_default())
        .collect();
    store.checkpoint().unwrap();
    apply(&store, &data, second);
    for (s, stale) in stale.iter().enumerate().filter(|(_, stale)| !stale.is_empty()) {
        let path = shard_file(&store, s, "wal.log");
        let tail = io.file_bytes(&path).unwrap();
        io.write(&path, &[stale.as_slice(), &tail[12..]].concat()).unwrap();
        io.fsync(&path).unwrap();
    }
    drop(store);
    let (store, recoveries) = ShardedStore::open_with(io.clone(), "store", params(), 0).unwrap();
    let reports: Vec<_> = recoveries.iter().map(|r| r.report.expect("shard opens")).collect();
    assert!(reports.iter().all(|r| r.snapshot_loaded));
    assert!(reports.iter().map(|r| r.records_skipped).sum::<usize>() >= first.len());
    assert!(reports.iter().map(|r| r.records_replayed).sum::<usize>() >= second.len());
    reopened.push(("snapshot + wal tail", io, store));

    // (iv) Every shard swapped out by a repair: one with real damage to cut
    // away, the rest through the same reopen.
    let io = Arc::new(FaultIo::new());
    let store = open(&io, shards);
    apply(&store, &data, first);
    store.checkpoint().unwrap();
    apply(&store, &data, second);
    let damaged = shard_file(&store, 0, "wal.log");
    io.append(&damaged, &[0xAB; 21]).unwrap();
    io.fsync(&damaged).unwrap();
    for shard in 0..shards {
        let repair = store.recover_shard(shard).unwrap();
        assert_eq!(repair.truncated_bytes, if shard == 0 { 21 } else { 0 });
    }
    reopened.push(("recover_shard", io, store));

    // (v) Two rebalances: every image has moved twice, every tree was packed
    // from a snapshot written without one.
    let io = Arc::new(FaultIo::new());
    let store = open(&io, 2);
    apply(&store, &data, &history);
    store.rebalance(4).unwrap();
    store.rebalance(1).unwrap();
    assert_eq!((store.shard_count(), store.epoch()), (1, 2));
    reopened.push(("rebalance 2 -> 4 -> 1", io, store));

    let agree = |when: &str| {
        let mut ranked = 0;
        for (name, probe) in data.iter().step_by(2) {
            let want = live.query(probe).unwrap();
            ranked += want.matches.len();
            let want = fingerprint(&want);
            for (how, _, store) in &reopened {
                let got = fingerprint(&store.query(probe).unwrap());
                assert_eq!(got, want, "{how}, {when}: query {name} answers differently");
            }
        }
        assert!(ranked > 2 * n, "{when}: only {ranked} matches ranked — the probes say too little");
    };
    for (how, io, store) in &reopened {
        assert_eq!(store.len(), live.len(), "{how}");
        assert_eq!(store.num_regions(), live.num_regions(), "{how}");
        assert_eq!(store.next_id(), ids_handed_out, "{how}: the id high-water mark moved");
        check_shard_trees(io, store);
    }
    agree("as reopened");

    // Live edits of the packed trees: the inserts land in full leaves
    // (first-touch splits and forced reinserts), the removes condense them.
    apply(&live, &data, &edits);
    for (_, _, store) in &reopened {
        apply(store, &data, &edits);
    }
    agree("after live edits of the packed trees");
}
