//! Cross-crate persistence tests: a populated database must round-trip
//! through the binary format at dataset scale and keep answering queries
//! identically, including after mutation cycles. A golden-header test and a
//! hash of every byte a small store writes pin the formats, so accidental
//! changes fail loudly; the generations before them are refused by name.

use std::path::Path;
use std::sync::Arc;
use walrus_core::crc32::crc32;
use walrus_core::recovery::{SNAPSHOT_FILE, WAL_FILE};
use walrus_core::sharded::{shard_dir_name, shard_of};
use walrus_core::storage::FaultIo;
use walrus_core::wal::{self, WalOp};
use walrus_core::{
    persist, DurableDatabase, ImageDatabase, Region, ResultStatus, ShardedStore, StorageIo,
    WalrusError, WalrusParams,
};
use walrus_imagery::synth::dataset::{DatasetSpec, ImageClass, SyntheticDataset};
use walrus_wavelet::SlidingParams;

fn params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(DatasetSpec {
        images_per_class: 4,
        width: 96,
        height: 64,
        seed: 0xD15C,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap()
}

fn populated() -> (ImageDatabase, SyntheticDataset) {
    let data = dataset();
    let mut db = ImageDatabase::new(params()).unwrap();
    for img in &data.images {
        db.insert_image(&img.name, &img.image).unwrap();
    }
    (db, data)
}

#[test]
fn dataset_scale_round_trip_preserves_rankings() {
    let (db, data) = populated();
    let restored = persist::load(&persist::save(&db)).unwrap();
    assert_eq!(restored.len(), db.len());
    assert_eq!(restored.num_regions(), db.num_regions());
    // Every image as a query gives the identical ranking.
    for probe in data.images.iter().step_by(5) {
        let a = db.top_k(&probe.image, 5).unwrap();
        let b = restored.top_k(&probe.image, 5).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.image_id, y.image_id, "query {}", probe.name);
            assert!((x.similarity - y.similarity).abs() < 1e-12);
        }
    }
}

#[test]
fn save_is_deterministic() {
    let (db, _) = populated();
    assert_eq!(persist::save(&db), persist::save(&db));
    // And stable across a round trip.
    let restored = persist::load(&persist::save(&db)).unwrap();
    assert_eq!(persist::save(&restored), persist::save(&db));
}

#[test]
fn mutate_save_load_cycles() {
    let (mut db, data) = populated();
    for round in 0..3 {
        // Remove two images, round-trip, re-insert one.
        let live: Vec<usize> =
            db.image_slots().iter().flatten().map(|i| i.id).take(2).collect();
        for id in live {
            db.remove_image(id).unwrap();
        }
        db = persist::load(&persist::save(&db)).unwrap();
        let img = &data.images[round];
        db.insert_image(&format!("reinserted_{round}"), &img.image).unwrap();
        db = persist::load(&persist::save(&db)).unwrap();
    }
    assert_eq!(db.len(), 24 - 6 + 3);
    // The database still answers queries.
    let out = db.query(&data.images[10].image).unwrap();
    assert!(out.stats.query_regions > 0);
}

#[test]
fn format_header_is_pinned() {
    // The first 12 bytes are magic + version; changing either must be a
    // deliberate act, so pin them here.
    let (db, _) = populated();
    let bytes = persist::save(&db);
    assert_eq!(&bytes[..8], b"WALRUSDB");
    assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
}

/// FNV-1a 64 of a file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Every byte the current writers produce, pinned: each file of one small
/// fixed 2-shard store — three inserts, a remove, a checkpoint, one more
/// insert — by length and hash. The constants were captured by running this
/// very test at 9ca5030, the last commit that also read and wrote the older
/// snapshot, WAL and manifest generations; dropping those moved no byte of
/// the current ones.
#[test]
fn current_format_bytes_are_pinned() {
    let data = dataset();
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 2).unwrap();
    for img in &data.images[..3] {
        store.insert_image(&img.name, &img.image).unwrap();
    }
    store.remove_image(1).unwrap();
    store.checkpoint().unwrap();
    store.insert_image(&data.images[3].name, &data.images[3].image).unwrap();
    drop(store);
    let got: Vec<(String, usize, u64)> = io
        .file_names()
        .iter()
        .map(|path| {
            let bytes = io.file_bytes(path).unwrap();
            (path.display().to_string(), bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let want = [
        ("db/MANIFEST", 41, 0xa35c4bb4f7d0fb63),
        ("db/shard-000/snapshot.walrus", 19692, 0x5cf8aa2209329be2),
        ("db/shard-000/wal.log", 12, 0x8e8f2eea9dd76dca),
        ("db/shard-001/snapshot.walrus", 16876, 0x17fea89d3a6f6fcd),
        ("db/shard-001/wal.log", 17465, 0xa9b65d90c2d94fb5),
    ];
    assert_eq!(got, want.map(|(path, len, hash)| (path.to_string(), len, hash)));
}

/// A shard whose snapshot or log says it is an older format generation —
/// hand-relabelled here, checksums re-sealed; no writer of those is kept —
/// is refused as `Corrupt` "unsupported version" like any unknown number,
/// and costs the store that shard only: it is quarantined, the others serve.
#[test]
fn older_format_versions_quarantine_their_shard_only() {
    let data = dataset();
    let victim = shard_of(0, 3);
    let relabel = |bytes: &mut Vec<u8>, version: u32, sealed: bool| {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        if sealed {
            let end = bytes.len() - 4;
            let crc = crc32(&bytes[..end]);
            bytes[end..].copy_from_slice(&crc.to_le_bytes());
        }
    };
    for (file, version) in [(SNAPSHOT_FILE, 1), (SNAPSHOT_FILE, 2), (WAL_FILE, 1)] {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "store", params(), 3).unwrap();
        for img in &data.images[..9] {
            store.insert_image(&img.name, &img.image).unwrap();
        }
        if file == SNAPSHOT_FILE {
            store.checkpoint().unwrap();
        }
        drop(store);
        let path = Path::new("store").join(shard_dir_name(victim)).join(file);
        let mut bytes = io.file_bytes(&path).unwrap();
        relabel(&mut bytes, version, file == SNAPSHOT_FILE);
        io.write(&path, &bytes).unwrap();
        io.fsync(&path).unwrap();

        let (store, recoveries) = ShardedStore::open_with(io, "store", params(), 0).unwrap();
        for r in &recoveries {
            assert_eq!(r.error.is_some(), r.shard == victim, "{file} v{version}: {r:?}");
        }
        let error = recoveries[victim].error.as_deref().unwrap();
        assert!(
            error.contains("corrupt") && error.contains(&format!("unsupported version {version}")),
            "{file} v{version}: {error}"
        );
        assert_eq!(store.quarantined_shards(), vec![victim]);
        let out = store.query(&data.images[0].image).unwrap();
        assert_eq!(out.status, ResultStatus::Degraded { shards_unavailable: vec![victim] });
        assert!(!out.matches.is_empty());
    }
}

#[test]
fn fuzzy_corruption_never_panics() {
    let (db, _) = populated();
    let good = persist::save(&db);
    // Flip one byte at a spread of positions: the checksums must reject
    // every flip — and in particular must never panic.
    let mut positions: Vec<usize> = (0..good.len()).step_by(97).collect();
    positions.push(good.len() - 1);
    for pos in positions {
        let mut bad = good.clone();
        bad[pos] ^= 0xA5;
        assert!(persist::load(&bad).is_err(), "flip at {pos} was not detected");
    }
}

/// A committed-looking WAL record — framed, CRC correct — whose one insert
/// carries a NaN centroid, appended to `wal_path`.
fn append_poisoned_record(io: &FaultIo, wal_path: &Path, mut regions: Vec<Region>) {
    regions[0].centroid[3] = f32::NAN;
    let op = WalOp::Insert {
        expected_id: 1_000,
        name: "poisoned".to_string(),
        width: 96,
        height: 64,
        regions,
    };
    io.append(wal_path, &wal::encode_record(1_000_000, &op)).unwrap();
    io.fsync(wal_path).unwrap();
}

#[test]
fn crc_clean_wal_record_with_a_nan_signature_is_corrupt_not_a_panic() {
    let data = dataset();
    let io = Arc::new(FaultIo::new());
    let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
    store.insert_image("good", &data.images[0].image).unwrap();
    let regions = store.db().image(0).unwrap().regions.clone();
    drop(store);
    append_poisoned_record(&io, Path::new("db/wal.log"), regions);

    // The open used to panic building the index rectangle; it must refuse
    // the record as corruption and leave both files as they were.
    let files = |io: &FaultIo| {
        (io.file_bytes(Path::new("db/wal.log")), io.file_bytes(Path::new("db/snapshot.walrus")))
    };
    let before = files(&io);
    match DurableDatabase::open_with(io.clone(), "db", params()) {
        Err(WalrusError::Corrupt(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("a NaN signature was replayed into the store"),
    }
    assert_eq!(files(&io), before, "a refused open must not touch the store");
}

#[test]
fn nan_signature_in_one_shard_log_quarantines_that_shard_only() {
    let data = dataset();
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "store", params(), 3).unwrap();
    for img in &data.images[..9] {
        store.insert_image(&img.name, &img.image).unwrap();
    }
    let regions = walrus_core::extract_regions(&data.images[0].image, &params()).unwrap();
    drop(store);
    let victim = shard_of(0, 3);
    let wal_path = Path::new("store").join(shard_dir_name(victim)).join("wal.log");
    append_poisoned_record(&io, &wal_path, regions);

    let (store, recoveries) = ShardedStore::open_with(io, "store", params(), 0).unwrap();
    for r in &recoveries {
        assert_eq!(r.error.is_some(), r.shard == victim, "{r:?}");
    }
    assert!(recoveries[victim].error.as_deref().unwrap().contains("non-finite"));
    assert_eq!(store.quarantined_shards(), vec![victim]);
    // The other shards serve: image 0 lived on the victim, its classmates
    // elsewhere still rank.
    let out = store.query(&data.images[0].image).unwrap();
    assert_eq!(out.status, ResultStatus::Degraded { shards_unavailable: vec![victim] });
    assert!(!out.matches.is_empty());
    assert!(out.matches.iter().all(|m| shard_of(m.image_id, 3) != victim));
}
