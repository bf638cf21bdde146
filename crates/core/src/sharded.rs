//! The durable store: fault isolation, rolling checkpoints, degraded-mode
//! queries, and crash-safe online rebalancing.
//!
//! [`ShardedStore`] is the one durable store there is, and the surface the
//! HTTP server (and any other embedder) programs against. It splits one
//! logical image database across `N ∈ 1..=64` independent
//! [`DurableDatabase`] shards — the store a command creates when nobody
//! asks for a count is simply `N = 1`. Each shard owns its own
//! R\*-tree, write-ahead log, and snapshot under an epoch-scoped
//! directory; an image id is hashed to its shard with [`shard_of`], so
//! every region of an image lives on exactly one shard. The layout —
//! epoch, shard count, and any in-flight migration — is recorded in a
//! checksummed `MANIFEST` at the store root.
//!
//! ## Why the answers are bit-identical to one shard
//!
//! The R\*-tree probe is exact — a query region's ε-neighborhood is
//! enumerated fully on every shard — and an image is scored only from its
//! own region pairs. Scattering a query over N shards therefore produces
//! exactly the per-image similarities one in-memory [`ImageDatabase`] over
//! the same images produces, and the gather merges them with the same
//! deterministic order (similarity descending, id ascending). The
//! sharded-store suite asserts this bit-for-bit — and because the property
//! holds for *any* N, it also holds across a rebalance: the same images
//! grouped differently yield the same ranked answer.
//!
//! ## Fault isolation
//!
//! A shard whose storage fails — at open (unreadable snapshot, corrupt
//! WAL) or at runtime (append failure, poisoned WAL tail) — is
//! **quarantined**: queries skip it and report
//! [`ResultStatus::Degraded`] naming the missing shards, while the store
//! goes *read-only* (every mutation answers
//! [`WalrusError::ShardUnavailable`]). Writes must stop because ids are
//! assigned globally: a quarantined shard may hold the highest id, and
//! handing that id out again would corrupt the store on recovery.
//! `walrus recover <db> --shard <i>` repairs the shard's WAL to its
//! longest clean prefix ([`crate::wal::scan_valid_prefix`]) and swaps the
//! shard back in, restoring writes.
//!
//! ## Rolling checkpoints
//!
//! [`ShardedStore::checkpoint`] folds shards **one at a time**: only the
//! shard being checkpointed takes its exclusive lock, so ingest and
//! queries on every other shard proceed concurrently — the store never
//! stops the world. Writability is tracked in lock-free flags, so ingest
//! admission never blocks on a checkpointing shard's lock.
//!
//! ## Online rebalancing
//!
//! [`ShardedStore::rebalance`] migrates a live store from `N` to `M`
//! shards without a rewrite-in-place:
//!
//! 1. every mutation in flight is drained (they all hold the ingest lock),
//!    and new mutations/checkpoints are shed with
//!    [`WalrusError::Rebalancing`] while queries keep answering from the
//!    source layout;
//! 2. each **target** shard is built in turn by streaming every global id
//!    through [`shard_of`] under the target count, copying region
//!    signatures byte-identically and padding the sparse id space with
//!    tombstones; the finished shard is written as a fresh snapshot (LSN
//!    0) plus an empty WAL into the next epoch's directory
//!    (`e<epoch>-shard-<i>/`, so no directory is ever renamed);
//! 3. the manifest records the migration as it advances — each target
//!    steps `Stable → Draining → Migrated` with an atomic manifest write
//!    around each build — and one final atomic manifest write commits the
//!    new layout and schedules the old directories for garbage collection.
//!
//! A crash at any step leaves the manifest describing exactly what was
//! durably finished: [`ShardedStore::open`] resumes the migration from the
//! last `Migrated` boundary (rebuilding at most one partially written
//! target), or — when resuming is impossible, e.g. a source shard is
//! damaged — rolls the store back to the untouched source layout. The
//! rebalance fault sweeps drive a crash into every I/O operation of both
//! phases and assert the reopened store is bit-identical to a
//! never-migrated oracle.

use crate::database::{ImageDatabase, ImageMeta, QueryOptions, ResultStatus};
use crate::extract::{extract_batch_guarded, extract_regions};
use crate::params::WalrusParams;
use crate::persist::{self, put_u32, put_u64};
use crate::recovery::{scrub_dir, DirScrub, DurableDatabase, RecoveryReport, SNAPSHOT_FILE, WAL_FILE};
use crate::region::Region;
use crate::storage::{DiskIo, RetryIo, StorageIo};
use crate::store::{RebalanceStatus, ShardCheckpoint, ShardHealth};
use crate::wal;
use crate::{crc32::crc32, QueryOutcome, QueryStats, Result, WalrusError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use walrus_guard::{Guard, RetryPolicy, SpanRecord, TraceContext};
use walrus_imagery::Image;

/// Manifest file name at the store root.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Most shards a store may have (bounds query fan-out).
pub const MAX_SHARDS: usize = 64;

const MANIFEST_MAGIC: &[u8; 8] = b"WALRUSMF";
const MANIFEST_VERSION: u32 = 2;
/// Fixed prefix: magic (8) + version (4) + epoch (8) + shard count (8)
/// + gc_prev (8) + migrating flag (1).
const MANIFEST_PREFIX: usize = 37;

/// Per-target-shard migration progress, as recorded in a migrating
/// manifest. The state machine only moves forward: `Stable → Draining →
/// Migrated`, one manifest write per transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationState {
    /// Not started; the target directory may not exist.
    Stable,
    /// Build in progress; the target directory holds partial bytes and
    /// must be rebuilt on resume.
    Draining,
    /// Durably built: snapshot + empty WAL written and fsynced. Resume
    /// trusts this directory byte-for-byte.
    Migrated,
}

/// An in-flight migration, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Shard count being migrated to.
    pub target_count: usize,
    /// Per-target-shard progress, indexed by target shard.
    pub states: Vec<MigrationState>,
}

/// The store's layout record (`MANIFEST`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Layout epoch: how many committed rebalances this store has seen.
    /// Epoch 0 shards live in `shard-<i>/`, epoch `E ≥ 1` shards in
    /// `e<E>-shard-<i>/` — migration never renames a directory.
    pub epoch: u64,
    /// Current shard count.
    pub shard_count: usize,
    /// When non-zero: the previous epoch's layout had this many shards
    /// and its files still await garbage collection (cleared, by one more
    /// manifest write, once they are gone).
    pub gc_prev: usize,
    /// The in-flight migration, if any.
    pub migration: Option<Migration>,
}

impl Manifest {
    /// A stable (non-migrating, nothing to collect) layout record.
    pub fn stable(epoch: u64, shard_count: usize) -> Self {
        Manifest { epoch, shard_count, gc_prev: 0, migration: None }
    }
}

/// Directory name of shard `shard` in layout epoch `epoch`.
pub fn shard_dir_name_at(epoch: u64, shard: usize) -> String {
    if epoch == 0 {
        format!("shard-{shard:03}")
    } else {
        format!("e{epoch}-shard-{shard:03}")
    }
}

/// Directory name of shard `i` in the original (epoch 0) layout.
pub fn shard_dir_name(shard: usize) -> String {
    shard_dir_name_at(0, shard)
}

/// Maps a global image id to its shard. The hash is the splitmix64
/// finalizer — uniform over sequential ids, platform-independent, and
/// **stable**: it is part of the manifest format, so changing it requires
/// a new manifest version.
pub fn shard_of(id: usize, shard_count: usize) -> usize {
    let mut z = (id as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shard_count as u64) as usize
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::with_capacity(MANIFEST_PREFIX + 16);
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, MANIFEST_VERSION);
    put_u64(&mut out, m.epoch);
    put_u64(&mut out, m.shard_count as u64);
    put_u64(&mut out, m.gc_prev as u64);
    match &m.migration {
        None => out.push(0),
        Some(mig) => {
            out.push(1);
            put_u64(&mut out, mig.target_count as u64);
            for state in &mig.states {
                out.push(match state {
                    MigrationState::Stable => 0,
                    MigrationState::Draining => 1,
                    MigrationState::Migrated => 2,
                });
            }
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length checked"))
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest> {
    let corrupt = |what: String| WalrusError::Corrupt(format!("store manifest: {what}"));
    if bytes.len() < 16 {
        return Err(corrupt(format!("wrong length {}", bytes.len())));
    }
    if &bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic".to_string()));
    }
    // Checksum first: any damage, to any field, is "corrupt", not a
    // misdecoded value.
    let stored_crc =
        u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("length checked"));
    if crc32(&bytes[..bytes.len() - 4]) != stored_crc {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    let shard_range = |count: usize, what: &str| {
        if (1..=MAX_SHARDS).contains(&count) {
            Ok(count)
        } else {
            Err(corrupt(format!("implausible {what} {count}")))
        }
    };
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version != MANIFEST_VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    if bytes.len() < MANIFEST_PREFIX + 4 {
        return Err(corrupt(format!("wrong length {}", bytes.len())));
    }
    let epoch = read_u64_at(bytes, 12);
    let shard_count = shard_range(read_u64_at(bytes, 20) as usize, "shard count")?;
    let gc_prev = read_u64_at(bytes, 28) as usize;
    if gc_prev > MAX_SHARDS {
        return Err(corrupt(format!("implausible gc_prev {gc_prev}")));
    }
    if gc_prev != 0 && epoch == 0 {
        return Err(corrupt("gc_prev without a prior epoch".to_string()));
    }
    let migration = match bytes[36] {
        0 => {
            if bytes.len() != MANIFEST_PREFIX + 4 {
                return Err(corrupt(format!("wrong length {}", bytes.len())));
            }
            None
        }
        1 => {
            if bytes.len() < MANIFEST_PREFIX + 8 + 4 {
                return Err(corrupt(format!("wrong length {}", bytes.len())));
            }
            let target_count =
                shard_range(read_u64_at(bytes, 37) as usize, "target shard count")?;
            let want = MANIFEST_PREFIX + 8 + target_count + 4;
            if bytes.len() != want {
                return Err(corrupt(format!(
                    "wrong length {} (want {want})",
                    bytes.len()
                )));
            }
            let mut states = Vec::with_capacity(target_count);
            for (i, &b) in bytes[45..45 + target_count].iter().enumerate() {
                states.push(match b {
                    0 => MigrationState::Stable,
                    1 => MigrationState::Draining,
                    2 => MigrationState::Migrated,
                    other => {
                        return Err(corrupt(format!(
                            "bad migration state {other} for target shard {i}"
                        )))
                    }
                });
            }
            Some(Migration { target_count, states })
        }
        other => return Err(corrupt(format!("bad migrating flag {other}"))),
    };
    Ok(Manifest { epoch, shard_count, gc_prev, migration })
}

/// Writes the manifest atomically (temp file → fsync → rename → directory
/// fsync), same discipline as snapshots. This single write is the commit
/// point for every layout transition.
fn write_manifest(io: &dyn StorageIo, root: &Path, manifest: &Manifest) -> Result<()> {
    let path = root.join(MANIFEST_FILE);
    persist::atomic_write_bytes(io, &path, &encode_manifest(manifest)).map_err(|e| match e {
        WalrusError::Io { context, source } if context.is_empty() => WalrusError::Io {
            context: format!("write manifest {}", path.display()),
            source,
        },
        other => other,
    })
}

/// Reads and validates the manifest.
pub fn read_manifest(io: &dyn StorageIo, root: &Path) -> Result<Manifest> {
    let path = root.join(MANIFEST_FILE);
    let bytes = io.read(&path).map_err(WalrusError::io_context("read manifest", &path))?;
    decode_manifest(&bytes)
}

/// Refuses a root that holds the files of the single-directory layout (a
/// bare snapshot and/or write-ahead log, no manifest), which nothing reads
/// any more. Either file is enough: a directory whose snapshot was removed
/// for repair still holds its committed records in the log, and writing a
/// fresh manifest beside it would orphan them.
fn refuse_legacy_layout(io: &dyn StorageIo, root: &Path) -> Result<()> {
    if io.exists(&root.join(MANIFEST_FILE)) {
        return Ok(());
    }
    match [SNAPSHOT_FILE, WAL_FILE].into_iter().find(|file| io.exists(&root.join(file))) {
        Some(file) => Err(WalrusError::BadParams(format!(
            "{} holds a {file} but no {MANIFEST_FILE}: the single-directory store layout is \
             no longer supported",
            root.display()
        ))),
        None => Ok(()),
    }
}

/// What opening one shard found: its recovery report, or the error that
/// quarantined it.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// Recovery report when the shard opened cleanly.
    pub report: Option<RecoveryReport>,
    /// Open error when the shard was quarantined.
    pub error: Option<String>,
}

/// What [`ShardedStore::recover_shard`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRepair {
    /// Shard index.
    pub shard: usize,
    /// WAL bytes dropped to restore a clean log (0 = log was clean).
    pub truncated_bytes: u64,
    /// Committed WAL records that survived the repair.
    pub records_kept: usize,
    /// The reopen's recovery report.
    pub report: RecoveryReport,
}

/// What a committed [`ShardedStore::rebalance`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Shard count before the migration.
    pub from_shards: usize,
    /// Shard count after the migration.
    pub to_shards: usize,
    /// The committed layout epoch.
    pub epoch: u64,
    /// Live images carried across (every one of them).
    pub images: usize,
}

/// One shard's verdict from [`scrub_store`].
#[derive(Debug)]
pub struct ShardScrub {
    /// Shard index.
    pub shard: usize,
    /// What the walk of its snapshot and WAL found.
    pub scrub: DirScrub,
}

/// Read-only integrity walk of a sharded store: every shard's snapshot is
/// re-read and CRC-validated and its WAL checked to be one clean prefix,
/// without opening (or mutating) the store. `only` restricts the walk to
/// one shard. A mid-migration store is refused — open it once first so the
/// migration resumes or rolls back and the layout is unambiguous.
pub fn scrub_store(io: &dyn StorageIo, root: &Path, only: Option<usize>) -> Result<Vec<ShardScrub>> {
    refuse_legacy_layout(io, root)?;
    let manifest = read_manifest(io, root)?;
    if manifest.migration.is_some() {
        return Err(WalrusError::BadParams(
            "store is mid-migration; open it once to resume or roll back, then scrub".to_string(),
        ));
    }
    if let Some(shard) = only {
        if shard >= manifest.shard_count {
            return Err(WalrusError::BadParams(format!(
                "shard {shard} out of range (store has {} shards; valid shards are 0..={})",
                manifest.shard_count,
                manifest.shard_count - 1
            )));
        }
    }
    let mut verdicts = Vec::new();
    for shard in 0..manifest.shard_count {
        if only.is_some_and(|o| o != shard) {
            continue;
        }
        let dir = root.join(shard_dir_name_at(manifest.epoch, shard));
        verdicts.push(ShardScrub { shard, scrub: scrub_dir(io, &dir) });
    }
    Ok(verdicts)
}

#[derive(Debug)]
enum ShardSlot {
    Healthy(Box<DurableDatabase>),
    /// A failed shard, retaining the last counts observed while it was
    /// healthy so health reporting doesn't pretend the shard is empty.
    /// Both are 0 when the shard never opened (its contents are unknown).
    Quarantined { error: String, images: usize, wal_bytes: u64 },
}

/// One complete layout: the epoch plus every shard of that epoch. The
/// store holds the current set behind an `Arc` swap, so a committed
/// rebalance replaces the whole layout in one pointer store while
/// in-flight queries keep the set they started on.
#[derive(Debug)]
struct ShardSet {
    epoch: u64,
    shards: Vec<parking_lot::RwLock<ShardSlot>>,
    /// Lock-free mirror of each slot's quarantine bit, so write admission
    /// never blocks on a shard lock held by a rolling checkpoint.
    quarantined: Vec<AtomicBool>,
}

/// Opens every shard of one layout epoch, quarantining the ones that
/// fail. Returns the set, what happened per shard, and the resolved
/// parameters (persisted shard parameters win over the caller's, the same
/// precedence [`DurableDatabase::open`] has).
fn open_shard_set(
    io: &Arc<dyn StorageIo>,
    root: &Path,
    params: WalrusParams,
    epoch: u64,
    count: usize,
) -> (ShardSet, Vec<ShardRecovery>, WalrusParams) {
    let mut slots = Vec::with_capacity(count);
    let mut quarantined = Vec::with_capacity(count);
    let mut recoveries = Vec::with_capacity(count);
    let mut resolved_params: Option<WalrusParams> = None;
    for shard in 0..count {
        let dir = root.join(shard_dir_name_at(epoch, shard));
        match DurableDatabase::open_with(io.clone(), &dir, params) {
            Ok((db, report)) => {
                if resolved_params.is_none() {
                    resolved_params = Some(*db.db().params());
                }
                slots.push(parking_lot::RwLock::new(ShardSlot::Healthy(Box::new(db))));
                quarantined.push(AtomicBool::new(false));
                recoveries.push(ShardRecovery { shard, report: Some(report), error: None });
            }
            Err(e) => {
                let error = e.to_string();
                slots.push(parking_lot::RwLock::new(ShardSlot::Quarantined {
                    error: error.clone(),
                    images: 0,
                    wal_bytes: 0,
                }));
                quarantined.push(AtomicBool::new(true));
                recoveries.push(ShardRecovery { shard, report: None, error: Some(error) });
            }
        }
    }
    (
        ShardSet { epoch, shards: slots, quarantined },
        recoveries,
        resolved_params.unwrap_or(params),
    )
}

/// Builds target shard `target` of the next epoch from the source
/// databases: every global id below `next_id` that hashes to `target`
/// under the target count is copied (regions, and therefore signatures,
/// byte-identically), and every other slot below `next_id` becomes a
/// tombstone. The full-span padding is what preserves the global id
/// high-water mark even when the highest ids are removed images — id
/// assignment after reopen scans slot lengths, and handing out an old id
/// again would corrupt the store.
///
/// The shard is durably finished in three steps: snapshot at LSN 0
/// (atomic write), fresh empty WAL, directory fsync.
fn build_target_shard(
    io: &dyn StorageIo,
    root: &Path,
    epoch: u64,
    sources: &[&ImageDatabase],
    next_id: usize,
    target: usize,
    target_count: usize,
) -> Result<()> {
    let dir = root.join(shard_dir_name_at(epoch + 1, target));
    io.create_dir_all(&dir)
        .map_err(WalrusError::io_context("create target shard dir", &dir))?;
    // The target's image table, lent slot by slot from the sources: nothing
    // is copied and no index is built — the committed layout's open packs
    // each target's tree from the snapshot written here.
    let table = (0..next_id).map(|id| {
        let owner = sources[shard_of(id, sources.len())];
        owner.image(id).filter(|_| shard_of(id, target_count) == target)
    });
    let snapshot = dir.join(SNAPSHOT_FILE);
    persist::save_table_to_file_with(io, sources[0].params(), table, &snapshot, 0)?;
    let wal_path = dir.join(WAL_FILE);
    wal::reset(io, &wal_path).map_err(WalrusError::io_context("reset wal", &wal_path))?;
    io.fsync(&dir).map_err(WalrusError::io_context("fsync target shard dir", &dir))?;
    Ok(())
}

/// Drives a migrating manifest to its committed end: builds every target
/// shard not already durably `Migrated`, stepping the manifest
/// `Draining → Migrated` around each build, then writes the committed
/// stable manifest (next epoch, target count, previous layout scheduled
/// for GC). `manifest` always tracks the *last durably written* state —
/// it is assigned only after the corresponding write succeeds — so a
/// failure leaves the caller knowing exactly what is on disk.
fn complete_migration(
    io: &dyn StorageIo,
    root: &Path,
    sources: &[&ImageDatabase],
    manifest: &mut Manifest,
    progress: Option<&AtomicUsize>,
) -> Result<()> {
    let migration = manifest.migration.clone().expect("caller passes a migrating manifest");
    let epoch = manifest.epoch;
    let target_count = migration.target_count;
    let next_id = sources.iter().map(|s| s.image_slots().len()).max().unwrap_or(0);
    if let Some(p) = progress {
        let done = migration.states.iter().filter(|s| **s == MigrationState::Migrated).count();
        p.store(done, Ordering::Release);
    }
    for target in 0..target_count {
        let state = manifest.migration.as_ref().expect("still migrating").states[target];
        if state == MigrationState::Migrated {
            continue; // durably built by a previous attempt
        }
        let mut draining = manifest.clone();
        draining.migration.as_mut().expect("still migrating").states[target] =
            MigrationState::Draining;
        write_manifest(io, root, &draining)?;
        *manifest = draining;
        build_target_shard(io, root, epoch, sources, next_id, target, target_count)?;
        let mut migrated = manifest.clone();
        migrated.migration.as_mut().expect("still migrating").states[target] =
            MigrationState::Migrated;
        write_manifest(io, root, &migrated)?;
        *manifest = migrated;
        if let Some(p) = progress {
            p.fetch_add(1, Ordering::AcqRel);
        }
    }
    let committed = Manifest {
        epoch: epoch + 1,
        shard_count: target_count,
        gc_prev: sources.len(),
        migration: None,
    };
    write_manifest(io, root, &committed)?;
    *manifest = committed;
    Ok(())
}

/// Resumes a migration found in the manifest at open: reopens every
/// source shard and drives [`complete_migration`] to the commit. Returns
/// the committed manifest. Fails (without touching the manifest) when a
/// source shard cannot open — the caller then rolls back.
fn resume_migration(
    io: &Arc<dyn StorageIo>,
    root: &Path,
    params: WalrusParams,
    manifest: &Manifest,
) -> Result<Manifest> {
    let mut manifest = manifest.clone();
    let epoch = manifest.epoch;
    let mut sources = Vec::with_capacity(manifest.shard_count);
    for shard in 0..manifest.shard_count {
        let dir = root.join(shard_dir_name_at(epoch, shard));
        let (db, _report) = DurableDatabase::open_with(io.clone(), &dir, params)?;
        sources.push(db);
    }
    let source_dbs: Vec<&ImageDatabase> = sources.iter().map(|d| d.db()).collect();
    complete_migration(io.as_ref(), root, &source_dbs, &mut manifest, None)?;
    Ok(manifest)
}

/// Abandons a migration: durably restores the stable source manifest —
/// the single write that makes the staged targets unreachable — then
/// drops their staging files. Returns the restored manifest.
fn rollback_migration(io: &dyn StorageIo, root: &Path, manifest: &Manifest) -> Result<Manifest> {
    let migration = manifest.migration.as_ref().expect("rollback needs a migrating manifest");
    let stable = Manifest::stable(manifest.epoch, manifest.shard_count);
    write_manifest(io, root, &stable)?;
    gc_layout_files(io, root, manifest.epoch + 1, migration.target_count);
    Ok(stable)
}

/// Removes the store files (snapshot, WAL, and their temp siblings) of
/// `count` shards in layout `epoch`. Returns false when something that
/// exists could not be removed — the caller then leaves `gc_prev` set so
/// a later open retries.
fn gc_layout_files(io: &dyn StorageIo, root: &Path, epoch: u64, count: usize) -> bool {
    let mut clean = true;
    for shard in 0..count {
        let dir = root.join(shard_dir_name_at(epoch, shard));
        for file in [SNAPSHOT_FILE, WAL_FILE] {
            let path = dir.join(file);
            let mut tmp = path.as_os_str().to_owned();
            tmp.push(".tmp");
            for victim in [path, PathBuf::from(tmp)] {
                if io.exists(&victim) && io.remove(&victim).is_err() {
                    clean = false;
                }
            }
        }
    }
    clean
}

/// Collects the previous layout a committed manifest scheduled for GC
/// (`gc_prev`), then clears the marker with one more manifest write.
/// Entirely best-effort: any failure leaves `gc_prev` in place and the
/// next open retries.
fn gc_previous_layout(io: &dyn StorageIo, root: &Path, manifest: &mut Manifest) {
    if manifest.gc_prev == 0 {
        return;
    }
    debug_assert!(manifest.epoch >= 1, "decode_manifest enforces gc_prev ⇒ epoch ≥ 1");
    if !gc_layout_files(io, root, manifest.epoch - 1, manifest.gc_prev) {
        return;
    }
    let cleared = Manifest { gc_prev: 0, ..manifest.clone() };
    if write_manifest(io, root, &cleared).is_ok() {
        *manifest = cleared;
    }
}

/// N-shard durable store. See the module docs for the design.
#[derive(Debug)]
pub struct ShardedStore {
    io: Arc<dyn StorageIo>,
    root: PathBuf,
    params: WalrusParams,
    /// The current layout. Queries clone the `Arc` once and run entirely
    /// on that consistent set; a committed rebalance swaps the pointer.
    layout: parking_lot::RwLock<Arc<ShardSet>>,
    /// Global id assignment: the next id to hand out. Held across the
    /// target shard's WAL append so ids arrive at each shard in strictly
    /// increasing order (a WAL invariant). Also the rebalance drain
    /// point: acquiring it once guarantees no mutation is in flight.
    ingest: parking_lot::Mutex<usize>,
    /// Set for the whole duration of a rebalance; mutations and
    /// checkpoints shed with [`WalrusError::Rebalancing`] while it holds.
    rebalancing: AtomicBool,
    /// Target shard count of the in-flight rebalance (0 otherwise).
    rebalance_target: AtomicUsize,
    /// Target shards durably `Migrated` so far (monotone during one
    /// rebalance; retains the final count afterwards).
    shards_migrated: AtomicUsize,
}

fn quarantine_worthy(e: &WalrusError) -> bool {
    matches!(e, WalrusError::Io { .. } | WalrusError::Corrupt(_))
}

impl ShardedStore {
    /// Opens (or creates) a store on the real filesystem.
    ///
    /// `shards` is the shard count for a **new** store — a root without a
    /// `MANIFEST`, whether the directory exists yet or not; `0` means "one
    /// shard when creating, whatever the manifest says otherwise". A
    /// non-zero `shards` that disagrees with an existing manifest is an
    /// error — the layout is changed with [`ShardedStore::rebalance`], never
    /// by re-opening. A root holding the files of the old single-directory
    /// layout is refused and left untouched.
    ///
    /// An interrupted migration is finished (or rolled back) here, before
    /// the store opens: the manifest says exactly which target shards are
    /// durably built, so the open resumes from that boundary and the
    /// caller always sees a stable layout.
    ///
    /// A shard that fails to open is quarantined, not fatal: the returned
    /// [`ShardRecovery`] list says what happened to each shard. Only a
    /// missing or corrupt manifest fails the open itself.
    pub fn open(
        root: impl AsRef<Path>,
        params: WalrusParams,
        shards: usize,
    ) -> Result<(Self, Vec<ShardRecovery>)> {
        Self::open_with(
            Arc::new(RetryIo::new(Arc::new(DiskIo), RetryPolicy::default())),
            root,
            params,
            shards,
        )
    }

    /// Like [`ShardedStore::open`] but over a pluggable I/O layer — the
    /// entry point for fault-injection tests.
    pub fn open_with(
        io: Arc<dyn StorageIo>,
        root: impl AsRef<Path>,
        params: WalrusParams,
        shards: usize,
    ) -> Result<(Self, Vec<ShardRecovery>)> {
        let root = root.as_ref().to_path_buf();
        io.create_dir_all(&root)?;
        let manifest_path = root.join(MANIFEST_FILE);
        let mut manifest = if io.exists(&manifest_path) {
            let bytes = io
                .read(&manifest_path)
                .map_err(WalrusError::io_context("read manifest", &manifest_path))?;
            decode_manifest(&bytes)?
        } else {
            refuse_legacy_layout(io.as_ref(), &root)?;
            if shards > MAX_SHARDS {
                return Err(WalrusError::BadParams(format!(
                    "shard count {shards} out of range 1..={MAX_SHARDS}"
                )));
            }
            let m = Manifest::stable(0, shards.max(1));
            write_manifest(io.as_ref(), &root, &m)?;
            m
        };

        if manifest.migration.is_some() {
            // A rebalance was interrupted. Resume it from the last durable
            // boundary; if the sources can't carry it (e.g. one is
            // damaged), roll back to the untouched source layout so the
            // store still opens.
            manifest = match resume_migration(&io, &root, params, &manifest) {
                Ok(committed) => committed,
                Err(resume_err) => match rollback_migration(io.as_ref(), &root, &manifest) {
                    Ok(stable) => stable,
                    Err(_) => return Err(resume_err),
                },
            };
        }
        if manifest.gc_prev != 0 {
            gc_previous_layout(io.as_ref(), &root, &mut manifest);
        }
        if shards != 0 && shards != manifest.shard_count {
            return Err(WalrusError::BadParams(format!(
                "store has {} shards; requested {shards} (change the layout with `walrus \
                 rebalance --shards {shards}`)",
                manifest.shard_count
            )));
        }

        let (set, recoveries, resolved_params) =
            open_shard_set(&io, &root, params, manifest.epoch, manifest.shard_count);
        let next_id = set
            .shards
            .iter()
            .map(|slot| match &*slot.read() {
                ShardSlot::Healthy(db) => db.db().image_slots().len(),
                ShardSlot::Quarantined { .. } => 0,
            })
            .max()
            .unwrap_or(0);

        let store = ShardedStore {
            io,
            root,
            params: resolved_params,
            layout: parking_lot::RwLock::new(Arc::new(set)),
            ingest: parking_lot::Mutex::new(next_id),
            rebalancing: AtomicBool::new(false),
            rebalance_target: AtomicUsize::new(0),
            shards_migrated: AtomicUsize::new(0),
        };
        Ok((store, recoveries))
    }

    /// The current layout, as one consistent set.
    fn layout(&self) -> Arc<ShardSet> {
        self.layout.read().clone()
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of shards in the current layout.
    pub fn shard_count(&self) -> usize {
        self.layout().shards.len()
    }

    /// Current layout epoch (how many committed rebalances).
    pub fn epoch(&self) -> u64 {
        self.layout().epoch
    }

    /// A copy of the engine configuration.
    pub fn params(&self) -> WalrusParams {
        self.params
    }

    /// The next global id that would be assigned — an exclusive upper bound
    /// on every id the store has handed out.
    pub fn next_id(&self) -> usize {
        *self.ingest.lock()
    }

    /// Indices of the currently quarantined shards.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        let set = self.layout();
        set.quarantined
            .iter()
            .enumerate()
            .filter(|(_, q)| q.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    /// Admission check for mutations: shed while rebalancing (checked
    /// first, then the layout is fetched, so a cleared flag implies the
    /// committed layout is visible), and refuse while any shard is
    /// quarantined (ids are global; see the module docs). Lock-free, so
    /// admission never waits behind a shard checkpoint.
    fn writable_layout(&self) -> Result<Arc<ShardSet>> {
        if self.rebalancing.load(Ordering::Acquire) {
            return Err(WalrusError::Rebalancing);
        }
        let set = self.layout();
        match set.quarantined.iter().position(|q| q.load(Ordering::Acquire)) {
            Some(shard) => Err(WalrusError::ShardUnavailable { shard }),
            None => Ok(set),
        }
    }

    fn mark_quarantined(&self, set: &ShardSet, shard: usize, slot: &mut ShardSlot, error: String) {
        set.quarantined[shard].store(true, Ordering::Release);
        // Keep the last counts the shard reported while healthy: health
        // gauges should say what the quarantined shard held, not zero.
        let (images, wal_bytes) = match &*slot {
            ShardSlot::Healthy(db) => (db.len(), db.wal_len()),
            ShardSlot::Quarantined { images, wal_bytes, .. } => (*images, *wal_bytes),
        };
        *slot = ShardSlot::Quarantined { error, images, wal_bytes };
    }

    /// The one way a shard is mutated: takes the shard's write lock, refuses
    /// a quarantined shard with [`WalrusError::ShardUnavailable`], runs `op`
    /// on its [`DurableDatabase`], and quarantines the shard when `op` failed
    /// in a way that leaves its storage suspect (a poisoned WAL tail, an I/O
    /// error, corruption). Inserts, removals and checkpoints all go through
    /// here, so "what quarantines a shard" is decided in one place.
    fn mutate_shard<T>(
        &self,
        set: &ShardSet,
        shard: usize,
        op: impl FnOnce(&mut DurableDatabase) -> Result<T>,
    ) -> Result<T> {
        let mut slot = set.shards[shard].write();
        let ShardSlot::Healthy(db) = &mut *slot else {
            return Err(WalrusError::ShardUnavailable { shard });
        };
        let result = op(db);
        let poisoned = db.is_poisoned();
        if let Err(e) = &result {
            if poisoned || quarantine_worthy(e) {
                self.mark_quarantined(set, shard, &mut slot, e.to_string());
            }
        }
        result
    }

    /// The one ingest commit — every insert, single or batched, is this.
    /// `batch` holds what each WAL insert record carries besides its id:
    /// `(name, width, height, regions)`.
    ///
    /// The whole id range is pre-assigned under the ingest lock and grouped
    /// by destination shard ([`shard_of`]). Shards are independent append
    /// streams, so each group is one work unit on the parallel pool holding
    /// its shard's write lock once; within a shard ids stay ascending, which
    /// keeps every shard's WAL bytes identical to a serial insert loop.
    ///
    /// **Mid-batch failure.** A shard stops at its first failing insert and
    /// keeps the records it appended before it (a per-shard committed
    /// prefix); the other shards are unaffected and commit their whole
    /// groups. The error returned is the one a serial left-to-right loop
    /// would have hit first (lowest failing id). Ids are never reused: `next`
    /// advances past the highest committed id even when a lower id on
    /// another shard failed — the failed slot stays a tombstone-padded hole
    /// in its shard, like any sparse global id.
    fn commit_inserts(
        &self,
        batch: Vec<(&str, usize, usize, Vec<Region>)>,
        guard: &Guard,
    ) -> Result<Vec<usize>> {
        // One shard's work: (global id, name, width, height, regions).
        type ShardWork<'a> = Vec<(usize, &'a str, usize, usize, Vec<Region>)>;
        let wal_span = guard.span("wal_append");
        let mut next = self.ingest.lock();
        let set = self.writable_layout()?;
        let base = *next;
        let count = batch.len();
        let shard_count = set.shards.len();
        let mut groups: Vec<ShardWork> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, (name, width, height, regions)) in batch.into_iter().enumerate() {
            let id = base + i;
            groups[shard_of(id, shard_count)].push((id, name, width, height, regions));
        }
        let groups: Vec<(usize, parking_lot::Mutex<ShardWork>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(shard, g)| (shard, parking_lot::Mutex::new(g)))
            .collect();

        // Per shard: the highest id it committed, and the WAL bytes it
        // appended or its first failure tagged with the failing id.
        let shard_workers =
            walrus_parallel::resolve_threads(self.params.threads).min(groups.len().max(1));
        let results =
            walrus_parallel::parallel_map(shard_workers, &groups, |_, (shard, work)| {
                let work = std::mem::take(&mut *work.lock());
                let mut failing = work[0].0;
                let mut committed = None;
                let appended = self.mutate_shard(&set, *shard, |db| {
                    let wal_before = db.wal_len();
                    for (id, name, width, height, regions) in work {
                        failing = id;
                        db.insert_regions_at(id, name, width, height, regions)?;
                        committed = Some(id);
                    }
                    Ok(db.wal_len() - wal_before)
                });
                (committed, appended.map_err(|e| (failing, e)))
            });

        if let Some(max_id) = results.iter().filter_map(|(committed, _)| *committed).max() {
            *next = max_id + 1;
        }
        let mut bytes = 0;
        let mut failures = Vec::new();
        for (_, appended) in results {
            match appended {
                Ok(n) => bytes += n,
                Err(tagged) => failures.push(tagged),
            }
        }
        if let Some((_, e)) = failures.into_iter().min_by_key(|(id, _)| *id) {
            return Err(e);
        }
        if let Some(s) = &wal_span {
            s.add("records", count as u64);
            s.add("bytes", bytes);
        }
        Ok((base..base + count).collect())
    }

    /// Extracts regions of `image` and durably inserts them; returns the
    /// new global id.
    pub fn insert_image(&self, name: &str, image: &Image) -> Result<usize> {
        let regions = extract_regions(image, &self.params)?;
        self.insert_regions(name, image.width(), image.height(), regions)
    }

    /// Durably inserts pre-extracted regions at the next global id (a
    /// commit of one) — used by fault sweeps and replays that pre-compute
    /// extraction once per fixture.
    pub fn insert_regions(
        &self,
        name: &str,
        width: usize,
        height: usize,
        regions: Vec<Region>,
    ) -> Result<usize> {
        let ids = self.commit_inserts(vec![(name, width, height, regions)], &Guard::none())?;
        Ok(ids[0])
    }

    /// Durable batch ingest under a lifecycle [`Guard`]: parallel lock-free
    /// extraction — all-or-nothing under interruption, with the final poll
    /// before the ingest lock is taken — then one commit (see
    /// `commit_inserts` for the shard-parallel append and what a mid-batch
    /// storage failure leaves behind).
    pub fn insert_images_batch_guarded(
        &self,
        items: &[(&str, &Image)],
        guard: &Guard,
    ) -> Result<Vec<usize>> {
        let ingest_span = guard.span("ingest");
        if let Some(s) = &ingest_span {
            s.add("images", items.len() as u64);
        }
        let extracted = extract_batch_guarded(items, &self.params, guard)?;
        let batch = items
            .iter()
            .zip(extracted)
            .map(|((name, image), regions)| (*name, image.width(), image.height(), regions))
            .collect();
        self.commit_inserts(batch, guard)
    }

    /// Durably removes an image from its shard.
    pub fn remove_image(&self, id: usize) -> Result<()> {
        let _next = self.ingest.lock();
        let set = self.writable_layout()?;
        self.mutate_shard(&set, shard_of(id, set.shards.len()), |db| db.remove_image(id))
    }

    /// Scatter-gather query under per-request [`QueryOptions`] — the same
    /// procedure as [`ImageDatabase::query_with_options_guarded`], scene
    /// queries included, with the probe spread over the shards. Healthy
    /// shards are probed in parallel on the `walrus-parallel` pool (each
    /// worker records its `shard_probe` span into a private trace that is
    /// grafted back in shard order, so the trace tree is identical for
    /// every thread count); quarantined shards are skipped and reported in
    /// [`ResultStatus::Degraded`]. The whole query runs on one layout
    /// `Arc`: a rebalance committing mid-query does not change the set
    /// this query reads.
    pub fn query_with_options_guarded(
        &self,
        query: &Image,
        opts: &QueryOptions,
        guard: &Guard,
    ) -> Result<QueryOutcome> {
        opts.run(&self.params, query, guard, |params, regions, area, min_similarity| {
            self.scatter_gather(&self.layout(), params, regions, area, min_similarity, guard)
        })
    }

    /// Query with default options (the sharded counterpart of
    /// [`crate::ImageDatabase::query_guarded`]).
    pub fn query_guarded(&self, query: &Image, guard: &Guard) -> Result<QueryOutcome> {
        self.query_with_options_guarded(query, &QueryOptions::default(), guard)
    }

    /// Full query without a guard.
    pub fn query(&self, query: &Image) -> Result<QueryOutcome> {
        self.query_guarded(query, &Guard::none())
    }

    /// Probes one shard under `guard` (a worker guard carrying a private
    /// trace when the request is traced). `Ok(None)` = shard quarantined.
    #[allow(clippy::too_many_arguments)]
    fn probe_shard(
        &self,
        set: &ShardSet,
        i: usize,
        params: &WalrusParams,
        q_regions: &[Region],
        query_area: usize,
        min_similarity: f64,
        guard: &Guard,
    ) -> Result<Option<QueryOutcome>> {
        let probe_span = guard.span("shard_probe");
        if let Some(s) = &probe_span {
            s.add("shard", i as u64);
        }
        let slot = set.shards[i].read();
        let db = match &*slot {
            ShardSlot::Healthy(db) => db,
            ShardSlot::Quarantined { .. } => return Ok(None),
        };
        // Each shard probes under the *full* candidate budget; the
        // aggregate is enforced after the gather. Splitting the budget
        // across shards instead would reject queries a single index
        // accepts (one hot shard vs. an even spread), breaking
        // the error/no-error equivalence the bit-identity tests pin.
        let shard_outcome = db.db().query_regions_with_params_guarded(
            params,
            q_regions,
            query_area,
            min_similarity,
            guard,
        )?;
        if let Some(s) = &probe_span {
            s.add("images", shard_outcome.stats.distinct_images as u64);
            s.add("hits", shard_outcome.stats.total_matching_regions as u64);
        }
        Ok(Some(shard_outcome))
    }

    fn scatter_gather(
        &self,
        set: &ShardSet,
        params: &WalrusParams,
        q_regions: &[Region],
        query_area: usize,
        min_similarity: f64,
        guard: &Guard,
    ) -> Result<QueryOutcome> {
        // Shards are probed in parallel: each worker runs one shard under a
        // clone of the guard whose trace is swapped for a *private* one (on
        // the request clock), and the orchestrator grafts the recorded
        // spans back in shard order once the fan-out completes — so the
        // span tree and every result byte are identical at any thread
        // count. With one worker the fan-out runs inline on this thread,
        // which is exactly the old sequential loop.
        let shard_workers = walrus_parallel::resolve_threads(params.threads).min(set.shards.len());
        // When shards fan out across workers, each shard's own probe runs
        // single-threaded — one level of parallelism, not two multiplied.
        let mut shard_params = *params;
        if shard_workers > 1 {
            shard_params.threads = 1;
        }
        let trace = guard.trace().cloned();
        let worker_base = guard.without_trace();
        let indices: Vec<usize> = (0..set.shards.len()).collect();
        let probed: Vec<(Option<QueryOutcome>, Option<Vec<SpanRecord>>)> =
            walrus_parallel::try_parallel_map(shard_workers, &indices, |_, &i| {
                let worker_trace = trace.as_ref().map(|t| TraceContext::new(t.clock()));
                let wg = match &worker_trace {
                    Some(t) => worker_base.clone().tracing(t.clone()),
                    None => worker_base.clone(),
                };
                let outcome = self.probe_shard(set, i, &shard_params, q_regions, query_area,
                    min_similarity, &wg)?;
                Ok::<_, WalrusError>((outcome, worker_trace.map(|t| t.report().spans)))
            })?;
        if let Some(t) = &trace {
            for (_, spans) in probed.iter() {
                if let Some(spans) = spans {
                    t.graft(spans);
                }
            }
        }
        let mut shards_unavailable = Vec::new();
        let mut partial = false;
        let mut matches = Vec::new();
        let mut total_hits = 0usize;
        let mut distinct_images = 0usize;
        for (i, (outcome, _)) in probed.into_iter().enumerate() {
            let Some(shard_outcome) = outcome else {
                shards_unavailable.push(i);
                continue;
            };
            partial |= shard_outcome.status == ResultStatus::Partial;
            total_hits += shard_outcome.stats.total_matching_regions;
            distinct_images += shard_outcome.stats.distinct_images;
            matches.extend(shard_outcome.matches);
        }
        if total_hits > params.budgets.max_index_candidates {
            return Err(WalrusError::BudgetExceeded {
                what: "index candidates",
                used: total_hits,
                limit: params.budgets.max_index_candidates,
            });
        }
        // Deterministic gather: the same total order a single index sorts
        // into (each image lives on exactly one shard, with a
        // distinct id, so the comparator is total).
        matches.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.image_id.cmp(&b.image_id))
        });
        let query_regions = q_regions.len();
        let stats = QueryStats {
            query_regions,
            total_matching_regions: total_hits,
            avg_regions_per_query_region: if query_regions == 0 {
                0.0
            } else {
                total_hits as f64 / query_regions as f64
            },
            distinct_images,
        };
        let status = if !shards_unavailable.is_empty() {
            ResultStatus::Degraded { shards_unavailable }
        } else if partial {
            ResultStatus::Partial
        } else {
            ResultStatus::Complete
        };
        Ok(QueryOutcome { matches, stats, status })
    }

    /// Owned metadata for an image. `Ok(None)` = unknown or removed;
    /// `Err(ShardUnavailable)` = its shard is quarantined, so its
    /// existence cannot be determined.
    pub fn image_meta(&self, id: usize) -> Result<Option<ImageMeta>> {
        let set = self.layout();
        let shard = shard_of(id, set.shards.len());
        let meta = match &*set.shards[shard].read() {
            ShardSlot::Healthy(db) => Ok(db.db().image_meta(id)),
            ShardSlot::Quarantined { .. } => Err(WalrusError::ShardUnavailable { shard }),
        };
        meta
    }

    /// Checkpoints one shard (exclusive lock on that shard only). A
    /// storage failure during the checkpoint quarantines the shard. Shed
    /// while a rebalance holds the source layout read-locked.
    pub fn checkpoint_shard(&self, shard: usize) -> Result<ShardCheckpoint> {
        if self.rebalancing.load(Ordering::Acquire) {
            return Err(WalrusError::Rebalancing);
        }
        let set = self.layout();
        if shard >= set.shards.len() {
            return Err(WalrusError::BadParams(format!(
                "shard {shard} out of range (store has {} shards; valid shards are 0..={})",
                set.shards.len(),
                set.shards.len() - 1
            )));
        }
        let started = Instant::now();
        self.mutate_shard(&set, shard, |db| {
            db.checkpoint()?;
            Ok(ShardCheckpoint { shard, last_lsn: db.last_lsn(), duration: started.elapsed() })
        })
    }

    /// Rolling checkpoint: folds shards one at a time — never the whole
    /// store at once — so ingest and queries on the other shards proceed
    /// concurrently. Quarantined shards are skipped (absent from the
    /// report), so a degraded store still checkpoints its healthy part.
    /// The report lists what each healthy shard did.
    pub fn checkpoint(&self) -> Result<Vec<ShardCheckpoint>> {
        if self.rebalancing.load(Ordering::Acquire) {
            return Err(WalrusError::Rebalancing);
        }
        let set = self.layout();
        let mut reports = Vec::with_capacity(set.shards.len());
        for shard in 0..set.shards.len() {
            if set.quarantined[shard].load(Ordering::Acquire) {
                continue;
            }
            match self.checkpoint_shard(shard) {
                Ok(report) => reports.push(report),
                // Raced with a quarantine transition: skip, like any other
                // quarantined shard.
                Err(WalrusError::ShardUnavailable { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(reports)
    }

    /// Per-shard health, in shard order.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let set = self.layout();
        set.shards
            .iter()
            .enumerate()
            .map(|(shard, slot)| match &*slot.read() {
                ShardSlot::Healthy(db) => ShardHealth {
                    shard,
                    healthy: true,
                    error: None,
                    images: db.len(),
                    wal_bytes: db.wal_len(),
                },
                ShardSlot::Quarantined { error, images, wal_bytes } => ShardHealth {
                    shard,
                    healthy: false,
                    error: Some(error.clone()),
                    images: *images,
                    wal_bytes: *wal_bytes,
                },
            })
            .collect()
    }

    /// Repairs a quarantined shard **in place** and swaps it back in:
    ///
    /// 1. truncate its WAL to the longest clean prefix
    ///    ([`crate::wal::scan_valid_prefix`]) — an explicit, operator-
    ///    requested acceptance that records past the damage are lost;
    /// 2. reopen the shard from its snapshot + repaired WAL;
    /// 3. on success, clear the quarantine and restore writes.
    ///
    /// Snapshot damage is not repairable this way — the reopen error is
    /// returned and the shard stays quarantined. Also works on a healthy
    /// shard (a no-op repair followed by a clean reopen).
    pub fn recover_shard(&self, shard: usize) -> Result<ShardRepair> {
        if self.rebalancing.load(Ordering::Acquire) {
            return Err(WalrusError::Rebalancing);
        }
        let set = self.layout();
        if shard >= set.shards.len() {
            return Err(WalrusError::BadParams(format!(
                "shard {shard} out of range (store has {} shards; valid shards are 0..={})",
                set.shards.len(),
                set.shards.len() - 1
            )));
        }
        // Hold the ingest lock across the swap so id assignment sees the
        // recovered shard's slots atomically.
        let mut next = self.ingest.lock();
        let mut slot = set.shards[shard].write();
        let dir = self.root.join(shard_dir_name_at(set.epoch, shard));
        let wal_path = dir.join(WAL_FILE);
        let mut truncated_bytes = 0u64;
        let mut records_kept = 0usize;
        if self.io.exists(&wal_path) {
            let bytes = self
                .io
                .read(&wal_path)
                .map_err(WalrusError::io_context("read", &wal_path))?;
            let scan = wal::scan_valid_prefix(&bytes);
            records_kept = scan.records.len();
            if scan.valid_len < bytes.len() as u64 {
                truncated_bytes = bytes.len() as u64 - scan.valid_len;
                self.io
                    .truncate(&wal_path, scan.valid_len)
                    .and_then(|()| self.io.fsync(&wal_path))
                    .map_err(WalrusError::io_context("truncate damaged", &wal_path))?;
            }
        }
        let (db, report) = DurableDatabase::open_with(self.io.clone(), &dir, self.params)?;
        *next = (*next).max(db.db().image_slots().len());
        *slot = ShardSlot::Healthy(Box::new(db));
        set.quarantined[shard].store(false, Ordering::Release);
        Ok(ShardRepair { shard, truncated_bytes, records_kept, report })
    }

    /// Migrates the store to `target_shards` shards **online**: queries
    /// keep answering (bit-identically) from the source layout for the
    /// whole migration, mutations and checkpoints are shed with
    /// [`WalrusError::Rebalancing`], and one atomic manifest write commits
    /// the new layout. Crash-safe at every step — see the module docs for
    /// the resume/rollback rules [`ShardedStore::open`] applies.
    pub fn rebalance(&self, target_shards: usize) -> Result<RebalanceReport> {
        if !(1..=MAX_SHARDS).contains(&target_shards) {
            return Err(WalrusError::BadParams(format!(
                "target shard count {target_shards} out of range 1..={MAX_SHARDS}"
            )));
        }
        if self
            .rebalancing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(WalrusError::Rebalancing);
        }
        self.rebalance_target.store(target_shards, Ordering::Release);
        self.shards_migrated.store(0, Ordering::Release);
        let result = self.run_rebalance(target_shards);
        self.rebalance_target.store(0, Ordering::Release);
        result
    }

    /// The migration proper. On entry the `rebalancing` flag is set; every
    /// exit path that leaves the store safe to write clears it (success,
    /// refusals, and a rollback that durably restored the source
    /// manifest). When the rollback itself fails the flag **stays set**:
    /// the on-disk manifest still says "migrating", and letting ingest
    /// resume would invalidate target shards already durably marked
    /// `Migrated` — only a reopen (which resumes or rolls back) may
    /// restore writes.
    fn run_rebalance(&self, target: usize) -> Result<RebalanceReport> {
        // Drain in-flight mutations: every mutation holds the ingest lock
        // for its full duration, so acquiring it once means the source
        // WALs are quiescent; new mutations shed on the flag.
        drop(self.ingest.lock());
        let set = self.layout();
        let source_count = set.shards.len();
        let epoch = set.epoch;
        if target == source_count {
            self.rebalancing.store(false, Ordering::Release);
            return Err(WalrusError::BadParams(format!("store already has {target} shards")));
        }
        if let Some(shard) = set.quarantined.iter().position(|q| q.load(Ordering::Acquire)) {
            // A quarantined shard's contents are unknown; migrating around
            // it would silently drop its images.
            self.rebalancing.store(false, Ordering::Release);
            return Err(WalrusError::ShardUnavailable { shard });
        }
        // Hold read guards on every source shard for the whole build:
        // queries share them freely; exclusive lockers (checkpoints,
        // repairs) are already shed by the flag.
        let guards: Vec<_> = set.shards.iter().map(|slot| slot.read()).collect();
        let mut sources: Vec<&ImageDatabase> = Vec::with_capacity(source_count);
        for (shard, guard) in guards.iter().enumerate() {
            match &**guard {
                ShardSlot::Healthy(db) => sources.push(db.db()),
                // Raced with an in-flight checkpoint quarantining the
                // shard after the lock-free scan above.
                ShardSlot::Quarantined { .. } => {
                    self.rebalancing.store(false, Ordering::Release);
                    return Err(WalrusError::ShardUnavailable { shard });
                }
            }
        }
        let io = self.io.as_ref();
        let mut manifest = Manifest {
            epoch,
            shard_count: source_count,
            gc_prev: 0,
            migration: Some(Migration {
                target_count: target,
                states: vec![MigrationState::Stable; target],
            }),
        };
        let staged = write_manifest(io, &self.root, &manifest);
        let migrated = staged.and_then(|()| {
            complete_migration(io, &self.root, &sources, &mut manifest,
                Some(&self.shards_migrated))
        });
        if let Err(e) = migrated {
            // Roll back: restore the stable source manifest first (the
            // staged targets are unreachable once it lands), then drop the
            // staging files. If even the manifest write fails, the flag
            // stays set — see the method docs.
            if write_manifest(io, &self.root, &Manifest::stable(epoch, source_count)).is_ok() {
                gc_layout_files(io, &self.root, epoch + 1, target);
                self.rebalancing.store(false, Ordering::Release);
            }
            return Err(e);
        }
        drop(sources);
        drop(guards);
        // `manifest` is now the committed layout {epoch+1, target, gc}.
        let (new_set, recoveries, _) =
            open_shard_set(&self.io, &self.root, self.params, manifest.epoch, manifest.shard_count);
        if let Some(bad) = recoveries.iter().find(|r| r.error.is_some()) {
            // The commit is durable — a reopen lands on the new layout and
            // can quarantine or repair. Keep shedding writes rather than
            // swap in a degraded set the migration just wrote.
            return Err(WalrusError::Corrupt(format!(
                "rebalance committed but target shard {} failed to open: {}",
                bad.shard,
                bad.error.as_deref().unwrap_or("unknown error"),
            )));
        }
        *self.layout.write() = Arc::new(new_set);
        self.rebalancing.store(false, Ordering::Release);
        let mut committed = manifest;
        gc_previous_layout(io, &self.root, &mut committed);
        Ok(RebalanceReport {
            from_shards: source_count,
            to_shards: committed.shard_count,
            epoch: committed.epoch,
            images: self.len(),
        })
    }

    /// Current layout epoch and migration progress.
    pub fn rebalance_status(&self) -> RebalanceStatus {
        RebalanceStatus {
            epoch: self.layout().epoch,
            rebalancing: self.rebalancing.load(Ordering::Acquire),
            target_shards: self.rebalance_target.load(Ordering::Acquire),
            shards_migrated: self.shards_migrated.load(Ordering::Acquire),
        }
    }

    /// An opaque fingerprint of the store's queryable content, for result
    /// caching: two calls return the same value **only if** every query
    /// answers identically in between. It changes on every committed
    /// ingest/remove (LSN advance), on shard quarantine or recovery, and on
    /// every rebalance epoch/migration-state change. It does **not** change
    /// on a checkpoint — folding the WAL into a snapshot rewrites bytes,
    /// not answers, so caches survive checkpoints. Computed by folding the
    /// layout epoch, the live rebalancing flag, the shard count, and each
    /// shard's (healthy, last LSN) pair.
    pub fn content_stamp(&self) -> u64 {
        /// FNV-1a 64 step.
        fn stamp_fold(hash: u64, value: u64) -> u64 {
            value.to_le_bytes().iter().fold(hash, |hash, byte| {
                (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3)
            })
        }
        let set = self.layout();
        // FNV-1a 64 offset basis, so an empty store's stamp is nonzero.
        let mut h = 0xcbf2_9ce4_8422_2325;
        h = stamp_fold(h, set.epoch);
        h = stamp_fold(h, self.rebalancing.load(Ordering::Acquire) as u64);
        h = stamp_fold(h, set.shards.len() as u64);
        for slot in &set.shards {
            match &*slot.read() {
                ShardSlot::Healthy(db) => {
                    h = stamp_fold(h, 1);
                    h = stamp_fold(h, db.last_lsn());
                }
                ShardSlot::Quarantined { .. } => {
                    h = stamp_fold(h, 0);
                    h = stamp_fold(h, 0);
                }
            }
        }
        h
    }

    /// Live images across healthy shards.
    pub fn len(&self) -> usize {
        self.fold_healthy(|db| db.len())
    }

    /// True when no healthy shard holds an image.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indexed regions across healthy shards.
    pub fn num_regions(&self) -> usize {
        self.fold_healthy(|db| db.db().num_regions())
    }

    /// Valid WAL bytes across healthy shards.
    pub fn wal_len(&self) -> u64 {
        self.fold_healthy(|db| db.wal_len())
    }

    /// WAL records since the last checkpoint, across healthy shards.
    pub fn records_since_checkpoint(&self) -> usize {
        self.fold_healthy(|db| db.records_since_checkpoint())
    }

    fn fold_healthy<T: std::iter::Sum>(&self, f: impl Fn(&DurableDatabase) -> T) -> T {
        let set = self.layout();
        let folded = set
            .shards
            .iter()
            .filter_map(|slot| match &*slot.read() {
                ShardSlot::Healthy(db) => Some(f(db)),
                ShardSlot::Quarantined { .. } => None,
            })
            .sum();
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FaultIo;
    use walrus_imagery::synth::scene::{Scene, SceneObject};
    use walrus_imagery::synth::shapes::Shape;
    use walrus_imagery::synth::texture::{Rgb, Texture};
    use walrus_wavelet::SlidingParams;

    fn params() -> WalrusParams {
        WalrusParams {
            sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
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

    /// A query outcome reduced to its bit-exact essentials.
    fn sig(outcome: &QueryOutcome) -> Vec<(usize, u64)> {
        outcome.matches.iter().map(|m| (m.image_id, m.similarity.to_bits())).collect()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        // Pinned values: shard routing is an on-disk compatibility surface
        // (part of the manifest format). If this test fails, bump the
        // manifest version instead of accepting the new routing.
        let pinned: Vec<usize> = (0..8).map(|id| shard_of(id, 4)).collect();
        assert_eq!(pinned, vec![3, 1, 2, 1, 2, 2, 0, 3]);
        for id in 0..10_000 {
            assert!(shard_of(id, 4) < 4);
            assert_eq!(shard_of(id, 1), 0);
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let stable = Manifest::stable(0, 4);
        let committed = Manifest { epoch: 2, shard_count: 8, gc_prev: 4, migration: None };
        let migrating = Manifest {
            epoch: 1,
            shard_count: 4,
            gc_prev: 0,
            migration: Some(Migration {
                target_count: 3,
                states: vec![
                    MigrationState::Migrated,
                    MigrationState::Draining,
                    MigrationState::Stable,
                ],
            }),
        };
        for manifest in [stable, committed, migrating] {
            let bytes = encode_manifest(&manifest);
            assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xFF;
                assert!(decode_manifest(&bad).is_err(), "flip at byte {i} must be caught");
            }
            assert!(decode_manifest(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    #[test]
    fn other_manifest_versions_are_unsupported() {
        // A hand-built, checksum-clean 24-byte version-1 manifest (a bare
        // shard count; no writer of it is kept) and a current manifest
        // relabelled with a version never assigned are refused alike.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut v1, 1);
        put_u64(&mut v1, 4);
        let mut v9 = encode_manifest(&Manifest::stable(0, 4));
        v9.truncate(v9.len() - 4);
        v9[8] = 9;
        for (version, mut bytes) in [(1, v1), (9, v9)] {
            let crc = crc32(&bytes);
            put_u32(&mut bytes, crc);
            match decode_manifest(&bytes) {
                Err(WalrusError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
                }
                other => panic!("version {version}: expected Corrupt, got {other:?}"),
            }
            // The open fails as a whole — there is no layout to open — and
            // leaves the file as it found it.
            let io = Arc::new(FaultIo::new());
            io.write(Path::new("db/MANIFEST"), &bytes).unwrap();
            let err = ShardedStore::open_with(io.clone(), "db", params(), 0).unwrap_err();
            assert!(matches!(err, WalrusError::Corrupt(_)), "{err}");
            assert_eq!(io.file_names(), vec![PathBuf::from("db/MANIFEST")]);
            assert_eq!(io.file_bytes(Path::new("db/MANIFEST")).unwrap(), bytes);
        }
    }

    #[test]
    fn inserts_route_by_hash_and_survive_reopen() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 4).unwrap();
        let a = store.insert_image("a", &scene(0.2)).unwrap();
        let b = store.insert_image("b", &scene(0.5)).unwrap();
        let c = store.insert_image("c", &scene(0.8)).unwrap();
        assert_eq!((a, b, c), (0, 1, 2), "global ids are dense");
        assert_eq!(store.len(), 3);
        store.remove_image(b).unwrap();
        drop(store);

        // Reopen with shards = 0: the manifest wins.
        let (store, recoveries) = ShardedStore::open_with(io.clone(), "db", params(), 0).unwrap();
        assert_eq!(store.shard_count(), 4);
        assert!(recoveries.iter().all(|r| r.error.is_none()));
        assert_eq!(store.len(), 2);
        assert_eq!(store.image_meta(a).unwrap().unwrap().name, "a");
        assert!(store.image_meta(b).unwrap().is_none(), "removed image is gone");
        // New ids continue after the highest assigned one.
        assert_eq!(store.insert_image("d", &scene(0.35)).unwrap(), 3);

        // A mismatched shard count is refused, not silently rehashed.
        drop(store);
        let err = ShardedStore::open_with(io, "db", params(), 2).unwrap_err();
        assert!(matches!(err, WalrusError::BadParams(_)), "{err}");
    }

    #[test]
    fn legacy_monolithic_directory_is_refused() {
        // The single-directory layout: a snapshot and a log at the root, no
        // manifest. It is refused whichever of the two files is there — a
        // root holding only `wal.log` (snapshot removed for repair) still
        // owns committed records a fresh manifest would orphan — for every
        // requested shard count, by open and by scrub, and not one byte of
        // the directory changes.
        for kept in [&[SNAPSHOT_FILE][..], &[WAL_FILE][..], &[SNAPSHOT_FILE, WAL_FILE][..]] {
            let io = Arc::new(FaultIo::new());
            let (mut mono, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
            mono.insert_image("a", &scene(0.2)).unwrap();
            drop(mono);
            for file in [SNAPSHOT_FILE, WAL_FILE] {
                if !kept.contains(&file) {
                    io.remove(&Path::new("db").join(file)).unwrap();
                }
            }
            let listing = |io: &FaultIo| -> Vec<(PathBuf, Vec<u8>)> {
                let names = io.file_names();
                names.into_iter().map(|p| (p.clone(), io.file_bytes(&p).unwrap())).collect()
            };
            let before = listing(&io);
            assert_eq!(before.len(), kept.len());
            for shards in [0, 1, 4] {
                let err = ShardedStore::open_with(io.clone(), "db", params(), shards).unwrap_err();
                assert!(matches!(err, WalrusError::BadParams(_)), "{kept:?}: {err}");
                let msg = err.to_string();
                assert!(msg.contains("db holds a") && msg.contains(kept[0]), "{msg}");
                assert!(msg.contains("no longer supported"), "{msg}");
            }
            let err = scrub_store(io.as_ref(), Path::new("db"), None).unwrap_err();
            assert!(err.to_string().contains("no longer supported"), "{kept:?}: {err}");
            assert_eq!(listing(&io), before, "{kept:?}: a refused open wrote something");
        }
    }

    #[test]
    fn a_root_without_a_manifest_is_created_with_the_requested_count() {
        // No count means one shard: the default store is the 1-shard store.
        for (requested, want) in [(0, 1), (1, 1), (3, 3)] {
            let io = Arc::new(FaultIo::new());
            let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), requested).unwrap();
            assert_eq!(store.shard_count(), want, "requested {requested}");
            assert_eq!(store.insert_image("a", &scene(0.2)).unwrap(), 0);
            drop(store);
            assert_eq!(
                read_manifest(io.as_ref(), Path::new("db")).unwrap(),
                Manifest::stable(0, want)
            );
            assert!(!io.exists(Path::new("db/snapshot.walrus")), "no files at the root");
            let (store, _) = ShardedStore::open_with(io, "db", params(), 0).unwrap();
            assert_eq!((store.shard_count(), store.len()), (want, 1));
        }
        let err = ShardedStore::open_with(Arc::new(FaultIo::new()), "db", params(), MAX_SHARDS + 1)
            .unwrap_err();
        assert!(matches!(err, WalrusError::BadParams(_)), "{err}");
    }

    #[test]
    fn rolling_checkpoint_reports_every_healthy_shard() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io, "db", params(), 3).unwrap();
        for i in 0..5 {
            store.insert_image(&format!("img{i}"), &scene(0.1 + 0.15 * i as f32)).unwrap();
        }
        assert!(store.records_since_checkpoint() > 0);
        let reports = ShardedStore::checkpoint(&store).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(store.records_since_checkpoint(), 0);
        for r in &reports {
            assert!(r.last_lsn > 0 || store.shard_health()[r.shard].images == 0);
        }
    }

    #[test]
    fn degraded_store_serves_reads_and_sheds_writes() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 4).unwrap();
        let mut by_shard = vec![Vec::new(); 4];
        for i in 0..8 {
            let id = store.insert_image(&format!("img{i}"), &scene(0.1 + 0.1 * i as f32)).unwrap();
            by_shard[shard_of(id, 4)].push(id);
        }
        drop(store);
        // Destroy shard 2's WAL header: that shard cannot open.
        let victim = 2usize;
        let wal = Path::new("db/shard-002/wal.log");
        let mut bytes = io.file_bytes(wal).unwrap();
        bytes[0] ^= 0xFF;
        io.write(wal, &bytes).unwrap();
        io.fsync(wal).unwrap();

        let (store, recoveries) = ShardedStore::open_with(io, "db", params(), 0).unwrap();
        assert!(recoveries[victim].error.is_some());
        assert_eq!(store.quarantined_shards(), vec![victim]);

        // Reads: degraded status naming the shard, healthy images present.
        let outcome = store.query(&scene(0.1)).unwrap();
        assert_eq!(
            outcome.status,
            ResultStatus::Degraded { shards_unavailable: vec![victim] }
        );
        for &id in &by_shard[0] {
            assert!(store.image_meta(id).unwrap().is_some());
        }
        for &id in &by_shard[victim] {
            assert!(matches!(
                store.image_meta(id),
                Err(WalrusError::ShardUnavailable { shard }) if shard == victim
            ));
        }

        // Writes: shed with the typed error naming the quarantined shard.
        let err = store.insert_image("new", &scene(0.9)).unwrap_err();
        assert!(matches!(err, WalrusError::ShardUnavailable { shard } if shard == victim));
        let err = store.remove_image(by_shard[0][0]).unwrap_err();
        assert!(matches!(err, WalrusError::ShardUnavailable { shard } if shard == victim));

        // A rebalance is refused too: the quarantined shard's contents are
        // unknown, so migrating would silently drop them.
        let err = store.rebalance(2).unwrap_err();
        assert!(matches!(err, WalrusError::ShardUnavailable { shard } if shard == victim));
        assert!(!store.rebalance_status().rebalancing, "refusal clears the flag");

        // Checkpoint still covers the healthy shards.
        let reports = ShardedStore::checkpoint(&store).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.shard != victim));
    }

    #[test]
    fn recover_shard_truncates_damage_and_restores_writes() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 2).unwrap();
        // Find a shard with at least 2 records so mid-log damage exists.
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(store.insert_image(&format!("img{i}"), &scene(0.1 + 0.12 * i as f32)).unwrap());
        }
        let victim = (0..2)
            .max_by_key(|&s| ids.iter().filter(|&&id| shard_of(id, 2) == s).count())
            .unwrap();
        drop(store);
        // Flip a byte in the victim's first record while records follow:
        // mid-log corruption, which read_wal refuses.
        let wal_path_string = format!("db/{}/wal.log", shard_dir_name(victim));
        let wal = Path::new(&wal_path_string);
        let mut bytes = io.file_bytes(wal).unwrap();
        let pos = wal::WAL_HEADER_LEN as usize + 20;
        bytes[pos] ^= 0xFF;
        io.write(wal, &bytes).unwrap();
        io.fsync(wal).unwrap();

        let (store, _) = ShardedStore::open_with(io, "db", params(), 0).unwrap();
        assert_eq!(store.quarantined_shards(), vec![victim]);
        let repair = store.recover_shard(victim).unwrap();
        assert_eq!(repair.shard, victim);
        assert!(repair.truncated_bytes > 0, "damaged suffix was dropped");
        assert!(store.quarantined_shards().is_empty());
        // Writes are restored and ids never collide with surviving ones.
        let new_id = store.insert_image("after", &scene(0.77)).unwrap();
        assert!(new_id >= ids.len() - ids.iter().filter(|&&id| shard_of(id, 2) == victim).count());
        assert_eq!(store.image_meta(new_id).unwrap().unwrap().name, "after");
    }

    #[test]
    fn rebalance_rehashes_and_collects_the_old_layout() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 4).unwrap();
        for i in 0..6 {
            store.insert_image(&format!("img{i}"), &scene(0.1 + 0.12 * i as f32)).unwrap();
        }
        // Remove the *highest* id: the migration must preserve the id
        // high-water mark through tombstones alone.
        store.remove_image(5).unwrap();
        let probe = scene(0.22);
        let before = sig(&store.query(&probe).unwrap());
        assert!(!before.is_empty());

        let report = store.rebalance(2).unwrap();
        assert_eq!(
            (report.from_shards, report.to_shards, report.epoch, report.images),
            (4, 2, 1, 5)
        );
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.epoch(), 1);
        let status = store.rebalance_status();
        assert_eq!((status.epoch, status.rebalancing, status.target_shards), (1, false, 0));
        assert_eq!(status.shards_migrated, 2);

        // Same answers, new layout, old layout collected.
        assert_eq!(sig(&store.query(&probe).unwrap()), before);
        assert!(io.exists(Path::new("db/e1-shard-000/snapshot.walrus")));
        assert!(!io.exists(Path::new("db/shard-000/snapshot.walrus")), "old layout GC'd");
        // The id high-water mark survived the removed tail.
        assert_eq!(store.insert_image("g", &scene(0.9)).unwrap(), 6);

        // The committed layout survives reopen (shards = 0: manifest wins).
        drop(store);
        let (store, recoveries) = ShardedStore::open_with(io, "db", params(), 0).unwrap();
        assert_eq!(store.shard_count(), 2);
        assert!(recoveries.iter().all(|r| r.error.is_none()));
        assert_eq!(store.len(), 6);
        assert!(store.image_meta(5).unwrap().is_none(), "removed image stays gone");
        assert_eq!(store.image_meta(6).unwrap().unwrap().name, "g");
        let after: Vec<(usize, u64)> = sig(&store.query(&probe).unwrap());
        assert_eq!(
            after.iter().filter(|(id, _)| *id != 6).copied().collect::<Vec<_>>(),
            before.iter().copied().filter(|(id, _)| *id != 6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rebalance_refuses_nonsense_targets() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io, "db", params(), 2).unwrap();
        store.insert_image("a", &scene(0.3)).unwrap();
        for bad in [0, MAX_SHARDS + 1, 2] {
            let err = store.rebalance(bad).unwrap_err();
            assert!(matches!(err, WalrusError::BadParams(_)), "target {bad}: {err}");
        }
        assert!(!store.rebalance_status().rebalancing);
        // The store still writes after every refusal.
        store.insert_image("b", &scene(0.6)).unwrap();
    }

    #[test]
    fn interrupted_migration_resumes_at_open() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 1).unwrap();
        for i in 0..3 {
            store.insert_image(&format!("img{i}"), &scene(0.2 + 0.2 * i as f32)).unwrap();
        }
        let probe = scene(0.2);
        let before = sig(&store.query(&probe).unwrap());
        drop(store);

        // Simulate a rebalance that crashed right after staging: the
        // manifest says "migrating to 4, nothing built yet".
        let staged = Manifest {
            epoch: 0,
            shard_count: 1,
            gc_prev: 0,
            migration: Some(Migration {
                target_count: 4,
                states: vec![MigrationState::Stable; 4],
            }),
        };
        write_manifest(io.as_ref(), Path::new("db"), &staged).unwrap();

        // Open resumes and commits the migration before serving.
        let (store, recoveries) = ShardedStore::open_with(io.clone(), "db", params(), 0).unwrap();
        assert!(recoveries.iter().all(|r| r.error.is_none()));
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.len(), 3);
        assert_eq!(sig(&store.query(&probe).unwrap()), before);
        assert!(!io.exists(Path::new("db/shard-000/snapshot.walrus")), "source GC'd");
        let manifest = read_manifest(io.as_ref(), Path::new("db")).unwrap();
        assert_eq!(manifest, Manifest::stable(1, 4));
    }

    #[test]
    fn scrub_walks_every_shard_and_flags_damage() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 3).unwrap();
        for i in 0..5 {
            store.insert_image(&format!("img{i}"), &scene(0.15 + 0.12 * i as f32)).unwrap();
        }
        drop(store);

        let verdicts = scrub_store(io.as_ref(), Path::new("db"), None).unwrap();
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| v.scrub.clean()));

        let one = scrub_store(io.as_ref(), Path::new("db"), Some(1)).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].shard, 1);

        let err = scrub_store(io.as_ref(), Path::new("db"), Some(9)).unwrap_err();
        assert!(matches!(err, WalrusError::BadParams(_)), "{err}");
        assert!(err.to_string().contains("0..=2"), "{err}");

        // Damage one shard's snapshot: only that shard fails the scrub.
        assert!(io.corrupt_byte(Path::new("db/shard-002/snapshot.walrus"), 20, 0xFF));
        let verdicts = scrub_store(io.as_ref(), Path::new("db"), None).unwrap();
        assert!(verdicts[0].scrub.clean() && verdicts[1].scrub.clean());
        assert!(!verdicts[2].scrub.clean());
        assert!(verdicts[2].scrub.error.as_deref().unwrap().starts_with("snapshot:"));

        // A migrating manifest is refused: the layout is ambiguous until
        // an open resumes or rolls back.
        let migrating = Manifest {
            epoch: 0,
            shard_count: 3,
            gc_prev: 0,
            migration: Some(Migration {
                target_count: 2,
                states: vec![MigrationState::Stable; 2],
            }),
        };
        write_manifest(io.as_ref(), Path::new("db"), &migrating).unwrap();
        let err = scrub_store(io.as_ref(), Path::new("db"), None).unwrap_err();
        assert!(err.to_string().contains("mid-migration"), "{err}");
    }
}
