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
//! epoch, shard count, and any staged rebalance — is recorded in a
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
//! WAL) or at runtime (append failure, poisoned WAL tail, a panic under
//! its lock) — is **quarantined**: queries skip it and report
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
//! 2. one atomic manifest write stages the rebalance (`staged: M`), naming
//!    the files a rollback must collect;
//! 3. each **target** shard is built in turn by streaming every global id
//!    through [`shard_of`] under the target count, copying region
//!    signatures byte-identically and padding the sparse id space with
//!    tombstones; the finished shard is written as a fresh snapshot (LSN
//!    0) plus an empty WAL into the next epoch's directory
//!    (`e<epoch>-shard-<i>/`, so no directory is ever renamed);
//! 4. one final atomic manifest write commits the new layout and schedules
//!    the old directories for garbage collection.
//!
//! An interrupted rebalance has one recovery path: roll back. The source
//! layout is never written during a rebalance, and the answers are the
//! same for any shard count, so returning to `N` loses nothing. A failure
//! before the commit rolls back inline; a crash leaves a staged manifest,
//! and [`ShardedStore::open`] rolls that back before it opens anything
//! else. The rebalance fault sweeps drive a crash into every I/O operation
//! and assert the reopened store is bit-identical to a never-migrated
//! oracle.

use crate::database::{rank_order, ImageDatabase, ImageMeta, QueryOptions, ResultStatus};
use crate::extract::{extract_batch_guarded, extract_regions};
use crate::params::WalrusParams;
use crate::persist;
use crate::recovery::{scrub_dir, DirScrub, DurableDatabase, RecoveryReport, SNAPSHOT_FILE, WAL_FILE};
use crate::region::Region;
use crate::storage::{DiskIo, StorageIo};
use crate::store::{RebalanceStatus, ShardCheckpoint, ShardHealth};
use crate::wal;
use crate::{QueryOutcome, QueryStats, Result, WalrusError};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;
use walrus_guard::Guard;
use walrus_imagery::Image;

mod manifest;
mod mark;
use manifest::{
    gc_previous_layout, refuse_legacy_layout, rollback_migration, write_manifest,
};
pub use manifest::{read_manifest, shard_dir_name, shard_dir_name_at, Manifest, MANIFEST_FILE};
pub use mark::{CompactRegions, ContentMark};

/// Most shards a store may have (bounds query fan-out).
pub const MAX_SHARDS: usize = 64;

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

/// `Ok` when `shard` names one of a store's `count` shards.
fn check_shard(shard: usize, count: usize) -> Result<()> {
    if shard < count {
        return Ok(());
    }
    Err(WalrusError::BadParams(format!(
        "shard {shard} out of range (store has {count} shards; valid shards are 0..={})",
        count - 1
    )))
}

/// Read-only integrity walk of a sharded store: every shard's snapshot is
/// re-read and CRC-validated and its WAL checked to be one clean prefix,
/// without opening (or mutating) the store. `only` restricts the walk to
/// one shard. A store left mid-rebalance is walked on its source layout:
/// that is the committed one, and the next open rolls back to it.
pub fn scrub_store(io: &dyn StorageIo, root: &Path, only: Option<usize>) -> Result<Vec<ShardScrub>> {
    refuse_legacy_layout(io, root)?;
    let manifest = read_manifest(io, root)?;
    if let Some(shard) = only {
        check_shard(shard, manifest.shard_count)?;
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

// The store's locks recover a poisoned lock (`PoisonError::into_inner`):
// a panic under one leaves the data as the panicking holder left it, and
// every later caller goes on with that instead of panicking in turn.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
    shards: Vec<RwLock<ShardSlot>>,
    /// Lock-free mirror of each slot's quarantine bit, so write admission
    /// never blocks on a shard lock held by a rolling checkpoint.
    quarantined: Vec<AtomicBool>,
    /// Per slot, how many times it was replaced (quarantined or recovered);
    /// moved under the slot's write lock. Part of the [`ContentMark`].
    generations: Vec<AtomicU64>,
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
                slots.push(RwLock::new(ShardSlot::Healthy(Box::new(db))));
                quarantined.push(AtomicBool::new(false));
                recoveries.push(ShardRecovery { shard, report: Some(report), error: None });
            }
            Err(e) => {
                let error = e.to_string();
                slots.push(RwLock::new(ShardSlot::Quarantined {
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
        ShardSet {
            epoch,
            shards: slots,
            quarantined,
            generations: (0..count).map(|_| AtomicU64::new(0)).collect(),
        },
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

/// N-shard durable store. See the module docs for the design.
#[derive(Debug)]
pub struct ShardedStore {
    io: Arc<dyn StorageIo>,
    root: PathBuf,
    params: WalrusParams,
    /// The current layout. Queries clone the `Arc` once and run entirely
    /// on that consistent set; a committed rebalance swaps the pointer.
    layout: RwLock<Arc<ShardSet>>,
    /// Global id assignment: the next id to hand out. Held across the
    /// target shard's WAL append so ids arrive at each shard in strictly
    /// increasing order (a WAL invariant). Also the rebalance drain
    /// point: acquiring it once guarantees no mutation is in flight.
    ingest: Mutex<usize>,
    /// Set for the whole duration of a rebalance; mutations and
    /// checkpoints shed with [`WalrusError::Rebalancing`] while it holds.
    rebalancing: AtomicBool,
    /// Target shard count of the in-flight rebalance (0 otherwise).
    rebalance_target: AtomicUsize,
    /// Target shards built so far (monotone during one rebalance; retains
    /// the final count afterwards).
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
    /// An interrupted rebalance is rolled back here, before any shard
    /// opens: the stable source manifest is written, then the staged
    /// target files are collected best-effort. No source shard is read to
    /// do it, so the caller always sees the source layout, whatever state
    /// the targets or the sources are in.
    ///
    /// A shard that fails to open is quarantined, not fatal: the returned
    /// [`ShardRecovery`] list says what happened to each shard. Only a
    /// missing or corrupt manifest fails the open itself.
    pub fn open(
        root: impl AsRef<Path>,
        params: WalrusParams,
        shards: usize,
    ) -> Result<(Self, Vec<ShardRecovery>)> {
        Self::open_with(Arc::new(DiskIo), root, params, shards)
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
        let mut manifest = if io.exists(&root.join(MANIFEST_FILE)) {
            read_manifest(io.as_ref(), &root)?
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

        if manifest.staged != 0 {
            manifest = rollback_migration(io.as_ref(), &root, &manifest)?;
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
            .map(|slot| match &*read(slot) {
                ShardSlot::Healthy(db) => db.db().image_slots().len(),
                ShardSlot::Quarantined { .. } => 0,
            })
            .max()
            .unwrap_or(0);

        let store = ShardedStore {
            io,
            root,
            params: resolved_params,
            layout: RwLock::new(Arc::new(set)),
            ingest: Mutex::new(next_id),
            rebalancing: AtomicBool::new(false),
            rebalance_target: AtomicUsize::new(0),
            shards_migrated: AtomicUsize::new(0),
        };
        Ok((store, recoveries))
    }

    /// The current layout, as one consistent set.
    fn layout(&self) -> Arc<ShardSet> {
        read(&self.layout).clone()
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
        *lock(&self.ingest)
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
        set.generations[shard].fetch_add(1, Ordering::AcqRel);
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
    /// error, corruption) or panicked (the panic then carries on). Inserts, removals and checkpoints all go through
    /// here, so "what quarantines a shard" is decided in one place.
    fn mutate_shard<T>(
        &self,
        set: &ShardSet,
        shard: usize,
        op: impl FnOnce(&mut DurableDatabase) -> Result<T>,
    ) -> Result<T> {
        let mut slot = write(&set.shards[shard]);
        let ShardSlot::Healthy(db) = &mut *slot else {
            return Err(WalrusError::ShardUnavailable { shard });
        };
        let result = match catch_unwind(AssertUnwindSafe(|| op(db))) {
            Ok(result) => result,
            Err(payload) => {
                // The shard may have logged a record it never applied.
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.mark_quarantined(set, shard, &mut slot, format!("panicked: {message}"));
                resume_unwind(payload);
            }
        };
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
        let mut next = lock(&self.ingest);
        let set = self.writable_layout()?;
        let base = *next;
        let count = batch.len();
        let shard_count = set.shards.len();
        let mut groups: Vec<ShardWork> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, (name, width, height, regions)) in batch.into_iter().enumerate() {
            let id = base + i;
            groups[shard_of(id, shard_count)].push((id, name, width, height, regions));
        }
        let groups: Vec<(usize, Mutex<ShardWork>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(shard, g)| (shard, Mutex::new(g)))
            .collect();

        // Per shard: the highest id it committed, and the WAL bytes it
        // appended and the index repacks it ran, or its first failure
        // tagged with the failing id.
        let shard_workers =
            walrus_parallel::resolve_threads(self.params.threads).min(groups.len().max(1));
        let results =
            walrus_parallel::parallel_map(shard_workers, &groups, |_, (shard, work)| {
                let work = std::mem::take(&mut *lock(work));
                let mut failing = work[0].0;
                let mut committed = None;
                let appended = self.mutate_shard(&set, *shard, |db| {
                    let (wal_before, repacks_before) = (db.wal_len(), db.repacks());
                    for (id, name, width, height, regions) in work {
                        failing = id;
                        db.insert_regions_at(id, name, width, height, regions)?;
                        committed = Some(id);
                    }
                    Ok((db.wal_len() - wal_before, db.repacks() - repacks_before))
                });
                (committed, appended.map_err(|e| (failing, e)))
            });

        if let Some(max_id) = results.iter().filter_map(|(committed, _)| *committed).max() {
            *next = max_id + 1;
        }
        let (mut bytes, mut repacks) = (0, 0);
        let mut failures = Vec::new();
        for (_, appended) in results {
            match appended {
                Ok((n, r)) => (bytes, repacks) = (bytes + n, repacks + r),
                Err(tagged) => failures.push(tagged),
            }
        }
        if let Some((_, e)) = failures.into_iter().min_by_key(|(id, _)| *id) {
            return Err(e);
        }
        if let Some(s) = &wal_span {
            s.add("records", count as u64);
            s.add("bytes", bytes);
            s.add("repacks", repacks);
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
        let _next = lock(&self.ingest);
        let set = self.writable_layout()?;
        self.mutate_shard(&set, shard_of(id, set.shards.len()), |db| db.remove_image(id))
    }

    /// Scatter-gather query under per-request [`QueryOptions`] — the same
    /// procedure as [`ImageDatabase::query_with_options_guarded`], scene
    /// queries included, with the probe spread over the shards. Healthy
    /// shards are probed in shard order on the calling thread, each under
    /// the request's guard and each recording its own `shard_probe` span;
    /// inside a shard the probe fans out per query region and per candidate
    /// image on `params.threads` workers. Quarantined shards are skipped and
    /// reported in [`ResultStatus::Degraded`]. The whole query runs on one
    /// layout `Arc`: a rebalance committing mid-query does not change the
    /// set this query reads.
    pub fn query_with_options_guarded(
        &self,
        query: &Image,
        opts: &QueryOptions,
        guard: &Guard,
    ) -> Result<QueryOutcome> {
        Ok(self.query_with_regions_guarded(query, opts, guard)?.0)
    }

    /// [`ShardedStore::query_with_options_guarded`], also handing back the
    /// regions extracted from `query` (none when a deadline stopped the
    /// extraction) — what [`ShardedStore::score_since`] queries with again.
    pub fn query_with_regions_guarded(
        &self,
        query: &Image,
        opts: &QueryOptions,
        guard: &Guard,
    ) -> Result<(QueryOutcome, Vec<Region>)> {
        opts.run(&self.params, query, guard, |params, regions, area, min_similarity| {
            let set = self.layout();
            self.scatter_gather(&set, params, regions, area, min_similarity, guard, |_, _| Some(0))
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

    /// The query body over every shard of `set`, each from the image slot
    /// `from(shard, slot)` names, read under that shard's lock; a shard it
    /// names none for is skipped as a quarantined one is.
    #[allow(clippy::too_many_arguments)] // the shard query's, plus the layout and `from`
    fn scatter_gather(
        &self,
        set: &ShardSet,
        params: &WalrusParams,
        q_regions: &[Region],
        query_area: usize,
        min_similarity: f64,
        guard: &Guard,
        from: impl Fn(usize, &ShardSlot) -> Option<usize>,
    ) -> Result<QueryOutcome> {
        // Shards are probed one after another on this thread, under the
        // request's own guard and trace: each probe fans out per query
        // region and per candidate image inside the shard, the query's one
        // parallel grain. The first failing shard's error is returned.
        let mut shards_unavailable = Vec::new();
        let mut partial = false;
        let mut matches = Vec::new();
        let mut total_hits = 0usize;
        let mut distinct_images = 0usize;
        for (i, shard) in set.shards.iter().enumerate() {
            let probe_span = guard.span("shard_probe");
            if let Some(s) = &probe_span {
                s.add("shard", i as u64);
            }
            let slot = read(shard);
            let (ShardSlot::Healthy(db), Some(from)) = (&*slot, from(i, &slot)) else {
                shards_unavailable.push(i);
                continue;
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
                from,
                guard,
            )?;
            if let Some(s) = &probe_span {
                s.add("images", shard_outcome.stats.distinct_images as u64);
                s.add("hits", shard_outcome.stats.total_matching_regions as u64);
            }
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
        matches.sort_by(rank_order);
        let stats = QueryStats::new(q_regions.len(), total_hits, distinct_images);
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
        let meta = match &*read(&set.shards[shard]) {
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
        check_shard(shard, set.shards.len())?;
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
            .map(|(shard, slot)| match &*read(slot) {
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
        check_shard(shard, set.shards.len())?;
        // Hold the ingest lock across the swap so id assignment sees the
        // recovered shard's slots atomically.
        let mut next = lock(&self.ingest);
        let mut slot = write(&set.shards[shard]);
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
            if scan.torn_tail {
                truncated_bytes = bytes.len() as u64 - scan.valid_len;
                wal::truncate(self.io.as_ref(), &wal_path, scan.valid_len)
                    .map_err(WalrusError::io_context("truncate damaged", &wal_path))?;
            }
        }
        let (db, report) = DurableDatabase::open_with(self.io.clone(), &dir, self.params)?;
        *next = (*next).max(db.db().image_slots().len());
        *slot = ShardSlot::Healthy(Box::new(db));
        set.generations[shard].fetch_add(1, Ordering::AcqRel);
        set.quarantined[shard].store(false, Ordering::Release);
        Ok(ShardRepair { shard, truncated_bytes, records_kept, report })
    }

    /// Migrates the store to `target_shards` shards **online**: queries
    /// keep answering (bit-identically) from the source layout for the
    /// whole migration, mutations and checkpoints are shed with
    /// [`WalrusError::Rebalancing`], and one atomic manifest write commits
    /// the new layout. Crash-safe at every step: a failure before the
    /// commit rolls back, and so does [`ShardedStore::open`] after a crash.
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
    /// the manifest on disk may still be staged or even committed, so only
    /// a reopen, which reads it, may restore writes.
    fn run_rebalance(&self, target: usize) -> Result<RebalanceReport> {
        // Drain in-flight mutations: every mutation holds the ingest lock
        // for its full duration, so acquiring it once means the source
        // WALs are quiescent; new mutations shed on the flag.
        drop(lock(&self.ingest));
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
        let guards: Vec<_> = set.shards.iter().map(|slot| read(slot)).collect();
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
        let staged = Manifest { staged: target, ..Manifest::stable(epoch, source_count) };
        let mut manifest =
            Manifest { epoch: epoch + 1, shard_count: target, gc_prev: source_count, staged: 0 };
        let next_id = sources.iter().map(|s| s.image_slots().len()).max().unwrap_or(0);
        let committed = write_manifest(io, &self.root, &staged)
            .and_then(|()| {
                (0..target).try_for_each(|t| {
                    build_target_shard(io, &self.root, epoch, &sources, next_id, t, target)?;
                    self.shards_migrated.fetch_add(1, Ordering::AcqRel);
                    Ok(())
                })
            })
            .and_then(|()| write_manifest(io, &self.root, &manifest));
        if let Err(e) = committed {
            // If even the rollback's manifest write fails, the flag stays
            // set — see the method docs.
            if rollback_migration(io, &self.root, &staged).is_ok() {
                self.rebalancing.store(false, Ordering::Release);
            }
            return Err(e);
        }
        drop(sources);
        drop(guards);
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
        *write(&self.layout) = Arc::new(new_set);
        self.rebalancing.store(false, Ordering::Release);
        gc_previous_layout(io, &self.root, &mut manifest);
        Ok(RebalanceReport {
            from_shards: source_count,
            to_shards: manifest.shard_count,
            epoch: manifest.epoch,
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
            .filter_map(|slot| match &*read(slot) {
                ShardSlot::Healthy(db) => Some(f(db)),
                ShardSlot::Quarantined { .. } => None,
            })
            .sum();
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::manifest::{decode_manifest, encode_manifest, MANIFEST_MAGIC};
    use super::*;
    use crate::crc32::crc32;
    use crate::persist::{put_u32, put_u64};
    use crate::storage::FaultIo;
    use std::io;
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
        let committed = Manifest { epoch: 2, shard_count: 8, gc_prev: 4, staged: 0 };
        let staged = Manifest { epoch: 1, shard_count: 4, gc_prev: 0, staged: 3 };
        for manifest in [stable, committed, staged] {
            let bytes = encode_manifest(&manifest);
            assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xFF;
                assert!(decode_manifest(&bad).is_err(), "flip at byte {i} must be caught");
            }
            assert!(decode_manifest(&bytes[..bytes.len() - 1]).is_err());
        }
        // A staged manifest's per-target bytes are written as 0, and read
        // only to range-check: 0..=2 (what earlier writers recorded per
        // target) decode alike, anything else is corrupt even under a
        // clean checksum.
        let mut bytes = encode_manifest(&Manifest { staged: 3, ..Manifest::stable(1, 4) });
        assert_eq!(bytes[45..48], [0, 0, 0]);
        for (state, ok) in [(1, true), (2, true), (3, false)] {
            bytes.truncate(bytes.len() - 4);
            bytes[46] = state;
            let crc = crc32(&bytes);
            put_u32(&mut bytes, crc);
            match decode_manifest(&bytes) {
                Ok(m) => {
                    assert!(ok, "state {state} must be refused");
                    assert_eq!(m, Manifest { staged: 3, ..Manifest::stable(1, 4) });
                }
                Err(e) => {
                    assert!(!ok, "state {state}: {e}");
                    assert!(e.to_string().contains("bad migration state 3"), "{e}");
                }
            }
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
    fn interrupted_rebalance_rolls_back_at_open() {
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 1).unwrap();
        for i in 0..3 {
            store.insert_image(&format!("img{i}"), &scene(0.2 + 0.2 * i as f32)).unwrap();
        }
        let probe = scene(0.2);
        let before = sig(&store.query(&probe).unwrap());
        drop(store);

        // Simulate a rebalance that crashed right after staging: the
        // manifest says "staged to 4, not committed".
        let staged = Manifest { staged: 4, ..Manifest::stable(0, 1) };
        write_manifest(io.as_ref(), Path::new("db"), &staged).unwrap();

        // Open rolls back to the source layout before serving.
        let (store, recoveries) = ShardedStore::open_with(io.clone(), "db", params(), 0).unwrap();
        assert!(recoveries.iter().all(|r| r.error.is_none()));
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.len(), 3);
        assert_eq!(sig(&store.query(&probe).unwrap()), before);
        assert!(io.exists(Path::new("db/shard-000/snapshot.walrus")), "source kept");
        let manifest = read_manifest(io.as_ref(), Path::new("db")).unwrap();
        assert_eq!(manifest, Manifest::stable(0, 1));
    }

    #[test]
    fn a_staged_manifest_with_per_target_progress_rolls_back_at_open() {
        // A store left mid-rebalance by a writer that recorded per-target
        // progress: 2 source shards staged to 3, target 0 fully built,
        // target 1 half written, target 2 not started.
        let io = Arc::new(FaultIo::new());
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 2).unwrap();
        for i in 0..5 {
            store.insert_image(&format!("img{i}"), &scene(0.15 + 0.15 * i as f32)).unwrap();
        }
        store.remove_image(1).unwrap();
        let probe = scene(0.3);
        let before = store.query(&probe).unwrap();
        assert!(!before.matches.is_empty());
        drop(store);

        let sources: Vec<DurableDatabase> = (0..2)
            .map(|shard| {
                let dir = Path::new("db").join(shard_dir_name(shard));
                DurableDatabase::open_with(io.clone(), &dir, params()).unwrap().0
            })
            .collect();
        let dbs: Vec<&ImageDatabase> = sources.iter().map(|d| d.db()).collect();
        let next_id = dbs.iter().map(|d| d.image_slots().len()).max().unwrap();
        build_target_shard(io.as_ref(), Path::new("db"), 0, &dbs, next_id, 0, 3).unwrap();
        drop(sources);
        io.write(Path::new("db/e1-shard-001/snapshot.walrus.tmp"), b"WALRUS partial").unwrap();

        // The manifest bytes such a writer left: flag 1, target count 3,
        // states Migrated (2), Draining (1), Stable (0).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut bytes, 2);
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, 2);
        put_u64(&mut bytes, 0);
        bytes.push(1);
        put_u64(&mut bytes, 3);
        bytes.extend_from_slice(&[2, 1, 0]);
        let crc = crc32(&bytes);
        put_u32(&mut bytes, crc);
        io.write(Path::new("db/MANIFEST"), &bytes).unwrap();
        let staged = read_manifest(io.as_ref(), Path::new("db")).unwrap();
        assert_eq!(staged, Manifest { staged: 3, ..Manifest::stable(0, 2) });

        let (store, recoveries) = ShardedStore::open_with(io.clone(), "db", params(), 0).unwrap();
        assert!(recoveries.iter().all(|r| r.error.is_none()));
        assert_eq!((store.shard_count(), store.epoch()), (2, 0));
        let after = store.query(&probe).unwrap();
        assert_eq!(after.status, before.status);
        assert_eq!(after.stats, before.stats);
        assert_eq!(sig(&after), sig(&before));
        drop(store);
        assert_eq!(
            read_manifest(io.as_ref(), Path::new("db")).unwrap(),
            Manifest::stable(0, 2)
        );
        let staged_files: Vec<PathBuf> = io
            .file_names()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("e1-shard-"))
            .collect();
        assert!(staged_files.is_empty(), "staged files left behind: {staged_files:?}");
    }

    /// Storage whose next `append`, once armed, panics instead of writing.
    #[derive(Debug)]
    struct PanicOnceIo {
        inner: Arc<FaultIo>,
        armed: AtomicBool,
    }

    impl StorageIo for PanicOnceIo {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.inner.write(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if self.armed.swap(false, Ordering::AcqRel) {
                panic!("append to {} blew up", path.display());
            }
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
    fn a_panic_under_a_shard_lock_quarantines_the_shard() {
        let io =
            Arc::new(PanicOnceIo { inner: Arc::new(FaultIo::new()), armed: AtomicBool::new(false) });
        let (store, _) = ShardedStore::open_with(io.clone(), "db", params(), 2).unwrap();
        for i in 0..4 {
            store.insert_image(&format!("img{i}"), &scene(0.1 + 0.2 * i as f32)).unwrap();
        }
        let victim = shard_of(4, 2);
        io.armed.store(true, Ordering::Release);
        let panicked = catch_unwind(AssertUnwindSafe(|| store.insert_image("boom", &scene(0.5))));
        assert!(panicked.is_err(), "the panic carries on to the caller");

        assert_eq!(store.quarantined_shards(), vec![victim]);
        let health = &store.shard_health()[victim];
        assert!(health.error.as_deref().unwrap().starts_with("panicked: append to"), "{health:?}");
        assert_eq!(
            store.query(&scene(0.1)).unwrap().status,
            ResultStatus::Degraded { shards_unavailable: vec![victim] }
        );
        let err = store.insert_image("shed", &scene(0.7)).unwrap_err();
        assert!(matches!(err, WalrusError::ShardUnavailable { shard } if shard == victim), "{err}");

        store.recover_shard(victim).unwrap();
        assert!(store.quarantined_shards().is_empty());
        let id = store.insert_image("after", &scene(0.7)).unwrap();
        assert_eq!(store.image_meta(id).unwrap().unwrap().name, "after");
        assert_eq!(store.len(), 5);
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

        // A staged manifest is walked on its source layout, the one an
        // open rolls back to.
        let staged = Manifest { staged: 2, ..Manifest::stable(0, 3) };
        write_manifest(io.as_ref(), Path::new("db"), &staged).unwrap();
        let verdicts = scrub_store(io.as_ref(), Path::new("db"), None).unwrap();
        assert_eq!(verdicts.iter().map(|v| v.shard).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(verdicts[0].scrub.clean() && verdicts[1].scrub.clean());
        assert!(!verdicts[2].scrub.clean());
    }
}
