//! One crash-safe shard: snapshot + write-ahead log + recovery.
//!
//! [`DurableDatabase`] is the unit a [`crate::sharded::ShardedStore`] is
//! made of — every store, a 1-shard one included, is a manifest over these.
//! It wraps an in-memory [`ImageDatabase`] with the durability discipline
//! of a real database engine:
//!
//! * every mutation is appended to an fsynced write-ahead log
//!   ([`crate::wal`]) *before* it is applied in memory (write-ahead rule);
//! * [`DurableDatabase::checkpoint`] folds the log into a fresh snapshot
//!   ([`crate::persist`]), written atomically (temp file → fsync → rename →
//!   directory fsync), then resets the log;
//! * [`DurableDatabase::open`] recovers: load the last good snapshot,
//!   replay WAL records past the snapshot's `last_lsn`, and truncate any
//!   torn tail a crash left behind.
//!
//! A crash at *any* instant therefore loses at most the single in-flight
//! operation — the store always reopens to the old or the new committed
//! state. The crash-consistency test suite drives every one of these code
//! paths through [`crate::storage::FaultIo`] and asserts exactly that.
//!
//! Queries do not go through this type: callers read the wrapped database
//! ([`DurableDatabase::db`]) directly.
//!
//! ## On-disk layout (`<dir>` is one shard's directory)
//!
//! ```text
//! <dir>/snapshot.walrus   last checkpoint (checksummed)
//! <dir>/wal.log           operations since that checkpoint
//! <dir>/snapshot.walrus.tmp   transient; left only by a crash mid-checkpoint
//! ```

use crate::database::{ImageDatabase, IndexedImage};
use crate::params::WalrusParams;
use crate::persist;
use crate::region::Region;
use crate::storage::{is_transient, DiskIo, RetryIo, StorageIo};
use crate::wal::{self, WalOp};
use crate::{Result, WalrusError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use walrus_guard::RetryPolicy;
use walrus_imagery::Image;

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.walrus";
/// Write-ahead-log file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// What [`DurableDatabase::open`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot file existed and loaded.
    pub snapshot_loaded: bool,
    /// `last_lsn` recorded in that snapshot (0 = none / fresh).
    pub snapshot_lsn: u64,
    /// WAL records applied on top of the snapshot.
    pub records_replayed: usize,
    /// WAL records skipped because the snapshot already contained them
    /// (a crash hit between checkpoint rename and WAL reset).
    pub records_skipped: usize,
    /// A torn record trailed the log and was truncated away.
    pub torn_tail_truncated: bool,
    /// Bytes dropped by that truncation.
    pub truncated_bytes: u64,
}

/// A WAL-backed [`ImageDatabase`] that survives crashes.
#[derive(Debug)]
pub struct DurableDatabase {
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    db: ImageDatabase,
    /// LSN the next logged operation will carry (LSNs start at 1).
    next_lsn: u64,
    /// Valid byte length of the WAL (0 = not yet created).
    wal_len: u64,
    /// Records appended since the last checkpoint.
    records_since_checkpoint: usize,
    /// Set when a failed append could not be rolled back: the on-disk WAL
    /// tail is in an unknown state, so further writes are refused until
    /// the store is reopened (which re-establishes a clean tail).
    poisoned: bool,
    /// Backoff schedule for transient failures of the WAL append itself
    /// (the one IO path [`RetryIo`] cannot wrap, because a repeated append
    /// needs the committed tail restored between attempts).
    retry: RetryPolicy,
}

impl DurableDatabase {
    /// Opens (or initializes) a store directory on the real filesystem.
    /// `params` is used only when creating a fresh store; an existing
    /// snapshot's parameters always win, except for the runtime-only knobs
    /// a snapshot does not store (`threads`, `budgets`, `prefilter`), which
    /// are always the caller's. Idempotent IO (reads, full-file
    /// writes, fsyncs) is wrapped in [`RetryIo`], so transient OS errors
    /// (EINTR-style) are absorbed with bounded backoff.
    pub fn open(dir: impl AsRef<Path>, params: WalrusParams) -> Result<(Self, RecoveryReport)> {
        Self::open_with(
            Arc::new(RetryIo::new(Arc::new(DiskIo), RetryPolicy::default())),
            dir,
            params,
        )
    }

    /// Like [`DurableDatabase::open`] but over a pluggable I/O layer —
    /// the entry point for fault-injection tests.
    pub fn open_with(
        io: Arc<dyn StorageIo>,
        dir: impl AsRef<Path>,
        params: WalrusParams,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        let mut report = RecoveryReport::default();

        // Decode → table → pack: the snapshot and then the log fill the image
        // table, and the index — derived state — is built from it once, at
        // the end, instead of region by region along the way.
        let (db, snapshot_lsn) = if io.exists(&snapshot_path) {
            let (mut db, lsn) = persist::load_table(&io.read(&snapshot_path)?)?;
            db.set_runtime_knobs(&params)?;
            report.snapshot_loaded = true;
            report.snapshot_lsn = lsn;
            (db, lsn)
        } else {
            (ImageDatabase::new(params)?, 0)
        };

        let mut store = Self {
            io,
            dir,
            db,
            next_lsn: snapshot_lsn + 1,
            wal_len: 0,
            records_since_checkpoint: 0,
            poisoned: false,
            retry: RetryPolicy::default(),
        };

        if store.io.exists(&wal_path) {
            let bytes = store
                .io
                .read(&wal_path)
                .map_err(WalrusError::io_context("read", &wal_path))?;
            let scan = wal::read_wal(&bytes)?;
            // The records own what they decoded: the raw log is freed before
            // the tree is built, not after (DESIGN §6 on why that order
            // decides the resident set).
            let wal_bytes = bytes.len() as u64;
            drop(bytes);
            for rec in scan.records {
                if rec.lsn <= snapshot_lsn {
                    report.records_skipped += 1;
                    continue;
                }
                apply_to_table(&mut store.db, rec.op)?;
                store.next_lsn = rec.lsn + 1;
                store.records_since_checkpoint += 1;
                report.records_replayed += 1;
            }
            store.wal_len = scan.valid_len;
            if scan.torn_tail {
                report.torn_tail_truncated = true;
                report.truncated_bytes = wal_bytes - scan.valid_len;
                store
                    .io
                    .truncate(&wal_path, scan.valid_len)
                    .and_then(|()| store.io.fsync(&wal_path))
                    .map_err(WalrusError::io_context("truncate torn tail of", &wal_path))?;
            }
        }

        store.db.pack_index()?;

        if !report.snapshot_loaded {
            // Fresh store: persist an empty snapshot so the configuration
            // itself is durable and "old state" is always well defined.
            persist::save_to_file_with(
                store.io.as_ref(),
                &store.db,
                &snapshot_path,
                store.next_lsn - 1,
            )?;
        }
        Ok((store, report))
    }

    /// Applies an operation the log now holds: to the image table, then to
    /// the live index.
    fn replay(&mut self, op: WalOp) -> Result<()> {
        match apply_to_table(&mut self.db, op)? {
            Applied::Inserted(id) => self.db.index_image(id),
            Applied::Removed(img) => self.db.unindex_image(&img),
        }
    }

    fn poisoned_error(&self) -> WalrusError {
        WalrusError::Io {
            context: format!("append to {}", self.dir.join(WAL_FILE).display()),
            source: std::io::Error::other(
                "store poisoned by an earlier append failure; reopen to recover",
            ),
        }
    }

    /// Appends one record (write-ahead) and, only on success, applies the
    /// operation in memory.
    ///
    /// Transient append failures are retried under the store's
    /// [`RetryPolicy`] — but never blindly: a failed append may have left a
    /// *partial* record on disk, and re-appending over it would corrupt the
    /// log middle (unrecoverable, unlike a torn tail). Each retry therefore
    /// first restores the committed tail (`truncate` to the last good
    /// length) and only re-appends once that provably succeeded.
    fn log_then_apply(&mut self, op: WalOp) -> Result<()> {
        if self.poisoned {
            return Err(self.poisoned_error());
        }
        let wal_path = self.dir.join(WAL_FILE);
        let record = wal::encode_record(self.next_lsn, &op);
        let max_record = self.db.params().budgets.max_wal_record_bytes;
        if record.len() > max_record {
            return Err(WalrusError::BudgetExceeded {
                what: "wal record bytes",
                used: record.len(),
                limit: max_record,
            });
        }
        let mut buf = if self.wal_len == 0 { wal::wal_header() } else { Vec::new() };
        buf.extend_from_slice(&record);

        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            let appended = self
                .io
                .append(&wal_path, &buf)
                .and_then(|()| self.io.fsync(&wal_path));
            let Err(e) = appended else { break };
            // The on-disk tail may hold a partial record. Cut it back to
            // the last committed length; a truncate that fails because the
            // file was never created still counts as a clean (empty) tail.
            let repaired = self
                .io
                .truncate(&wal_path, self.wal_len)
                .and_then(|()| self.io.fsync(&wal_path));
            let tail_clean = repaired.is_ok() || !self.io.exists(&wal_path);
            if tail_clean && is_transient(&e) && attempt < max_attempts {
                let delay = self.retry.delay_for(attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
                continue;
            }
            if !tail_clean {
                // The tail is unknowable — poison until reopen.
                self.poisoned = true;
            }
            return Err(WalrusError::io_context("append to", &wal_path)(e));
        }
        self.wal_len += buf.len() as u64;
        self.next_lsn += 1;
        self.records_since_checkpoint += 1;
        self.replay(op)
    }

    /// Extracts regions of `image` and durably inserts them. Returns the
    /// new id. The insert is committed once this returns `Ok`.
    pub fn insert_image(&mut self, name: &str, image: &Image) -> Result<usize> {
        let regions = crate::extract::extract_regions(image, self.db.params())?;
        self.insert_regions(name, image.width(), image.height(), regions)
    }

    /// Durably inserts pre-extracted regions at the next free slot (see
    /// [`ImageDatabase::insert_regions`]).
    pub fn insert_regions(
        &mut self,
        name: &str,
        width: usize,
        height: usize,
        regions: Vec<Region>,
    ) -> Result<usize> {
        self.insert_regions_at(self.db.image_slots().len(), name, width, height, regions)
    }

    /// Durably inserts pre-extracted regions **at an explicit id**, padding
    /// the slots below it with tombstones. This is the ingest primitive of
    /// the sharded store ([`crate::sharded::ShardedStore`]): ids are
    /// assigned globally, so the ids a single shard stores are sparse, and
    /// the WAL record carries the global id for replay to reproduce.
    /// `id` must be at or above this store's next free slot.
    pub fn insert_regions_at(
        &mut self,
        id: usize,
        name: &str,
        width: usize,
        height: usize,
        regions: Vec<Region>,
    ) -> Result<usize> {
        self.db.check_dims(&regions)?;
        let len = self.db.image_slots().len();
        if id < len {
            return Err(WalrusError::BadParams(format!(
                "insert at id {id} below next slot {len}"
            )));
        }
        self.log_then_apply(WalOp::Insert {
            expected_id: id,
            name: name.to_string(),
            width,
            height,
            regions,
        })?;
        Ok(id)
    }

    /// Durably removes an image.
    pub fn remove_image(&mut self, id: usize) -> Result<()> {
        if self.db.image(id).is_none() {
            return Err(WalrusError::UnknownImage(id));
        }
        self.log_then_apply(WalOp::Remove { id })
    }

    /// Folds the WAL into a fresh atomic snapshot and resets the log.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(self.poisoned_error());
        }
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        persist::save_to_file_with(
            self.io.as_ref(),
            &self.db,
            &snapshot_path,
            self.next_lsn - 1,
        )?;
        // The snapshot now covers every logged record; reset the WAL. A
        // crash before (or during) this reset is harmless — recovery skips
        // records at or below the snapshot's last_lsn.
        let wal_path = self.dir.join(WAL_FILE);
        if let Err(e) = wal::reset(self.io.as_ref(), &wal_path) {
            // The WAL is in an unknown state; stop writes until reopen.
            self.poisoned = true;
            return Err(e.into());
        }
        self.wal_len = wal::WAL_HEADER_LEN;
        self.records_since_checkpoint = 0;
        Ok(())
    }

    /// Overrides the transient-append backoff schedule (default:
    /// [`RetryPolicy::default`]; [`RetryPolicy::none`] disables retries).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The wrapped in-memory database (queries go straight to it).
    pub fn db(&self) -> &ImageDatabase {
        &self.db
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current valid WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// LSN of the last committed operation (0 = none yet).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Records appended since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> usize {
        self.records_since_checkpoint
    }

    /// True when a failed append has frozen writes (reopen to recover).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of live images.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// True when no images are indexed.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }
}

/// What [`apply_to_table`] changed, for a live index to follow.
enum Applied {
    Inserted(usize),
    Removed(IndexedImage),
}

/// Applies one logged operation to `db`'s image table, checking it against
/// the table the way every replay must; the index is not touched. Open
/// replays the whole log through this and packs the index once at the end;
/// a live operation follows it with the matching index update.
fn apply_to_table(db: &mut ImageDatabase, op: WalOp) -> Result<Applied> {
    match op {
        WalOp::Insert { expected_id, name, width, height, regions } => {
            let len = db.image_slots().len();
            if expected_id < len {
                return Err(WalrusError::Corrupt(format!(
                    "wal replay: insert id {expected_id} below next slot {len}"
                )));
            }
            // A shard of a sharded store sees only the ids hashed to it;
            // the gaps belong to other shards and are padded with
            // tombstones so global id assignment is reproduced exactly.
            for _ in len..expected_id {
                db.insert_tombstone();
            }
            let got = db.push_image(name, width, height, regions).map_err(|e| {
                WalrusError::Corrupt(format!("wal replay: insert failed: {e}"))
            })?;
            if got != expected_id {
                return Err(WalrusError::Corrupt(format!(
                    "wal replay: image got id {got}, log expected {expected_id}"
                )));
            }
            Ok(Applied::Inserted(got))
        }
        WalOp::Remove { id } => db.take_image(id).map(Applied::Removed).map_err(|e| {
            WalrusError::Corrupt(format!("wal replay: remove failed: {e}"))
        }),
    }
}

/// Read-only integrity verdict for one durable directory (`walrus scrub`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirScrub {
    /// True when the snapshot decoded with every CRC intact (a missing
    /// snapshot is a failure — every committed store has one).
    pub snapshot_ok: bool,
    /// Live images counted in the snapshot.
    pub snapshot_images: usize,
    /// True when the WAL is a clean prefix of intact frames (a missing WAL
    /// passes: a store checkpointed and never written again may lack one).
    pub wal_ok: bool,
    /// Intact WAL records found.
    pub wal_records: usize,
    /// First problem found, when any.
    pub error: Option<String>,
}

impl DirScrub {
    /// True when both halves of the directory verified clean.
    pub fn clean(&self) -> bool {
        self.snapshot_ok && self.wal_ok
    }
}

/// Verifies one store directory without mutating it: decodes the snapshot
/// (whole-file, params and images CRCs) and scans the WAL for a clean
/// prefix of intact frames ([`wal::scan_valid_prefix`]). Any undecodable
/// byte — including a torn tail an open would silently repair — fails the
/// scrub, because scrub's contract is "this directory needs no repair".
pub fn scrub_dir(io: &dyn StorageIo, dir: &Path) -> DirScrub {
    let mut scrub = DirScrub {
        snapshot_ok: false,
        snapshot_images: 0,
        wal_ok: true,
        wal_records: 0,
        error: None,
    };
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    match io.read(&snapshot_path).map_err(|e| e.to_string()).and_then(|bytes| {
        persist::load_table(&bytes).map_err(|e| e.to_string())
    }) {
        Ok((db, _)) => {
            scrub.snapshot_ok = true;
            scrub.snapshot_images = db.len();
        }
        Err(e) => scrub.error = Some(format!("snapshot: {e}")),
    }
    let wal_path = dir.join(WAL_FILE);
    if io.exists(&wal_path) {
        match io.read(&wal_path) {
            Ok(bytes) => {
                let scan = wal::scan_valid_prefix(&bytes);
                scrub.wal_records = scan.records.len();
                if scan.valid_len < bytes.len() as u64 {
                    scrub.wal_ok = false;
                    let bad = bytes.len() as u64 - scan.valid_len;
                    scrub.error.get_or_insert(format!(
                        "wal: {bad} byte(s) past the valid prefix fail validation"
                    ));
                }
            }
            Err(e) => {
                scrub.wal_ok = false;
                scrub.error.get_or_insert(format!("wal: {e}"));
            }
        }
    }
    scrub
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

    #[test]
    fn fresh_store_reopens_empty() {
        let io = Arc::new(FaultIo::new());
        let (store, report) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        assert!(!report.snapshot_loaded);
        assert!(store.is_empty());
        drop(store);
        let (store, report) = DurableDatabase::open_with(io, "db", params()).unwrap();
        assert!(report.snapshot_loaded, "initial snapshot was persisted");
        assert!(store.is_empty());
    }

    #[test]
    fn scrub_verifies_snapshot_and_wal() {
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        store.insert_image("a", &scene(0.2)).unwrap();
        drop(store);
        let scrub = scrub_dir(io.as_ref(), Path::new("db"));
        assert!(scrub.clean(), "{scrub:?}");
        assert_eq!(scrub.wal_records, 1);

        // A torn WAL tail fails scrub even though an open would repair it:
        // scrub's verdict is "needs no repair".
        io.append(Path::new("db/wal.log"), &[0xAB; 7]).unwrap();
        io.fsync(Path::new("db/wal.log")).unwrap();
        let scrub = scrub_dir(io.as_ref(), Path::new("db"));
        assert!(!scrub.clean());
        assert!(scrub.error.as_deref().unwrap().starts_with("wal:"), "{scrub:?}");

        // Bit rot inside the snapshot envelope fails its CRC.
        assert!(io.corrupt_byte(Path::new("db/snapshot.walrus"), 20, 0xFF));
        let scrub = scrub_dir(io.as_ref(), Path::new("db"));
        assert!(!scrub.snapshot_ok);
        assert!(scrub.error.as_deref().unwrap().starts_with("snapshot:"), "{scrub:?}");
    }

    #[test]
    fn operations_survive_reopen_without_checkpoint() {
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        let a = store.insert_image("a", &scene(0.2)).unwrap();
        let b = store.insert_image("b", &scene(0.7)).unwrap();
        store.remove_image(a).unwrap();
        drop(store);

        let (store, report) = DurableDatabase::open_with(io, "db", params()).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(store.len(), 1);
        assert!(store.db().image(a).is_none());
        assert_eq!(store.db().image(b).unwrap().name, "b");
    }

    #[test]
    fn checkpoint_folds_wal_and_replay_skips_it() {
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        store.insert_image("a", &scene(0.2)).unwrap();
        store.insert_image("b", &scene(0.5)).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.records_since_checkpoint(), 0);
        store.insert_image("c", &scene(0.8)).unwrap();
        drop(store);

        let (store, report) = DurableDatabase::open_with(io, "db", params()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_lsn, 2);
        assert_eq!(report.records_replayed, 1, "only c is outside the snapshot");
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn stale_wal_records_are_skipped_not_reapplied() {
        // Simulate a crash after checkpoint rename but before WAL reset:
        // the snapshot holds everything, the old WAL still lists it.
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        store.insert_image("a", &scene(0.2)).unwrap();
        let wal_before = io.file_bytes(Path::new("db/wal.log")).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        // Put the pre-checkpoint WAL back.
        io.write(Path::new("db/wal.log"), &wal_before).unwrap();
        io.fsync(Path::new("db/wal.log")).unwrap();

        let (store, report) = DurableDatabase::open_with(io, "db", params()).unwrap();
        assert_eq!(report.records_skipped, 1);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn torn_wal_tail_is_truncated() {
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        store.insert_image("a", &scene(0.2)).unwrap();
        let committed_len = store.wal_len();
        store.insert_image("b", &scene(0.5)).unwrap();
        drop(store);
        // Tear the final record in half.
        let wal = io.file_bytes(Path::new("db/wal.log")).unwrap();
        let torn = committed_len as usize + (wal.len() - committed_len as usize) / 2;
        io.write(Path::new("db/wal.log"), &wal[..torn]).unwrap();
        io.fsync(Path::new("db/wal.log")).unwrap();

        let (store, report) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        assert!(report.torn_tail_truncated);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(store.len(), 1, "only the committed insert survives");
        assert_eq!(
            io.file_bytes(Path::new("db/wal.log")).unwrap().len() as u64,
            committed_len,
            "tail was physically truncated"
        );
    }

    #[test]
    fn remove_of_unknown_id_never_reaches_the_log() {
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params()).unwrap();
        let before = store.wal_len();
        assert!(matches!(store.remove_image(7), Err(WalrusError::UnknownImage(7))));
        assert_eq!(store.wal_len(), before);
    }

    #[test]
    fn disk_backed_store_round_trips() {
        let dir = std::env::temp_dir().join("walrus_durable_disk_test");
        std::fs::remove_dir_all(&dir).ok();
        let (mut store, _) = DurableDatabase::open(&dir, params()).unwrap();
        store.insert_image("a", &scene(0.2)).unwrap();
        store.insert_image("b", &scene(0.6)).unwrap();
        store.checkpoint().unwrap();
        store.remove_image(0).unwrap();
        drop(store);
        let (store, report) = DurableDatabase::open(&dir, params()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
