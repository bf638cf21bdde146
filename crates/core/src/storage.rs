//! Pluggable storage I/O for the durability layer.
//!
//! [`StorageIo`] abstracts the handful of filesystem operations the
//! snapshot writer ([`crate::persist`]) and write-ahead log ([`crate::wal`])
//! perform, so the same durability protocol runs against the real
//! filesystem ([`DiskIo`]) in production and against a deterministic
//! in-memory filesystem with injected faults ([`FaultIo`]) in the
//! crash-consistency test suite.
//!
//! ## Fault model
//!
//! `FaultIo` counts every operation. A [`Fault`] arms one operation index:
//! when that operation executes it either fails outright ([`FaultKind::Error`]),
//! persists only a prefix of the data then fails ([`FaultKind::ShortWrite`]),
//! or silently flips one bit of the written data ([`FaultKind::BitFlip`]).
//! `Error` and `ShortWrite` also *halt* the filesystem — every later
//! operation fails — modelling process death at that instant.
//!
//! A halted (or healthy) filesystem can then be [`FaultIo::crash`]ed with a
//! [`CrashMode`] that decides the fate of data written but never fsynced:
//! dropped, half-persisted (a torn tail), or fully persisted. Renames are
//! atomic but stay *pending* until the containing directory is fsynced;
//! a crash rolls un-fsynced renames back. This is the same discipline a
//! POSIX filesystem holds real databases to.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The syscall surface the durability layer needs.
///
/// All methods take `&self`: implementations are internally synchronized so
/// one handle can be shared (`Arc<dyn StorageIo>`) across threads.
pub trait StorageIo: Send + Sync + std::fmt::Debug {
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` and writes all of `bytes` (not synced).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to `path`, creating it if missing (not synced).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes a file's data — or, for a directory, its entries (which
    /// makes completed renames and creations in it durable) — to stable
    /// storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates `path` to `len` bytes (drops a torn WAL tail).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Deletes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Current length of a file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Recursively creates a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// Production implementation over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskIo;

impl StorageIo for DiskIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        // Opening read-only works for both files and directories on the
        // platforms we target; sync_all flushes data + metadata.
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// What an armed fault does when its operation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an I/O error and nothing is persisted;
    /// every subsequent operation fails too (process death).
    Error,
    /// A write/append persists only the first half of its bytes, then the
    /// filesystem halts. Non-write operations degrade to [`FaultKind::Error`].
    ShortWrite,
    /// One bit of the written data is flipped; the operation *succeeds*
    /// (silent corruption — only checksums can catch it). On operations
    /// that write no data the fault is a no-op.
    BitFlip,
    /// The operation fails with [`io::ErrorKind::Interrupted`] and nothing
    /// is persisted, but the filesystem stays healthy: one operation fails
    /// and every later one runs normally. The only fault that lets a test
    /// watch the store handle a failed write and then carry on.
    Transient,
}

/// An armed fault: fire `kind` on the `at_op`-th operation (0-based).
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// 0-based index of the operation to fault.
    pub at_op: usize,
    /// What happens at that operation.
    pub kind: FaultKind,
}

/// A fault scoped to one path prefix: fires on the `at_op`-th operation
/// (0-based) whose path starts with `prefix`, counting only those
/// operations. Lets a multi-shard sweep inject into exactly one shard's
/// files deterministically, regardless of how other shards interleave.
#[derive(Debug, Clone)]
struct PathFault {
    prefix: PathBuf,
    fault: Fault,
}

/// The fate of unsynced data when a [`FaultIo::crash`] is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// All data written since the last fsync is lost; un-fsynced renames
    /// roll back. The adversarial case.
    LoseUnsynced,
    /// Appended-but-unsynced data survives only as a half-length prefix
    /// (a torn tail); un-fsynced renames roll back.
    TornTail,
    /// Everything reached the platters just in time.
    KeepAll,
}

/// All crash modes, for exhaustive sweeps.
pub const ALL_CRASH_MODES: [CrashMode; 3] =
    [CrashMode::LoseUnsynced, CrashMode::TornTail, CrashMode::KeepAll];

#[derive(Debug, Clone, Default)]
struct FileState {
    /// Content guaranteed on stable storage.
    synced: Vec<u8>,
    /// Content as the process sees it (synced + unsynced writes).
    current: Vec<u8>,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, FileState>,
    /// Completed renames not yet made durable by a directory fsync:
    /// `(from, to, file displaced at to)`.
    pending_renames: Vec<(PathBuf, PathBuf, Option<FileState>)>,
    ops: usize,
    faults: Vec<Fault>,
    /// Path-scoped faults, each counted against its own prefix counter.
    path_faults: Vec<PathFault>,
    /// Operations seen so far under each armed prefix.
    prefix_ops: BTreeMap<PathBuf, usize>,
    halted: bool,
}

/// Deterministic in-memory filesystem with fault injection. See the module
/// docs for the model.
#[derive(Debug, Default)]
pub struct FaultIo {
    state: Mutex<FaultState>,
}

fn injected() -> io::Error {
    io::Error::other("injected fault")
}

fn transient() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient fault")
}

fn crashed() -> io::Error {
    io::Error::other("filesystem halted by injected fault")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
}

impl FaultIo {
    /// Fresh, empty, healthy filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or clears) the fault plan, replacing any armed faults.
    /// Operation counting is *not* reset.
    pub fn set_fault(&self, fault: Option<Fault>) {
        self.state.lock().expect("poisoned").faults = fault.into_iter().collect();
    }

    /// Operations executed so far (including the faulted one).
    pub fn op_count(&self) -> usize {
        self.state.lock().expect("poisoned").ops
    }

    /// True once a halting fault has fired.
    pub fn is_halted(&self) -> bool {
        self.state.lock().expect("poisoned").halted
    }

    /// Simulates a machine crash and restart: unsynced data meets the fate
    /// chosen by `mode`, the fault plan is cleared, the op counter resets,
    /// and the filesystem is healthy again — ready for recovery to run.
    pub fn crash(&self, mode: CrashMode) {
        let mut st = self.state.lock().expect("poisoned");
        if mode != CrashMode::KeepAll {
            // Roll back renames that were never made durable, newest first.
            while let Some((from, to, displaced)) = st.pending_renames.pop() {
                if let Some(f) = st.files.remove(&to) {
                    st.files.insert(from, f);
                }
                if let Some(d) = displaced {
                    st.files.insert(to, d);
                }
            }
        }
        for f in st.files.values_mut() {
            match mode {
                CrashMode::LoseUnsynced => f.current = f.synced.clone(),
                CrashMode::TornTail => {
                    if f.current.len() > f.synced.len()
                        && f.current.starts_with(&f.synced)
                    {
                        let keep = f.synced.len() + (f.current.len() - f.synced.len()) / 2;
                        f.current.truncate(keep);
                    } else if f.current != f.synced {
                        // In-place rewrite without sync: adversarially revert.
                        f.current = f.synced.clone();
                    }
                }
                CrashMode::KeepAll => {}
            }
            f.synced = f.current.clone();
        }
        st.pending_renames.clear();
        st.faults.clear();
        st.path_faults.clear();
        for counter in st.prefix_ops.values_mut() {
            *counter = 0;
        }
        st.halted = false;
        st.ops = 0;
    }

    /// Flips `mask` bits of the byte at `offset` in a file at rest (both
    /// the synced and visible image) — models bit rot / latent media errors.
    pub fn corrupt_byte(&self, path: &Path, offset: usize, mask: u8) -> bool {
        let mut st = self.state.lock().expect("poisoned");
        match st.files.get_mut(path) {
            Some(f) if offset < f.current.len() => {
                f.current[offset] ^= mask;
                if offset < f.synced.len() {
                    f.synced[offset] ^= mask;
                }
                true
            }
            _ => false,
        }
    }

    /// The current visible bytes of a file, if it exists.
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.state.lock().expect("poisoned").files.get(path).map(|f| f.current.clone())
    }

    /// Paths of all files, sorted.
    pub fn file_names(&self) -> Vec<PathBuf> {
        self.state.lock().expect("poisoned").files.keys().cloned().collect()
    }

    /// Arms a fault scoped to `prefix`: it fires on the `fault.at_op`-th
    /// operation (0-based) whose path starts with `prefix`, counting only
    /// those operations. Multi-shard fault sweeps use this to hit exactly
    /// one shard's directory no matter how other shards' I/O interleaves.
    /// Faults accumulate — each call adds one without clearing those already
    /// armed, so a test can fail several operations in a row — until
    /// [`FaultIo::crash`] or [`FaultIo::clear_path_faults`] clears them.
    pub fn arm_fault_at_path(&self, prefix: impl Into<PathBuf>, fault: Fault) {
        let mut st = self.state.lock().expect("poisoned");
        let prefix = prefix.into();
        st.prefix_ops.entry(prefix.clone()).or_insert(0);
        st.path_faults.push(PathFault { prefix, fault });
    }

    /// Clears all path-scoped faults and their prefix counters.
    pub fn clear_path_faults(&self) {
        let mut st = self.state.lock().expect("poisoned");
        st.path_faults.clear();
        st.prefix_ops.clear();
    }

    /// Operations executed so far whose path starts with `prefix`. Only
    /// counted while a fault is (or was) armed on that prefix.
    pub fn op_count_at_path(&self, prefix: impl AsRef<Path>) -> usize {
        let st = self.state.lock().expect("poisoned");
        st.prefix_ops.get(prefix.as_ref()).copied().unwrap_or(0)
    }

    /// Checks the armed faults before an operation on `path` runs; returns
    /// the kind to apply *during* this operation, if any. Global faults
    /// (by absolute op index) are checked first, then path-scoped ones.
    fn begin_op(st: &mut FaultState, path: &Path) -> io::Result<Option<FaultKind>> {
        if st.halted {
            return Err(crashed());
        }
        let idx = st.ops;
        st.ops += 1;
        let mut hit = st.faults.iter().find(|f| f.at_op == idx).map(|f| f.kind);
        // Advance every matching prefix counter even when a global fault
        // already fired, so prefix indices stay stable across fault plans.
        let prefixes: Vec<PathBuf> = st
            .prefix_ops
            .keys()
            .filter(|prefix| path.starts_with(prefix))
            .cloned()
            .collect();
        for prefix in prefixes {
            let pidx = st.prefix_ops.get_mut(&prefix).expect("armed prefix");
            let at = *pidx;
            *pidx += 1;
            if hit.is_none() {
                hit = st
                    .path_faults
                    .iter()
                    .find(|pf| pf.prefix == prefix && pf.fault.at_op == at)
                    .map(|pf| pf.fault.kind);
            }
        }
        match hit {
            Some(FaultKind::Error) => {
                st.halted = true;
                Err(injected())
            }
            Some(FaultKind::Transient) => Err(transient()),
            Some(k) => Ok(Some(k)),
            None => Ok(None),
        }
    }

    /// [`FaultIo::begin_op`] for operations that write no data:
    /// `ShortWrite` degrades to `Error` (and halts), `BitFlip` has nothing
    /// to corrupt and passes through.
    fn begin_non_write_op(st: &mut FaultState, path: &Path) -> io::Result<()> {
        match Self::begin_op(st, path)? {
            Some(FaultKind::BitFlip) | None => Ok(()),
            Some(_) => {
                st.halted = true;
                Err(injected())
            }
        }
    }
}

impl StorageIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.state.lock().expect("poisoned");
        Self::begin_non_write_op(&mut st, path)?;
        st.files.get(path).map(|f| f.current.clone()).ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        let fault = Self::begin_op(&mut st, path)?;
        let entry = st.files.entry(path.to_path_buf()).or_default();
        match fault {
            None => {
                entry.current = bytes.to_vec();
                Ok(())
            }
            Some(FaultKind::ShortWrite) => {
                entry.current = bytes[..bytes.len() / 2].to_vec();
                st.halted = true;
                Err(injected())
            }
            Some(FaultKind::BitFlip) => {
                let mut data = bytes.to_vec();
                if !data.is_empty() {
                    let pos = data.len() / 2;
                    data[pos] ^= 0x10;
                }
                entry.current = data;
                Ok(())
            }
            Some(FaultKind::Error) | Some(FaultKind::Transient) => {
                unreachable!("handled in begin_op")
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        let fault = Self::begin_op(&mut st, path)?;
        let entry = st.files.entry(path.to_path_buf()).or_default();
        match fault {
            None => {
                entry.current.extend_from_slice(bytes);
                Ok(())
            }
            Some(FaultKind::ShortWrite) => {
                entry.current.extend_from_slice(&bytes[..bytes.len() / 2]);
                st.halted = true;
                Err(injected())
            }
            Some(FaultKind::BitFlip) => {
                let mut data = bytes.to_vec();
                if !data.is_empty() {
                    let pos = data.len() / 2;
                    data[pos] ^= 0x10;
                }
                entry.current.extend_from_slice(&data);
                Ok(())
            }
            Some(FaultKind::Error) | Some(FaultKind::Transient) => {
                unreachable!("handled in begin_op")
            }
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        Self::begin_non_write_op(&mut st, path)?;
        if let Some(f) = st.files.get_mut(path) {
            f.synced = f.current.clone();
            return Ok(());
        }
        // Directory fsync: make renames targeting this directory durable.
        let dir = path.to_path_buf();
        st.pending_renames.retain(|(_, to, _)| to.parent() != Some(dir.as_path()));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        // A rename is attributed to its destination; checkpoint renames
        // stay within one shard directory, so either path would do.
        Self::begin_non_write_op(&mut st, to)?;
        let f = st.files.remove(from).ok_or_else(|| not_found(from))?;
        let displaced = st.files.insert(to.to_path_buf(), f);
        st.pending_renames.push((from.to_path_buf(), to.to_path_buf(), displaced));
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        Self::begin_non_write_op(&mut st, path)?;
        let f = st.files.get_mut(path).ok_or_else(|| not_found(path))?;
        f.current.truncate(len as usize);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        Self::begin_non_write_op(&mut st, path)?;
        st.files.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().expect("poisoned").files.contains_key(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let st = self.state.lock().expect("poisoned");
        st.files.get(path).map(|f| f.current.len() as u64).ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // Directories are implicit in the in-memory model.
        let mut st = self.state.lock().expect("poisoned");
        Self::begin_non_write_op(&mut st, path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn p(s: &str) -> &Path {
        Path::new(s)
    }

    #[test]
    fn write_read_round_trip() {
        let fs = FaultIo::new();
        fs.write(p("a"), b"hello").unwrap();
        assert_eq!(fs.read(p("a")).unwrap(), b"hello");
        fs.append(p("a"), b" world").unwrap();
        assert_eq!(fs.read(p("a")).unwrap(), b"hello world");
        assert_eq!(fs.file_len(p("a")).unwrap(), 11);
        assert!(fs.exists(p("a")));
        assert!(!fs.exists(p("b")));
    }

    #[test]
    fn crash_drops_unsynced_data() {
        let fs = FaultIo::new();
        fs.write(p("a"), b"synced").unwrap();
        fs.fsync(p("a")).unwrap();
        fs.append(p("a"), b"-unsynced").unwrap();
        fs.crash(CrashMode::LoseUnsynced);
        assert_eq!(fs.read(p("a")).unwrap(), b"synced");
    }

    #[test]
    fn torn_tail_keeps_half_the_unsynced_suffix() {
        let fs = FaultIo::new();
        fs.write(p("a"), b"base").unwrap();
        fs.fsync(p("a")).unwrap();
        fs.append(p("a"), b"0123456789").unwrap();
        fs.crash(CrashMode::TornTail);
        assert_eq!(fs.read(p("a")).unwrap(), b"base01234");
    }

    #[test]
    fn unsynced_rename_rolls_back_on_crash() {
        let fs = FaultIo::new();
        fs.write(p("dir/old"), b"old").unwrap();
        fs.fsync(p("dir/old")).unwrap();
        fs.write(p("dir/tmp"), b"new").unwrap();
        fs.fsync(p("dir/tmp")).unwrap();
        fs.rename(p("dir/tmp"), p("dir/old")).unwrap();
        // No directory fsync: the rename is not durable.
        fs.crash(CrashMode::LoseUnsynced);
        assert_eq!(fs.read(p("dir/old")).unwrap(), b"old");
        assert_eq!(fs.read(p("dir/tmp")).unwrap(), b"new");
    }

    #[test]
    fn dir_fsync_makes_rename_durable() {
        let fs = FaultIo::new();
        fs.write(p("dir/old"), b"old").unwrap();
        fs.fsync(p("dir/old")).unwrap();
        fs.write(p("dir/tmp"), b"new").unwrap();
        fs.fsync(p("dir/tmp")).unwrap();
        fs.rename(p("dir/tmp"), p("dir/old")).unwrap();
        fs.fsync(p("dir")).unwrap();
        fs.crash(CrashMode::LoseUnsynced);
        assert_eq!(fs.read(p("dir/old")).unwrap(), b"new");
        assert!(!fs.exists(p("dir/tmp")));
    }

    #[test]
    fn error_fault_halts_the_filesystem() {
        let fs = FaultIo::new();
        fs.write(p("a"), b"x").unwrap();
        fs.set_fault(Some(Fault { at_op: 1, kind: FaultKind::Error }));
        assert!(fs.write(p("a"), b"y").is_err());
        assert!(fs.is_halted());
        assert!(fs.read(p("a")).is_err(), "all ops fail after halt");
        fs.crash(CrashMode::LoseUnsynced);
        // Nothing was ever synced; adversarial crash wipes the write.
        assert_eq!(fs.read(p("a")).unwrap(), b"");
    }

    #[test]
    fn short_write_persists_a_prefix() {
        let fs = FaultIo::new();
        fs.set_fault(Some(Fault { at_op: 0, kind: FaultKind::ShortWrite }));
        assert!(fs.write(p("a"), b"0123456789").is_err());
        fs.crash(CrashMode::KeepAll);
        assert_eq!(fs.read(p("a")).unwrap(), b"01234");
    }

    #[test]
    fn bit_flip_is_silent() {
        let fs = FaultIo::new();
        fs.set_fault(Some(Fault { at_op: 0, kind: FaultKind::BitFlip }));
        fs.write(p("a"), b"AAAA").unwrap(); // succeeds!
        assert!(!fs.is_halted());
        let got = fs.read(p("a")).unwrap();
        assert_ne!(got, b"AAAA");
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn corrupt_byte_at_rest() {
        let fs = FaultIo::new();
        fs.write(p("a"), b"zzzz").unwrap();
        fs.fsync(p("a")).unwrap();
        assert!(fs.corrupt_byte(p("a"), 2, 0x01));
        assert_eq!(fs.read(p("a")).unwrap(), b"zz{z");
        assert!(!fs.corrupt_byte(p("a"), 99, 0x01));
    }

    #[test]
    fn transient_fault_fails_once_without_halting() {
        let fs = FaultIo::new();
        fs.write(p("a"), b"x").unwrap();
        fs.set_fault(Some(Fault { at_op: 1, kind: FaultKind::Transient }));
        let err = fs.write(p("a"), b"y").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(!fs.is_halted());
        // Nothing was persisted by the failed write, and the next try works.
        assert_eq!(fs.read(p("a")).unwrap(), b"x");
        fs.write(p("a"), b"y").unwrap();
        assert_eq!(fs.read(p("a")).unwrap(), b"y");
    }

    #[test]
    fn arm_fault_at_path_accumulates_a_burst() {
        let fs = FaultIo::new();
        fs.arm_fault_at_path("a", Fault { at_op: 0, kind: FaultKind::Transient });
        fs.arm_fault_at_path("a", Fault { at_op: 1, kind: FaultKind::Transient });
        // Operations on other paths do not count towards the prefix.
        fs.write(p("b"), b"x").unwrap();
        assert!(fs.write(p("a"), b"x").is_err());
        assert!(fs.write(p("a"), b"x").is_err());
        fs.write(p("a"), b"x").unwrap();
        assert_eq!(fs.op_count_at_path("a"), 3);
    }

    #[test]
    fn disk_io_round_trip() {
        let dir = std::env::temp_dir().join("walrus_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let io = DiskIo;
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        io.write(&a, b"alpha").unwrap();
        io.append(&a, b"beta").unwrap();
        io.fsync(&a).unwrap();
        assert_eq!(io.read(&a).unwrap(), b"alphabeta");
        io.rename(&a, &b).unwrap();
        io.fsync(&dir).unwrap();
        assert!(!io.exists(&a));
        assert_eq!(io.file_len(&b).unwrap(), 9);
        io.truncate(&b, 5).unwrap();
        assert_eq!(io.read(&b).unwrap(), b"alpha");
        io.remove(&b).unwrap();
        assert!(!io.exists(&b));
    }
}
