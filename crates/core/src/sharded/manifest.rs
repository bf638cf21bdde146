//! The store's layout record (`MANIFEST`) and the layout transitions that
//! touch nothing but it and the files it names: creating the record,
//! collecting a previous layout (`gc_prev`), and rolling back a staged
//! rebalance (`staged`).

use super::MAX_SHARDS;
use crate::persist::{self, put_u32, put_u64};
use crate::recovery::{SNAPSHOT_FILE, WAL_FILE};
use crate::storage::StorageIo;
use crate::{crc32::crc32, Result, WalrusError};
use std::path::{Path, PathBuf};

/// Manifest file name at the store root.
pub const MANIFEST_FILE: &str = "MANIFEST";

pub(super) const MANIFEST_MAGIC: &[u8; 8] = b"WALRUSMF";
const MANIFEST_VERSION: u32 = 2;
/// Fixed prefix: magic (8) + version (4) + epoch (8) + shard count (8)
/// + gc_prev (8) + migrating flag (1).
const MANIFEST_PREFIX: usize = 37;

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
    /// When non-zero: a rebalance to this many shards was staged and never
    /// committed. The layout is still `shard_count` shards of `epoch`; the
    /// next epoch's first `staged` shard directories may hold files to
    /// collect, and the next open rolls the rebalance back.
    pub staged: usize,
}

impl Manifest {
    /// A stable (nothing staged, nothing to collect) layout record.
    pub fn stable(epoch: u64, shard_count: usize) -> Self {
        Manifest { epoch, shard_count, gc_prev: 0, staged: 0 }
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

pub(super) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::with_capacity(MANIFEST_PREFIX + 16);
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, MANIFEST_VERSION);
    put_u64(&mut out, m.epoch);
    put_u64(&mut out, m.shard_count as u64);
    put_u64(&mut out, m.gc_prev as u64);
    if m.staged == 0 {
        out.push(0);
    } else {
        out.push(1);
        put_u64(&mut out, m.staged as u64);
        // One byte per target shard, where earlier writers recorded each
        // target's build progress. Written as 0; read only to range-check.
        out.resize(out.len() + m.staged, 0);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length checked"))
}

pub(super) fn decode_manifest(bytes: &[u8]) -> Result<Manifest> {
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
    let staged = match bytes[36] {
        0 => {
            if bytes.len() != MANIFEST_PREFIX + 4 {
                return Err(corrupt(format!("wrong length {}", bytes.len())));
            }
            0
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
            if let Some((i, b)) =
                bytes[45..45 + target_count].iter().enumerate().find(|(_, b)| **b > 2)
            {
                return Err(corrupt(format!("bad migration state {b} for target shard {i}")));
            }
            target_count
        }
        other => return Err(corrupt(format!("bad migrating flag {other}"))),
    };
    Ok(Manifest { epoch, shard_count, gc_prev, staged })
}

/// Writes the manifest atomically (temp file → fsync → rename → directory
/// fsync), same discipline as snapshots. This single write is the commit
/// point for every layout transition.
pub(super) fn write_manifest(io: &dyn StorageIo, root: &Path, manifest: &Manifest) -> Result<()> {
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
pub(super) fn refuse_legacy_layout(io: &dyn StorageIo, root: &Path) -> Result<()> {
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

/// Abandons a staged rebalance: durably restores the stable source
/// manifest — the single write that makes the staged targets unreachable
/// — then drops their files, best-effort (a file left behind is never read:
/// the next rebalance to this epoch rewrites it). Returns the restored
/// manifest.
pub(super) fn rollback_migration(
    io: &dyn StorageIo,
    root: &Path,
    manifest: &Manifest,
) -> Result<Manifest> {
    let stable = Manifest::stable(manifest.epoch, manifest.shard_count);
    write_manifest(io, root, &stable)?;
    gc_layout_files(io, root, manifest.epoch + 1, manifest.staged);
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
pub(super) fn gc_previous_layout(io: &dyn StorageIo, root: &Path, manifest: &mut Manifest) {
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
