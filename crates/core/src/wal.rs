//! Append-only write-ahead log for [`crate::ImageDatabase`] mutations.
//!
//! The durable store ([`crate::recovery::DurableDatabase`]) logs every
//! insert/remove here *before* applying it in memory; recovery replays the
//! log on top of the last good snapshot. Records carry pre-extracted
//! regions, so replay is deterministic and never re-runs the wavelet /
//! clustering pipeline.
//!
//! ## Framing (little-endian)
//!
//! ```text
//! file   = magic "WALRUSWL" | u32 version=2 | record…
//! record = u32 payload_len | u32 crc32(payload) | payload
//! payload = u64 lsn | u8 op | op body
//!   op 1 (insert): u64 expected_id | name (u32 len + bytes)
//!                  | u64 width | u64 height | u64 region_count | regions…
//!   op 2 (remove): u64 image_id
//! ```
//!
//! Region bodies reuse the snapshot encoding ([`crate::persist`]), so the
//! two halves of the durability layer cannot drift apart: each region's
//! binary prefilter signature sits beside its bounds. This is the only
//! version read or written — there is no deployed store to stay compatible
//! with, so a log that says it is any other version is `Corrupt`
//! ("unsupported version").
//!
//! ## Torn tails vs. corruption
//!
//! A crash mid-append leaves a partial record at the end of the file.
//! [`read_wal`] stops at the first record that is truncated or fails its
//! CRC; if nothing but that broken record follows, it is a *torn tail* —
//! reported so the caller can truncate it away. If a further valid record
//! parses after the broken one, the damage is in the *middle* of the log:
//! committed history is unreadable and the log is reported
//! [`crate::WalrusError::Corrupt`] rather than silently truncated.

use crate::crc32::crc32;
use crate::persist::{put_str, put_u32, put_u64, read_region, write_region, Reader};
use crate::region::Region;
use crate::{Result, WalrusError};

pub(crate) const WAL_MAGIC: &[u8; 8] = b"WALRUSWL";
/// The log version: regions carry their signature lanes.
pub(crate) const WAL_VERSION: u32 = 2;
/// Bytes of `magic + version`.
pub const WAL_HEADER_LEN: u64 = 12;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// One logged mutation.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// Insert pre-extracted regions as image `expected_id`.
    Insert {
        /// Id the image must receive on replay (integrity check).
        expected_id: usize,
        /// Caller-supplied name.
        name: String,
        /// Pixel width.
        width: usize,
        /// Pixel height.
        height: usize,
        /// Extracted regions.
        regions: Vec<Region>,
    },
    /// Remove image `id`.
    Remove {
        /// Id of the image to remove.
        id: usize,
    },
}

/// A decoded record: sequence number + operation.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Monotonic sequence number (snapshot `last_lsn` decides replay).
    pub lsn: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// Result of scanning a WAL image.
#[derive(Debug)]
pub struct WalScan {
    /// All intact records, in order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records). Anything
    /// past this is a torn tail and should be truncated.
    pub valid_len: u64,
    /// True when broken bytes trail the valid prefix.
    pub torn_tail: bool,
}

/// The file header of a fresh, empty WAL.
pub fn wal_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN as usize);
    out.extend_from_slice(WAL_MAGIC);
    put_u32(&mut out, WAL_VERSION);
    out
}

/// Resets `path` to a fresh, empty log (header only) and
/// fsyncs it. Used by checkpoints and by shard migration, which hands every
/// freshly built target shard an empty log.
pub fn reset(io: &dyn crate::storage::StorageIo, path: &std::path::Path) -> std::io::Result<()> {
    io.write(path, &wal_header())?;
    io.fsync(path)
}

/// Encodes one record (framing + payload) ready to append to a log.
pub fn encode_record(lsn: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_u64(&mut payload, lsn);
    match op {
        WalOp::Insert { expected_id, name, width, height, regions } => {
            payload.push(OP_INSERT);
            put_u64(&mut payload, *expected_id as u64);
            put_str(&mut payload, name);
            put_u64(&mut payload, *width as u64);
            put_u64(&mut payload, *height as u64);
            put_u64(&mut payload, regions.len() as u64);
            for r in regions {
                write_region(&mut payload, r);
            }
        }
        WalOp::Remove { id } => {
            payload.push(OP_REMOVE);
            put_u64(&mut payload, *id as u64);
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

fn corrupt(what: &str) -> WalrusError {
    WalrusError::Corrupt(format!("write-ahead log: {what}"))
}

/// Decodes the payload of one record. `Err` means the payload passed its
/// CRC but is structurally invalid — real corruption, not a torn tail.
fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let lsn = r.u64()?;
    let op = match r.take(1)?[0] {
        OP_INSERT => {
            let expected_id = r.u64()? as usize;
            let name = r.string()?;
            let width = r.u64()? as usize;
            let height = r.u64()? as usize;
            let region_count = r.u64()? as usize;
            if region_count > 10_000_000 {
                return Err(corrupt("implausible region count"));
            }
            let mut regions = Vec::with_capacity(region_count.min(r.remaining() / 48 + 1));
            for _ in 0..region_count {
                regions.push(read_region(&mut r)?);
            }
            WalOp::Insert { expected_id, name, width, height, regions }
        }
        OP_REMOVE => WalOp::Remove { id: r.u64()? as usize },
        other => return Err(corrupt(&format!("unknown op tag {other}"))),
    };
    if r.pos != payload.len() {
        return Err(corrupt("record payload has trailing bytes"));
    }
    Ok(WalRecord { lsn, op })
}

/// Smallest payload any real record can have: `u64 lsn + u8 op tag`.
/// Frames claiming less are broken even if their CRC matches — crucially,
/// a zero-filled tail (the classic crash artifact: filesystems extend
/// files with zero blocks) reads as `len = 0, crc = 0`, and the CRC of
/// empty input *is* 0.
const MIN_PAYLOAD: usize = 9;

/// Checks whether an intact record starts at `bytes[pos..]` (used to
/// distinguish a torn tail from mid-log damage).
fn frame_is_intact(bytes: &[u8], pos: usize) -> bool {
    if bytes.len() - pos < 8 {
        return false;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length checked")) as usize;
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("length checked"));
    let start = pos + 8;
    len >= MIN_PAYLOAD && bytes.len() - start >= len && crc32(&bytes[start..start + len]) == crc
}

/// Scans a WAL image: validates the header, decodes intact records, and
/// classifies any trailing damage. Errors only on a bad header, a
/// structurally invalid (but CRC-clean) record, or mid-log corruption.
pub fn read_wal(bytes: &[u8]) -> Result<WalScan> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        // An empty or partially-created log holds no committed records.
        return Ok(WalScan { records: Vec::new(), valid_len: 0, torn_tail: !bytes.is_empty() });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version != WAL_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut last_lsn: Option<u64> = None;
    while pos < bytes.len() {
        if !frame_is_intact(bytes, pos) {
            // Broken frame: torn tail iff no intact frame follows anywhere.
            let frame_len = if bytes.len() - pos >= 8 {
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length checked"))
                    as usize
            } else {
                0
            };
            let after = pos + 8 + frame_len;
            if after < bytes.len() && frame_is_intact(bytes, after) {
                return Err(corrupt("mid-log corruption (intact records follow a broken one)"));
            }
            return Ok(WalScan { records, valid_len: pos as u64, torn_tail: true });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length checked"))
            as usize;
        let payload = &bytes[pos + 8..pos + 8 + len];
        let rec = decode_payload(payload)?;
        if let Some(prev) = last_lsn {
            if rec.lsn <= prev {
                return Err(corrupt("sequence numbers not increasing"));
            }
        }
        last_lsn = Some(rec.lsn);
        records.push(rec);
        pos += 8 + len;
    }
    Ok(WalScan { records, valid_len: pos as u64, torn_tail: false })
}

/// Scans the **longest clean prefix** of a WAL image without ever erroring:
/// decoding stops at the first frame that is broken, structurally invalid,
/// or carries a non-increasing LSN, regardless of what follows.
///
/// This is the basis of explicit repair (`walrus recover <db> --shard <i>`):
/// where [`read_wal`] refuses mid-log corruption because silently dropping
/// committed history is never acceptable *implicitly*, an operator who asks
/// for repair accepts exactly that loss in exchange for bringing a
/// quarantined shard back. `valid_len` is the byte length to truncate the
/// file to; `torn_tail` is true whenever anything was dropped.
pub fn scan_valid_prefix(bytes: &[u8]) -> WalScan {
    if !bytes.starts_with(&wal_header()) {
        // No usable header: nothing is recoverable.
        return WalScan { records: Vec::new(), valid_len: 0, torn_tail: !bytes.is_empty() };
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut last_lsn: Option<u64> = None;
    while pos < bytes.len() {
        if !frame_is_intact(bytes, pos) {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length checked"))
            as usize;
        let Ok(rec) = decode_payload(&bytes[pos + 8..pos + 8 + len]) else {
            break;
        };
        if last_lsn.is_some_and(|prev| rec.lsn <= prev) {
            break;
        }
        last_lsn = Some(rec.lsn);
        records.push(rec);
        pos += 8 + len;
    }
    WalScan { records, valid_len: pos as u64, torn_tail: pos < bytes.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::RegionBitmap;

    fn region(seed: u32) -> Region {
        let mut bitmap = RegionBitmap::new(32, 32, 8);
        bitmap.set_cell(seed as usize % 4, (seed as usize / 2) % 4);
        Region::new(
            vec![seed as f32, 1.0, 2.0],
            vec![0.0, 0.5, 1.5],
            vec![seed as f32 + 1.0, 1.5, 2.5],
            bitmap,
            3 + seed as usize,
        )
    }

    fn insert_op(id: usize) -> WalOp {
        WalOp::Insert {
            expected_id: id,
            name: format!("img{id}"),
            width: 32,
            height: 32,
            regions: vec![region(id as u32), region(id as u32 + 7)],
        }
    }

    fn log_with(ops: &[(u64, WalOp)]) -> Vec<u8> {
        let mut bytes = wal_header();
        for (lsn, op) in ops {
            bytes.extend_from_slice(&encode_record(*lsn, op));
        }
        bytes
    }

    #[test]
    fn round_trip_records() {
        let bytes = log_with(&[
            (1, insert_op(0)),
            (2, WalOp::Remove { id: 0 }),
            (3, insert_op(1)),
        ]);
        let scan = read_wal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records[0].lsn, 1);
        match &scan.records[0].op {
            WalOp::Insert { expected_id, name, width, height, regions } => {
                assert_eq!(*expected_id, 0);
                assert_eq!(name, "img0");
                assert_eq!((*width, *height), (32, 32));
                assert_eq!(regions.len(), 2);
                assert_eq!(regions[0].centroid, vec![0.0, 1.0, 2.0]);
                assert_eq!(regions[0].window_count, 3);
            }
            other => panic!("wrong op: {other:?}"),
        }
        assert!(matches!(scan.records[1].op, WalOp::Remove { id: 0 }));
    }

    #[test]
    fn empty_and_header_only_logs() {
        let scan = read_wal(&[]).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
        let scan = read_wal(&wal_header()).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn partially_written_header_is_a_torn_tail() {
        let scan = read_wal(&wal_header()[..5]).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = wal_header();
        bytes[0] = b'X';
        assert!(read_wal(&bytes).is_err());
        // The version before this one is as unreadable as one never
        // assigned: there is one log format, and repair finds no prefix
        // worth keeping under either header.
        for version in [1u8, 9] {
            let mut bytes = log_with(&[(1, insert_op(0))]);
            bytes[8] = version;
            match read_wal(&bytes) {
                Err(WalrusError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
                }
                other => panic!("version {version}: expected Corrupt, got {other:?}"),
            }
            let scan = scan_valid_prefix(&bytes);
            assert!(scan.records.is_empty() && scan.torn_tail);
            assert_eq!(scan.valid_len, 0);
        }
    }

    #[test]
    fn torn_tail_detected_at_every_truncation_point() {
        let full = log_with(&[(1, insert_op(0)), (2, WalOp::Remove { id: 0 })]);
        let first_len = log_with(&[(1, insert_op(0))]).len();
        for cut in (WAL_HEADER_LEN as usize + 1)..full.len() {
            let scan = read_wal(&full[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut} must scan cleanly, got {e}");
            });
            if cut < first_len {
                assert_eq!(scan.records.len(), 0, "cut {cut}");
                assert_eq!(scan.valid_len, WAL_HEADER_LEN, "cut {cut}");
                assert!(scan.torn_tail);
            } else if cut < full.len() {
                assert_eq!(scan.records.len(), 1, "cut {cut}");
                assert_eq!(scan.valid_len, first_len as u64, "cut {cut}");
                // A cut exactly on the record boundary leaves no tail.
                assert_eq!(scan.torn_tail, cut != first_len, "cut {cut}");
            } else {
                assert_eq!(scan.records.len(), 2);
                assert!(!scan.torn_tail);
            }
        }
    }

    #[test]
    fn flip_in_last_record_is_a_torn_tail_flip_earlier_is_corruption() {
        let bytes = log_with(&[(1, insert_op(0)), (2, WalOp::Remove { id: 0 })]);
        let first_len = log_with(&[(1, insert_op(0))]).len();
        // Flip inside the final record's payload: recoverable torn tail.
        let mut tail_flip = bytes.clone();
        let pos = first_len + 10;
        tail_flip[pos] ^= 0xFF;
        let scan = read_wal(&tail_flip).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);
        // Flip inside the first record's payload while a valid record
        // follows: committed history is damaged — hard error.
        let mut mid_flip = bytes.clone();
        mid_flip[WAL_HEADER_LEN as usize + 20] ^= 0xFF;
        assert!(matches!(read_wal(&mid_flip), Err(WalrusError::Corrupt(_))));
    }

    #[test]
    fn zero_filled_tail_is_a_torn_tail_not_corruption() {
        // Filesystems extend files with zero blocks on crash; a run of
        // zeros parses as `len = 0, crc = 0` and crc32(&[]) == 0, so this
        // must be caught by the minimum-payload rule, not the CRC.
        let good = log_with(&[(1, insert_op(0))]);
        for pad in [1, 8, 9, 64, 512] {
            let mut bytes = good.clone();
            bytes.extend(std::iter::repeat(0u8).take(pad));
            let scan = read_wal(&bytes).unwrap_or_else(|e| {
                panic!("zero tail of {pad} bytes must scan cleanly, got {e}")
            });
            assert_eq!(scan.records.len(), 1, "pad {pad}");
            assert_eq!(scan.valid_len, good.len() as u64, "pad {pad}");
            assert!(scan.torn_tail, "pad {pad}");
        }
    }

    #[test]
    fn non_monotonic_lsns_rejected() {
        let bytes = log_with(&[(2, insert_op(0)), (2, WalOp::Remove { id: 0 })]);
        assert!(read_wal(&bytes).is_err());
    }

    #[test]
    fn scan_valid_prefix_stops_at_damage_where_read_wal_errors() {
        // Mid-log flip: read_wal refuses, the repair scan keeps the prefix.
        let bytes = log_with(&[(1, insert_op(0)), (2, WalOp::Remove { id: 0 }), (3, insert_op(1))]);
        let first_len = log_with(&[(1, insert_op(0))]).len();
        let mut mid_flip = bytes.clone();
        mid_flip[first_len + 10] ^= 0xFF;
        assert!(read_wal(&mid_flip).is_err());
        let scan = scan_valid_prefix(&mid_flip);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, first_len as u64);
        assert!(scan.torn_tail);

        // Non-monotonic LSN: everything before the regression survives.
        let regressed = log_with(&[(5, insert_op(0)), (4, WalOp::Remove { id: 0 })]);
        let scan = scan_valid_prefix(&regressed);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);

        // Clean log: identical verdict to read_wal.
        let scan = scan_valid_prefix(&bytes);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(!scan.torn_tail);

        // Destroyed header: nothing recoverable.
        let mut bad_header = bytes;
        bad_header[0] = b'X';
        let scan = scan_valid_prefix(&bad_header);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn_tail);
    }
}
