//! Database persistence: serialize an [`crate::ImageDatabase`] to a compact
//! binary snapshot and load it back.
//!
//! The paper's deployment stores regions in a *disk-based* R\*-tree (GiST)
//! so the index survives restarts and scales past memory. This module
//! provides the equivalent capability for the in-memory engine: the full
//! database — parameters, image metadata, every region's signature, bbox
//! and bitmap — round-trips through a versioned, endian-stable byte format.
//! The R\*-tree is derived state: a load fills the image table and then
//! packs the tree once ([`ImageDatabase::pack_index`]), which keeps the
//! format independent of index implementation details.
//!
//! ## The format (version 3; little-endian throughout)
//!
//! ```text
//! magic "WALRUSDB" | u32 version=3 | u64 last_lsn
//! | u32 params_len  | params block | u32 crc32(params block)
//! | u64 images_len  | images block | u32 crc32(images block)
//! | u32 crc32(everything above)
//! ```
//!
//! `last_lsn` is the sequence number of the last write-ahead-log record
//! folded into this snapshot (see [`crate::wal`]); standalone snapshots use
//! 0. Every section carries its own CRC-32 and the file ends with a
//! whole-file CRC-32, so truncation, bit rot and torn writes are detected
//! deterministically instead of by accidental structural failure.
//!
//! Each persisted region carries its 128-bit binary prefilter signature
//! (two u64 thermometer-code lanes). The lanes are a pure function of the
//! region's `bbox_min`/`bbox_max`, so the loader rebuilds them from the
//! vectors and *verifies* the stored copy — a mismatch means corruption (or
//! a foreign encoder) and is rejected.
//!
//! This is the only version read or written: the two earlier generations
//! were dropped with their writers (no store holding them was ever
//! deployed), and a snapshot that says it is version 1 or 2 is refused as
//! `Corrupt` ("unsupported version") like any other unknown number.
//!
//! ```text
//! images block: u64 image_count, then per image:
//!   u64 id | name (u32 len + bytes) | u64 w | u64 h | u64 live(0/1)
//!   u64 region_count | regions…
//! per region: u64 window_count | dims (u32) | centroid f32s | bbox_min | bbox_max
//!             bitmap: u64 w,h,gw,gh | u64 word_count | u64 words…
//!             u64 sig_lane0 | u64 sig_lane1
//! ```
//!
//! [`save_to_file_with`] is crash-safe: bytes go to a temporary file which
//! is fsynced, renamed over the destination, and sealed with a directory
//! fsync — a crash at any instant leaves either the old snapshot or the
//! new one, never a torn file. Only a shard of a store is ever a snapshot
//! *file*; nothing reads or writes one as a database of its own.

use crate::bitmap::RegionBitmap;
use crate::crc32::crc32;
use crate::database::{ImageDatabase, IndexedImage};
use crate::params::{SignatureKind, SimilarityKind, WalrusParams};
use crate::region::Region;
use crate::storage::StorageIo;
use crate::{Result, WalrusError};
use std::path::Path;
use walrus_imagery::ColorSpace;
use walrus_wavelet::SlidingParams;

const MAGIC: &[u8; 8] = b"WALRUSDB";
const VERSION: u32 = 3;

/// Serializes the database to bytes, with no WAL position (`last_lsn = 0`).
pub fn save(db: &ImageDatabase) -> Vec<u8> {
    save_envelope(db.params(), table_of(db), 0)
}

/// A database's image table the way the writers take one: slot by slot in
/// id order, `None` for a tombstone.
fn table_of(db: &ImageDatabase) -> impl ExactSizeIterator<Item = Option<&IndexedImage>> {
    db.image_slots().iter().map(Option::as_ref)
}

fn save_envelope<'a>(
    params: &WalrusParams,
    table: impl ExactSizeIterator<Item = Option<&'a IndexedImage>>,
    last_lsn: u64,
) -> Vec<u8> {
    let mut params_block = Vec::with_capacity(128);
    write_params(&mut params_block, params);
    let images_block = write_images_block(table);

    let mut out = Vec::with_capacity(images_block.len() + params_block.len() + 64);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, last_lsn);
    put_u32(&mut out, params_block.len() as u32);
    out.extend_from_slice(&params_block);
    put_u32(&mut out, crc32(&params_block));
    put_u64(&mut out, images_block.len() as u64);
    out.extend_from_slice(&images_block);
    put_u32(&mut out, crc32(&images_block));
    let file_crc = crc32(&out);
    put_u32(&mut out, file_crc);
    out
}

fn write_images_block<'a>(
    table: impl ExactSizeIterator<Item = Option<&'a IndexedImage>>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    put_u64(&mut out, table.len() as u64);
    for (id, slot) in table.enumerate() {
        put_u64(&mut out, id as u64);
        match slot {
            Some(img) => {
                put_str(&mut out, &img.name);
                put_u64(&mut out, img.width as u64);
                put_u64(&mut out, img.height as u64);
                put_u64(&mut out, 1);
                put_u64(&mut out, img.regions.len() as u64);
                for r in &img.regions {
                    write_region(&mut out, r);
                }
            }
            None => {
                put_str(&mut out, "");
                put_u64(&mut out, 0);
                put_u64(&mut out, 0);
                put_u64(&mut out, 0);
                put_u64(&mut out, 0);
            }
        }
    }
    out
}

/// Writes the database to a file atomically (temp file → fsync → rename →
/// directory fsync) through a pluggable I/O layer, recording `last_lsn` as
/// its WAL position. Used by the durable store and the crash-consistency
/// tests.
pub fn save_to_file_with(
    io: &dyn StorageIo,
    db: &ImageDatabase,
    path: &Path,
    last_lsn: u64,
) -> Result<()> {
    save_table_to_file_with(io, db.params(), table_of(db), path, last_lsn)
}

/// [`save_to_file_with`] for an image table that exists only as borrowed
/// slots (id order, `None` = tombstone) — shard migration writes each target
/// shard's snapshot this way, straight from the source shards' images.
pub(crate) fn save_table_to_file_with<'a>(
    io: &dyn StorageIo,
    params: &WalrusParams,
    table: impl ExactSizeIterator<Item = Option<&'a IndexedImage>>,
    path: &Path,
    last_lsn: u64,
) -> Result<()> {
    atomic_write_bytes(io, path, &save_envelope(params, table, last_lsn))
}

/// Atomically replaces `path` with `bytes`: temp file → fsync → rename →
/// directory fsync. A crash at any step leaves either the old file or the
/// new one, never a mix — the discipline snapshots and the store manifest
/// share.
pub fn atomic_write_bytes(io: &dyn StorageIo, path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    io.write(tmp, bytes)?;
    io.fsync(tmp)?;
    io.rename(tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    io.fsync(parent)?;
    Ok(())
}

/// Deserializes a database from bytes, rebuilding the spatial index.
pub fn load(bytes: &[u8]) -> Result<ImageDatabase> {
    let (mut db, _) = load_table(bytes)?;
    db.pack_index()?;
    Ok(db)
}

/// [`load`] short of the index, plus the snapshot's `last_lsn`: the returned database holds the
/// snapshot's image table over an empty tree. For callers with more table
/// changes to make before the one [`ImageDatabase::pack_index`] (WAL replay)
/// or with no use for an index at all (scrub).
pub(crate) fn load_table(bytes: &[u8]) -> Result<(ImageDatabase, u64)> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    // Whole-file integrity first: the trailing CRC covers every byte before
    // it, so truncation, trailing garbage and bit rot all fail here.
    if bytes.len() < r.pos + 4 {
        return Err(corrupt("truncated"));
    }
    let body_end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("length checked"));
    if crc32(&bytes[..body_end]) != stored {
        return Err(corrupt("whole-file checksum mismatch"));
    }

    let last_lsn = r.u64()?;
    let params_len = r.u32()? as usize;
    let params_block = r.framed(params_len)?;
    let params_crc = r.u32()?;
    if crc32(params_block) != params_crc {
        return Err(corrupt("params section checksum mismatch"));
    }
    let images_len = r.u64()? as usize;
    let images_block = r.framed(images_len)?;
    let images_crc = r.u32()?;
    if crc32(images_block) != images_crc {
        return Err(corrupt("images section checksum mismatch"));
    }
    if r.pos != body_end {
        return Err(corrupt("trailing bytes"));
    }

    let mut pr = Reader { bytes: params_block, pos: 0 };
    let params = read_params(&mut pr)?;
    if pr.pos != params_block.len() {
        return Err(corrupt("params section has trailing bytes"));
    }
    let mut db = ImageDatabase::new(params)?;
    let mut ir = Reader { bytes: images_block, pos: 0 };
    read_images(&mut ir, &mut db)?;
    if ir.pos != images_block.len() {
        return Err(corrupt("images section has trailing bytes"));
    }
    Ok((db, last_lsn))
}

fn read_images(r: &mut Reader<'_>, db: &mut ImageDatabase) -> Result<()> {
    let image_count = r.u64()? as usize;
    if image_count > 100_000_000 {
        return Err(corrupt("implausible image count"));
    }
    for expected_id in 0..image_count {
        let id = r.u64()? as usize;
        if id != expected_id {
            return Err(corrupt("image ids out of order"));
        }
        let name = r.string()?;
        let width = r.u64()? as usize;
        let height = r.u64()? as usize;
        let live = r.u64()?;
        let region_count = r.u64()? as usize;
        if region_count > 10_000_000 {
            return Err(corrupt("implausible region count"));
        }
        if live == 1 {
            // Cap the pre-allocation by what the input could possibly hold
            // (a region is ≥ 48 bytes) so hostile counts cannot force a
            // huge allocation before the first read fails.
            let mut regions = Vec::with_capacity(region_count.min(r.remaining() / 48 + 1));
            for _ in 0..region_count {
                regions.push(read_region(r)?);
            }
            let got = db.push_image(name, width, height, regions)?;
            debug_assert_eq!(got, id);
        } else {
            db.insert_tombstone();
        }
    }
    Ok(())
}

fn corrupt(what: &str) -> WalrusError {
    WalrusError::Corrupt(format!("database snapshot: {what}"))
}

// --- primitive encoders -------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f32(out, v);
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.bytes.len() - self.pos {
            return Err(corrupt("truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes a length-prefixed frame whose size was already decoded.
    fn framed(&mut self, len: usize) -> Result<&'a [u8]> {
        if len > self.remaining() {
            return Err(corrupt("section extends past end of file"));
        }
        self.take(len)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(corrupt("implausible string length"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| corrupt("non-UTF8 string"))
    }

    fn f32s(&mut self) -> Result<Vec<f32>> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(corrupt("implausible vector length"));
        }
        if len * 4 > self.remaining() {
            return Err(corrupt("vector extends past end of input"));
        }
        (0..len).map(|_| self.f32()).collect()
    }
}

// --- params -------------------------------------------------------------

fn write_params(out: &mut Vec<u8>, p: &WalrusParams) {
    put_u64(out, p.sliding.s as u64);
    put_u64(out, p.sliding.omega_min as u64);
    put_u64(out, p.sliding.omega_max as u64);
    put_u64(out, p.sliding.stride as u64);
    put_u32(out, color_space_tag(p.color_space));
    put_f64(out, p.cluster_epsilon);
    put_f32(out, p.query_epsilon);
    put_f64(out, RETIRED_TAU);
    put_u32(out, match p.signature_kind {
        SignatureKind::Centroid => 0,
        SignatureKind::BoundingBox => 1,
    });
    put_u32(out, QUICK_MATCHING_TAG);
    put_u32(out, match p.similarity {
        SimilarityKind::Symmetric => 0,
        SimilarityKind::QueryFraction => 1,
    });
    put_u64(out, p.bitmap_grid as u64);
    put_u64(out, p.max_regions_per_image.map(|m| m as u64 + 1).unwrap_or(0));
    put_u64(out, RETIRED_PAIR_LIMIT);
}

// Three slots of the params block outlived their knobs. The writer keeps
// putting the values every store holds, so the format does not move: the
// store-wide similarity floor `τ` (0.0), the matching algorithm (tag 0,
// quick union) and exact matching's pair ceiling (16; read and ignored).
const RETIRED_TAU: f64 = 0.0;
const QUICK_MATCHING_TAG: u32 = 0;
const RETIRED_PAIR_LIMIT: u64 = 16;

fn read_params(r: &mut Reader<'_>) -> Result<WalrusParams> {
    let sliding = SlidingParams {
        s: r.u64()? as usize,
        omega_min: r.u64()? as usize,
        omega_max: r.u64()? as usize,
        stride: r.u64()? as usize,
    };
    let color_space = color_space_from_tag(r.u32()?)?;
    let cluster_epsilon = r.f64()?;
    let query_epsilon = r.f32()?;
    // A store that filtered, matched or scored any other way would answer
    // differently here, so it is refused rather than loaded.
    let tau = r.f64()?;
    if tau != RETIRED_TAU {
        return Err(corrupt(&format!("unsupported tau {tau}")));
    }
    let signature_kind = match r.u32()? {
        0 => SignatureKind::Centroid,
        1 => SignatureKind::BoundingBox,
        other => return Err(corrupt(&format!("bad signature kind {other}"))),
    };
    match r.u32()? {
        QUICK_MATCHING_TAG => {}
        other => return Err(corrupt(&format!("unsupported matching kind {other}"))),
    }
    let similarity = match r.u32()? {
        0 => SimilarityKind::Symmetric,
        1 => SimilarityKind::QueryFraction,
        other => return Err(corrupt(&format!("bad similarity kind {other}"))),
    };
    let bitmap_grid = r.u64()? as usize;
    let max_regions = match r.u64()? {
        0 => None,
        v => Some((v - 1) as usize),
    };
    r.u64()?; // the retired pair ceiling
    Ok(WalrusParams {
        sliding,
        color_space,
        cluster_epsilon,
        query_epsilon,
        signature_kind,
        similarity,
        bitmap_grid,
        max_regions_per_image: max_regions,
        // Runtime knobs; deliberately not part of the snapshot format —
        // a loaded snapshot starts from the defaults, and every reopen path
        // replaces them with its caller's (`set_runtime_knobs`).
        threads: 0,
        budgets: walrus_guard::Budgets::default(),
        prefilter: true,
    })
}

fn color_space_tag(c: ColorSpace) -> u32 {
    match c {
        ColorSpace::Rgb => 0,
        ColorSpace::Ycc => 1,
        ColorSpace::Yiq => 2,
        ColorSpace::Hsv => 3,
        ColorSpace::Gray => 4,
    }
}

fn color_space_from_tag(tag: u32) -> Result<ColorSpace> {
    Ok(match tag {
        0 => ColorSpace::Rgb,
        1 => ColorSpace::Ycc,
        2 => ColorSpace::Yiq,
        3 => ColorSpace::Hsv,
        4 => ColorSpace::Gray,
        other => return Err(corrupt(&format!("bad color space {other}"))),
    })
}

// --- regions ------------------------------------------------------------

pub(crate) fn write_region(out: &mut Vec<u8>, r: &Region) {
    put_u64(out, r.window_count as u64);
    put_f32s(out, &r.centroid);
    put_f32s(out, &r.bbox_min);
    put_f32s(out, &r.bbox_max);
    let bm = &r.bitmap;
    put_u64(out, bm.width() as u64);
    put_u64(out, bm.height() as u64);
    put_u64(out, bm.grid_width() as u64);
    put_u64(out, bm.grid_height() as u64);
    let words = bm.words();
    put_u64(out, words.len() as u64);
    for &w in words {
        put_u64(out, w);
    }
    put_u64(out, r.signature.lanes[0]);
    put_u64(out, r.signature.lanes[1]);
}

pub(crate) fn read_region(r: &mut Reader<'_>) -> Result<Region> {
    let window_count = r.u64()? as usize;
    let centroid = r.f32s()?;
    let bbox_min = r.f32s()?;
    let bbox_max = r.f32s()?;
    if centroid.len() != bbox_min.len() || centroid.len() != bbox_max.len() {
        return Err(corrupt("signature arity mismatch"));
    }
    // No checksum vouches for what the values mean: a region the index
    // could not hold as a rectangle stops here.
    if centroid.iter().chain(&bbox_min).chain(&bbox_max).any(|v| !v.is_finite()) {
        return Err(corrupt("non-finite region signature"));
    }
    if bbox_min.iter().zip(&bbox_max).any(|(lo, hi)| lo > hi) {
        return Err(corrupt("inverted region bounding box"));
    }
    let width = r.u64()? as usize;
    let height = r.u64()? as usize;
    let gw = r.u64()? as usize;
    let gh = r.u64()? as usize;
    let word_count = r.u64()? as usize;
    if word_count > 1 << 24 {
        return Err(corrupt("implausible bitmap size"));
    }
    if word_count * 8 > r.remaining() {
        return Err(corrupt("bitmap extends past end of input"));
    }
    let mut words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        words.push(r.u64()?);
    }
    let bitmap = RegionBitmap::from_words(width, height, gw, gh, words)
        .ok_or_else(|| corrupt("invalid bitmap geometry"))?;
    // The constructor derives the binary signature from the bounds; the
    // stored lanes must agree (the encoding is a pure function of the
    // bounds, so disagreement is corruption).
    let region = Region::new(centroid, bbox_min, bbox_max, bitmap, window_count);
    let lanes = [r.u64()?, r.u64()?];
    if lanes != region.signature.lanes {
        return Err(corrupt("binary signature does not match region bounds"));
    }
    Ok(region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use walrus_imagery::synth::scene::{Scene, SceneObject};
    use walrus_imagery::synth::shapes::Shape;
    use walrus_imagery::synth::texture::{Rgb, Texture};
    use walrus_imagery::Image;

    fn params() -> WalrusParams {
        WalrusParams {
            sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
            ..WalrusParams::paper_defaults()
        }
    }

    fn scene(hue: f32) -> Image {
        Scene::new(Texture::Solid(Rgb(hue, 0.4, 0.3)))
            .with(SceneObject::new(
                Shape::Ellipse { rx: 0.6, ry: 0.6 },
                Texture::Solid(Rgb(0.9, 0.2, 0.2)),
                (0.5, 0.5),
                0.4,
            ))
            .render(64, 48)
            .unwrap()
    }

    fn populated() -> ImageDatabase {
        let mut db = ImageDatabase::new(params()).unwrap();
        for i in 0..5 {
            db.insert_image(&format!("img{i}"), &scene(0.1 * i as f32)).unwrap();
        }
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = populated();
        let bytes = save(&db);
        let restored = load(&bytes).unwrap();
        assert_eq!(restored.len(), db.len());
        assert_eq!(restored.num_regions(), db.num_regions());
        assert_eq!(restored.params(), db.params());
        for id in 0..5 {
            let (a, b) = (db.image(id).unwrap(), restored.image(id).unwrap());
            assert_eq!(a.name, b.name);
            assert_eq!((a.width, a.height), (b.width, b.height));
            assert_eq!(a.regions.len(), b.regions.len());
            for (ra, rb) in a.regions.iter().zip(&b.regions) {
                assert_eq!(ra.centroid, rb.centroid);
                assert_eq!(ra.bitmap, rb.bitmap);
                assert_eq!(ra.window_count, rb.window_count);
            }
        }
    }

    #[test]
    fn restored_database_answers_queries_identically() {
        let db = populated();
        let restored = load(&save(&db)).unwrap();
        let query = scene(0.15);
        let a = db.top_k(&query, 5).unwrap();
        let b = restored.top_k(&query, 5).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.image_id, y.image_id);
            assert!((x.similarity - y.similarity).abs() < 1e-12);
        }
    }

    #[test]
    fn tombstones_survive_round_trip() {
        let mut db = populated();
        db.remove_image(2).unwrap();
        let restored = load(&save(&db)).unwrap();
        assert_eq!(restored.len(), 4);
        assert!(restored.image(2).is_none());
        assert!(restored.image(3).is_some());
        // New insertions continue from the right id.
        let mut restored = restored;
        let new_id = restored.insert_image("new", &scene(0.9)).unwrap();
        assert_eq!(new_id, 5);
    }

    #[test]
    fn v3_lane_mismatch_detected_even_with_valid_checksums() {
        // Corrupt a signature lane, then *repair the CRCs*, so only the
        // semantic lanes-match-bounds check can catch the mismatch.
        let db = populated();
        let mut bytes = save(&db);
        let params_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        let images_len_at = 24 + params_len + 4;
        let images_at = images_len_at + 8;
        let images_len =
            u64::from_le_bytes(bytes[images_len_at..images_at].try_into().unwrap()) as usize;
        // The images block ends with the last region's second lane.
        bytes[images_at + images_len - 1] ^= 0x01;
        let crc_at = images_at + images_len;
        let images_crc = crc32(&bytes[images_at..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&images_crc.to_le_bytes());
        let end = bytes.len() - 4;
        let file_crc = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&file_crc.to_le_bytes());
        match load(&bytes) {
            Err(WalrusError::Corrupt(msg)) => {
                assert!(msg.contains("signature"), "unexpected corruption message: {msg}")
            }
            other => panic!("expected corrupt snapshot, got {other:?}"),
        }
    }

    #[test]
    fn lsn_round_trips() {
        let db = populated();
        let bytes = save_envelope(db.params(), table_of(&db), 0xDEAD_BEEF);
        let (_, lsn) = load_table(&bytes).unwrap();
        assert_eq!(lsn, 0xDEAD_BEEF);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let db = populated();
        let good = save(&db);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(load(&bad).is_err());
        // Any version but the current one — the two dropped generations
        // no less than a number never assigned — is refused by name, before
        // a byte of the body is trusted.
        for version in [1u8, 2, 99] {
            let mut bad = good.clone();
            bad[8] = version;
            match load(&bad) {
                Err(WalrusError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
                }
                other => panic!("version {version}: expected Corrupt, got {other:?}"),
            }
        }
        // Truncations at every prefix length must error, never panic.
        for cut in [0usize, 7, 11, 40, good.len() / 2, good.len() - 1] {
            assert!(load(&good[..cut]).is_err(), "cut at {cut} should fail");
        }
        // Trailing garbage (breaks the whole-file checksum).
        let mut bad = good.clone();
        bad.push(0);
        assert!(load(&bad).is_err());
    }

    #[test]
    fn v2_detects_every_single_byte_flip() {
        // *Every* byte of a snapshot is covered by the whole-file CRC: any
        // flip must be rejected, not silently loaded.
        let db = populated();
        let good = save(&db);
        for pos in (0..good.len()).step_by(41) {
            let mut bad = good.clone();
            bad[pos] ^= 0x20;
            assert!(
                matches!(load(&bad), Err(WalrusError::Corrupt(_))),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A snapshot whose checksums are all correct but whose images block
        // claims an absurd image count must fail fast on bounds checks, not
        // attempt a giant allocation.
        let mut params_block = Vec::new();
        write_params(&mut params_block, &params());
        let images_block = u64::MAX.to_le_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, params_block.len() as u32);
        bytes.extend_from_slice(&params_block);
        put_u32(&mut bytes, crc32(&params_block));
        put_u64(&mut bytes, images_block.len() as u64);
        bytes.extend_from_slice(&images_block);
        put_u32(&mut bytes, crc32(&images_block));
        let file_crc = crc32(&bytes);
        put_u32(&mut bytes, file_crc);
        match load(&bytes) {
            Err(WalrusError::Corrupt(msg)) => assert!(msg.contains("image count"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let db = populated();
        let dir = std::env::temp_dir().join("walrus_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.walrus");
        save_to_file_with(&crate::storage::DiskIo, &db, &path, 0).unwrap();
        // The temp file must not linger after the atomic rename.
        assert!(!dir.join("db.walrus.tmp").exists());
        let restored = load(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(restored.len(), db.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_database_round_trips() {
        let db = ImageDatabase::new(params()).unwrap();
        let restored = load(&save(&db)).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.params(), db.params());
    }
}
