//! Hostile-input property tests for the snapshot loader: `persist::load`
//! must return `Err` — never panic, never attempt a huge allocation — for
//! truncated, bit-flipped, or random-garbage images, whether they claim the
//! current format version or one of the two dropped ones.
//!
//! Deterministic xorshift randomness keeps the suite reproducible and free
//! of external dependencies; each case prints its seed context on failure.

use walrus_core::crc32::crc32;
use walrus_core::params::SignatureKind;
use walrus_core::{persist, ImageDatabase, Region, WalrusError, WalrusParams};
use walrus_imagery::synth::dataset::{DatasetSpec, ImageClass, SyntheticDataset};
use walrus_wavelet::SlidingParams;

/// xorshift64* — tiny deterministic PRNG for fuzz-style sweeps.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn populated() -> ImageDatabase {
    let params = WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
        ..WalrusParams::paper_defaults()
    };
    let data = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 2,
        width: 48,
        height: 32,
        seed: 0xBEEF,
        classes: vec![ImageClass::Flowers, ImageClass::Sunset],
    })
    .unwrap();
    let mut db = ImageDatabase::new(params).unwrap();
    for img in &data.images {
        db.insert_image(&img.name, &img.image).unwrap();
    }
    db
}

/// Rewrites the trailing whole-file CRC to match the bytes before it, so
/// that what a test planted in the body is what the loader gets to judge.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn v2_rejects_every_random_bit_flip() {
    let good = persist::save(&populated());
    let mut rng = XorShift::new(0x5EED_0001);
    for case in 0..400 {
        let pos = rng.below(good.len());
        let mask = (rng.next() as u8) | 1; // always flips at least one bit
        let mut bad = good.clone();
        bad[pos] ^= mask;
        match persist::load(&bad) {
            Err(WalrusError::Corrupt(_)) => {}
            Err(other) => panic!("case {case}: flip at {pos} gave non-corrupt error {other}"),
            Ok(_) => panic!("case {case}: flip at {pos} mask {mask:#04x} went undetected"),
        }
    }
}

#[test]
fn v2_rejects_every_truncation() {
    let good = persist::save(&populated());
    let mut rng = XorShift::new(0x5EED_0002);
    for case in 0..200 {
        let cut = rng.below(good.len()); // always strictly shorter
        assert!(
            persist::load(&good[..cut]).is_err(),
            "case {case}: truncation to {cut} bytes loaded"
        );
    }
}

#[test]
fn v1_corruption_errors_but_never_panics() {
    // A snapshot that says it is version 1 or 2 — a current image
    // relabelled by hand and re-sealed; no writer of those generations is
    // kept — is refused by name, and damaging it further changes nothing:
    // an error every time, never a panic, whatever the flip hits.
    let mut rng = XorShift::new(0x5EED_0003);
    for version in [1u32, 2] {
        let mut old = persist::save(&populated());
        old[8..12].copy_from_slice(&version.to_le_bytes());
        reseal(&mut old);
        match persist::load(&old) {
            Err(WalrusError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
            }
            Err(other) => panic!("v{version}: non-corrupt error {other}"),
            Ok(_) => panic!("a v{version} snapshot loaded"),
        }
        for _ in 0..400 {
            let pos = rng.below(old.len());
            let mut bad = old.clone();
            bad[pos] ^= (rng.next() as u8) | 1;
            assert!(persist::load(&bad).is_err(), "v{version}: flip at {pos} loaded");
        }
        for _ in 0..200 {
            let cut = rng.below(old.len());
            assert!(persist::load(&old[..cut]).is_err(), "v{version}: cut at {cut} loaded");
        }
    }
}

#[test]
fn random_garbage_is_rejected() {
    let mut rng = XorShift::new(0x5EED_0004);
    for case in 0..200 {
        let len = rng.below(4096);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert!(persist::load(&bytes).is_err(), "case {case}: garbage of {len} bytes loaded");
    }
    // Garbage behind a valid magic + version header is the nastier case:
    // parsers that trust the header over-allocate from hostile counts.
    for case in 0..200 {
        let len = rng.below(4096);
        let mut bytes = b"WALRUSDB".to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend((0..len.max(4)).map(|_| rng.next() as u8));
        // Half the cases carry a correct whole-file CRC, so the garbage is
        // parsed as length fields rather than stopped at the checksum.
        if case % 2 == 0 {
            reseal(&mut bytes);
        }
        assert!(
            persist::load(&bytes).is_err(),
            "case {case}: header + {len} garbage bytes loaded"
        );
    }
}

#[test]
fn hostile_length_fields_do_not_allocate() {
    // Craft headers whose length/count fields claim gigabytes. The loader
    // must bound `with_capacity` by the bytes actually present and fail
    // cleanly. (If it trusted the counts, this test would OOM, not fail.)
    // The whole-file CRC is made correct, so the fields are really parsed.
    let mut rng = XorShift::new(0x5EED_0005);
    for _ in 0..200 {
        let mut bytes = b"WALRUSDB".to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        // A handful of huge little-endian fields, then thin padding.
        for _ in 0..4 {
            bytes.extend_from_slice(&(u64::MAX - rng.next() % 1024).to_le_bytes());
        }
        let pad = 4 + rng.below(64);
        bytes.extend((0..pad).map(|_| rng.next() as u8));
        reseal(&mut bytes);
        assert!(persist::load(&bytes).is_err());
    }
}

/// A region's floats are data no checksum can vouch for: a snapshot whose
/// CRCs are all *correct* but which carries a non-finite signature value or
/// an inverted bounding box is corrupt, and must be refused as such before
/// the value can reach the index — where a NaN used to panic the open, and
/// would now be a sort key.
#[test]
fn crc_clean_snapshots_with_unindexable_regions_are_corrupt() {
    type Poison = fn(&mut Region);
    // Each poison is inserted under the signature kind that does *not* index
    // the poisoned field, so the live insert accepts it and the writers
    // serialise it faithfully, checksums and all.
    let cases: [(SignatureKind, &str, Poison); 5] = [
        (SignatureKind::BoundingBox, "NaN centroid", |r| r.centroid[3] = f32::NAN),
        (SignatureKind::BoundingBox, "infinite centroid", |r| r.centroid[0] = f32::INFINITY),
        (SignatureKind::Centroid, "NaN bbox_min", |r| r.bbox_min[1] = f32::NAN),
        (SignatureKind::Centroid, "infinite bbox_max", |r| r.bbox_max[2] = f32::NEG_INFINITY),
        (SignatureKind::Centroid, "inverted bbox", |r| r.bbox_min[5] = r.bbox_max[5] + 1.0),
    ];
    let donor = populated();
    for (kind, what, poison) in cases {
        let mut db =
            ImageDatabase::new(WalrusParams { signature_kind: kind, ..*donor.params() }).unwrap();
        for img in donor.image_slots().iter().flatten() {
            db.insert_regions(&img.name, img.width, img.height, img.regions.clone()).unwrap();
        }
        let mut regions = donor.image(1).unwrap().regions.clone();
        let victim = regions.len() / 2;
        poison(&mut regions[victim]);
        db.insert_regions("poisoned", 48, 32, regions).unwrap();
        match persist::load(&persist::save(&db)) {
            Err(WalrusError::Corrupt(msg)) => assert!(
                msg.contains("non-finite") || msg.contains("inverted"),
                "{what}: unexpected message {msg}"
            ),
            Err(other) => panic!("{what}: non-corrupt error {other}"),
            Ok(_) => panic!("{what}: the snapshot loaded"),
        }
    }
}
