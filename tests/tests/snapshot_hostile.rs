//! Hostile-input property tests for the snapshot loader: `persist::load`
//! must return `Err` — never panic, never attempt a huge allocation — for
//! truncated, bit-flipped, or random-garbage images, in both the legacy v1
//! and the checksummed v2 format.
//!
//! Deterministic xorshift randomness keeps the suite reproducible and free
//! of external dependencies; each case prints its seed context on failure.

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
    // v1 has no checksums, so a flip in float data may load — the contract
    // is only "no panic, no unbounded allocation".
    let good = persist::save_v1(&populated());
    let mut rng = XorShift::new(0x5EED_0003);
    for _ in 0..400 {
        let pos = rng.below(good.len());
        let mut bad = good.clone();
        bad[pos] ^= (rng.next() as u8) | 1;
        let _ = persist::load(&bad);
    }
    for _ in 0..200 {
        let cut = rng.below(good.len());
        let _ = persist::load(&good[..cut]);
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
        let version = if case % 2 == 0 { 1u32 } else { 2u32 };
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend((0..len).map(|_| rng.next() as u8));
        assert!(
            persist::load(&bytes).is_err(),
            "case {case}: header + {len} garbage bytes loaded as v{version}"
        );
    }
}

#[test]
fn hostile_length_fields_do_not_allocate() {
    // Craft headers whose length/count fields claim gigabytes. The loader
    // must bound `with_capacity` by the bytes actually present and fail
    // cleanly. (If it trusted the counts, this test would OOM, not fail.)
    let mut rng = XorShift::new(0x5EED_0005);
    for version in [1u32, 2u32] {
        for _ in 0..100 {
            let mut bytes = b"WALRUSDB".to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            // A handful of huge little-endian fields, then thin padding.
            for _ in 0..4 {
                bytes.extend_from_slice(&(u64::MAX - rng.next() % 1024).to_le_bytes());
            }
            let pad = rng.below(64);
            bytes.extend((0..pad).map(|_| rng.next() as u8));
            assert!(persist::load(&bytes).is_err());
        }
    }
}

/// A region's floats are data no checksum can vouch for: a snapshot whose
/// CRCs are all *correct* (v1 has none to begin with) but which carries a
/// non-finite signature value or an inverted bounding box is corrupt, and
/// must be refused as such before the value can reach the index — where a
/// NaN used to panic the open, and would now be a sort key.
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
        let snapshots =
            [("v1", persist::save_v1(&db)), ("v2", persist::save_v2(&db)), ("v3", persist::save(&db))];
        for (version, bytes) in snapshots {
            match persist::load(&bytes) {
                Err(WalrusError::Corrupt(msg)) => assert!(
                    msg.contains("non-finite") || msg.contains("inverted"),
                    "{what} in a {version} snapshot: unexpected message {msg}"
                ),
                Err(other) => panic!("{what} in a {version} snapshot: non-corrupt error {other}"),
                Ok(_) => panic!("{what} in a {version} snapshot loaded"),
            }
        }
    }
}
