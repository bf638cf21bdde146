//! Criterion micro-benchmark for region extraction end to end (colour
//! conversion → DP sweep → BIRCH → bitmaps), the path a cold query and an
//! ingest both pay, on the image shape the service benchmark uses.

use criterion::{criterion_group, criterion_main, Criterion};
use walrus_core::{extract_regions, WalrusParams};
use walrus_imagery::synth::{DatasetSpec, ImageClass, SyntheticDataset};

fn bench_extract_regions(c: &mut Criterion) {
    // Two 128×96 scenes of each class: region counts run from a handful
    // (lawn, ocean) to about a hundred (flowers), which is what moves the
    // CF-tree's share of the time.
    let spec = DatasetSpec {
        images_per_class: 2,
        width: 128,
        height: 96,
        seed: 0x00E1_6E16,
        classes: ImageClass::ALL.to_vec(),
    };
    let images = SyntheticDataset::generate(spec).expect("valid spec").images;
    let params = WalrusParams::small_image_defaults();
    let mut group = c.benchmark_group("extract_regions");
    group.bench_function("128x96_six_classes_x2", |b| {
        b.iter(|| {
            images.iter().map(|l| extract_regions(&l.image, &params).unwrap().len()).sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_extract_regions);
criterion_main!(benches);
