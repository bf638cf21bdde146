//! Criterion micro-benchmark for quick-union image matching (§5.5): one
//! candidate scored from its region marks through a reused scratch, as the
//! query path does. The parameter is the number of random pairs marked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walrus_core::bitmap::RegionBitmap;
use walrus_core::matching::{similarity, QuickScratch};
use walrus_core::{Region, SimilarityKind};

fn random_regions(n: usize, rng: &mut StdRng) -> Vec<Region> {
    (0..n)
        .map(|_| {
            let mut bitmap = RegionBitmap::new(128, 96, 16);
            for _ in 0..rng.gen_range(1..4usize) {
                bitmap.mark_window(
                    rng.gen_range(0..100),
                    rng.gen_range(0..70),
                    rng.gen_range(8..32),
                    rng.gen_range(8..32),
                );
            }
            Region::new(vec![0.0; 12], vec![0.0; 12], vec![0.0; 12], bitmap, 1)
        })
        .collect()
}

/// Query and target regions, and the one-word marks of `pairs` random
/// region pairs between them.
fn instance(pairs: usize, seed: u64) -> (Vec<Region>, Vec<Region>, [u64; 2]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nq = 8;
    let nt = 8;
    let q = random_regions(nq, &mut rng);
    let t = random_regions(nt, &mut rng);
    let mut marks = [0u64; 2];
    for _ in 0..pairs {
        marks[0] |= 1 << rng.gen_range(0..nq);
        marks[1] |= 1 << rng.gen_range(0..nt);
    }
    (q, t, marks)
}

fn bench_matching(c: &mut Criterion) {
    const AREA: usize = 128 * 96;
    let mut group = c.benchmark_group("matching");
    let mut scratch = QuickScratch::default();
    for pairs in [8usize, 32, 128] {
        let (q, t, marks) = instance(pairs, 99);
        group.bench_with_input(BenchmarkId::new("quick", pairs), &marks, |b, [qm, tm]| {
            let (q_marks, t_marks) = (std::slice::from_ref(qm), std::slice::from_ref(tm));
            let kind = SimilarityKind::Symmetric;
            b.iter(|| similarity(kind, &mut scratch, &q, &t, q_marks, t_marks, AREA, AREA))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
