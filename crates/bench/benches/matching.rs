//! Criterion micro-benchmark for quick-union image matching (§5.5): one
//! candidate scored through a reused scratch, as the query path does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walrus_core::bitmap::RegionBitmap;
use walrus_core::matching::{similarity, MatchPair, QuickScratch};
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

fn instance(pairs: usize, seed: u64) -> (Vec<Region>, Vec<Region>, Vec<MatchPair>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nq = 8;
    let nt = 8;
    let q = random_regions(nq, &mut rng);
    let t = random_regions(nt, &mut rng);
    let p = (0..pairs)
        .map(|_| MatchPair { q: rng.gen_range(0..nq), t: rng.gen_range(0..nt) })
        .collect();
    (q, t, p)
}

fn bench_matching(c: &mut Criterion) {
    const AREA: usize = 128 * 96;
    let mut group = c.benchmark_group("matching");
    let mut scratch = QuickScratch::default();
    for pairs in [8usize, 32, 128] {
        let (q, t, p) = instance(pairs, 99);
        group.bench_with_input(BenchmarkId::new("quick", pairs), &p, |b, p| {
            b.iter(|| similarity(SimilarityKind::Symmetric, &mut scratch, &q, &t, p, AREA, AREA))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
