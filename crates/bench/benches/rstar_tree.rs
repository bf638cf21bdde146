//! Criterion micro-benchmarks for the R\*-tree substrate: one-at-a-time
//! insertion (what a live ingest pays), the STR pack (what an open pays), the
//! ε-ball query WALRUS issues per query region — against a tree of each
//! origin — and kNN, on the exact data shape WALRUS produces (12-dimensional
//! signature points in [0,1]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walrus_rstar::{bulk_load, RStarParams, RStarTree, Rect};

fn points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dims).map(|_| rng.gen::<f32>()).collect()).collect()
}

/// `n` points in 50 tight clusters — the shape WALRUS signatures have (many
/// regions of similar texture), so an ε = 0.085 probe near a cluster scans
/// whole leaves and returns a few hundred hits. Uniform 12-d points at that
/// ε return next to none and never exercise a leaf scan.
fn clustered(n: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
    let centres = points(50, dims, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1);
    (0..n)
        .map(|i| centres[i % 50].iter().map(|c| c + (rng.gen::<f32>() - 0.5) * 0.06).collect())
        .collect()
}

fn build(pts: &[Vec<f32>]) -> RStarTree<usize> {
    let mut t = RStarTree::with_dims(pts[0].len()).unwrap();
    for (i, p) in pts.iter().enumerate() {
        t.insert(Rect::point(p).unwrap(), i).unwrap();
    }
    t
}

fn pack(pts: &[Vec<f32>]) -> RStarTree<usize> {
    bulk_load(pts[0].len(), RStarParams::default(), pts.len(), |i| (&pts[i], &pts[i]), |i| i)
        .unwrap()
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("rstar_insert");
    for n in [1_000usize, 5_000] {
        let pts = points(n, 12, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| build(pts))
        });
    }
    // What reopening the benchmark's 2 048-image store packs, in one tree.
    let pts = clustered(46_000, 12, 7);
    group.bench_function("pack_46k_12d_clustered", |b| b.iter(|| pack(&pts)));
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let pts = points(5_000, 12, 7);
    let tree = build(&pts);
    let queries = points(100, 12, 13);
    let mut group = c.benchmark_group("rstar_query");
    group.bench_function("within_eps_0.085", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                total += tree.search_within(q, 0.085).unwrap().len();
            }
            total
        })
    });
    // The same probes against the tree live inserts grow and against the
    // tree an open packs: same hits, fewer nodes and leaf entries visited.
    let pts = clustered(25_000, 12, 7);
    let near: Vec<&Vec<f32>> = pts.iter().step_by(250).collect();
    for (name, tree) in [
        ("within_eps_0.085_clustered_25k", build(&pts)),
        ("within_eps_0.085_clustered_25k_packed", pack(&pts)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut total = 0usize;
                for q in &near {
                    total += tree.search_within(q, 0.085).unwrap().len();
                }
                total
            })
        });
    }
    group.bench_function("nearest_10", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                total += tree.nearest_k(q, 10).unwrap().len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_queries);
criterion_main!(benches);
