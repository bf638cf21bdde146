//! Criterion micro-benchmarks for the sliding-window signature algorithms —
//! the statistical counterpart of the Figure 6 harnesses (`fig6a`/`fig6b`
//! print the paper-shaped sweeps; these give rigorous per-configuration
//! numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use walrus_bench::workloads::timing_planes;
use walrus_imagery::ColorSpace;
use walrus_wavelet::sliding::{compute_signatures, compute_signatures_naive};
use walrus_wavelet::SlidingParams;

fn bench_window_sizes(c: &mut Criterion) {
    let (planes, side) = timing_planes(128, ColorSpace::Ycc);
    let refs: Vec<&[f32]> = planes.iter().map(|p| p.as_slice()).collect();
    let mut group = c.benchmark_group("sliding_signatures");
    for omega in [8usize, 32] {
        let params = SlidingParams { s: 2, omega_min: omega, omega_max: omega, stride: 1 };
        group.bench_with_input(BenchmarkId::new("dp", omega), &params, |b, p| {
            b.iter(|| compute_signatures(&refs, side, side, p).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", omega), &params, |b, p| {
            b.iter(|| compute_signatures_naive(&refs, side, side, p).unwrap())
        });
    }
    group.finish();
}

fn bench_signature_sizes(c: &mut Criterion) {
    let (planes, side) = timing_planes(128, ColorSpace::Ycc);
    let refs: Vec<&[f32]> = planes.iter().map(|p| p.as_slice()).collect();
    let mut group = c.benchmark_group("signature_size");
    for s in [2usize, 8] {
        let params = SlidingParams { s, omega_min: 32, omega_max: 32, stride: 1 };
        group.bench_with_input(BenchmarkId::new("dp", s), &params, |b, p| {
            b.iter(|| compute_signatures(&refs, side, side, p).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_sizes, bench_signature_sizes);
criterion_main!(benches);
