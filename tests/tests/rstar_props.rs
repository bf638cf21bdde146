//! Property-based tests for the R\*-tree: every search compared against a
//! linear scan, on grown and packed trees, and the bulk loader's leaf
//! occupancy and determinism.

use proptest::prelude::*;
use walrus_rstar::{Probe, RStarParams, RStarTree, Rect, SearchStats, Verdict};

/// The hits of `probe`, unfiltered, sorted.
fn search(tree: &RStarTree<usize>, probe: &Probe) -> Vec<usize> {
    let mut ids: Vec<usize> =
        tree.search_filtered_stats(probe, |_| true).unwrap().0.into_iter().copied().collect();
    ids.sort_unstable();
    ids
}

fn point_vec(dims: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, dims), n)
}

fn boxes(dims: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(Vec<f32>, Vec<f32>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0.0f32..1.0, dims),
            proptest::collection::vec(0.0f32..0.3, dims),
        ),
        n,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(lo, ext)| {
                let hi: Vec<f32> = lo.iter().zip(&ext).map(|(a, e)| a + e).collect();
                (lo, hi)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn within_query_equals_linear_scan(pts in point_vec(4, 1..200), q in proptest::collection::vec(0.0f32..1.0, 4), eps in 0.0f32..0.5) {
        let mut tree = RStarTree::with_dims(4).unwrap();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(Rect::point(p).unwrap(), i).unwrap();
        }
        tree.check_invariants();
        let got = search(&tree, &Probe::within(&q, eps).unwrap());
        let eps_sq = (eps as f64) * (eps as f64);
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.iter()
                    .zip(&q)
                    .map(|(&a, &b)| (a as f64 - b as f64) * (a as f64 - b as f64))
                    .sum::<f64>()
                    <= eps_sq
            })
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn intersect_query_equals_linear_scan(items in boxes(3, 1..150), probe in boxes(3, 1..2)) {
        let mut tree = RStarTree::with_dims(3).unwrap();
        let rects: Vec<Rect> = items
            .iter()
            .map(|(lo, hi)| Rect::new(lo.clone(), hi.clone()).unwrap())
            .collect();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(r.clone(), i).unwrap();
        }
        let (plo, phi) = &probe[0];
        let probe_rect = Rect::new(plo.clone(), phi.clone()).unwrap();
        let got = search(&tree, &Probe::intersecting(probe_rect.clone()));
        let mut want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&probe_rect))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

}

/// A seeded stream of coordinates on a grid of `1/steps`, so that box faces
/// coincide and entry distances tie.
fn grid(seed: u64, steps: u64) -> impl FnMut() -> f32 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % steps) as f32 / steps as f32
    }
}

/// Entry corners of one packing input shape: uniform points, all-equal
/// points, points spread along one dimension only, points each present
/// three times, or boxes.
fn shaped(kind: usize, n: usize, dims: usize, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut next = grid(seed, 1 << 16);
    (0..n)
        .map(|i| {
            let lo: Vec<f32> = match kind {
                0 | 4 => (0..dims).map(|_| next()).collect(),
                1 => vec![0.25; dims],
                2 => (0..dims).map(|d| if d == 1 { next() } else { 0.5 }).collect(),
                _ => (0..dims).map(|d| ((i / 3 * 7 + d * 13) % 101) as f32 / 101.0).collect(),
            };
            let hi = lo.iter().map(|&v| if kind == 4 { v + next() * 0.2 } else { v }).collect();
            (lo, hi)
        })
        .collect()
}

/// Every probe statistic and hit, in traversal order, of a fixed set of
/// ε-ball and box probes.
fn probe_all(tree: &RStarTree<usize>, dims: usize) -> Vec<(Vec<usize>, SearchStats)> {
    let mut next = grid(0x9E37_79B9, 1 << 16);
    (0..8)
        .flat_map(|_| {
            let q: Vec<f32> = (0..dims).map(|_| next()).collect();
            let boxed = Rect::point(&q).unwrap().extended(0.1);
            [Probe::within(&q, 0.2).unwrap(), Probe::intersecting(boxed)].map(|probe| {
                let (hits, stats) = tree.search_filtered_stats(&probe, |_| true).unwrap();
                (hits.into_iter().copied().collect(), stats)
            })
        })
        .collect()
}

/// Occupancy and determinism of the packer, over every valid `(M, m)` with
/// `M ≤ 32` and each input shape. The packer gives `n > M` entries
/// `L = ⌈n/M⌉` leaves and splits each run in proportion to the leaves on
/// either side, so every leaf holds `⌊n/L⌋` or `⌈n/L⌉` entries — within
/// `[m, M]`, as `n/L > M/2 ≥ m` — and the same input packs to the same tree.
#[test]
fn packed_leaves_are_balanced_and_the_pack_is_deterministic() {
    let mut sizes = grid(0x0CC0_9A4C, 4_000);
    for max in 4..=32usize {
        for min in 2..=max / 2 {
            let params = RStarParams { max_entries: max, min_entries: min, reinsert_count: 1 };
            for kind in 0..5 {
                let n = match (min + kind) % 3 {
                    0 => max + 1,
                    1 => 2 * max + 1 + kind,
                    _ => max + 1 + sizes() as usize,
                };
                let entries = shaped(kind, n, 3, (max * 64 + min) as u64);
                let pack = || {
                    let corners = |i: usize| (entries[i].0.as_slice(), entries[i].1.as_slice());
                    walrus_rstar::bulk_load(3, params, n, corners, |i| i).unwrap()
                };
                let tree = pack();
                let leaves = tree.check_invariants();
                let want = n.div_ceil(max);
                let case = format!("M {max}, m {min}, shape {kind}, n {n}");
                assert_eq!(leaves.len(), want, "{case}");
                let (fewest, most) = (n / want, n.div_ceil(want));
                assert!(leaves.iter().all(|&l| (fewest..=most).contains(&l)), "{case}: {leaves:?}");
                assert!(fewest >= min && most <= max, "{case}");
                assert_eq!(probe_all(&tree, 3), probe_all(&pack(), 3), "{case}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The descent refuses a subtree only when no entry in it can be a hit:
    /// on grown and packed trees of points or boxes, an ε-ball search
    /// returns exactly the entries [`Probe::test`] hits in a linear scan —
    /// at ε = 0, at ε equal to an entry's distance, and just below it,
    /// where a bound's distance ties an entry's.
    #[test]
    fn the_descent_refuses_no_hit(
        dims in prop::sample::select(vec![2usize, 3, 12]),
        n in 1usize..700,
        packed in any::<bool>(),
        boxed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut next = grid(seed, 8);
        let entries: Vec<Rect> = (0..n)
            .map(|_| {
                let lo: Vec<f32> = (0..dims).map(|_| next()).collect();
                let hi = lo.iter().map(|&v| if boxed { v + next() * 0.25 } else { v }).collect();
                Rect::new(lo, hi).unwrap()
            })
            .collect();
        let tree = if packed {
            let corners = |i: usize| (entries[i].min(), entries[i].max());
            walrus_rstar::bulk_load(dims, RStarParams::default(), n, corners, |i| i).unwrap()
        } else {
            let mut tree = RStarTree::with_dims(dims).unwrap();
            for (i, r) in entries.iter().enumerate() {
                tree.insert(r.clone(), i).unwrap();
            }
            tree
        };
        for k in 0..12 {
            // Half the probes sit on an entry's corner, half off the grid.
            let q: Vec<f32> = match k % 2 {
                0 => entries[(next() * n as f32) as usize % n].max().to_vec(),
                _ => (0..dims).map(|_| next() + 1.0 / 16.0).collect(),
            };
            let target = &entries[(next() * n as f32) as usize % n];
            let exact = target.min_dist_sq(&q).sqrt() as f32;
            for eps in [0.0, exact, exact.next_down().max(0.0)] {
                let probe = Probe::within(&q, eps).unwrap();
                let want: Vec<usize> = (0..n)
                    .filter(|&i| probe.test(entries[i].min(), entries[i].max()) == Verdict::Hit)
                    .collect();
                prop_assert_eq!(search(&tree, &probe), want, "eps {}", eps);
            }
        }
    }
}
