//! Property-based tests for the R\*-tree: every query compared against a
//! linear scan, and structural invariants under random insert/remove
//! interleavings.

use proptest::prelude::*;
use walrus_rstar::{RStarTree, Rect};

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
        let mut got: Vec<usize> =
            tree.search_within(&q, eps).unwrap().into_iter().copied().collect();
        got.sort_unstable();
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
        let mut got: Vec<usize> = tree
            .search_intersecting(&probe_rect)
            .unwrap()
            .into_iter()
            .copied()
            .collect();
        got.sort_unstable();
        let mut want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&probe_rect))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn nearest_k_is_sorted_and_matches_scan(pts in point_vec(3, 1..150), q in proptest::collection::vec(0.0f32..1.0, 3), k in 1usize..20) {
        let mut tree = RStarTree::with_dims(3).unwrap();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(Rect::point(p).unwrap(), i).unwrap();
        }
        let got = tree.nearest_k(&q, k).unwrap();
        prop_assert_eq!(got.len(), k.min(pts.len()));
        for w in got.windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-9);
        }
        let mut dists: Vec<f64> = pts
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&q)
                    .map(|(&a, &b)| (a as f64 - b as f64) * (a as f64 - b as f64))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, want) in got.iter().zip(&dists) {
            prop_assert!((g.1 - want).abs() < 1e-6, "{} vs {}", g.1, want);
        }
    }

    #[test]
    fn invariants_survive_insert_remove_interleaving(
        pts in point_vec(2, 10..120),
        removals in proptest::collection::vec(any::<prop::sample::Index>(), 1..40),
    ) {
        let mut tree = RStarTree::with_dims(2).unwrap();
        let rects: Vec<Rect> = pts.iter().map(|p| Rect::point(p).unwrap()).collect();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(r.clone(), i).unwrap();
        }
        let mut alive: Vec<bool> = vec![true; pts.len()];
        for idx in &removals {
            let i = idx.index(pts.len());
            let removed = tree.remove(&rects[i], &i).unwrap();
            prop_assert_eq!(removed, alive[i], "removal result must reflect liveness");
            alive[i] = false;
        }
        tree.check_invariants();
        let expected_len = alive.iter().filter(|&&a| a).count();
        prop_assert_eq!(tree.len(), expected_len);
        // Every surviving point is still findable.
        for (i, r) in rects.iter().enumerate() {
            if alive[i] {
                let hits = tree.search_within(r.min(), 0.0).unwrap();
                prop_assert!(hits.iter().any(|&&v| v == i), "lost live point {}", i);
            }
        }
    }
}
