//! Property-based tests for the BIRCH substrate: CF algebra laws and
//! clustering invariants over arbitrary point clouds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walrus_birch::{precluster, precluster_flat, BirchParams, CfTree, ClusteringFeature, Guard};

fn points(dims: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-2.0f32..2.0, dims), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cf_merge_is_associative_and_commutative(pts in points(3, 3..30)) {
        let third = pts.len() / 3;
        let cf_of = |slice: &[Vec<f32>]| {
            let mut cf = ClusteringFeature::empty(3);
            for p in slice {
                cf.add_point(p);
            }
            cf
        };
        let a = cf_of(&pts[..third]);
        let b = cf_of(&pts[third..2 * third]);
        let c = cf_of(&pts[2 * third..]);
        let ab_c = a.merged(&b).merged(&c);
        let a_bc = a.merged(&b.merged(&c));
        let ba_c = b.merged(&a).merged(&c);
        prop_assert_eq!(ab_c.count(), a_bc.count());
        for ((x, y), z) in ab_c.centroid().iter().zip(a_bc.centroid()).zip(ba_c.centroid()) {
            prop_assert!((x - y).abs() < 1e-9);
            prop_assert!((x - z).abs() < 1e-9);
        }
        prop_assert!((ab_c.radius() - a_bc.radius()).abs() < 1e-9);
    }

    #[test]
    fn cf_radius_bounds_member_rms(pts in points(2, 2..40)) {
        // Radius = RMS distance to centroid, computed incrementally, must
        // match the direct computation.
        let mut cf = ClusteringFeature::empty(2);
        for p in &pts {
            cf.add_point(p);
        }
        let c = cf.centroid();
        let rms = (pts
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&c)
                    .map(|(&v, m)| (v as f64 - m) * (v as f64 - m))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / pts.len() as f64)
            .sqrt();
        prop_assert!((cf.radius() - rms).abs() < 1e-6, "{} vs {}", cf.radius(), rms);
    }

    #[test]
    fn tree_conserves_points_and_respects_threshold(
        pts in points(3, 1..120),
        threshold in 0.0f64..0.5,
    ) {
        let mut tree = CfTree::new(3, BirchParams { threshold, ..Default::default() }).unwrap();
        for p in &pts {
            tree.insert(p).unwrap();
        }
        prop_assert_eq!(tree.num_points(), pts.len() as u64);
        let entries = tree.leaf_entry_clones();
        let total: u64 = entries.iter().map(|e| e.count()).sum();
        prop_assert_eq!(total, pts.len() as u64);
        for e in &entries {
            prop_assert!(e.radius() <= threshold + 1e-9, "radius {} > {}", e.radius(), threshold);
        }
        // Mass-weighted centroid is conserved.
        for d in 0..3 {
            let direct: f64 = pts.iter().map(|p| p[d] as f64).sum();
            let via_cf: f64 = entries.iter().map(|e| e.centroid()[d] * e.count() as f64).sum();
            prop_assert!((direct - via_cf).abs() < 1e-4);
        }
    }

    #[test]
    fn precluster_membership_partitions_input(pts in points(2, 1..80), eps in 0.0f64..0.6) {
        let result = precluster(&pts, eps, None).unwrap();
        prop_assert_eq!(result.assignments.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for (c, cluster) in result.clusters.iter().enumerate() {
            for &m in &cluster.members {
                prop_assert!(!seen[m], "point {} assigned twice", m);
                seen[m] = true;
                prop_assert_eq!(result.assignments[m], c);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every point must belong to a cluster");
    }

    #[test]
    fn precluster_centroid_inside_member_bbox(pts in points(4, 1..60)) {
        let result = precluster(&pts, 0.2, None).unwrap();
        for cluster in &result.clusters {
            for ((c, lo), hi) in
                cluster.centroid().iter().zip(&cluster.bbox_min).zip(&cluster.bbox_max)
            {
                prop_assert!(*c >= lo - 1e-5);
                prop_assert!(*c <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn budget_always_respected(pts in points(2, 10..150)) {
        let budget = 8;
        let result = precluster(&pts, 0.0, Some(budget)).unwrap();
        prop_assert!(result.clusters.len() <= budget);
        let total: usize = result.clusters.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(total, pts.len());
    }

    #[test]
    fn flat_precluster_equals_the_nested_adapter(
        pts in points(5, 1..90),
        eps in 0.0f64..0.4,
        budget in 0usize..20,
    ) {
        let budget = (budget >= 4).then_some(budget);
        let nested = precluster(&pts, eps, budget).unwrap();
        let flat = precluster_flat(&pts.concat(), 5, eps, budget, &Guard::none()).unwrap();
        prop_assert_eq!(&nested.assignments, &flat.assignments);
        prop_assert_eq!(nested.final_threshold.to_bits(), flat.final_threshold.to_bits());
        prop_assert_eq!((nested.splits, nested.rebuilds), (flat.splits, flat.rebuilds));
        prop_assert_eq!(nested.clusters.len(), flat.clusters.len());
        for (a, b) in nested.clusters.iter().zip(&flat.clusters) {
            prop_assert_eq!(&a.cf, &b.cf);
            prop_assert_eq!(&a.members, &b.members);
            prop_assert_eq!(&a.bbox_min, &b.bbox_min);
            prop_assert_eq!(&a.bbox_max, &b.bbox_max);
        }
    }
}

/// Seeded 12-d cloud shaped like window signatures: a few tight blobs, a
/// background of noise, and exact duplicates (so equal-distance ties occur).
fn signature_cloud(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> =
        (0..7).map(|_| (0..12).map(|_| rng.gen::<f32>()).collect()).collect();
    let mut pts: Vec<Vec<f32>> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 10 == 9 {
            pts.push((0..12).map(|_| rng.gen::<f32>()).collect());
        } else if i % 17 == 16 {
            let earlier = pts[rng.gen_range(0..i)].clone();
            pts.push(earlier);
        } else {
            let c = &centers[i % centers.len()];
            pts.push(c.iter().map(|v| v + rng.gen_range(-0.04..0.04f32)).collect());
        }
    }
    pts
}

/// `(clusters, splits, rebuilds, threshold bits, height, FNV-1a over every
/// leaf entry's count, centroid bits and radius bits in leaf order)`.
fn tree_shape(threshold: f64, budget: Option<usize>) -> (usize, usize, usize, u64, usize, u64) {
    let params = BirchParams { threshold, max_leaf_entries: budget, ..BirchParams::default() };
    let mut tree = CfTree::new(12, params).unwrap();
    for p in signature_cloud(4_000, 0xB1C4) {
        tree.insert(&p).unwrap();
    }
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            fnv ^= b as u64;
            fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in tree.leaf_entry_clones() {
        eat(e.count());
        for c in e.centroid() {
            eat(c.to_bits());
        }
        eat(e.radius().to_bits());
    }
    (
        tree.num_clusters(),
        tree.split_count(),
        tree.rebuild_count(),
        tree.threshold().to_bits(),
        tree.height(),
        fnv,
    )
}

#[test]
fn tree_shape_is_pinned_to_the_boxed_tree() {
    // Constants captured by running this test at fe92441 (boxed nodes, one
    // heap CF per entry): the arena must grow the same tree through plain
    // insertion, through one rebuild, and through repeated escalation.
    let got = [
        tree_shape(0.05, None),
        tree_shape(0.0, Some(64)),
        tree_shape(0.02, Some(200)),
        tree_shape(0.1, Some(300)),
    ];
    assert_eq!(
        got,
        [
            (1830, 470, 0, 4587366580439587226, 5, 16120489090282463146),
            (1, 56, 4, 4607742813988332594, 1, 15624502387087069621),
            (184, 187, 3, 4602710203924229189, 3, 17171124318708279505),
            (248, 113, 1, 4601374397249778013, 3, 88212549036892869),
        ]
    );
}
