//! The pre-clustering driver used by WALRUS (paper §5.3).
//!
//! `precluster_flat(points, dims, ε_c, …)` runs one CF-tree pass over all
//! points and harvests the leaf entries as clusters. Because WALRUS also needs the
//! *membership* of each cluster (to build the region's pixel bitmap), a
//! second linear pass assigns every input point to its nearest cluster
//! centroid — the same refinement BIRCH performs in its optional phase 4.
//! That pass does not scan every cluster: it searches the centroids sorted
//! on their widest axis and stops each direction once the axis distance
//! alone is too far (`SortedAxis`), which gives the scan's answer bit for
//! bit, ties to the lowest cluster index included. Points must be finite.

use crate::cf::ClusteringFeature;
use crate::tree::{BirchParams, CfTree};
use crate::{BirchError, Result};
use walrus_guard::Guard;

/// How many points the guarded pre-clustering loops process between guard
/// polls: frequent enough to stop within a fraction of a millisecond of
/// cancellation, rare enough to be free for plain requests.
const GUARD_POLL_STRIDE: usize = 256;

/// One harvested cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The cluster's CF (exact centroid/radius of the points the tree
    /// absorbed into it).
    pub cf: ClusteringFeature,
    /// Indices (into the input slice) of points assigned to this cluster by
    /// the nearest-centroid pass.
    pub members: Vec<usize>,
    /// Per-dimension minimum over assigned members (the signature bounding
    /// box the paper offers as an alternative to centroids).
    pub bbox_min: Vec<f32>,
    /// Per-dimension maximum over assigned members.
    pub bbox_max: Vec<f32>,
}

impl Cluster {
    /// Cluster centroid as `f32`.
    pub fn centroid(&self) -> Vec<f32> {
        self.cf.centroid_f32()
    }

    /// Cluster radius.
    pub fn radius(&self) -> f64 {
        self.cf.radius()
    }
}

/// The result of a pre-clustering run.
#[derive(Debug, Clone)]
pub struct Preclustering {
    /// Clusters with non-empty assigned membership.
    pub clusters: Vec<Cluster>,
    /// `assignments[i]` is the cluster index of input point `i`.
    pub assignments: Vec<usize>,
    /// Final CF-tree threshold (≥ the requested `ε_c` if rebuilds fired).
    pub final_threshold: f64,
    /// CF-tree node splits (leaf + internal) during the insertion pass.
    pub splits: usize,
    /// Threshold-escalation rebuilds during the insertion pass.
    pub rebuilds: usize,
    /// Full point-to-centroid distances the nearest-centroid assignment
    /// computed (at most `k` per point, none when there is one cluster).
    pub assign_distances: usize,
}

/// Clusters `points` with a radius threshold of `epsilon` (WALRUS's `ε_c`).
/// `budget` optionally caps the number of clusters the CF-tree may hold
/// before escalating its threshold. Flattens the points and runs
/// [`precluster_flat`].
///
/// ```
/// let mut points: Vec<Vec<f32>> = Vec::new();
/// for i in 0..10 {
///     points.push(vec![0.0 + i as f32 * 0.01, 0.0]); // blob A
///     points.push(vec![5.0 - i as f32 * 0.01, 5.0]); // blob B
/// }
/// let result = walrus_birch::precluster(&points, 0.5, None)?;
/// assert_eq!(result.clusters.len(), 2);
/// // Every point is assigned, and radii respect the threshold.
/// assert_eq!(result.assignments.len(), 20);
/// assert!(result.clusters.iter().all(|c| c.radius() <= 0.5));
/// # Ok::<(), walrus_birch::BirchError>(())
/// ```
pub fn precluster(points: &[Vec<f32>], epsilon: f64, budget: Option<usize>) -> Result<Preclustering> {
    let dims = points.first().map_or(0, Vec::len);
    let mut flat = Vec::with_capacity(points.len() * dims);
    for p in points {
        if p.len() != dims {
            return Err(BirchError::DimensionMismatch { expected: dims, got: p.len() });
        }
        flat.extend_from_slice(p);
    }
    if !points.is_empty() && dims == 0 {
        return Err(BirchError::BadParams("dimensionality must be >= 1".into()));
    }
    precluster_flat(&flat, dims, epsilon, budget, &Guard::none())
}

/// Pre-clusters the rows of a `points.len() / dims × dims` row-major matrix
/// — the layout the sliding-window sweep produces — under a request
/// [`Guard`]: both linear passes (CF-tree insertion and nearest-centroid
/// assignment) poll the guard every 256 points, returning
/// [`BirchError::Interrupted`] when it trips. Member and assignment indices
/// are row numbers. A NaN or infinite coordinate is refused with
/// [`BirchError::BadParams`] naming its row.
pub fn precluster_flat(
    points: &[f32],
    dims: usize,
    epsilon: f64,
    budget: Option<usize>,
    guard: &Guard,
) -> Result<Preclustering> {
    if points.is_empty() {
        return Ok(Preclustering {
            clusters: Vec::new(),
            assignments: Vec::new(),
            final_threshold: epsilon,
            splits: 0,
            rebuilds: 0,
            assign_distances: 0,
        });
    }
    let params = BirchParams {
        threshold: epsilon,
        max_leaf_entries: budget,
        ..BirchParams::default()
    };
    // Rejects `dims == 0`, so the remainder below is defined.
    let mut tree = CfTree::new(dims, params)?;
    if points.len() % dims != 0 {
        return Err(BirchError::DimensionMismatch { expected: dims, got: points.len() % dims });
    }
    // A non-finite coordinate would leave the sorted-axis search without an
    // order to prune by; finite points give finite centroids and distances.
    if let Some(bad) = points.iter().position(|v| !v.is_finite()) {
        return Err(BirchError::BadParams(format!("point {} has a non-finite coordinate", bad / dims)));
    }
    let count = points.len() / dims;
    let point = |i: usize| &points[i * dims..(i + 1) * dims];
    for i in 0..count {
        if i % GUARD_POLL_STRIDE == 0 {
            guard.poll()?;
        }
        tree.insert(point(i))?;
    }

    // Nearest-centroid assignment pass. The harvested centroids are rounded
    // to `f32` (they become region signatures) and widened back once.
    let k = tree.num_clusters();
    let centroids: Vec<f64> = tree.leaf_centroids().iter().map(|&v| v as f32 as f64).collect();
    // With one cluster every point is its member and nothing is measured.
    let axis = (k > 1).then(|| SortedAxis::new(&centroids, dims));
    let mut assignments = Vec::with_capacity(count);
    let mut assign_distances = 0usize;
    let mut sizes = vec![0usize; k];
    let mut prev = 0usize;
    for i in 0..count {
        if i % GUARD_POLL_STRIDE == 0 {
            guard.poll()?;
        }
        if let Some(axis) = &axis {
            let (best, computed) = axis.nearest(point(i), prev);
            assign_distances += computed;
            prev = best;
        }
        assignments.push(prev);
        sizes[prev] += 1;
    }
    let mut members: Vec<Vec<usize>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }

    // Harvest clusters with membership and signature bounding boxes,
    // dropping entries that attracted no members (possible when the
    // assignment pass disagrees with the insertion path) and remapping
    // assignment indices accordingly. Each cluster's CF is *recomputed*
    // from its assigned members (the BIRCH phase-4 refinement), so the
    // centroid is guaranteed consistent with the membership — in
    // particular it always lies inside the members' bounding box.
    let mut remap = vec![usize::MAX; k];
    let mut clusters = Vec::new();
    for (c, member) in members.into_iter().enumerate() {
        if member.is_empty() {
            continue;
        }
        let mut cf = ClusteringFeature::empty(dims);
        let mut bbox_min = point(member[0]).to_vec();
        let mut bbox_max = point(member[0]).to_vec();
        for &i in &member {
            cf.add_point(point(i));
            for (d, &v) in point(i).iter().enumerate() {
                if v < bbox_min[d] {
                    bbox_min[d] = v;
                }
                if v > bbox_max[d] {
                    bbox_max[d] = v;
                }
            }
        }
        remap[c] = clusters.len();
        clusters.push(Cluster { cf, members: member, bbox_min, bbox_max });
    }
    for a in &mut assignments {
        *a = remap[*a];
        debug_assert_ne!(*a, usize::MAX);
    }
    Ok(Preclustering {
        clusters,
        assignments,
        final_threshold: tree.threshold(),
        splits: tree.split_count(),
        rebuilds: tree.rebuild_count(),
        assign_distances,
    })
}

/// Squared distance from a widened centroid to a point, summed in dimension
/// order from 0. Every term is non-negative and rounding is monotone, so the
/// sum is at least any one of its terms as computed here — the bound
/// [`SortedAxis::nearest`] prunes by.
fn sq_distance(centroid: &[f64], point: &[f32]) -> f64 {
    centroid.iter().zip(point).fold(0.0, |acc, (&c, &p)| {
        let p = p as f64;
        acc + (c - p) * (c - p)
    })
}

/// The clusters sorted on one axis, for the exact pruned nearest-centroid
/// search of Friedman, Baskett & Shustek (IEEE Trans. Computers, 1975).
struct SortedAxis<'a> {
    /// Row-major widened centroids, all finite.
    centroids: &'a [f64],
    dims: usize,
    /// The dimension in which the centroids spread widest (the first such).
    axis: usize,
    /// Cluster indices in ascending order of their coordinate on `axis`,
    /// ties by index.
    order: Vec<usize>,
    /// `keys[j]` is cluster `order[j]`'s coordinate on `axis`.
    keys: Vec<f64>,
}

impl<'a> SortedAxis<'a> {
    /// Sorts the row-major `centroids` (all finite) on their widest axis.
    fn new(centroids: &'a [f64], dims: usize) -> Self {
        let k = centroids.len() / dims;
        let coord = |c: usize, d: usize| centroids[c * dims + d];
        let spread = |d: usize| {
            let (lo, hi) = (0..k)
                .map(|c| coord(c, d))
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
            hi - lo
        };
        let mut axis = 0;
        let mut widest = spread(0);
        for d in 1..dims {
            let s = spread(d);
            if s > widest {
                axis = d;
                widest = s;
            }
        }
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_unstable_by(|&a, &b| coord(a, axis).total_cmp(&coord(b, axis)).then(a.cmp(&b)));
        let keys = order.iter().map(|&c| coord(c, axis)).collect();
        SortedAxis { centroids, dims, axis, order, keys }
    }

    /// The cluster nearest to `point` — the lowest-index minimum of
    /// [`sq_distance`] — and how many distances it computed. Starts from
    /// cluster `start`'s distance, then walks outward from the point's place
    /// on the sorted axis in both directions, stopping a direction once the
    /// axis term alone exceeds the best distance so far. That term is
    /// computed as the full sum computes it, so it bounds the sum from below;
    /// and `fl(key − x)` is monotone in `key`, so every later cluster in that
    /// direction is farther still. Among equal distances the lower index
    /// wins, as in a scan that keeps the first minimum.
    fn nearest(&self, point: &[f32], start: usize) -> (usize, usize) {
        let distance = |c: usize| sq_distance(&self.centroids[c * self.dims..(c + 1) * self.dims], point);
        let x = point[self.axis] as f64;
        let mut best_c = start;
        let mut best = distance(start);
        let mut computed = 1;
        // Visits sorted position `j`; false once the direction is done.
        let mut visit = |j: usize| {
            let key = self.keys[j];
            if (key - x) * (key - x) > best {
                return false;
            }
            let c = self.order[j];
            if c != start {
                let d = distance(c);
                computed += 1;
                if d < best || (d == best && c < best_c) {
                    best = d;
                    best_c = c;
                }
            }
            true
        };
        let split = self.keys.partition_point(|&key| key < x);
        let (mut up, mut down) = (split, split);
        let (mut up_open, mut down_open) = (true, true);
        while up_open || down_open {
            if up_open {
                up_open = up < self.keys.len() && visit(up);
                up += 1;
            }
            if down_open {
                down_open = down > 0 && visit(down - 1);
                down = down.saturating_sub(1);
            }
        }
        (best_c, computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f32, cy: f32, n: usize, spread: f32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let dx = ((i * 37 % 17) as f32 / 17.0 - 0.5) * spread;
                let dy = ((i * 61 % 19) as f32 / 19.0 - 0.5) * spread;
                vec![cx + dx, cy + dy]
            })
            .collect()
    }

    #[test]
    fn empty_input() {
        let r = precluster(&[], 0.1, None).unwrap();
        assert!(r.clusters.is_empty());
        assert!(r.assignments.is_empty());
    }

    #[test]
    fn separated_blobs_recovered() {
        let mut pts = blob(0.0, 0.0, 30, 0.1);
        pts.extend(blob(5.0, 5.0, 30, 0.1));
        pts.extend(blob(-5.0, 5.0, 30, 0.1));
        let r = precluster(&pts, 0.3, None).unwrap();
        assert_eq!(r.clusters.len(), 3, "expected 3 clusters, got {}", r.clusters.len());
        // Membership covers every point exactly once.
        let total: usize = r.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 90);
        // Points from the same blob share an assignment.
        assert_eq!(r.assignments[0], r.assignments[29]);
        assert_ne!(r.assignments[0], r.assignments[30]);
    }

    #[test]
    fn assignments_and_members_are_consistent() {
        let mut pts = blob(0.0, 0.0, 20, 0.2);
        pts.extend(blob(3.0, 0.0, 20, 0.2));
        let r = precluster(&pts, 0.3, None).unwrap();
        for (c, cluster) in r.clusters.iter().enumerate() {
            for &m in &cluster.members {
                assert_eq!(r.assignments[m], c);
            }
        }
    }

    #[test]
    fn bbox_contains_all_members() {
        let pts = blob(1.0, 2.0, 40, 0.5);
        let r = precluster(&pts, 1.0, None).unwrap();
        for cluster in &r.clusters {
            for &m in &cluster.members {
                for (d, &v) in pts[m].iter().enumerate() {
                    assert!(v >= cluster.bbox_min[d] - 1e-6);
                    assert!(v <= cluster.bbox_max[d] + 1e-6);
                }
            }
        }
    }

    #[test]
    fn smaller_epsilon_gives_more_clusters() {
        // The §6.6 monotonicity: cluster count decreases as ε_c increases.
        let mut pts = Vec::new();
        for i in 0..200u32 {
            let x = ((i.wrapping_mul(2654435761)) % 1000) as f32 / 1000.0;
            let y = ((i.wrapping_mul(40503)) % 1000) as f32 / 1000.0;
            pts.push(vec![x, y]);
        }
        let tight = precluster(&pts, 0.05, None).unwrap().clusters.len();
        let loose = precluster(&pts, 0.4, None).unwrap().clusters.len();
        assert!(tight > loose, "tight {tight} should exceed loose {loose}");
    }

    #[test]
    fn budget_limits_cluster_count() {
        let pts: Vec<Vec<f32>> = (0..300).map(|i| vec![i as f32, 0.0]).collect();
        let r = precluster(&pts, 0.0, Some(10)).unwrap();
        assert!(r.clusters.len() <= 10);
        assert!(r.final_threshold > 0.0);
        let total: usize = r.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn single_point() {
        let r = precluster(&[vec![1.0, 2.0, 3.0]], 0.1, None).unwrap();
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].members, vec![0]);
        assert_eq!(r.clusters[0].centroid(), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.clusters[0].bbox_min, r.clusters[0].bbox_max);
    }

    #[test]
    fn guarded_precluster_matches_and_interrupts() {
        use walrus_guard::{Guard, Interrupt};
        let mut pts = blob(0.0, 0.0, 30, 0.1);
        pts.extend(blob(5.0, 5.0, 30, 0.1));
        let plain = precluster(&pts, 0.3, None).unwrap();
        let flat: Vec<f32> = pts.concat();
        let guarded = precluster_flat(&flat, 2, 0.3, None, &Guard::none()).unwrap();
        assert_eq!(plain.assignments, guarded.assignments);
        assert_eq!(plain.clusters.len(), guarded.clusters.len());

        let guard = Guard::none().trip_after(0, Interrupt::Cancelled);
        let err = precluster_flat(&flat, 2, 0.3, None, &guard).unwrap_err();
        assert_eq!(err, BirchError::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn malformed_matrices_are_rejected() {
        use crate::BirchError;
        // A matrix whose length is not a multiple of `dims`, zero `dims`,
        // and ragged nested rows.
        assert_eq!(
            precluster_flat(&[0.0; 7], 3, 0.1, None, &Guard::none()).unwrap_err(),
            BirchError::DimensionMismatch { expected: 3, got: 1 }
        );
        assert!(matches!(
            precluster_flat(&[0.0; 4], 0, 0.1, None, &Guard::none()),
            Err(BirchError::BadParams(_))
        ));
        assert_eq!(
            precluster(&[vec![0.0, 1.0], vec![2.0]], 0.1, None).unwrap_err(),
            BirchError::DimensionMismatch { expected: 2, got: 1 }
        );
        assert!(matches!(precluster(&[vec![], vec![]], 0.1, None), Err(BirchError::BadParams(_))));
    }

    /// The assignment loop the sorted-axis search replaced, kept as its
    /// oracle: centroids dimension-major, each cluster's squared distance
    /// accumulated in dimension order, the first minimum wins.
    fn scan_assign(centroids: &[f64], dims: usize, points: &[f32]) -> Vec<usize> {
        let k = centroids.len() / dims;
        let mut by_dim = vec![0.0f64; dims * k];
        for (c, centroid) in centroids.chunks_exact(dims).enumerate() {
            for (d, &v) in centroid.iter().enumerate() {
                by_dim[d * k + c] = v;
            }
        }
        let mut dist = vec![0.0f64; k];
        points
            .chunks_exact(dims)
            .map(|p| {
                dist.fill(0.0);
                for (&p, row) in p.iter().zip(by_dim.chunks_exact(k)) {
                    let p = p as f64;
                    for (acc, &c) in dist.iter_mut().zip(row) {
                        *acc += (c - p) * (c - p);
                    }
                }
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, &d) in dist.iter().enumerate() {
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                best
            })
            .collect()
    }

    /// Runs the CF-tree pass `precluster_flat` runs, and the oracle over its
    /// widened centroids, with clusters that drew no member dropped.
    fn oracle(points: &[f32], dims: usize, epsilon: f64) -> (usize, Vec<usize>) {
        let params = BirchParams { threshold: epsilon, ..BirchParams::default() };
        let mut tree = CfTree::new(dims, params).unwrap();
        for p in points.chunks_exact(dims) {
            tree.insert(p).unwrap();
        }
        let centroids: Vec<f64> = tree.leaf_centroids().iter().map(|&v| v as f32 as f64).collect();
        let raw = scan_assign(&centroids, dims, points);
        let k = centroids.len() / dims;
        let mut used = vec![false; k];
        raw.iter().for_each(|&c| used[c] = true);
        let rank: Vec<usize> =
            used.iter().scan(0, |n, &u| Some(std::mem::replace(n, *n + u as usize))).collect();
        (k, raw.iter().map(|&c| rank[c]).collect())
    }

    #[test]
    fn sorted_axis_assignment_matches_the_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut ks = Vec::new();
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dims = [1, 2, 3, 12][seed as usize % 4];
            let n = rng.gen_range(1..400usize);
            // Uniform values, or a few small integers: the latter make
            // duplicate centroids and points equidistant from two of them.
            let grid = seed % 3 == 0;
            let points: Vec<f32> = (0..n * dims)
                .map(|_| if grid { rng.gen_range(0..4u32) as f32 } else { rng.gen::<f32>() })
                .collect();
            for epsilon in [0.0, 0.02, 0.1, 0.5, 1e9] {
                let (k, expected) = oracle(&points, dims, epsilon);
                let got = precluster_flat(&points, dims, epsilon, None, &Guard::none()).unwrap();
                assert_eq!(got.assignments, expected, "seed {seed} ε {epsilon} k {k}");
                assert!(got.assign_distances <= k * n);
                if k == 1 {
                    assert_eq!(got.assign_distances, 0);
                }
                ks.push(k);
            }
        }
        // Identical points: one cluster at ε_c = 0, nothing measured.
        let same = vec![0.25f32; 3 * 50];
        let got = precluster_flat(&same, 3, 0.0, None, &Guard::none()).unwrap();
        assert_eq!(got.assignments, oracle(&same, 3, 0.0).1);
        assert_eq!(got.assign_distances, 0);
        assert!(ks.contains(&1) && ks.iter().any(|&k| k > 100), "k covered {ks:?}");
    }

    #[test]
    fn sorted_axis_search_breaks_ties_by_index() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Clusters 0 and 3 share a centroid, and 1 and 2 straddle (1, 1):
        // the point (0, 0) ties clusters 0 and 3 at 0, and (1, 1) ties
        // clusters 1 and 2 at 1.
        let centroids = [0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 5.0, 4.0];
        let axis = SortedAxis::new(&centroids, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut points = vec![1.0f32, 1.0, 0.0, 0.0, 1.0, 0.5, 3.5, 3.5];
        points.extend((0..200).map(|_| rng.gen_range(0..6u32) as f32 * 0.5));
        let expected = scan_assign(&centroids, 2, &points);
        assert_eq!(expected[..2], [1, 0]);
        assert_eq!(axis.axis, 0);
        for (p, &want) in points.chunks_exact(2).zip(&expected) {
            // Whatever cluster the search starts from, a tied lower index
            // displaces it.
            for start in 0..5 {
                let (got, computed) = axis.nearest(p, start);
                assert_eq!(got, want, "point {p:?} from cluster {start}");
                assert!((1..=5).contains(&computed));
            }
        }
    }

    #[test]
    fn non_finite_points_are_refused() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut flat = vec![0.5f32; 2 * 4];
            flat[5] = bad;
            let err = precluster_flat(&flat, 2, 0.1, None, &Guard::none()).unwrap_err();
            assert_eq!(err, BirchError::BadParams("point 2 has a non-finite coordinate".into()));
            let nested = vec![vec![0.0f32, 1.0], vec![bad, 0.0]];
            assert!(matches!(precluster(&nested, 0.1, None), Err(BirchError::BadParams(_))));
        }
    }

    #[test]
    fn duplicate_points_collapse() {
        let pts = vec![vec![0.5f32, 0.5]; 50];
        let r = precluster(&pts, 0.0, None).unwrap();
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].members.len(), 50);
        assert_eq!(r.clusters[0].radius(), 0.0);
    }
}
