//! The pre-clustering driver used by WALRUS (paper §5.3).
//!
//! `precluster_flat(points, dims, ε_c, …)` runs one CF-tree pass over all
//! points and harvests the leaf entries as clusters. Because WALRUS also needs the
//! *membership* of each cluster (to build the region's pixel bitmap), a
//! second linear pass assigns every input point to its nearest cluster
//! centroid — the same refinement BIRCH performs in its optional phase 4.

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
/// assignment) poll the guard every [`GUARD_POLL_STRIDE`] points, returning
/// [`BirchError::Interrupted`] when it trips. Member and assignment indices
/// are row numbers.
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
    let count = points.len() / dims;
    let point = |i: usize| &points[i * dims..(i + 1) * dims];
    for i in 0..count {
        if i % GUARD_POLL_STRIDE == 0 {
            guard.poll()?;
        }
        tree.insert(point(i))?;
    }

    // Nearest-centroid assignment pass. The harvested centroids are rounded
    // to `f32` (they become region signatures) and widened back once, kept
    // dimension-major (`centroids[d · k + c]`): each cluster's squared
    // distance is still accumulated dimension by dimension, in order, but
    // the inner loop now runs across clusters and vectorizes.
    let k = tree.num_clusters();
    let mut centroids = vec![0.0f64; dims * k];
    for (c, centroid) in tree.leaf_centroids().chunks_exact(dims).enumerate() {
        for (d, &v) in centroid.iter().enumerate() {
            centroids[d * k + c] = v as f32 as f64;
        }
    }
    let mut assignments = Vec::with_capacity(count);
    let mut sizes = vec![0usize; k];
    let mut dist = vec![0.0f64; k];
    for i in 0..count {
        if i % GUARD_POLL_STRIDE == 0 {
            guard.poll()?;
        }
        dist.fill(0.0);
        for (&p, row) in point(i).iter().zip(centroids.chunks_exact(k)) {
            let p = p as f64;
            for (acc, &c) in dist.iter_mut().zip(row) {
                *acc += (c - p) * (c - p);
            }
        }
        // The first minimum wins; a NaN distance is never chosen.
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, &d) in dist.iter().enumerate() {
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        assignments.push(best);
        sizes[best] += 1;
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
    })
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

    #[test]
    fn duplicate_points_collapse() {
        let pts = vec![vec![0.5f32, 0.5]; 50];
        let r = precluster(&pts, 0.0, None).unwrap();
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].members.len(), 50);
        assert_eq!(r.clusters[0].radius(), 0.0);
    }
}
