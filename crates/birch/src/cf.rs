//! Clustering features: the constant-size cluster summaries of BIRCH.
//!
//! A clustering feature is the triple `CF = (N, LS, SS)` — point count,
//! per-dimension linear sum, and the scalar sum of squared norms. CFs are
//! additive (`CF(A ∪ B) = CF(A) + CF(B)`), which makes incremental
//! clustering O(1) per absorption, and they suffice to compute a cluster's
//! centroid and radius exactly.
//!
//! Accumulation is in `f64` even though input points are `f32`: SS grows as
//! the square of coordinate magnitudes times N, and the radius formula
//! subtracts two nearly-equal quantities, so `f32` accumulation loses the
//! radius entirely for large tight clusters.

/// A BIRCH clustering feature.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringFeature {
    n: u64,
    ls: Vec<f64>,
    ss: f64,
}

impl ClusteringFeature {
    /// An empty CF of the given dimensionality.
    pub fn empty(dims: usize) -> Self {
        Self { n: 0, ls: vec![0.0; dims], ss: 0.0 }
    }

    /// The CF of a single point.
    pub fn from_point(point: &[f32]) -> Self {
        let mut cf = Self::empty(point.len());
        cf.add_point(point);
        cf
    }

    /// A CF from its three sums.
    pub(crate) fn from_parts(n: u64, ls: Vec<f64>, ss: f64) -> Self {
        Self { n, ls, ss }
    }

    /// The three sums `(N, LS, SS)`.
    pub(crate) fn parts(&self) -> (u64, &[f64], f64) {
        (self.n, &self.ls, self.ss)
    }

    /// Dimensionality of the summarized points.
    pub fn dims(&self) -> usize {
        self.ls.len()
    }

    /// Number of points summarized.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds one point.
    pub fn add_point(&mut self, point: &[f32]) {
        debug_assert_eq!(point.len(), self.ls.len());
        self.n += 1;
        for (s, &p) in self.ls.iter_mut().zip(point) {
            *s += p as f64;
        }
        self.ss += point.iter().map(|&p| (p as f64) * (p as f64)).sum::<f64>();
    }

    /// Merges another CF into this one (`CF(A ∪ B)`).
    pub fn merge(&mut self, other: &ClusteringFeature) {
        debug_assert_eq!(self.dims(), other.dims());
        self.n += other.n;
        for (s, o) in self.ls.iter_mut().zip(&other.ls) {
            *s += o;
        }
        self.ss += other.ss;
    }

    /// The merged CF of `self` and `other`, leaving both untouched.
    pub fn merged(&self, other: &ClusteringFeature) -> ClusteringFeature {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Cluster centroid `LS / N`; all-zero for an empty CF.
    pub fn centroid(&self) -> Vec<f64> {
        if self.n == 0 {
            return vec![0.0; self.dims()];
        }
        self.ls.iter().map(|s| s / self.n as f64).collect()
    }

    /// Cluster radius: RMS distance of member points from the centroid,
    /// `R = sqrt(SS/N − ‖LS/N‖²)` (BIRCH eq. for R). Zero for N ≤ 1.
    pub fn radius(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let n = self.n as f64;
        let centroid_sq: f64 = self.ls.iter().map(|s| (s / n) * (s / n)).sum();
        (self.ss / n - centroid_sq).max(0.0).sqrt()
    }

    /// D0 metric: Euclidean distance between centroids.
    pub fn centroid_distance(&self, other: &ClusteringFeature) -> f64 {
        let (a, b) = (self.centroid(), other.centroid());
        a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    }

    /// Centroid as `f32` (signatures downstream are `f32`).
    pub fn centroid_f32(&self) -> Vec<f32> {
        self.centroid().into_iter().map(|v| v as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_radius(points: &[Vec<f32>]) -> f64 {
        let n = points.len() as f64;
        let dims = points[0].len();
        let mut centroid = vec![0.0f64; dims];
        for p in points {
            for (c, &v) in centroid.iter_mut().zip(p) {
                *c += v as f64 / n;
            }
        }
        let ms: f64 = points
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&centroid)
                    .map(|(&v, c)| (v as f64 - c) * (v as f64 - c))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / n;
        ms.sqrt()
    }

    fn sample_points() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 2.0, 0.0],
            vec![1.5, 1.0, -1.0],
            vec![0.5, 2.5, 0.5],
            vec![2.0, 2.0, 0.0],
            vec![1.0, 1.5, 0.25],
        ]
    }

    fn cf_of(points: &[Vec<f32>]) -> ClusteringFeature {
        let mut cf = ClusteringFeature::empty(points[0].len());
        for p in points {
            cf.add_point(p);
        }
        cf
    }

    #[test]
    fn centroid_matches_brute_force() {
        let pts = sample_points();
        let cf = cf_of(&pts);
        assert_eq!(cf.count(), 5);
        let c = cf.centroid();
        assert!((c[0] - 1.2).abs() < 1e-9);
        assert!((c[1] - 1.8).abs() < 1e-9);
    }

    #[test]
    fn radius_matches_brute_force() {
        let pts = sample_points();
        let cf = cf_of(&pts);
        assert!((cf.radius() - brute_radius(&pts)).abs() < 1e-9);
    }

    #[test]
    fn singleton_has_zero_radius() {
        let cf = ClusteringFeature::from_point(&[3.0, -1.0]);
        assert_eq!(cf.radius(), 0.0);
        assert_eq!(cf.centroid(), vec![3.0, -1.0]);
    }

    #[test]
    fn empty_cf_has_an_all_zero_centroid() {
        let cf = ClusteringFeature::empty(3);
        assert_eq!(cf.centroid(), vec![0.0; 3]);
        assert_eq!(cf.centroid_f32(), vec![0.0f32; 3]);
        assert_eq!(cf.radius(), 0.0);
    }

    #[test]
    fn merge_equals_batch_insertion() {
        let pts = sample_points();
        let a = cf_of(&pts[..2]);
        let b = cf_of(&pts[2..]);
        let merged = a.merged(&b);
        let whole = cf_of(&pts);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.radius() - whole.radius()).abs() < 1e-12);
        for (x, y) in merged.centroid().iter().zip(whole.centroid()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_is_commutative() {
        let pts = sample_points();
        let a = cf_of(&pts[..2]);
        let b = cf_of(&pts[2..]);
        assert_eq!(a.merged(&b), b.merged(&a));
    }

    #[test]
    fn centroid_distance_of_identical_clusters_is_zero() {
        let cf = cf_of(&sample_points());
        assert!(cf.centroid_distance(&cf) < 1e-12);
    }

    #[test]
    fn centroid_distance_of_translated_clusters() {
        let pts = sample_points();
        let shifted: Vec<Vec<f32>> =
            pts.iter().map(|p| p.iter().map(|v| v + 10.0).collect()).collect();
        let d = cf_of(&pts).centroid_distance(&cf_of(&shifted));
        assert!((d - 10.0 * 3.0f64.sqrt()).abs() < 1e-4);
    }

    #[test]
    fn numerical_stability_tight_cluster_far_from_origin() {
        // 1000 points in a ball of radius ~1e-3 centred at 1000: f32
        // accumulation would produce radius garbage here.
        let mut cf = ClusteringFeature::empty(2);
        for i in 0..1000 {
            let eps = (i % 7) as f32 * 1e-4;
            cf.add_point(&[1000.0 + eps, 1000.0 - eps]);
        }
        let r = cf.radius();
        assert!(r < 1e-2, "radius should stay tiny, got {r}");
        assert!(cf.centroid()[0] > 999.9 && cf.centroid()[0] < 1000.1);
    }
}
