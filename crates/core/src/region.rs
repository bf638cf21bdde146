//! Image regions: the unit of WALRUS similarity.
//!
//! A region is a cluster of sliding windows with similar signatures. It
//! carries: the cluster centroid signature, the bounding box of member
//! signatures (the alternate representation of Definition 4.1), the coarse
//! pixel bitmap of the area its windows cover, and bookkeeping counts.

use crate::bitmap::RegionBitmap;
use crate::params::SignatureKind;
use walrus_rstar::Rect;
use walrus_wavelet::BinarySignature;

/// One extracted region of an image.
#[derive(Debug, Clone)]
pub struct Region {
    /// Cluster centroid in signature space.
    pub centroid: Vec<f32>,
    /// Per-dimension minimum of member signatures.
    pub bbox_min: Vec<f32>,
    /// Per-dimension maximum of member signatures.
    pub bbox_max: Vec<f32>,
    /// Coarse bitmap of pixels covered by the region's member windows.
    pub bitmap: RegionBitmap,
    /// Number of sliding windows in the cluster.
    pub window_count: usize,
    /// 128-bit thermometer code of `[bbox_min, bbox_max]`, used by the
    /// query prefilter. Always equal to
    /// `BinarySignature::from_bbox(&bbox_min, &bbox_max)` — derived by
    /// [`Region::new`] and rebuilt (and verified) on snapshot/WAL load.
    pub signature: BinarySignature,
}

impl Region {
    /// Builds a region, deriving its binary prefilter signature from the
    /// signature bounding box. The only way regions are constructed in the
    /// engine, so `signature` can never drift from the bbox it encodes.
    pub fn new(
        centroid: Vec<f32>,
        bbox_min: Vec<f32>,
        bbox_max: Vec<f32>,
        bitmap: RegionBitmap,
        window_count: usize,
    ) -> Region {
        let signature = BinarySignature::from_bbox(&bbox_min, &bbox_max);
        Region { centroid, bbox_min, bbox_max, bitmap, window_count, signature }
    }

    /// Signature dimensionality.
    pub fn dims(&self) -> usize {
        self.centroid.len()
    }

    /// Pixel area covered by this region (from the coarse bitmap).
    pub fn area(&self) -> usize {
        self.bitmap.area()
    }

    /// Lower and upper corner of what this region is indexed under: its
    /// centroid twice (a degenerate point) for centroid signatures, the
    /// signature bounding box otherwise.
    pub fn index_corners(&self, kind: SignatureKind) -> (&[f32], &[f32]) {
        match kind {
            SignatureKind::Centroid => (&self.centroid, &self.centroid),
            SignatureKind::BoundingBox => (&self.bbox_min, &self.bbox_max),
        }
    }

    /// [`Region::index_corners`] as the rectangle a one-at-a-time index
    /// insert takes.
    pub fn index_rect(&self, kind: SignatureKind) -> Rect {
        let (lo, hi) = self.index_corners(kind);
        Rect::new(lo.to_vec(), hi.to_vec())
            .expect("finite signatures with bbox_min ≤ bbox_max (extraction and decode ensure both)")
    }

    /// L2 distance between this region's centroid and another's.
    pub fn centroid_distance(&self, other: &Region) -> f32 {
        walrus_wavelet::sliding::l2_distance(&self.centroid, &other.centroid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_region() -> Region {
        let mut bitmap = RegionBitmap::new(64, 64, 16);
        bitmap.mark_window(0, 0, 32, 32);
        Region::new(
            vec![0.5, 0.1, 0.2, 0.0],
            vec![0.4, 0.05, 0.15, -0.1],
            vec![0.6, 0.15, 0.25, 0.1],
            bitmap,
            9,
        )
    }

    #[test]
    fn area_comes_from_bitmap() {
        let r = demo_region();
        assert_eq!(r.area(), 32 * 32);
        assert_eq!(r.dims(), 4);
    }

    #[test]
    fn centroid_index_rect_is_point() {
        let r = demo_region();
        let rect = r.index_rect(SignatureKind::Centroid);
        assert_eq!(rect.min(), rect.max());
        assert_eq!(rect.min(), r.centroid.as_slice());
    }

    #[test]
    fn bbox_index_rect_spans_members() {
        let r = demo_region();
        let rect = r.index_rect(SignatureKind::BoundingBox);
        assert_eq!(rect.min(), r.bbox_min.as_slice());
        assert_eq!(rect.max(), r.bbox_max.as_slice());
        assert!(rect.area() > 0.0);
    }

    #[test]
    fn constructor_derives_binary_signature() {
        let r = demo_region();
        assert_eq!(r.signature, BinarySignature::from_bbox(&r.bbox_min, &r.bbox_max));
        assert_ne!(r.signature, BinarySignature::default(), "demo bbox must set some bits");
    }

    #[test]
    fn centroid_distance_is_euclidean() {
        let a = demo_region();
        let mut b = demo_region();
        b.centroid = vec![0.5, 0.1, 0.2, 1.0];
        assert!((a.centroid_distance(&b) - 1.0).abs() < 1e-6);
        assert_eq!(a.centroid_distance(&a), 0.0);
    }
}
