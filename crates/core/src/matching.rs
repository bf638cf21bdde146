//! Image matching: from matched region pairs to a similarity score
//! (paper §4 and §5.5).
//!
//! Input: the regions of a query image `Q` and a target image `T`, plus the
//! list of matching pairs `(Qᵢ, Tⱼ)` produced by the index probe. Output:
//! the Definition 4.3 similarity — the fraction of the two images' combined
//! area covered by the matched regions — by quick union, the paper's §6.4
//! choice: every region named by a pair is unioned into its side's
//! bitmap. That is linear in the pair count and relaxes the one-to-one
//! requirement of Definition 4.2 (a region may "pay" for several
//! partners), so the score does not depend on the order of the pairs.

use crate::bitmap::RegionBitmap;
use crate::params::SimilarityKind;
use crate::region::Region;

/// One matched region pair: indices into the query / target region lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPair {
    /// Query region index.
    pub q: usize,
    /// Target region index.
    pub t: usize,
}

/// The two union accumulators of quick matching. A caller scoring many
/// candidate images keeps one and passes it to every call, so a candidate
/// costs no allocation; the accumulators take whatever layout the next
/// image's bitmaps have.
#[derive(Debug, Clone)]
pub struct QuickScratch {
    q: RegionBitmap,
    t: RegionBitmap,
}

impl Default for QuickScratch {
    fn default() -> Self {
        let empty = RegionBitmap::new(1, 1, 1);
        Self { q: empty.clone(), t: empty }
    }
}

/// Quick-union covered areas `(query pixels, target pixels)`: every region
/// named by a pair is unioned into its side's accumulator — once or many
/// times makes no difference to a union.
pub fn quick_covered(
    scratch: &mut QuickScratch,
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
) -> (usize, usize) {
    let Some(first) = pairs.first() else { return (0, 0) };
    scratch.q.reset_like(&q_regions[first.q].bitmap);
    scratch.t.reset_like(&t_regions[first.t].bitmap);
    for p in pairs {
        scratch.q.union_in_place(&q_regions[p.q].bitmap);
        scratch.t.union_in_place(&t_regions[p.t].bitmap);
    }
    (scratch.q.area(), scratch.t.area())
}

/// The similarity of `Q` (`q_area` pixels) and `T` (`t_area` pixels) under
/// `kind`, in `[0, 1]`: the quick-union covered areas of `pairs`, computed
/// through `scratch`, over the `kind` denominator.
pub fn similarity(
    kind: SimilarityKind,
    scratch: &mut QuickScratch,
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
    q_area: usize,
    t_area: usize,
) -> f64 {
    let (covered_q, covered_t) = quick_covered(scratch, q_regions, t_regions, pairs);
    let similarity = match kind {
        SimilarityKind::Symmetric => (covered_q + covered_t) as f64 / (q_area + t_area) as f64,
        SimilarityKind::QueryFraction => covered_q as f64 / q_area as f64,
    };
    similarity.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a region covering the given pixel rectangle of a 64×64 image.
    fn region(x: usize, y: usize, w: usize, h: usize) -> Region {
        let mut bitmap = RegionBitmap::new(64, 64, 16);
        bitmap.mark_window(x, y, w, h);
        Region::new(vec![0.0; 4], vec![0.0; 4], vec![0.0; 4], bitmap, 1)
    }

    const AREA: usize = 64 * 64;

    fn score(q: &[Region], t: &[Region], pairs: &[MatchPair], kind: SimilarityKind) -> f64 {
        similarity(kind, &mut QuickScratch::default(), q, t, pairs, AREA, AREA)
    }

    #[test]
    fn no_pairs_means_zero_similarity() {
        let q = [region(0, 0, 16, 16)];
        let t = [region(0, 0, 16, 16)];
        assert_eq!(quick_covered(&mut QuickScratch::default(), &q, &t, &[]), (0, 0));
        assert_eq!(score(&q, &t, &[], SimilarityKind::Symmetric), 0.0);
    }

    #[test]
    fn full_cover_is_similarity_one() {
        let q = [region(0, 0, 64, 64)];
        let t = [region(0, 0, 64, 64)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        assert!((score(&q, &t, &pairs, SimilarityKind::Symmetric) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_similarity_formula() {
        // Query region covers 1/4 of Q, target region covers 1/4 of T.
        let q = [region(0, 0, 32, 32)];
        let t = [region(32, 32, 32, 32)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        assert!((score(&q, &t, &pairs, SimilarityKind::Symmetric) - 0.25).abs() < 1e-12);
        assert_eq!(quick_covered(&mut QuickScratch::default(), &q, &t, &pairs), (1024, 1024));
    }

    #[test]
    fn query_fraction_variant() {
        let q = [region(0, 0, 32, 64)]; // half of Q
        let t = [region(0, 0, 8, 8)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        assert!((score(&q, &t, &pairs, SimilarityKind::QueryFraction) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quick_counts_each_region_once() {
        // One query region matching two target regions: Q's bitmap must not
        // be double counted.
        let q = [region(0, 0, 32, 32)];
        let t = [region(0, 0, 16, 16), region(32, 32, 16, 16)];
        let pairs = [MatchPair { q: 0, t: 0 }, MatchPair { q: 0, t: 1 }];
        assert_eq!(quick_covered(&mut QuickScratch::default(), &q, &t, &pairs), (1024, 512));
    }

    #[test]
    fn similarity_is_symmetric_under_role_swap() {
        let a_regions = [region(0, 0, 32, 32), region(32, 0, 16, 32)];
        let b_regions = [region(8, 8, 32, 32), region(0, 40, 32, 16)];
        let pairs_ab = [MatchPair { q: 0, t: 1 }, MatchPair { q: 1, t: 0 }];
        let pairs_ba: Vec<MatchPair> =
            pairs_ab.iter().map(|p| MatchPair { q: p.t, t: p.q }).collect();
        let ab = score(&a_regions, &b_regions, &pairs_ab, SimilarityKind::Symmetric);
        let ba = score(&b_regions, &a_regions, &pairs_ba, SimilarityKind::Symmetric);
        assert!((ab - ba).abs() < 1e-12);
    }
}
