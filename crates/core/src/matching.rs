//! Image matching: from matched regions to a similarity score (paper §4
//! and §5.5).
//!
//! Input: the regions of a query image `Q` and a target image `T`, plus one
//! mark per region on each side: bit `i` of a side's marks (word `i / 64`,
//! bit `i % 64`) is set when region `i` belongs to a matching pair
//! `(Qᵢ, Tⱼ)` the index probe produced. Output: the Definition 4.3
//! similarity — the fraction of the two images' combined area covered by
//! the matched regions — by quick union, the paper's §6.4 choice: every
//! marked region is unioned into its side's bitmap, once however many
//! pairs name it. That relaxes the one-to-one requirement of Definition 4.2
//! (a region may "pay" for several partners), so the score depends on which
//! regions matched, not on how often or in what order.

use crate::bitmap::RegionBitmap;
use crate::params::SimilarityKind;
use crate::region::Region;

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

/// Quick-union covered areas `(query pixels, target pixels)`: each region
/// marked in `q_marks` / `t_marks` is unioned into its side's accumulator
/// once. A side with no mark covers nothing.
pub fn quick_covered(
    scratch: &mut QuickScratch,
    q_regions: &[Region],
    t_regions: &[Region],
    q_marks: &[u64],
    t_marks: &[u64],
) -> (usize, usize) {
    (
        union_marked(&mut scratch.q, q_regions, q_marks),
        union_marked(&mut scratch.t, t_regions, t_marks),
    )
}

/// The pixel area of the union of the regions marked in `marks`, built in
/// `acc`, which takes the layout of the first marked region's bitmap.
fn union_marked(acc: &mut RegionBitmap, regions: &[Region], marks: &[u64]) -> usize {
    let mut empty = true;
    for (w, &word) in marks.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let bitmap = &regions[w * 64 + rest.trailing_zeros() as usize].bitmap;
            rest &= rest - 1;
            if std::mem::take(&mut empty) {
                acc.reset_like(bitmap);
            }
            acc.union_in_place(bitmap);
        }
    }
    if empty {
        0
    } else {
        acc.area()
    }
}

/// The similarity of `Q` (`q_area` pixels) and `T` (`t_area` pixels) under
/// `kind`, in `[0, 1]`: the quick-union covered areas of the marked
/// regions, computed through `scratch`, over the `kind` denominator.
#[allow(clippy::too_many_arguments)] // two images' regions, marks and areas
pub fn similarity(
    kind: SimilarityKind,
    scratch: &mut QuickScratch,
    q_regions: &[Region],
    t_regions: &[Region],
    q_marks: &[u64],
    t_marks: &[u64],
    q_area: usize,
    t_area: usize,
) -> f64 {
    let (covered_q, covered_t) = quick_covered(scratch, q_regions, t_regions, q_marks, t_marks);
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

    /// Marks region 0 of a side.
    const FIRST: &[u64] = &[0b1];

    fn score(q: &[Region], t: &[Region], marks: (&[u64], &[u64]), kind: SimilarityKind) -> f64 {
        similarity(kind, &mut QuickScratch::default(), q, t, marks.0, marks.1, AREA, AREA)
    }

    #[test]
    fn no_pairs_means_zero_similarity() {
        let q = [region(0, 0, 16, 16)];
        let t = [region(0, 0, 16, 16)];
        assert_eq!(quick_covered(&mut QuickScratch::default(), &q, &t, &[0], &[0]), (0, 0));
        assert_eq!(score(&q, &t, (&[], &[]), SimilarityKind::Symmetric), 0.0);
    }

    #[test]
    fn full_cover_is_similarity_one() {
        let q = [region(0, 0, 64, 64)];
        let t = [region(0, 0, 64, 64)];
        assert!((score(&q, &t, (FIRST, FIRST), SimilarityKind::Symmetric) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_similarity_formula() {
        // Query region covers 1/4 of Q, target region covers 1/4 of T.
        let q = [region(0, 0, 32, 32)];
        let t = [region(32, 32, 32, 32)];
        assert!((score(&q, &t, (FIRST, FIRST), SimilarityKind::Symmetric) - 0.25).abs() < 1e-12);
        assert_eq!(quick_covered(&mut QuickScratch::default(), &q, &t, FIRST, FIRST), (1024, 1024));
    }

    #[test]
    fn query_fraction_variant() {
        let q = [region(0, 0, 32, 64)]; // half of Q
        let t = [region(0, 0, 8, 8)];
        assert!((score(&q, &t, (FIRST, FIRST), SimilarityKind::QueryFraction) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quick_counts_each_region_once() {
        // One query region matching two target regions: its mark is one
        // bit, so Q's bitmap is not double counted. A third target region
        // is left unmarked.
        let q = [region(0, 0, 32, 32)];
        let t = [region(0, 0, 16, 16), region(32, 32, 16, 16), region(0, 32, 32, 32)];
        assert_eq!(
            quick_covered(&mut QuickScratch::default(), &q, &t, FIRST, &[0b011]),
            (1024, 512)
        );
    }

    #[test]
    fn similarity_is_symmetric_under_role_swap() {
        let a_regions = [region(0, 0, 32, 32), region(32, 0, 16, 32)];
        let b_regions = [region(8, 8, 32, 32), region(0, 40, 32, 16)];
        // The pairs (a0, b1) and (a1, b0) mark both regions of each side.
        let (a_marks, b_marks): (&[u64], &[u64]) = (&[0b11], &[0b11]);
        let ab = score(&a_regions, &b_regions, (a_marks, b_marks), SimilarityKind::Symmetric);
        let ba = score(&b_regions, &a_regions, (b_marks, a_marks), SimilarityKind::Symmetric);
        assert!((ab - ba).abs() < 1e-12);
    }
}
