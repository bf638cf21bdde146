//! Property-based tests for quick-union image matching: it equals its
//! definition through a reused scratch, similarity stays in `[0, 1]`, more
//! pairs never lower it, it is symmetric under a role swap, and no pairs
//! score zero.

use proptest::prelude::*;
use walrus_core::bitmap::RegionBitmap;
use walrus_core::matching::{quick_covered, similarity, MatchPair, QuickScratch};
use walrus_core::{Region, SimilarityKind};

const W: usize = 64;
const H: usize = 48;
const AREA: usize = W * H;

#[derive(Debug, Clone)]
struct Inst {
    q: Vec<Region>,
    t: Vec<Region>,
    pairs: Vec<MatchPair>,
}

fn region_strategy() -> impl Strategy<Value = Region> {
    proptest::collection::vec((0usize..W - 8, 0usize..H - 8, 4usize..24, 4usize..20), 1..4)
        .prop_map(|windows| {
            let mut bitmap = RegionBitmap::new(W, H, 16);
            for (x, y, w, h) in &windows {
                bitmap.mark_window(*x, *y, *w, *h);
            }
            Region::new(vec![0.0; 4], vec![0.0; 4], vec![0.0; 4], bitmap, windows.len())
        })
}

fn instance() -> impl Strategy<Value = Inst> {
    (
        proptest::collection::vec(region_strategy(), 1..5),
        proptest::collection::vec(region_strategy(), 1..5),
        proptest::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..9),
    )
        .prop_map(|(q, t, raw_pairs)| {
            let pairs = raw_pairs
                .into_iter()
                .map(|(a, b)| MatchPair { q: a.index(q.len()), t: b.index(t.len()) })
                .collect();
            Inst { q, t, pairs }
        })
}

/// Quick matching by its definition, allocating as it goes: clone the first
/// region seen on a side, union in every further distinct one, and count the
/// result's pixels cell by cell.
fn quick_covered_by_definition(inst: &Inst) -> (usize, usize) {
    fn covered(regions: &[Region], picked: impl Iterator<Item = usize>) -> usize {
        let mut seen = vec![false; regions.len()];
        let mut acc: Option<RegionBitmap> = None;
        for i in picked {
            if !std::mem::replace(&mut seen[i], true) {
                match &mut acc {
                    Some(a) => a.union_in_place(&regions[i].bitmap),
                    None => acc = Some(regions[i].bitmap.clone()),
                }
            }
        }
        let Some(acc) = acc else { return 0 };
        let mut total = 0;
        for cy in 0..acc.grid_height() {
            for cx in 0..acc.grid_width() {
                if acc.get_cell(cx, cy) {
                    let (_, _, w, h) = acc.cell_pixels(cx, cy);
                    total += w * h;
                }
            }
        }
        total
    }
    let (qs, ts) = (inst.pairs.iter().map(|p| p.q), inst.pairs.iter().map(|p| p.t));
    (covered(&inst.q, qs), covered(&inst.t, ts))
}

/// The similarity of `inst` under `kind`, through a fresh scratch.
fn score(inst: &Inst, kind: SimilarityKind) -> f64 {
    similarity(kind, &mut QuickScratch::default(), &inst.q, &inst.t, &inst.pairs, AREA, AREA)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn similarity_bounded_for_all_variants(inst in instance()) {
        let (covered_q, covered_t) = quick_covered(&mut QuickScratch::default(), &inst.q, &inst.t, &inst.pairs);
        prop_assert!(covered_q <= AREA);
        prop_assert!(covered_t <= AREA);
        for kind in [SimilarityKind::Symmetric, SimilarityKind::QueryFraction] {
            let s = score(&inst, kind);
            prop_assert!((0.0..=1.0).contains(&s), "{kind:?}: {s}");
        }
    }

    #[test]
    fn symmetric_under_role_swap(inst in instance()) {
        let swapped: Vec<MatchPair> =
            inst.pairs.iter().map(|p| MatchPair { q: p.t, t: p.q }).collect();
        let swapped = Inst { q: inst.t.clone(), t: inst.q.clone(), pairs: swapped };
        let (ab, ba) = (score(&inst, SimilarityKind::Symmetric), score(&swapped, SimilarityKind::Symmetric));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn quick_through_reused_scratch_equals_definition(inst in instance(), other in instance()) {
        // The scratch arrives dirty, and with another image's layout: the
        // query path scores hundreds of candidates through one pair of
        // accumulators.
        let mut scratch = QuickScratch::default();
        let mut odd = RegionBitmap::new(100, 75, 16);
        odd.mark_window(3, 5, 60, 40);
        let odd = [Region::new(vec![0.0; 4], vec![0.0; 4], vec![0.0; 4], odd, 1)];
        quick_covered(&mut scratch, &odd, &odd, &[MatchPair { q: 0, t: 0 }]);
        quick_covered(&mut scratch, &other.q, &other.t, &other.pairs);
        let got = quick_covered(&mut scratch, &inst.q, &inst.t, &inst.pairs);
        prop_assert_eq!(got, quick_covered_by_definition(&inst));
        // The query path's entry point, on the same dirty scratch, reports
        // what a fresh one does.
        let (q, t, pairs) = (&inst.q, &inst.t, &inst.pairs);
        let direct = similarity(SimilarityKind::Symmetric, &mut scratch, q, t, pairs, AREA, AREA);
        prop_assert_eq!(direct.to_bits(), score(&inst, SimilarityKind::Symmetric).to_bits());
        let by_definition = (got.0 + got.1) as f64 / (2 * AREA) as f64;
        prop_assert_eq!(direct.to_bits(), by_definition.to_bits());
    }

    #[test]
    fn more_pairs_never_hurt_quick(inst in instance()) {
        // Quick union is monotone in the pair set.
        if inst.pairs.len() >= 2 {
            let half = Inst { pairs: inst.pairs[..inst.pairs.len() / 2].to_vec(), ..inst.clone() };
            let part = score(&half, SimilarityKind::Symmetric);
            let full = score(&inst, SimilarityKind::Symmetric);
            prop_assert!(full >= part - 1e-12);
        }
    }

    #[test]
    fn empty_pairs_score_zero(q in proptest::collection::vec(region_strategy(), 1..4), t in proptest::collection::vec(region_strategy(), 1..4)) {
        let inst = Inst { q, t, pairs: Vec::new() };
        prop_assert_eq!(quick_covered(&mut QuickScratch::default(), &inst.q, &inst.t, &[]), (0, 0));
        for kind in [SimilarityKind::Symmetric, SimilarityKind::QueryFraction] {
            prop_assert_eq!(score(&inst, kind), 0.0);
        }
    }
}
