//! Property-based tests for the image-matching algorithms: dominance
//! relations (quick ≥ exact ≥ greedy in covered area), validity of selected
//! pair sets, similarity bounds, and symmetry.

use proptest::prelude::*;
use walrus_core::bitmap::RegionBitmap;
use walrus_core::matching::{
    quick_covered, score, score_exact, score_greedy, score_quick, similarity, MatchPair,
    QuickScratch,
};
use walrus_core::{Region, SimilarityKind, WalrusParams};

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
                acc = Some(match acc {
                    Some(a) => a.union(&regions[i].bitmap),
                    None => regions[i].bitmap.clone(),
                });
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

fn one_to_one(pairs: &[MatchPair]) -> bool {
    let mut qs: Vec<usize> = pairs.iter().map(|p| p.q).collect();
    let mut ts: Vec<usize> = pairs.iter().map(|p| p.t).collect();
    qs.sort_unstable();
    ts.sort_unstable();
    let ql = qs.len();
    let tl = ts.len();
    qs.dedup();
    ts.dedup();
    qs.len() == ql && ts.len() == tl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_chain_holds(inst in instance()) {
        let quick = score_quick(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
        let greedy = score_greedy(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
        let exact = score_exact(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
        let cov = |s: &walrus_core::matching::MatchScore| s.covered_query_area + s.covered_target_area;
        // Quick relaxes the one-to-one constraint: it covers at least what
        // the exact one-to-one optimum covers; exact dominates greedy.
        prop_assert!(cov(&quick) >= cov(&exact), "quick {} < exact {}", cov(&quick), cov(&exact));
        prop_assert!(cov(&exact) >= cov(&greedy), "exact {} < greedy {}", cov(&exact), cov(&greedy));
    }

    #[test]
    fn selected_sets_are_valid_matchings(inst in instance()) {
        let greedy = score_greedy(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
        let exact = score_exact(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
        prop_assert!(one_to_one(&greedy.pairs_used));
        prop_assert!(one_to_one(&exact.pairs_used));
        // Every selected pair came from the input.
        for p in greedy.pairs_used.iter().chain(&exact.pairs_used) {
            prop_assert!(inst.pairs.contains(p));
        }
    }

    #[test]
    fn similarity_bounded_for_all_variants(inst in instance()) {
        for kind in [SimilarityKind::Symmetric, SimilarityKind::QueryFraction, SimilarityKind::MinImage] {
            for f in [score_quick, score_greedy, score_exact] {
                let s = f(&inst.q, &inst.t, &inst.pairs, AREA, AREA, kind);
                prop_assert!((0.0..=1.0).contains(&s.similarity), "{kind:?}: {}", s.similarity);
                prop_assert!(s.covered_query_area <= AREA);
                prop_assert!(s.covered_target_area <= AREA);
            }
        }
    }

    #[test]
    fn symmetric_under_role_swap(inst in instance()) {
        let swapped: Vec<MatchPair> =
            inst.pairs.iter().map(|p| MatchPair { q: p.t, t: p.q }).collect();
        for f in [score_quick, score_exact] {
            let ab = f(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
            let ba = f(&inst.t, &inst.q, &swapped, AREA, AREA, SimilarityKind::Symmetric);
            prop_assert!((ab.similarity - ba.similarity).abs() < 1e-12);
        }
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
        let (q, t, pairs) = (&inst.q, &inst.t, &inst.pairs);
        let full = score_quick(q, t, pairs, AREA, AREA, SimilarityKind::Symmetric);
        prop_assert_eq!(got, (full.covered_query_area, full.covered_target_area));
        // The query path's entry point reports the same number as `score`.
        let params = WalrusParams::paper_defaults();
        let direct = similarity(&params, &mut scratch, q, t, pairs, AREA, AREA);
        prop_assert_eq!(direct.to_bits(), score(&params, q, t, pairs, AREA, AREA).similarity.to_bits());
    }

    #[test]
    fn more_pairs_never_hurt_quick(inst in instance()) {
        // Quick union is monotone in the pair set.
        if inst.pairs.len() >= 2 {
            let half = &inst.pairs[..inst.pairs.len() / 2];
            let part = score_quick(&inst.q, &inst.t, half, AREA, AREA, SimilarityKind::Symmetric);
            let full = score_quick(&inst.q, &inst.t, &inst.pairs, AREA, AREA, SimilarityKind::Symmetric);
            prop_assert!(full.similarity >= part.similarity - 1e-12);
        }
    }

    #[test]
    fn empty_pairs_score_zero(q in proptest::collection::vec(region_strategy(), 1..4), t in proptest::collection::vec(region_strategy(), 1..4)) {
        for f in [score_quick, score_greedy, score_exact] {
            let s = f(&q, &t, &[], AREA, AREA, SimilarityKind::Symmetric);
            prop_assert_eq!(s.similarity, 0.0);
            prop_assert!(s.pairs_used.is_empty());
        }
    }
}
