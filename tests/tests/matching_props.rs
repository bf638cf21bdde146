//! Property-based tests for quick-union image matching: scored from region
//! marks it equals its definition over the pair list the marks came from,
//! through a reused scratch; similarity stays in `[0, 1]`, more pairs never
//! lower it, it is symmetric under a role swap, and no pairs score zero.

use proptest::prelude::*;
use walrus_core::bitmap::RegionBitmap;
use walrus_core::matching::{quick_covered, similarity, QuickScratch};
use walrus_core::{Region, SimilarityKind};

const W: usize = 64;
const H: usize = 48;
const AREA: usize = W * H;

/// A query and a target image's regions, and matched `(query, target)`
/// region index pairs between them, duplicates included.
#[derive(Debug, Clone)]
struct Inst {
    q: Vec<Region>,
    t: Vec<Region>,
    pairs: Vec<(usize, usize)>,
}

impl Inst {
    /// The pairs as the query body hands them to the scorer: one mark bit
    /// per region on each side, `⌈n/64⌉` words for `n` regions.
    fn marks(&self) -> (Vec<u64>, Vec<u64>) {
        let mut q_marks = vec![0u64; self.q.len().div_ceil(64)];
        let mut t_marks = vec![0u64; self.t.len().div_ceil(64)];
        for &(q, t) in &self.pairs {
            q_marks[q / 64] |= 1 << (q % 64);
            t_marks[t / 64] |= 1 << (t % 64);
        }
        (q_marks, t_marks)
    }

    fn covered(&self, scratch: &mut QuickScratch) -> (usize, usize) {
        let (q_marks, t_marks) = self.marks();
        quick_covered(scratch, &self.q, &self.t, &q_marks, &t_marks)
    }
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

/// An instance with `regions` regions a side and up to `pairs` pairs.
fn instance_of(
    regions: std::ops::Range<usize>,
    pairs: std::ops::Range<usize>,
) -> impl Strategy<Value = Inst> {
    (
        proptest::collection::vec(region_strategy(), regions.clone()),
        proptest::collection::vec(region_strategy(), regions),
        proptest::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), pairs),
    )
        .prop_map(|(q, t, raw_pairs)| {
            let pairs = raw_pairs
                .into_iter()
                .flat_map(|(a, b)| {
                    // Every third pair is listed twice, as a region that
                    // two probes both hit is.
                    let pair = (a.index(q.len()), b.index(t.len()));
                    let copies = if a.index(3) == 0 { 2 } else { 1 };
                    std::iter::repeat(pair).take(copies)
                })
                .collect();
            Inst { q, t, pairs }
        })
}

fn instance() -> impl Strategy<Value = Inst> {
    instance_of(1..5, 0..9)
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
    let (qs, ts) = (inst.pairs.iter().map(|p| p.0), inst.pairs.iter().map(|p| p.1));
    (covered(&inst.q, qs), covered(&inst.t, ts))
}

/// The similarity of `inst` under `kind`, through `scratch`.
fn score_with(inst: &Inst, kind: SimilarityKind, scratch: &mut QuickScratch) -> f64 {
    let (q_marks, t_marks) = inst.marks();
    similarity(kind, scratch, &inst.q, &inst.t, &q_marks, &t_marks, AREA, AREA)
}

/// The similarity of `inst` under `kind`, through a fresh scratch.
fn score(inst: &Inst, kind: SimilarityKind) -> f64 {
    score_with(inst, kind, &mut QuickScratch::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn similarity_bounded_for_all_variants(inst in instance()) {
        let (covered_q, covered_t) = inst.covered(&mut QuickScratch::default());
        prop_assert!(covered_q <= AREA);
        prop_assert!(covered_t <= AREA);
        for kind in [SimilarityKind::Symmetric, SimilarityKind::QueryFraction] {
            let s = score(&inst, kind);
            prop_assert!((0.0..=1.0).contains(&s), "{kind:?}: {s}");
        }
    }

    #[test]
    fn symmetric_under_role_swap(inst in instance()) {
        let swapped = inst.pairs.iter().map(|&(q, t)| (t, q)).collect();
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
        quick_covered(&mut scratch, &odd, &odd, &[1], &[1]);
        other.covered(&mut scratch);
        let got = inst.covered(&mut scratch);
        prop_assert_eq!(got, quick_covered_by_definition(&inst));
        // The query path's entry point, on the same dirty scratch, reports
        // what a fresh one does.
        let direct = score_with(&inst, SimilarityKind::Symmetric, &mut scratch);
        prop_assert_eq!(direct.to_bits(), score(&inst, SimilarityKind::Symmetric).to_bits());
        let by_definition = (got.0 + got.1) as f64 / (2 * AREA) as f64;
        prop_assert_eq!(direct.to_bits(), by_definition.to_bits());
    }

    #[test]
    fn marks_past_the_first_word_equal_definition(inst in instance_of(60..140, 0..40), other in instance()) {
        // Images with more than 64 regions a side need several mark words.
        let mut scratch = QuickScratch::default();
        other.covered(&mut scratch);
        prop_assert_eq!(inst.covered(&mut scratch), quick_covered_by_definition(&inst));
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
        prop_assert_eq!(inst.covered(&mut QuickScratch::default()), (0, 0));
        let mut scratch = QuickScratch::default();
        prop_assert_eq!(quick_covered(&mut scratch, &inst.q, &inst.t, &[], &[]), (0, 0));
        for kind in [SimilarityKind::Symmetric, SimilarityKind::QueryFraction] {
            prop_assert_eq!(score(&inst, kind), 0.0);
        }
    }
}
