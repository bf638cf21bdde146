//! Image matching: from matched region pairs to a similarity score
//! (paper §4 and §5.5).
//!
//! Input: the regions of a query image `Q` and a target image `T`, plus the
//! list of matching pairs `(Qᵢ, Tⱼ)` produced by the index probe. Output:
//! the Definition 4.3 similarity — the fraction of the two images' combined
//! area covered by a similar region pair set — under one of three
//! algorithms:
//!
//! * [`score_quick`] — union all matched regions' bitmaps on each side.
//!   Linear in the pair count; relaxes the one-to-one requirement of
//!   Definition 4.2 (a region may "pay" for several partners). This is what
//!   the paper uses in §6.4.
//! * [`score_greedy`] — the `O(n²)` heuristic for the one-to-one
//!   constrained problem: repeatedly commit the pair with the largest
//!   marginal covered-area gain.
//! * [`score_exact`] — exhaustive branch-and-bound over one-to-one pair
//!   subsets. The underlying problem is NP-hard (Theorem 5.1); this exists
//!   to measure the greedy gap on small instances and must be capped by the
//!   caller.

use crate::bitmap::RegionBitmap;
use crate::params::{MatchingKind, SimilarityKind, WalrusParams};
use crate::region::Region;

/// One matched region pair: indices into the query / target region lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPair {
    /// Query region index.
    pub q: usize,
    /// Target region index.
    pub t: usize,
}

/// The outcome of image matching.
#[derive(Debug, Clone)]
pub struct MatchScore {
    /// Similarity under the requested [`SimilarityKind`], in `[0, 1]`.
    pub similarity: f64,
    /// Query-image pixels covered by the selected regions.
    pub covered_query_area: usize,
    /// Target-image pixels covered by the selected regions.
    pub covered_target_area: usize,
    /// The pairs the algorithm committed to (for quick matching: all input
    /// pairs).
    pub pairs_used: Vec<MatchPair>,
}

fn similarity_of(
    kind: SimilarityKind,
    covered_q: usize,
    covered_t: usize,
    q_area: usize,
    t_area: usize,
) -> f64 {
    let similarity = match kind {
        SimilarityKind::Symmetric => (covered_q + covered_t) as f64 / (q_area + t_area) as f64,
        SimilarityKind::QueryFraction => covered_q as f64 / q_area as f64,
        SimilarityKind::MinImage => {
            (covered_q + covered_t) as f64 / (2 * q_area.min(t_area)) as f64
        }
    };
    similarity.clamp(0.0, 1.0)
}

fn finish(
    kind: SimilarityKind,
    covered_q: usize,
    covered_t: usize,
    q_area: usize,
    t_area: usize,
    pairs_used: Vec<MatchPair>,
) -> MatchScore {
    MatchScore {
        similarity: similarity_of(kind, covered_q, covered_t, q_area, t_area),
        covered_query_area: covered_q,
        covered_target_area: covered_t,
        pairs_used,
    }
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

/// Quick-union matching (paper §5.5, "the quickest similarity metric").
pub fn score_quick(
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
    q_area: usize,
    t_area: usize,
    kind: SimilarityKind,
) -> MatchScore {
    let (covered_q, covered_t) =
        quick_covered(&mut QuickScratch::default(), q_regions, t_regions, pairs);
    finish(kind, covered_q, covered_t, q_area, t_area, pairs.to_vec())
}

/// Greedy one-to-one matching (paper §5.5): `O(n²)` in the pair count.
pub fn score_greedy(
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
    q_area: usize,
    t_area: usize,
    kind: SimilarityKind,
) -> MatchScore {
    if pairs.is_empty() {
        return finish(kind, 0, 0, q_area, t_area, Vec::new());
    }
    let mut q_used = vec![false; q_regions.len()];
    let mut t_used = vec![false; t_regions.len()];
    let mut remaining: Vec<MatchPair> = pairs.to_vec();
    // Accumulators must share the source bitmaps' layout exactly.
    let mut q_acc = empty_like(&q_regions[0].bitmap);
    let mut t_acc = empty_like(&t_regions[0].bitmap);

    let mut covered = 0usize;
    let mut chosen = Vec::new();
    while !remaining.is_empty() {
        // Find the pair with the largest marginal covered-area gain.
        let mut best: Option<(usize, usize)> = None; // (pair index, gain)
        for (i, p) in remaining.iter().enumerate() {
            let gain_q = q_acc.union_area(&q_regions[p.q].bitmap) - q_acc.area();
            let gain_t = t_acc.union_area(&t_regions[p.t].bitmap) - t_acc.area();
            let gain = gain_q + gain_t;
            if best.map_or(true, |(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let (idx, gain) = best.expect("remaining is non-empty");
        let p = remaining.swap_remove(idx);
        q_used[p.q] = true;
        t_used[p.t] = true;
        q_acc.union_in_place(&q_regions[p.q].bitmap);
        t_acc.union_in_place(&t_regions[p.t].bitmap);
        covered += gain;
        chosen.push(p);
        // One-to-one: drop every pair that reuses a committed region.
        remaining.retain(|r| !q_used[r.q] && !t_used[r.t]);
    }
    debug_assert_eq!(covered, q_acc.area() + t_acc.area());
    finish(kind, q_acc.area(), t_acc.area(), q_area, t_area, chosen)
}

/// Exact one-to-one matching by branch-and-bound over pair subsets.
/// Exponential in the worst case — callers must cap the pair count (see
/// [`WalrusParams::exact_pair_limit`]).
pub fn score_exact(
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
    q_area: usize,
    t_area: usize,
    kind: SimilarityKind,
) -> MatchScore {
    if pairs.is_empty() {
        return finish(kind, 0, 0, q_area, t_area, Vec::new());
    }
    struct Search<'a> {
        q_regions: &'a [Region],
        t_regions: &'a [Region],
        pairs: &'a [MatchPair],
        // Individual pair upper-bound contributions, suffix-summed.
        suffix_bound: Vec<usize>,
        best_covered: usize,
        best_q: usize,
        best_t: usize,
        best_set: Vec<MatchPair>,
    }

    impl Search<'_> {
        fn dfs(
            &mut self,
            i: usize,
            q_used: &mut Vec<bool>,
            t_used: &mut Vec<bool>,
            q_acc: &RegionBitmap,
            t_acc: &RegionBitmap,
            chosen: &mut Vec<MatchPair>,
        ) {
            let covered = q_acc.area() + t_acc.area();
            if covered > self.best_covered {
                self.best_covered = covered;
                self.best_q = q_acc.area();
                self.best_t = t_acc.area();
                self.best_set = chosen.clone();
            }
            if i == self.pairs.len() {
                return;
            }
            // Admissible bound: every remaining pair contributes at most its
            // regions' full areas.
            if covered + self.suffix_bound[i] <= self.best_covered {
                return;
            }
            let p = self.pairs[i];
            // Branch 1: take the pair if legal.
            if !q_used[p.q] && !t_used[p.t] {
                q_used[p.q] = true;
                t_used[p.t] = true;
                let q_next = q_acc.union(&self.q_regions[p.q].bitmap);
                let t_next = t_acc.union(&self.t_regions[p.t].bitmap);
                chosen.push(p);
                self.dfs(i + 1, q_used, t_used, &q_next, &t_next, chosen);
                chosen.pop();
                q_used[p.q] = false;
                t_used[p.t] = false;
            }
            // Branch 2: skip the pair.
            self.dfs(i + 1, q_used, t_used, q_acc, t_acc, chosen);
        }
    }

    let mut suffix_bound = vec![0usize; pairs.len() + 1];
    for i in (0..pairs.len()).rev() {
        suffix_bound[i] = suffix_bound[i + 1]
            + q_regions[pairs[i].q].area()
            + t_regions[pairs[i].t].area();
    }
    let q_acc = empty_like(&q_regions[0].bitmap);
    let t_acc = empty_like(&t_regions[0].bitmap);
    let mut search = Search {
        q_regions,
        t_regions,
        pairs,
        suffix_bound,
        best_covered: 0,
        best_q: 0,
        best_t: 0,
        best_set: Vec::new(),
    };
    let mut q_used = vec![false; q_regions.len()];
    let mut t_used = vec![false; t_regions.len()];
    let mut chosen = Vec::new();
    search.dfs(0, &mut q_used, &mut t_used, &q_acc, &t_acc, &mut chosen);
    finish(kind, search.best_q, search.best_t, q_area, t_area, search.best_set)
}

/// Dispatcher: runs the matching algorithm selected by `params`, degrading
/// `Exact` to greedy above `params.exact_pair_limit` pairs.
pub fn score(
    params: &WalrusParams,
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
    q_area: usize,
    t_area: usize,
) -> MatchScore {
    match params.matching {
        MatchingKind::Quick => {
            score_quick(q_regions, t_regions, pairs, q_area, t_area, params.similarity)
        }
        MatchingKind::Greedy => {
            score_greedy(q_regions, t_regions, pairs, q_area, t_area, params.similarity)
        }
        MatchingKind::Exact if pairs.len() <= params.exact_pair_limit => {
            score_exact(q_regions, t_regions, pairs, q_area, t_area, params.similarity)
        }
        MatchingKind::Exact => {
            score_greedy(q_regions, t_regions, pairs, q_area, t_area, params.similarity)
        }
    }
}

/// The similarity [`score`] would report, for a caller that ranks images
/// and keeps nothing else of the score: quick matching runs through
/// `scratch` and materialises no pair list.
pub fn similarity(
    params: &WalrusParams,
    scratch: &mut QuickScratch,
    q_regions: &[Region],
    t_regions: &[Region],
    pairs: &[MatchPair],
    q_area: usize,
    t_area: usize,
) -> f64 {
    match params.matching {
        MatchingKind::Quick => {
            let (covered_q, covered_t) = quick_covered(scratch, q_regions, t_regions, pairs);
            similarity_of(params.similarity, covered_q, covered_t, q_area, t_area)
        }
        _ => score(params, q_regions, t_regions, pairs, q_area, t_area).similarity,
    }
}

/// An empty bitmap with `b`'s layout.
fn empty_like(b: &RegionBitmap) -> RegionBitmap {
    let mut empty = RegionBitmap::new(1, 1, 1);
    empty.reset_like(b);
    empty
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

    #[test]
    fn no_pairs_means_zero_similarity() {
        let q = [region(0, 0, 16, 16)];
        let t = [region(0, 0, 16, 16)];
        for f in [score_quick, score_greedy, score_exact] {
            let s = f(&q, &t, &[], AREA, AREA, SimilarityKind::Symmetric);
            assert_eq!(s.similarity, 0.0);
            assert!(s.pairs_used.is_empty());
        }
    }

    #[test]
    fn full_cover_is_similarity_one() {
        let q = [region(0, 0, 64, 64)];
        let t = [region(0, 0, 64, 64)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        let s = score_quick(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        assert!((s.similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_similarity_formula() {
        // Query region covers 1/4 of Q, target region covers 1/4 of T.
        let q = [region(0, 0, 32, 32)];
        let t = [region(32, 32, 32, 32)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        let s = score_quick(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        assert!((s.similarity - 0.25).abs() < 1e-12);
        assert_eq!(s.covered_query_area, 1024);
        assert_eq!(s.covered_target_area, 1024);
    }

    #[test]
    fn query_fraction_variant() {
        let q = [region(0, 0, 32, 64)]; // half of Q
        let t = [region(0, 0, 8, 8)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        let s = score_quick(&q, &t, &pairs, AREA, AREA, SimilarityKind::QueryFraction);
        assert!((s.similarity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_image_variant() {
        let q = [region(0, 0, 32, 32)];
        let t = [region(0, 0, 32, 32)];
        let pairs = [MatchPair { q: 0, t: 0 }];
        // Pretend T is a quarter-size image.
        let s = score_quick(&q, &t, &pairs, AREA, AREA / 4, SimilarityKind::MinImage);
        assert!((s.similarity - (1024.0 + 1024.0) / (2.0 * 1024.0)).abs() < 1e-12);
        // Clamped at 1.
        assert!(s.similarity <= 1.0);
    }

    #[test]
    fn quick_counts_each_region_once() {
        // One query region matching two target regions: Q's bitmap must not
        // be double counted.
        let q = [region(0, 0, 32, 32)];
        let t = [region(0, 0, 16, 16), region(32, 32, 16, 16)];
        let pairs = [MatchPair { q: 0, t: 0 }, MatchPair { q: 0, t: 1 }];
        let s = score_quick(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        assert_eq!(s.covered_query_area, 1024);
        assert_eq!(s.covered_target_area, 512);
    }

    #[test]
    fn greedy_respects_one_to_one() {
        // Q0 matches T0 and T1; committing (Q0,T0) forbids (Q0,T1).
        let q = [region(0, 0, 32, 32)];
        let t = [region(0, 0, 32, 32), region(32, 32, 16, 16)];
        let pairs = [MatchPair { q: 0, t: 0 }, MatchPair { q: 0, t: 1 }];
        let s = score_greedy(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        assert_eq!(s.pairs_used.len(), 1);
        assert_eq!(s.pairs_used[0], MatchPair { q: 0, t: 0 }, "greedy should take the bigger pair");
        assert_eq!(s.covered_target_area, 1024);
    }

    #[test]
    fn quick_upper_bounds_greedy() {
        // Quick relaxes the constraint, so its covered area dominates.
        let q = [region(0, 0, 32, 32), region(16, 16, 32, 32)];
        let t = [region(0, 0, 24, 24), region(40, 40, 24, 24)];
        let pairs = [
            MatchPair { q: 0, t: 0 },
            MatchPair { q: 0, t: 1 },
            MatchPair { q: 1, t: 0 },
            MatchPair { q: 1, t: 1 },
        ];
        let quick = score_quick(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        let greedy = score_greedy(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        assert!(quick.similarity >= greedy.similarity - 1e-12);
    }

    #[test]
    fn exact_dominates_greedy_and_finds_optimum() {
        // Adversarial instance for greedy: the largest single pair blocks a
        // better two-pair combination.
        // Q0 large, Q1/Q2 medium; T0 large, T1/T2 medium.
        let q = [region(0, 0, 40, 40), region(0, 40, 64, 24), region(40, 0, 24, 40)];
        let t = [region(0, 0, 40, 40), region(0, 40, 64, 24), region(40, 0, 24, 40)];
        // Greedy bait: (Q0, T0) is the single best pair, but it conflicts
        // with nothing here — craft conflicts instead:
        let pairs = [
            MatchPair { q: 0, t: 0 }, // big + big
            MatchPair { q: 1, t: 0 }, // medium + big
            MatchPair { q: 0, t: 1 }, // big + medium
            MatchPair { q: 2, t: 2 }, // medium + medium
        ];
        let greedy = score_greedy(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        let exact = score_exact(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        assert!(exact.similarity >= greedy.similarity - 1e-12);
        // Exact must pick a valid one-to-one set.
        let mut qs: Vec<usize> = exact.pairs_used.iter().map(|p| p.q).collect();
        let mut ts: Vec<usize> = exact.pairs_used.iter().map(|p| p.t).collect();
        qs.sort_unstable();
        qs.dedup();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(qs.len(), exact.pairs_used.len());
        assert_eq!(ts.len(), exact.pairs_used.len());
    }

    #[test]
    fn exact_beats_greedy_on_adversarial_instance() {
        // Greedy's first choice must be strictly suboptimal overall:
        // Q0 covers a large area; pairing it with T_big blocks Q1 and Q2
        // from covering T at all. Optimal pairs Q0 with a small target and
        // the others with the big halves.
        let q_big = region(0, 0, 64, 48); // 3/4 of Q
        let q_small1 = region(0, 48, 32, 16);
        let q_small2 = region(32, 48, 32, 16);
        let t_big = region(0, 0, 64, 48);
        let t_half1 = region(0, 48, 32, 16);
        let t_half2 = region(32, 48, 32, 16);
        let q = [q_big, q_small1, q_small2];
        let t = [t_big, t_half1, t_half2];
        let pairs = [
            MatchPair { q: 0, t: 0 }, // the bait: big with big
            MatchPair { q: 1, t: 0 },
            MatchPair { q: 2, t: 0 },
            MatchPair { q: 0, t: 1 },
            MatchPair { q: 0, t: 2 },
        ];
        let greedy = score_greedy(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        let exact = score_exact(&q, &t, &pairs, AREA, AREA, SimilarityKind::Symmetric);
        // Greedy takes the bait (0,0) = 3072+3072 = 6144, after which every
        // other pair reuses Q0 or T0 and is illegal.
        assert_eq!(greedy.pairs_used.len(), 1);
        assert_eq!(greedy.covered_query_area + greedy.covered_target_area, 6144);
        // Exact avoids the bait: e.g. {(Q1,T0), (Q0,T1)} covers
        // 512+3072 on each side = 7168 total.
        assert_eq!(exact.covered_query_area + exact.covered_target_area, 7168);
        assert!(exact.similarity > greedy.similarity);

        // Now add independent medium pairs that conflict with the bait.
        let pairs2 = [
            MatchPair { q: 0, t: 1 }, // big-q with small-t (gain 3072+512)
            MatchPair { q: 1, t: 0 }, // small-q with big-t
            MatchPair { q: 0, t: 0 }, // bait: 3072+3072, blocks both above
        ];
        let greedy2 = score_greedy(&q, &t, &pairs2, AREA, AREA, SimilarityKind::Symmetric);
        let exact2 = score_exact(&q, &t, &pairs2, AREA, AREA, SimilarityKind::Symmetric);
        // Optimal: (0,1) + (1,0) = 3072+512 + 512+3072 = 7168 > 6144.
        assert!(exact2.covered_query_area + exact2.covered_target_area == 7168);
        assert!(greedy2.covered_query_area + greedy2.covered_target_area == 6144);
        assert!(exact2.similarity > greedy2.similarity);
    }

    #[test]
    fn dispatcher_caps_exact() {
        let q = [region(0, 0, 16, 16)];
        let t = [region(0, 0, 16, 16)];
        let pairs = vec![MatchPair { q: 0, t: 0 }; 40];
        let mut params = WalrusParams::paper_defaults();
        params.matching = MatchingKind::Exact;
        params.exact_pair_limit = 8;
        // Must terminate fast (falls back to greedy) and give a sane score.
        let s = score(&params, &q, &t, &pairs, AREA, AREA);
        assert!(s.similarity > 0.0);
    }

    #[test]
    fn similarity_is_symmetric_under_role_swap() {
        let a_regions = [region(0, 0, 32, 32), region(32, 0, 16, 32)];
        let b_regions = [region(8, 8, 32, 32), region(0, 40, 32, 16)];
        let pairs_ab = [MatchPair { q: 0, t: 1 }, MatchPair { q: 1, t: 0 }];
        let pairs_ba: Vec<MatchPair> =
            pairs_ab.iter().map(|p| MatchPair { q: p.t, t: p.q }).collect();
        for f in [score_quick, score_greedy, score_exact] {
            let ab = f(&a_regions, &b_regions, &pairs_ab, AREA, AREA, SimilarityKind::Symmetric);
            let ba = f(&b_regions, &a_regions, &pairs_ba, AREA, AREA, SimilarityKind::Symmetric);
            assert!((ab.similarity - ba.similarity).abs() < 1e-12);
        }
    }
}
