//! Bulk loading by recursive variance bisection.
//!
//! Building a WALRUS database means inserting every region of every image —
//! tens of thousands of one-at-a-time insertions with forced reinsertions
//! and splits. When the full entry set is known up front (the first batch
//! into an empty index, or every reopen of a persisted store, whose tree is
//! derived from the stored regions), the loader packs a full tree directly:
//!
//! 1. the `n` entries get `L = ⌈n/M⌉` leaves;
//! 2. a run of entries owed `k > 1` leaves is split at the median of the
//!    dimension whose entry centres have the largest variance, `⌊k/2⌋`
//!    leaves' worth of entries going to the low side (the VAMSplit idea of
//!    White and Jain, "Similarity Indexing: Algorithms and Performance",
//!    1996), and each side recurses;
//! 3. [`RStarTree::from_leaf_runs`] packs the leaves upwards, `M` siblings
//!    to a parent, until a single root remains.
//!
//! Splitting where the data spreads spends the cuts on the dimensions that
//! separate entries, so leaf boxes are narrow where a probe can miss them.
//! Each split point is proportional to the leaves on either side, so every
//! leaf holds `⌊n/L⌋` or `⌈n/L⌉` entries, which lies within `[m, M]` for
//! any `n > M`.
//!
//! The tree is a pure function of the input: the median is taken on the
//! total order (centre, entry index), and each split is a stable partition,
//! so every run — each leaf included — stays in entry-index order.
//!
//! Entries are never copied: the caller describes them by index, and each
//! rectangle and value is produced once, as its leaf is written into slabs
//! reserved to the exact node count. The `n·d` entry centres and a spare
//! `u32` buffer for partitioning are freed before the slabs are reserved,
//! leaving only the leaf-order permutation — multi-megabyte transients freed beneath
//! long-lived slabs never go back to the OS.

use crate::rect::{check_corners, Rect};
use crate::tree::{RStarParams, RStarTree};
use crate::{RStarError, Result};

/// Builds a packed tree over `n` entries described by index: `corners(i)`
/// lends entry `i`'s lower and upper corner (the same slice twice for a
/// point) and `value(i)` produces what it maps to, called once, when the
/// entry is written. Every search answers as it would after inserting
/// entries `0..n` in order into an empty [`RStarTree`], but the tree is not
/// the one insertion builds: it is packed in `O(n·d·log n)` with leaves
/// holding `⌊n/L⌋` or `⌈n/L⌉` entries.
pub fn bulk_load<'a, V>(
    dims: usize,
    params: RStarParams,
    n: usize,
    corners: impl Fn(usize) -> (&'a [f32], &'a [f32]),
    mut value: impl FnMut(usize) -> V,
) -> Result<RStarTree<V>> {
    params.validate()?;
    if dims == 0 {
        return Err(RStarError::BadParams("dimensionality must be >= 1".into()));
    }
    let count = u32::try_from(n)
        .map_err(|_| RStarError::BadParams(format!("{n} entries exceed the u32 entry space")))?;
    // Every centre below is finite, and so is every variance of them.
    let mut centres = Vec::with_capacity(n * dims);
    for i in 0..n {
        let (lo, hi) = corners(i);
        if lo.len() != dims {
            return Err(RStarError::DimensionMismatch { expected: dims, got: lo.len() });
        }
        check_corners(lo, hi)?;
        // Halved first: `lo + hi` can overflow.
        centres.extend(lo.iter().zip(hi).map(|(&l, &h)| l * 0.5 + h * 0.5));
    }
    // Up to one full leaf: the incremental path is already optimal.
    if n <= params.max_entries {
        let mut tree = RStarTree::new(dims, params)?;
        for i in 0..n {
            let (lo, hi) = corners(i);
            tree.insert(Rect::new(lo.to_vec(), hi.to_vec())?, value(i))?;
        }
        return Ok(tree);
    }
    let leaves = n.div_ceil(params.max_entries);
    let mut order: Vec<u32> = (0..count).collect();
    let mut cuts = Vec::with_capacity(leaves);
    bisect(&centres, dims, &mut order, &mut vec![0; n], leaves, &mut cuts);
    drop(centres);
    Ok(RStarTree::from_leaf_runs(dims, params, &order, &cuts, corners, value))
}

/// Packs the entries `run` names, in index order, into `leaves` leaves:
/// `run` ends up in leaf order, still in index order within each leaf, and
/// `cuts` gains the leaf sizes. `spare` is at least as long as `run`.
fn bisect(
    centres: &[f32],
    dims: usize,
    run: &mut [u32],
    spare: &mut [u32],
    leaves: usize,
    cuts: &mut Vec<u32>,
) {
    if leaves == 1 {
        cuts.push(run.len() as u32);
        return;
    }
    // `n·l/k` without the product: `l·q + l·r/k`, with `l·r < k²`.
    let (low, n) = (leaves / 2, run.len());
    let split = low * (n / leaves) + low * (n % leaves) / leaves;
    let dim = widest(centres, dims, run);
    let order = |&a: &u32, &b: &u32| {
        let key = |e: u32| centres[e as usize * dims + dim];
        key(a).total_cmp(&key(b)).then(a.cmp(&b))
    };
    let spare_run = &mut spare[..n];
    spare_run.copy_from_slice(run);
    let pivot = *spare_run.select_nth_unstable_by(split, order).1;
    let (mut lo, mut hi) = (0, split);
    for &e in run.iter() {
        let slot = if order(&e, &pivot).is_lt() { &mut lo } else { &mut hi };
        spare_run[*slot] = e;
        *slot += 1;
    }
    run.copy_from_slice(spare_run);
    let (low_run, high_run) = run.split_at_mut(split);
    bisect(centres, dims, low_run, spare, low, cuts);
    bisect(centres, dims, high_run, spare, leaves - low, cuts);
}

/// The dimension along which the centres of `run` have the largest
/// variance (the lowest such dimension on a tie), summed in `f64` about the
/// run's mean.
fn widest(centres: &[f32], dims: usize, run: &[u32]) -> usize {
    let rows = || run.iter().map(|&e| &centres[e as usize * dims..][..dims]);
    let mut mean = vec![0.0f64; dims];
    for row in rows() {
        mean.iter_mut().zip(row).for_each(|(m, &c)| *m += c as f64);
    }
    mean.iter_mut().for_each(|m| *m /= run.len() as f64);
    let mut spread = vec![0.0f64; dims];
    for row in rows() {
        for ((s, &m), &c) in spread.iter_mut().zip(&mean).zip(row) {
            *s += (c as f64 - m) * (c as f64 - m);
        }
    }
    (1..dims).fold(0, |best, d| if spread[d] > spread[best] { d } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Probe;

    fn pts(n: usize, dims: usize) -> Vec<Vec<f32>> {
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 1000.0
        };
        (0..n).map(|_| (0..dims).map(|_| next()).collect()).collect()
    }

    /// Packs `points` as point entries valued by their position.
    fn load(dims: usize, points: &[Vec<f32>]) -> Result<RStarTree<usize>> {
        let corner = |i: usize| (points[i].as_slice(), points[i].as_slice());
        bulk_load(dims, RStarParams::default(), points.len(), corner, |i| i)
    }

    /// The hits of `probe`, unfiltered, sorted.
    fn hits(tree: &RStarTree<usize>, probe: &Probe) -> Vec<usize> {
        let mut ids: Vec<usize> =
            tree.search_filtered_stats(probe, |_| true).unwrap().0.into_iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn incremental(dims: usize, points: &[Vec<f32>]) -> RStarTree<usize> {
        let mut tree = RStarTree::with_dims(dims).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(Rect::point(p).unwrap(), i).unwrap();
        }
        tree
    }

    /// 12 000 seeded 12-d points shaped like WALRUS's flower regions: three
    /// in four belong to one of 8 clusters, within ±0.25 of the cluster's
    /// centre in dimensions 0, 3, 6 and 9 but within ±0.02 (σ ≈ 0.012, far
    /// below ε = 0.085) in the other eight; the rest are uniform.
    fn flower_points() -> Vec<Vec<f32>> {
        let mut state = 0x0F10_3E25u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 100_000) as f32 / 100_000.0
        };
        let centres: Vec<Vec<f32>> = (0..8).map(|_| (0..12).map(|_| next()).collect()).collect();
        (0..12_000)
            .map(|i| {
                let width = |d: usize| if d % 3 == 0 { 0.5 } else { 0.04 };
                let coord = |d: usize| match next() {
                    u if i % 4 == 3 => u,
                    u => centres[i % 8][d] + (u - 0.5) * width(d),
                };
                (0..12).map(coord).collect()
            })
            .collect()
    }

    /// The packing-quality fence: 200 ε = 0.085 probes centred on points of
    /// [`flower_points`] must cost at most half what they cost on the tree
    /// STR packing built, in nodes entered and in leaf entries tested. STR's
    /// sums, 8 978 nodes and 95 617 entries, were captured by running this
    /// test against the Sort-Tile-Recursive loader this one replaced, whose
    /// descent entered every child whose bound met the probe's box.
    #[test]
    fn packing_probes_at_most_half_of_str() {
        let points = flower_points();
        let tree = load(12, &points).unwrap();
        let (mut nodes, mut exact) = (0, 0);
        for q in points.iter().step_by(60) {
            let (_, stats) =
                tree.search_filtered_stats(&Probe::within(q, 0.085).unwrap(), |_| true).unwrap();
            nodes += stats.nodes_visited;
            exact += stats.exact_tested;
        }
        assert!(2 * nodes <= 8_978, "{nodes} nodes entered");
        assert!(2 * exact <= 95_617, "{exact} entries tested");
    }

    #[test]
    fn small_input_falls_back_to_incremental() {
        for n in [0usize, 1, 10, 16] {
            let tree = load(2, &pts(n, 2)).unwrap();
            assert_eq!(tree.len(), n);
            assert_eq!(tree.height(), 1);
            tree.check_invariants();
        }
    }

    #[test]
    fn packed_tree_satisfies_invariants() {
        for n in [17usize, 64, 250, 1000, 4097] {
            let tree = load(2, &pts(n, 2)).unwrap();
            assert_eq!(tree.len(), n, "n = {n}");
            tree.check_invariants();
        }
    }

    #[test]
    fn packed_tree_answers_like_incremental() {
        let entries = pts(500, 3);
        let packed = load(3, &entries).unwrap();
        let incremental = incremental(3, &entries);
        for q in pts(20, 3) {
            let probe = Probe::within(&q, 0.15).unwrap();
            assert_eq!(hits(&packed, &probe), hits(&incremental, &probe));
        }
    }

    #[test]
    fn high_dimensional_bulk_load() {
        // WALRUS's 12-d signature points.
        let points = pts(2000, 12);
        let tree = load(12, &points).unwrap();
        assert_eq!(tree.len(), 2000);
        tree.check_invariants();
        for i in [0, 999, 1999] {
            assert!(hits(&tree, &Probe::within(&points[i], 0.0).unwrap()).contains(&i));
        }
    }

    #[test]
    fn packed_tree_is_shallower_or_equal() {
        let entries = pts(1000, 2);
        assert!(load(2, &entries).unwrap().height() <= incremental(2, &entries).height());
    }

    #[test]
    fn mutations_after_bulk_load_work() {
        let mut tree = load(2, &pts(300, 2)).unwrap();
        tree.insert(Rect::point(&[0.123, 0.456]).unwrap(), 9999).unwrap();
        assert_eq!(tree.len(), 301);
        tree.check_invariants();
        assert!(hits(&tree, &Probe::within(&[0.123, 0.456], 0.0).unwrap()).contains(&9999));
    }

    #[test]
    fn box_entries_bulk_load() {
        let boxes: Vec<(Vec<f32>, Vec<f32>)> = (0..200)
            .map(|i| {
                let base = (i % 20) as f32 / 20.0;
                (vec![base, base * 0.5], vec![base + 0.1, base * 0.5 + 0.2])
            })
            .collect();
        let corner = |i: usize| (boxes[i].0.as_slice(), boxes[i].1.as_slice());
        let tree = bulk_load(2, RStarParams::default(), boxes.len(), corner, |i| i).unwrap();
        assert_eq!(tree.len(), 200);
        tree.check_invariants();
        let probe = Rect::new(vec![0.52, 0.0], vec![0.53, 1.0]).unwrap();
        let want: Vec<usize> = (0..200).filter(|i| [9, 10].contains(&(i % 20))).collect();
        assert_eq!(hits(&tree, &Probe::intersecting(probe)), want);
    }

    /// Packs 2-d points — `n` good ones, with `bad` in the middle.
    fn load_with(n: usize, bad: Vec<f32>) -> Result<RStarTree<usize>> {
        let mut points = pts(n, 2);
        points[n / 2] = bad;
        load(2, &points)
    }

    #[test]
    fn dimension_mismatch_rejected() {
        // On the small-input fallback and on the packed path alike.
        for n in [1usize, 40] {
            assert!(matches!(
                load_with(n, vec![0.0, 0.0, 0.0]),
                Err(RStarError::DimensionMismatch { expected: 2, got: 3 })
            ));
        }
        assert!(load(0, &[]).is_err());
    }

    /// The loader takes raw corners, so it makes `Rect::new`'s checks itself:
    /// a NaN centre would otherwise be a sort key.
    #[test]
    fn non_rectangles_rejected() {
        for n in [1usize, 40] {
            for bad in [vec![0.5, f32::NAN], vec![f32::INFINITY, 0.5]] {
                assert!(matches!(load_with(n, bad), Err(RStarError::InvalidRect(_))));
            }
            let (lo, hi) = (vec![0.5f32, 0.5], vec![0.6f32, 0.4]);
            let inverted = bulk_load(2, RStarParams::default(), n, |_| (&lo, &hi), |i| i);
            assert!(matches!(inverted, Err(RStarError::InvalidRect(_))));
        }
    }
}
