//! Bulk loading via Sort-Tile-Recursive (STR) packing.
//!
//! Building a WALRUS database means inserting every region of every image —
//! tens of thousands of one-at-a-time insertions with forced reinsertions
//! and splits. When the full entry set is known up front (the first batch
//! into an empty index, or every reopen of a persisted store, whose tree is
//! derived from the stored regions), STR packing (Leutenegger, López,
//! Edgington; ICDE 1997) builds a near-full tree in `O(n log n)`:
//!
//! 1. sort entries by the centre of the first dimension and cut into slabs
//!    sized for `ceil(#leaves^(1/d))` tiles along that axis;
//! 2. within each slab, recurse on the next dimension, finally packing
//!    runs of `M` entries into leaves;
//! 3. pack the leaf rectangles the same way one level up, until a single
//!    root remains.
//!
//! The packed tree satisfies the same invariants as the incremental path
//! (including the `[m, M]` occupancy bounds — trailing short groups are
//! rebalanced) and answers identical queries, just with better packing.
//!
//! Entries are never gathered: the caller describes them by index, STR
//! sorts a `u32` permutation of those indices in place (one cached `f32`
//! key per entry for the dimension being sorted), and each rectangle and
//! value is produced once, as its leaf is written into slabs reserved to
//! the exact node count. An open's transient memory is the permutation and
//! one key column, not a second copy of every coordinate — multi-megabyte
//! transients freed beneath long-lived slabs never go back to the OS.

use crate::rect::{check_corners, Rect};
use crate::tree::{RStarParams, RStarTree};
use crate::{RStarError, Result};

/// Builds a packed tree over `n` entries described by index: `corners(i)`
/// lends entry `i`'s lower and upper corner (the same slice twice for a
/// point) and `value(i)` produces what it maps to, called once, when the
/// entry is written. Equivalent to inserting entries `0..n` in order into an
/// empty [`RStarTree`], but `O(n log n)` with full nodes.
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
    // Every sort key below is a finite centre: a NaN would compare `Equal`
    // to everything and tile arbitrarily.
    for i in 0..n {
        let (lo, hi) = corners(i);
        if lo.len() != dims {
            return Err(RStarError::DimensionMismatch { expected: dims, got: lo.len() });
        }
        check_corners(lo, hi)?;
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
    let mut order: Vec<u32> = (0..count).collect();
    let mut tiler = Tiler {
        dims,
        params: &params,
        corners: &corners,
        keys: vec![0.0; n],
        cuts: Vec::with_capacity(n.div_ceil(params.min_entries)),
    };
    tiler.partition(&mut order, 0);
    let cuts = tiler.cuts;
    Ok(RStarTree::from_leaf_runs(dims, params, &order, &cuts, corners, value))
}

/// The STR recursion's state.
struct Tiler<'s, C> {
    dims: usize,
    params: &'s RStarParams,
    corners: &'s C,
    /// Per entry, its centre along the dimension being sorted. One column
    /// serves every level: a slice is fully sorted before its slabs recurse.
    keys: Vec<f32>,
    /// Leaf sizes, in tile order — which keeps sibling leaves spatially
    /// adjacent.
    cuts: Vec<u32>,
}

impl<'a, C: Fn(usize) -> (&'a [f32], &'a [f32])> Tiler<'_, C> {
    /// Recursively tiles the entries `order` names into leaves of `[m, M]`
    /// entries, sorting by successive dimensions; `order` ends up in leaf
    /// order and `cuts` gains the leaf sizes.
    fn partition(&mut self, order: &mut [u32], dim: usize) {
        let (m, cap) = (self.params.min_entries, self.params.max_entries);
        let n = order.len();
        let leaves_needed = n.div_ceil(cap);
        self.sort_by_center(order, dim);
        if leaves_needed <= 1 || dim + 1 >= self.dims {
            // Chop the ordered run into leaves.
            let mut rest = n;
            while rest > 0 {
                let take = self.params.next_run(rest);
                self.cuts.push(take as u32);
                rest -= take;
            }
            return;
        }
        // Tiles along this axis: the (d−dim)-th root of the leaf count.
        let remaining = (self.dims - dim) as f64;
        let slabs = (leaves_needed as f64).powf(1.0 / remaining).ceil() as usize;
        let slab_size = n.div_ceil(slabs).max(cap);
        let mut rest = order;
        while !rest.is_empty() {
            let take = slab_size.min(rest.len());
            // If the remainder after this slab would be smaller than one legal
            // group, absorb it into this slab.
            let take = if rest.len() - take < m { rest.len() } else { take };
            let (slab, tail) = std::mem::take(&mut rest).split_at_mut(take);
            self.partition(slab, dim + 1);
            rest = tail;
        }
    }

    /// Stable sort of `order` by each entry's centre along `dim`.
    fn sort_by_center(&mut self, order: &mut [u32], dim: usize) {
        for &e in order.iter() {
            let (lo, hi) = (self.corners)(e as usize);
            self.keys[e as usize] = (lo[dim] + hi[dim]) / 2.0;
        }
        let keys = &self.keys;
        order.sort_by(|&a, &b| {
            keys[a as usize].partial_cmp(&keys[b as usize]).unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn incremental(dims: usize, points: &[Vec<f32>]) -> RStarTree<usize> {
        let mut tree = RStarTree::with_dims(dims).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(Rect::point(p).unwrap(), i).unwrap();
        }
        tree
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
            let mut a: Vec<usize> =
                packed.search_within(&q, 0.15).unwrap().into_iter().copied().collect();
            let mut b: Vec<usize> =
                incremental.search_within(&q, 0.15).unwrap().into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn high_dimensional_bulk_load() {
        // WALRUS's 12-d signature points.
        let tree = load(12, &pts(2000, 12)).unwrap();
        assert_eq!(tree.len(), 2000);
        tree.check_invariants();
        let q = vec![0.5f32; 12];
        let nearest = tree.nearest_k(&q, 5).unwrap();
        assert_eq!(nearest.len(), 5);
    }

    #[test]
    fn packed_tree_is_shallower_or_equal() {
        let entries = pts(1000, 2);
        assert!(load(2, &entries).unwrap().height() <= incremental(2, &entries).height());
    }

    #[test]
    fn mutations_after_bulk_load_work() {
        let mut tree = load(2, &pts(300, 2)).unwrap();
        let extra = Rect::point(&[0.123, 0.456]).unwrap();
        tree.insert(extra.clone(), 9999).unwrap();
        assert_eq!(tree.len(), 301);
        assert!(tree.remove(&extra, &9999).unwrap());
        assert_eq!(tree.len(), 300);
        tree.check_invariants();
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
        let mut hits: Vec<usize> =
            tree.search_intersecting(&probe).unwrap().into_iter().copied().collect();
        hits.sort_unstable();
        let want: Vec<usize> = (0..200).filter(|i| [9, 10].contains(&(i % 20))).collect();
        assert_eq!(hits, want);
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
