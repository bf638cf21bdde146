//! Bulk loading via Sort-Tile-Recursive (STR) packing.
//!
//! Building a WALRUS database means inserting every region of every image —
//! tens of thousands of one-at-a-time insertions with forced reinsertions
//! and splits. When the full entry set is known up front (initial index
//! construction, or reconstruction after a persistence load), STR packing
//! (Leutenegger, López, Edgington; ICDE 1997) builds a near-full tree in
//! `O(n log n)`:
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

use crate::rect::Rect;
use crate::tree::{RStarParams, RStarTree};
use crate::{RStarError, Result};

/// Builds a packed tree from `(rect, value)` entries. Equivalent to
/// inserting every entry into an empty [`RStarTree`], but `O(n log n)` with
/// full nodes.
pub fn bulk_load<V>(
    dims: usize,
    params: RStarParams,
    entries: Vec<(Rect, V)>,
) -> Result<RStarTree<V>> {
    params.validate()?;
    if dims == 0 {
        return Err(RStarError::BadParams("dimensionality must be >= 1".into()));
    }
    for (rect, _) in &entries {
        if rect.dims() != dims {
            return Err(RStarError::DimensionMismatch { expected: dims, got: rect.dims() });
        }
    }
    // Up to one full leaf: the incremental path is already optimal.
    if entries.len() <= params.max_entries {
        let mut tree = RStarTree::new(dims, params)?;
        for (rect, value) in entries {
            tree.insert(rect, value)?;
        }
        return Ok(tree);
    }
    let groups = str_partition(entries, dims, &params, 0);
    Ok(RStarTree::from_packed_leaves(dims, params, groups))
}

/// Recursively tiles `items` into groups of `[m, M]` entries, sorting by
/// successive dimensions (STR). Groups come back in tile order, which keeps
/// sibling leaves spatially adjacent.
fn str_partition<T>(
    mut items: Vec<(Rect, T)>,
    dims: usize,
    params: &RStarParams,
    dim: usize,
) -> Vec<Vec<(Rect, T)>> {
    let n = items.len();
    let leaves_needed = n.div_ceil(params.max_entries);
    sort_by_center(&mut items, dim.min(dims - 1));
    if leaves_needed <= 1 || dim + 1 >= dims {
        return chop(items, params);
    }
    // Tiles along this axis: the (d−dim)-th root of the leaf count.
    let remaining = (dims - dim) as f64;
    let slabs = (leaves_needed as f64).powf(1.0 / remaining).ceil() as usize;
    let slab_size = n.div_ceil(slabs).max(params.max_entries);
    let mut out = Vec::new();
    while !items.is_empty() {
        let take = slab_size.min(items.len());
        // If the remainder after this slab would be smaller than one legal
        // group, absorb it into this slab.
        let take = if items.len() - take < params.min_entries { items.len() } else { take };
        let rest = items.split_off(take);
        out.extend(str_partition(items, dims, params, dim + 1));
        items = rest;
    }
    out
}

fn sort_by_center<T>(items: &mut [(Rect, T)], dim: usize) {
    items.sort_by(|a, b| {
        let ca = (a.0.min()[dim] + a.0.max()[dim]) / 2.0;
        let cb = (b.0.min()[dim] + b.0.max()[dim]) / 2.0;
        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Chops an ordered run into groups of at most `M`, rebalancing the tail so
/// every group has at least `m` entries (possible whenever `n ≥ m`, which
/// the caller guarantees).
fn chop<T>(mut items: Vec<(Rect, T)>, params: &RStarParams) -> Vec<Vec<(Rect, T)>> {
    let (m, cap) = (params.min_entries, params.max_entries);
    let mut out = Vec::with_capacity(items.len().div_ceil(cap));
    while !items.is_empty() {
        let mut take = cap.min(items.len());
        let rest_after = items.len() - take;
        if rest_after > 0 && rest_after < m {
            // Shrink this group so the remainder is legal.
            take = items.len() - m;
        }
        let rest = items.split_off(take);
        out.push(items);
        items = rest;
    }
    debug_assert!(out.iter().all(|g| g.len() >= m.min(out[0].len()) && g.len() <= cap));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize, dims: usize) -> Vec<(Rect, usize)> {
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 1000.0
        };
        (0..n)
            .map(|i| {
                let p: Vec<f32> = (0..dims).map(|_| next()).collect();
                (Rect::point(&p).unwrap(), i)
            })
            .collect()
    }

    #[test]
    fn small_input_falls_back_to_incremental() {
        let tree = bulk_load(2, RStarParams::default(), pts(10, 2)).unwrap();
        assert_eq!(tree.len(), 10);
        tree.check_invariants();
    }

    #[test]
    fn packed_tree_satisfies_invariants() {
        for n in [17usize, 64, 250, 1000, 4097] {
            let tree = bulk_load(2, RStarParams::default(), pts(n, 2)).unwrap();
            assert_eq!(tree.len(), n, "n = {n}");
            tree.check_invariants();
        }
    }

    #[test]
    fn packed_tree_answers_like_incremental() {
        let entries = pts(500, 3);
        let packed = bulk_load(3, RStarParams::default(), entries.clone()).unwrap();
        let mut incremental = RStarTree::with_dims(3).unwrap();
        for (r, v) in entries {
            incremental.insert(r, v).unwrap();
        }
        for probe in pts(20, 3) {
            let q = probe.0.min().to_vec();
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
        let tree = bulk_load(12, RStarParams::default(), pts(2000, 12)).unwrap();
        assert_eq!(tree.len(), 2000);
        tree.check_invariants();
        let q = vec![0.5f32; 12];
        let nearest = tree.nearest_k(&q, 5).unwrap();
        assert_eq!(nearest.len(), 5);
    }

    #[test]
    fn packed_tree_is_shallower_or_equal() {
        let entries = pts(1000, 2);
        let packed = bulk_load(2, RStarParams::default(), entries.clone()).unwrap();
        let mut incremental = RStarTree::with_dims(2).unwrap();
        for (r, v) in entries {
            incremental.insert(r, v).unwrap();
        }
        assert!(packed.height() <= incremental.height());
    }

    #[test]
    fn mutations_after_bulk_load_work() {
        let mut tree = bulk_load(2, RStarParams::default(), pts(300, 2)).unwrap();
        let extra = Rect::point(&[0.123, 0.456]).unwrap();
        tree.insert(extra.clone(), 9999).unwrap();
        assert_eq!(tree.len(), 301);
        assert!(tree.remove(&extra, &9999).unwrap());
        assert_eq!(tree.len(), 300);
        tree.check_invariants();
    }

    #[test]
    fn box_entries_bulk_load() {
        let boxes: Vec<(Rect, usize)> = (0..200)
            .map(|i| {
                let base = (i % 20) as f32 / 20.0;
                (
                    Rect::new(vec![base, base * 0.5], vec![base + 0.1, base * 0.5 + 0.2]).unwrap(),
                    i,
                )
            })
            .collect();
        let tree = bulk_load(2, RStarParams::default(), boxes).unwrap();
        assert_eq!(tree.len(), 200);
        tree.check_invariants();
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let bad = vec![(Rect::point(&[0.0, 0.0]).unwrap(), 0usize)];
        assert!(bulk_load(3, RStarParams::default(), bad).is_err());
    }
}
