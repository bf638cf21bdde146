//! Dynamic-dimension axis-aligned rectangles.
//!
//! A rectangle in `d` dimensions is `2·d` floats, lower corner then upper —
//! the form the tree's node slabs store, so the geometry here is written over
//! plain `&[f32]` slices and [`Rect`] is the validated, owned form callers
//! hand to the tree.
//!
//! All geometric accumulations (area, margin, overlap) are done in `f64`:
//! 12-dimensional products of sub-unit extents underflow `f32` quickly, and
//! the R\* heuristics compare exactly those products.

use crate::{RStarError, Result};

/// An axis-aligned box `[min, max]` in `d` dimensions. Points are degenerate
/// rectangles with `min == max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// `min` then `max`, `2·d` floats.
    coords: Vec<f32>,
}

impl Rect {
    /// Creates a rectangle, validating `min[d] ≤ max[d]` and finiteness.
    pub fn new(min: Vec<f32>, max: Vec<f32>) -> Result<Self> {
        check_corners(&min, &max)?;
        let mut coords = min;
        coords.extend_from_slice(&max);
        Ok(Self { coords })
    }

    /// A degenerate rectangle at `point`.
    pub fn point(point: &[f32]) -> Result<Self> {
        Self::new(point.to_vec(), point.to_vec())
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.coords.len() / 2
    }

    /// Lower corner.
    #[inline]
    pub fn min(&self) -> &[f32] {
        &self.coords[..self.dims()]
    }

    /// Upper corner.
    #[inline]
    pub fn max(&self) -> &[f32] {
        &self.coords[self.dims()..]
    }

    /// Lower corner then upper: the slice form the tree stores.
    #[inline]
    pub(crate) fn flat(&self) -> &[f32] {
        &self.coords
    }

    /// Hyper-volume (product of extents).
    pub fn area(&self) -> f64 {
        area(&self.coords)
    }

    /// True when `self` and `other` intersect (closed boxes: touching
    /// counts).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        intersects(&self.coords, &other.coords)
    }

    /// Rectangle extended by `eps` on every side — the paper's "bounding
    /// rectangles of regions in the query image are extended by ε" probe.
    pub fn extended(&self, eps: f32) -> Rect {
        let (lo, hi) = (self.min().iter().map(|&v| v - eps), self.max().iter().map(|&v| v + eps));
        Rect { coords: lo.chain(hi).collect() }
    }

    /// Squared minimum L2 distance from `point` to this rectangle (0 when
    /// the point is inside) — the kNN priority metric.
    pub fn min_dist_sq(&self, point: &[f32]) -> f64 {
        debug_assert_eq!(self.dims(), point.len());
        min_dist_sq(&self.coords, point)
    }
}

/// What makes two corners a rectangle: equal, non-zero arity, finite
/// coordinates, `min[d] ≤ max[d]`.
pub(crate) fn check_corners(min: &[f32], max: &[f32]) -> Result<()> {
    if min.len() != max.len() {
        return Err(RStarError::InvalidRect(format!(
            "min has {} dims, max has {}",
            min.len(),
            max.len()
        )));
    }
    if min.is_empty() {
        return Err(RStarError::InvalidRect("zero-dimensional rectangle".into()));
    }
    for (d, (&a, &b)) in min.iter().zip(max).enumerate() {
        if !a.is_finite() || !b.is_finite() {
            return Err(RStarError::InvalidRect(format!("non-finite coordinate in dim {d}")));
        }
        if a > b {
            return Err(RStarError::InvalidRect(format!("min {a} > max {b} in dim {d}")));
        }
    }
    Ok(())
}

/// Splits a flat rectangle into its lower and upper corners.
#[inline]
pub(crate) fn corners(r: &[f32]) -> (&[f32], &[f32]) {
    r.split_at(r.len() / 2)
}

/// Hyper-volume (product of extents).
pub(crate) fn area(r: &[f32]) -> f64 {
    let (lo, hi) = corners(r);
    lo.iter().zip(hi).map(|(&a, &b)| (b - a) as f64).product()
}

/// Margin: sum of extents (the R\* split's axis-selection criterion).
pub(crate) fn margin(r: &[f32]) -> f64 {
    let (lo, hi) = corners(r);
    lo.iter().zip(hi).map(|(&a, &b)| (b - a) as f64).sum()
}

/// True when `a` and `b` intersect (closed boxes: touching counts). Every
/// dimension is tested, with no early exit: for the dozen dimensions of a
/// signature the branch-free form vectorises, and a probe's exit dimension
/// is not predictable.
#[inline]
pub(crate) fn intersects(a: &[f32], b: &[f32]) -> bool {
    let ((alo, ahi), (blo, bhi)) = (corners(a), corners(b));
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .fold(true, |all, ((&amin, &amax), (&bmin, &bmax))| all & (amin <= bmax) & (bmin <= amax))
}

/// True when `a` fully contains `b`.
pub(crate) fn contains(a: &[f32], b: &[f32]) -> bool {
    let ((alo, ahi), (blo, bhi)) = (corners(a), corners(b));
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .all(|((&amin, &amax), (&bmin, &bmax))| amin <= bmin && bmax <= amax)
}

/// Volume of the intersection (0 when disjoint).
pub(crate) fn overlap_area(a: &[f32], b: &[f32]) -> f64 {
    let ((alo, ahi), (blo, bhi)) = (corners(a), corners(b));
    let mut v = 1.0f64;
    for ((&amin, &amax), (&bmin, &bmax)) in alo.iter().zip(ahi).zip(blo.iter().zip(bhi)) {
        let lo = amin.max(bmin);
        let hi = amax.min(bmax);
        if lo > hi {
            return 0.0;
        }
        v *= (hi - lo) as f64;
    }
    v
}

/// Hyper-volume of the smallest rectangle containing `a` and `b`, without
/// building it.
pub(crate) fn union_area(a: &[f32], b: &[f32]) -> f64 {
    let ((alo, ahi), (blo, bhi)) = (corners(a), corners(b));
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .map(|((&amin, &amax), (&bmin, &bmax))| (amax.max(bmax) - amin.min(bmin)) as f64)
        .product()
}

/// Volume of `(a ∪ b) ∩ o`, where `a ∪ b` is the smallest rectangle
/// containing both — ChooseSubtree's "overlap after enlargement" — without
/// building the union.
pub(crate) fn union_overlap_area(a: &[f32], b: &[f32], o: &[f32]) -> f64 {
    let ((alo, ahi), (blo, bhi), (olo, ohi)) = (corners(a), corners(b), corners(o));
    let mut v = 1.0f64;
    for d in 0..alo.len() {
        let lo = alo[d].min(blo[d]).max(olo[d]);
        let hi = ahi[d].max(bhi[d]).min(ohi[d]);
        if lo > hi {
            return 0.0;
        }
        v *= (hi - lo) as f64;
    }
    v
}

/// Grows `acc` to contain `other`, in place.
pub(crate) fn union_into(acc: &mut [f32], other: &[f32]) {
    let d = acc.len() / 2;
    let (lo, hi) = acc.split_at_mut(d);
    for (a, &b) in lo.iter_mut().zip(&other[..d]) {
        if b < *a {
            *a = b;
        }
    }
    for (a, &b) in hi.iter_mut().zip(&other[d..]) {
        if b > *a {
            *a = b;
        }
    }
}

/// Squared minimum L2 distance from `point` to `r` (0 when inside). Per
/// dimension the gap is `lo − p` left of the box, `p − hi` right of it and
/// 0 inside; at most one of the two differences is positive, so the gap is
/// their maximum clamped at 0, which needs no branch.
#[inline]
pub(crate) fn min_dist_sq(r: &[f32], point: &[f32]) -> f64 {
    let (lo, hi) = corners(r);
    lo.iter()
        .zip(hi)
        .zip(point)
        .map(|((&lo, &hi), &p)| {
            let d = (lo - p).max(p - hi).max(0.0);
            (d as f64) * (d as f64)
        })
        .sum()
}

/// Squared distance between centres (forced-reinsert ordering).
pub(crate) fn center_dist_sq(a: &[f32], b: &[f32]) -> f64 {
    let ((alo, ahi), (blo, bhi)) = (corners(a), corners(b));
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .map(|((&amin, &amax), (&bmin, &bmax))| {
            let (ca, cb) = ((amin + amax) / 2.0, (bmin + bmax) / 2.0);
            (ca as f64 - cb as f64) * (ca as f64 - cb as f64)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(min: &[f32], max: &[f32]) -> Rect {
        Rect::new(min.to_vec(), max.to_vec()).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Rect::new(vec![0.0], vec![1.0]).is_ok());
        assert!(Rect::new(vec![2.0], vec![1.0]).is_err());
        assert!(Rect::new(vec![0.0, 0.0], vec![1.0]).is_err());
        assert!(Rect::new(vec![], vec![]).is_err());
        assert!(Rect::new(vec![f32::NAN], vec![1.0]).is_err());
        assert!(Rect::new(vec![0.0], vec![f32::INFINITY]).is_err());
    }

    #[test]
    fn corners_round_trip() {
        let b = r(&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(b.dims(), 3);
        assert_eq!(b.min(), &[0.0, 1.0, 2.0]);
        assert_eq!(b.max(), &[3.0, 4.0, 5.0]);
        assert_eq!(b.flat(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn point_rect_has_zero_area_and_margin() {
        let p = Rect::point(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(p.area(), 0.0);
        assert_eq!(margin(p.flat()), 0.0);
        assert_eq!(p.min(), p.max());
    }

    #[test]
    fn area_and_margin() {
        let b = r(&[0.0, 0.0, 0.0], &[2.0, 3.0, 4.0]);
        assert_eq!(b.area(), 24.0);
        assert_eq!(margin(b.flat()), 9.0);
    }

    #[test]
    fn intersection_cases() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert!(a.intersects(&r(&[1.0, 1.0], &[3.0, 3.0])));
        assert!(a.intersects(&r(&[2.0, 0.0], &[3.0, 1.0]))); // touching counts
        assert!(!a.intersects(&r(&[2.1, 0.0], &[3.0, 1.0])));
        assert!(!a.intersects(&r(&[0.0, 3.0], &[1.0, 4.0])));
        // Overlap in one dim but not the other is no intersection.
        assert!(!a.intersects(&r(&[0.5, 5.0], &[1.5, 6.0])));
    }

    #[test]
    fn containment() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        assert!(contains(a.flat(), r(&[1.0, 1.0], &[2.0, 2.0]).flat()));
        assert!(contains(a.flat(), a.flat()));
        assert!(!contains(a.flat(), r(&[1.0, 1.0], &[5.0, 2.0]).flat()));
        assert!(!contains(r(&[1.0, 1.0], &[2.0, 2.0]).flat(), a.flat()));
    }

    #[test]
    fn overlap_area_cases() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(overlap_area(a.flat(), r(&[1.0, 1.0], &[3.0, 3.0]).flat()), 1.0);
        assert_eq!(overlap_area(a.flat(), r(&[5.0, 5.0], &[6.0, 6.0]).flat()), 0.0);
        assert_eq!(overlap_area(a.flat(), a.flat()), 4.0);
        // Touching boxes overlap with zero volume.
        assert_eq!(overlap_area(a.flat(), r(&[2.0, 0.0], &[3.0, 2.0]).flat()), 0.0);
    }

    #[test]
    fn union_forms_agree() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, 2.0], &[3.0, 3.0]);
        let mut u = a.flat().to_vec();
        union_into(&mut u, b.flat());
        assert_eq!(u, [0.0, 0.0, 3.0, 3.0]);
        assert_eq!(union_area(a.flat(), b.flat()), area(&u));
        assert_eq!(union_area(a.flat(), r(&[0.2, 0.2], &[0.8, 0.8]).flat()), a.area());
        // (a ∪ b) ∩ o computed on the fly equals the materialised form.
        let o = r(&[0.5, -1.0], &[2.5, 1.5]);
        assert_eq!(union_overlap_area(a.flat(), b.flat(), o.flat()), overlap_area(&u, o.flat()));
        assert_eq!(union_overlap_area(a.flat(), b.flat(), r(&[4.0, 4.0], &[5.0, 5.0]).flat()), 0.0);
    }

    #[test]
    fn extension_by_epsilon() {
        let p = Rect::point(&[1.0, 1.0]).unwrap().extended(0.5);
        assert_eq!(p.min(), &[0.5, 0.5]);
        assert_eq!(p.max(), &[1.5, 1.5]);
        assert_eq!(p.area(), 1.0);
    }

    #[test]
    fn min_dist_sq_cases() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(a.min_dist_sq(&[1.0, 1.0]), 0.0); // inside
        assert_eq!(a.min_dist_sq(&[3.0, 1.0]), 1.0); // right of box
        assert_eq!(a.min_dist_sq(&[3.0, 3.0]), 2.0); // corner
        assert_eq!(a.min_dist_sq(&[-2.0, 1.0]), 4.0);
    }

    #[test]
    fn center_dist_sq_cases() {
        let a = Rect::point(&[0.0, 0.0]).unwrap();
        let b = Rect::point(&[3.0, 4.0]).unwrap();
        assert_eq!(center_dist_sq(a.flat(), b.flat()), 25.0);
    }

    #[test]
    fn high_dimensional_area_uses_f64() {
        // 12 extents of 0.01: product = 1e-24, representable in f64 but
        // denormal-adjacent in f32 products.
        let min = vec![0.0f32; 12];
        let max = vec![0.01f32; 12];
        let b = Rect::new(min, max).unwrap();
        assert!(b.area() > 0.0);
        assert!((b.area() - 1e-24).abs() / 1e-24 < 1e-3);
    }
}
