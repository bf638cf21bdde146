//! Two-dimensional Haar transforms (paper §3.2).
//!
//! The primary transform is the **non-standard decomposition** of Figure 2
//! (`computeWavelet`): one step of horizontal pairwise averaging/differencing
//! followed by one vertical step, recursing on the quadrant of averages.
//! For a `w × w` input the output layout is
//!
//! ```text
//! ┌───────────────┬───────────────┐
//! │ transform(A)  │ horizontal    │   A = w/2 × w/2 matrix of 2×2 box
//! │ (recursive)   │ details       │       averages
//! ├───────────────┼───────────────┤
//! │ vertical      │ diagonal      │
//! │ details       │ details       │
//! └───────────────┴───────────────┘
//! ```
//!
//! with the overall average finally landing at `[0, 0]`. Matching Figure 2
//! (translated to 0-based `(x, y)`, `x` = column):
//!
//! * average     `A[i,j]     = ( TL + TR + BL + BR) / 4`
//! * upper-right `W[w/2+i,j] = (−TL + TR − BL + BR) / 4` (horizontal detail)
//! * lower-left  `W[i,w/2+j] = (−TL − TR + BL + BR) / 4` (vertical detail)
//! * lower-right `W[w/2+i,w/2+j] = (TL − TR − BL + BR) / 4` (diagonal)
//!
//! where `TL = I[2i, 2j]`, `TR = I[2i+1, 2j]`, `BL = I[2i, 2j+1]`,
//! `BR = I[2i+1, 2j+1]`.
//!
//! The **standard decomposition** (full 1-D transform of every row, then of
//! every column) is also provided; the two transforms are different bases,
//! and tests use the standard one as an independent cross-check of energy
//! and invertibility properties.
//!
//! All forward transforms here are *raw* (plain averages/differences, as in
//! Figure 2). The paper's 2-D normalization ("the normalization factor is
//! `2^i`") is the explicit [`normalize_nonstandard`] step, following the
//! same depth convention as [`crate::haar1d::normalize`].

use crate::{is_pow2, log2, Result, WaveletError};

fn check_square(len: usize, side: usize) -> Result<()> {
    if !is_pow2(side) {
        return Err(WaveletError::NotPowerOfTwo { len: side });
    }
    if len != side * side {
        return Err(WaveletError::NotSquare { width: side, height: len / side.max(1) });
    }
    Ok(())
}

/// Non-standard 2-D Haar decomposition of a `side × side` row-major matrix
/// (raw coefficients). This is `computeWavelet` from Figure 2 of the paper,
/// implemented iteratively.
pub fn nonstandard_forward(input: &[f32], side: usize) -> Result<Vec<f32>> {
    check_square(input.len(), side)?;
    let mut w = vec![0.0f32; side * side];
    if side == 1 {
        w[0] = input[0];
        return Ok(w);
    }
    // `avg` holds the current approximation matrix (starts as the image).
    let mut avg = input.to_vec();
    let mut cur = side;
    let mut next = vec![0.0f32; (side / 2) * (side / 2)];
    while cur > 1 {
        let half = cur / 2;
        for j in 0..half {
            for i in 0..half {
                let tl = avg[2 * j * cur + 2 * i];
                let tr = avg[2 * j * cur + 2 * i + 1];
                let bl = avg[(2 * j + 1) * cur + 2 * i];
                let br = avg[(2 * j + 1) * cur + 2 * i + 1];
                next[j * half + i] = (tl + tr + bl + br) / 4.0;
                // Detail quadrants of the *output* at this recursion depth
                // live in the upper-left cur×cur corner of `w`.
                w[j * side + (half + i)] = (-tl + tr - bl + br) / 4.0;
                w[(half + j) * side + i] = (-tl - tr + bl + br) / 4.0;
                w[(half + j) * side + (half + i)] = (tl - tr - bl + br) / 4.0;
            }
        }
        avg[..half * half].copy_from_slice(&next[..half * half]);
        cur = half;
    }
    w[0] = avg[0];
    Ok(w)
}

/// Inverse of [`nonstandard_forward`]; exact reconstruction.
pub fn nonstandard_inverse(coeffs: &[f32], side: usize) -> Result<Vec<f32>> {
    check_square(coeffs.len(), side)?;
    let mut img = coeffs.to_vec();
    if side == 1 {
        return Ok(img);
    }
    // Rebuild from the coarsest level outward. `avg` starts as the 1×1
    // overall average and doubles each step.
    let mut avg = vec![coeffs[0]];
    let mut cur = 1usize;
    while cur < side {
        let next_side = cur * 2;
        let mut next = vec![0.0f32; next_side * next_side];
        for j in 0..cur {
            for i in 0..cur {
                let a = avg[j * cur + i];
                let h = img[j * side + (cur + i)]; // horizontal detail
                let v = img[(cur + j) * side + i]; // vertical detail
                let d = img[(cur + j) * side + (cur + i)]; // diagonal
                next[2 * j * next_side + 2 * i] = a - h - v + d; // TL
                next[2 * j * next_side + 2 * i + 1] = a + h - v - d; // TR
                next[(2 * j + 1) * next_side + 2 * i] = a - h + v - d; // BL
                next[(2 * j + 1) * next_side + 2 * i + 1] = a + h + v + d; // BR
            }
        }
        avg = next;
        cur = next_side;
    }
    img.copy_from_slice(&avg);
    Ok(img)
}

/// Standard 2-D decomposition: full 1-D transform of every row, then of
/// every column (raw coefficients).
pub fn standard_forward(input: &[f32], side: usize) -> Result<Vec<f32>> {
    check_square(input.len(), side)?;
    let mut out = input.to_vec();
    // Rows.
    for j in 0..side {
        let row = crate::haar1d::forward(&out[j * side..(j + 1) * side])?;
        out[j * side..(j + 1) * side].copy_from_slice(&row);
    }
    // Columns.
    let mut col = vec![0.0f32; side];
    for i in 0..side {
        for j in 0..side {
            col[j] = out[j * side + i];
        }
        let t = crate::haar1d::forward(&col)?;
        for j in 0..side {
            out[j * side + i] = t[j];
        }
    }
    Ok(out)
}

/// Inverse of [`standard_forward`]: the round trip the tests pin the
/// forward transform by.
#[cfg(test)]
fn standard_inverse(coeffs: &[f32], side: usize) -> Result<Vec<f32>> {
    check_square(coeffs.len(), side)?;
    let mut out = coeffs.to_vec();
    let mut col = vec![0.0f32; side];
    for i in 0..side {
        for j in 0..side {
            col[j] = out[j * side + i];
        }
        let t = crate::haar1d::inverse(&col)?;
        for j in 0..side {
            out[j * side + i] = t[j];
        }
    }
    for j in 0..side {
        let row = crate::haar1d::inverse(&out[j * side..(j + 1) * side])?;
        out[j * side..(j + 1) * side].copy_from_slice(&row);
    }
    Ok(out)
}

/// Applies the paper's 2-D normalization in place: a detail coefficient in
/// the level-`d` quadrants (`d = 1` is the finest pass, quadrant size
/// `side/2^d`) is divided by `2^(L−d)`, `L = log2(side)` — the 2-D analog of
/// the worked 1-D example's convention. The overall average is untouched.
pub fn normalize_nonstandard(coeffs: &mut [f32], side: usize) {
    scale_nonstandard(coeffs, side, false);
}

/// Undoes [`normalize_nonstandard`], for the tests' round trip.
#[cfg(test)]
fn denormalize_nonstandard(coeffs: &mut [f32], side: usize) {
    scale_nonstandard(coeffs, side, true);
}

fn scale_nonstandard(coeffs: &mut [f32], side: usize, invert: bool) {
    debug_assert_eq!(coeffs.len(), side * side);
    if side <= 1 {
        return;
    }
    let levels = log2(side);
    // Quadrant of size q = side/2^d holds depth-d details at offsets
    // (q,0), (0,q), (q,q).
    for d in 1..=levels {
        let q = side >> d;
        let factor = (2.0f32).powi((levels - d) as i32);
        let factor = if invert { factor } else { 1.0 / factor };
        for &(ox, oy) in &[(q, 0), (0, q), (q, q)] {
            for j in 0..q {
                for i in 0..q {
                    coeffs[(oy + j) * side + (ox + i)] *= factor;
                }
            }
        }
    }
}

/// Extracts the upper-left `m × m` corner of a `side × side` coefficient
/// matrix — the "lowest frequency band" the paper uses as a window
/// signature. For the non-standard transform this equals the full transform
/// of the image averaged down to `m × m`.
pub fn corner(coeffs: &[f32], side: usize, m: usize) -> Vec<f32> {
    assert!(m <= side, "corner {m} larger than matrix {side}");
    let mut out = Vec::with_capacity(m * m);
    for j in 0..m {
        out.extend_from_slice(&coeffs[j * side..j * side + m]);
    }
    out
}

/// Averages a `side × side` matrix down to `m × m` by box filtering
/// (`side/m` must be a power-of-two ratio). Used by tests to verify the
/// corner/average-pyramid identity, and by the naive signature algorithm.
pub fn average_down(input: &[f32], side: usize, m: usize) -> Vec<f32> {
    assert!(m <= side && side % m == 0);
    let k = side / m;
    let mut out = vec![0.0f32; m * m];
    for j in 0..m {
        for i in 0..m {
            let mut sum = 0.0;
            for dy in 0..k {
                for dx in 0..k {
                    sum += input[(j * k + dy) * side + (i * k + dx)];
                }
            }
            out[j * m + i] = sum / (k * k) as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(side: usize) -> Vec<f32> {
        (0..side * side).map(|i| ((i * 37 + 11) % 23) as f32 / 23.0).collect()
    }

    #[test]
    fn two_by_two_matches_figure2_by_hand() {
        // I = [1 2; 3 4] (row-major): TL=1 TR=2 BL=3 BR=4.
        let w = nonstandard_forward(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(w[0], 2.5); // average
        assert_eq!(w[1], (-1.0 + 2.0 - 3.0 + 4.0) / 4.0); // horizontal = 0.5
        assert_eq!(w[2], (-1.0 - 2.0 + 3.0 + 4.0) / 4.0); // vertical = 1.0
        assert_eq!(w[3], (1.0 - 2.0 - 3.0 + 4.0) / 4.0); // diagonal = 0.0
    }

    #[test]
    fn nonstandard_round_trip() {
        for side in [1usize, 2, 4, 8, 16, 32] {
            let img = demo(side);
            let w = nonstandard_forward(&img, side).unwrap();
            let back = nonstandard_inverse(&w, side).unwrap();
            for (a, b) in img.iter().zip(&back) {
                assert!((a - b).abs() < 1e-4, "side {side}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn standard_round_trip() {
        for side in [1usize, 2, 4, 8, 16] {
            let img = demo(side);
            let w = standard_forward(&img, side).unwrap();
            let back = standard_inverse(&w, side).unwrap();
            for (a, b) in img.iter().zip(&back) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn dc_coefficient_is_global_mean() {
        let img = demo(16);
        let mean: f32 = img.iter().sum::<f32>() / img.len() as f32;
        let ns = nonstandard_forward(&img, 16).unwrap();
        assert!((ns[0] - mean).abs() < 1e-5);
        let st = standard_forward(&img, 16).unwrap();
        assert!((st[0] - mean).abs() < 1e-5);
    }

    #[test]
    fn constant_image_has_only_dc() {
        let img = vec![0.7f32; 64];
        let w = nonstandard_forward(&img, 8).unwrap();
        assert!((w[0] - 0.7).abs() < 1e-6);
        assert!(w[1..].iter().all(|&c| c.abs() < 1e-6));
    }

    #[test]
    fn standard_and_nonstandard_differ_in_general() {
        // They are different bases; agreeing everywhere would be a bug.
        let img = demo(8);
        let ns = nonstandard_forward(&img, 8).unwrap();
        let st = standard_forward(&img, 8).unwrap();
        assert!((ns[0] - st[0]).abs() < 1e-5, "DC must agree");
        let diff = ns.iter().zip(&st).any(|(a, b)| (a - b).abs() > 1e-4);
        assert!(diff, "transforms should differ off the DC");
    }

    #[test]
    fn corner_equals_transform_of_average_pyramid() {
        // The identity the DP algorithm rests on: the upper-left m×m of the
        // non-standard transform equals the transform of the m×m
        // box-average of the image.
        let side = 32;
        let img = demo(side);
        let full = nonstandard_forward(&img, side).unwrap();
        for m in [1usize, 2, 4, 8, 16] {
            let got = corner(&full, side, m);
            let avg = average_down(&img, side, m);
            let want = nonstandard_forward(&avg, m).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "m={m}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn normalization_round_trips() {
        let img = demo(16);
        let raw = nonstandard_forward(&img, 16).unwrap();
        let mut w = raw.clone();
        normalize_nonstandard(&mut w, 16);
        assert!(w.iter().zip(&raw).any(|(a, b)| (a - b).abs() > 1e-6), "should rescale something");
        denormalize_nonstandard(&mut w, 16);
        for (a, b) in w.iter().zip(&raw) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn normalization_preserves_dc_and_finest_divides_most() {
        let img = demo(8); // L = 3
        let raw = nonstandard_forward(&img, 8).unwrap();
        let mut w = raw.clone();
        normalize_nonstandard(&mut w, 8);
        assert_eq!(w[0], raw[0]);
        // Finest detail (d=1, quadrant size 4) divided by 2^(3-1) = 4.
        let idx = 4; // first horizontal detail of finest level, row 0
        if raw[idx].abs() > 1e-9 {
            assert!((w[idx] * 4.0 - raw[idx]).abs() < 1e-6);
        }
        // Coarsest detail (d=3, quadrant size 1) untouched: offset (1,0).
        let idx = 1;
        assert!((w[idx] - raw[idx]).abs() < 1e-7);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(nonstandard_forward(&[0.0; 6], 3).is_err());
        assert!(nonstandard_forward(&[0.0; 8], 4).is_err());
        assert!(standard_forward(&[0.0; 12], 4).is_err());
    }

    #[test]
    fn average_down_identity_and_global() {
        let img = demo(8);
        assert_eq!(average_down(&img, 8, 8), img);
        let g = average_down(&img, 8, 1);
        let mean: f32 = img.iter().sum::<f32>() / 64.0;
        assert!((g[0] - mean).abs() < 1e-5);
    }

    #[test]
    fn linearity() {
        let a = demo(8);
        let b: Vec<f32> = demo(8).iter().map(|v| v * 2.0 + 0.1).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ta = nonstandard_forward(&a, 8).unwrap();
        let tb = nonstandard_forward(&b, 8).unwrap();
        let ts = nonstandard_forward(&sum, 8).unwrap();
        for i in 0..64 {
            assert!((ta[i] + tb[i] - ts[i]).abs() < 1e-4);
        }
    }
}
