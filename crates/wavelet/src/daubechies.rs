//! Periodic Daubechies-D4 wavelet transforms.
//!
//! The WBIIS baseline (\[WWFW98\], reimplemented in `walrus-baselines`) uses
//! Daubechies wavelets instead of Haar: 4- and 5-level transforms of a
//! 128×128 rescaled image per color channel. This module provides the D4
//! analysis/synthesis filters with periodic boundary handling, in 1-D and a
//! separable multi-level 2-D (Mallat pyramid) form.
//!
//! D4 is orthonormal, so the transform preserves energy (Parseval), which
//! the tests verify — a useful contrast to the paper's non-orthonormal Haar
//! convention.

use crate::{is_pow2, Result, WaveletError};

/// D4 scaling (low-pass) filter coefficients.
pub const H: [f32; 4] = [
    0.482_962_9, // (1+√3)/(4√2)
    0.836_516_3, // (3+√3)/(4√2)
    0.224_143_87, // (3−√3)/(4√2)
    -0.129_409_52, // (1−√3)/(4√2)
];

/// D4 wavelet (high-pass) filter: quadrature mirror of [`H`].
pub const G: [f32; 4] = [H[3], -H[2], H[1], -H[0]];

/// One analysis level: `data[..n]` → `[approx (n/2) | detail (n/2)]`,
/// periodic wrap-around. Requires `n` even and ≥ 4… `n = 2` falls back to
/// the (identical for periodic signals of period 2) Haar step.
pub fn forward_level(data: &[f32]) -> Result<Vec<f32>> {
    let n = data.len();
    if n < 2 || n % 2 != 0 {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    let half = n / 2;
    let mut out = vec![0.0f32; n];
    for i in 0..half {
        let mut s = 0.0;
        let mut d = 0.0;
        for k in 0..4 {
            let x = data[(2 * i + k) % n];
            s += H[k] * x;
            d += G[k] * x;
        }
        out[i] = s;
        out[half + i] = d;
    }
    Ok(out)
}

/// One synthesis level, inverse of [`forward_level`].
fn inverse_level(coeffs: &[f32]) -> Result<Vec<f32>> {
    let n = coeffs.len();
    if n < 2 || n % 2 != 0 {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    let half = n / 2;
    let mut out = vec![0.0f32; n];
    for i in 0..half {
        let s = coeffs[i];
        let d = coeffs[half + i];
        for k in 0..4 {
            out[(2 * i + k) % n] += H[k] * s + G[k] * d;
        }
    }
    Ok(out)
}

/// Full multi-level 1-D transform: repeats [`forward_level`] on the
/// approximation part up to `levels` times, stopping early once the
/// approximation is shorter than one filter length.
pub fn forward(data: &[f32], levels: u32) -> Result<Vec<f32>> {
    let n = data.len();
    if !is_pow2(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    let mut out = data.to_vec();
    let mut len = n;
    for _ in 0..levels {
        if len < 4 {
            break;
        }
        let t = forward_level(&out[..len])?;
        out[..len].copy_from_slice(&t);
        len /= 2;
    }
    Ok(out)
}

/// Inverse of [`forward`] with the same `levels`.
pub fn inverse(coeffs: &[f32], levels: u32) -> Result<Vec<f32>> {
    let n = coeffs.len();
    if !is_pow2(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    // Determine the lengths the forward pass actually visited.
    let mut lens = Vec::new();
    let mut len = n;
    for _ in 0..levels {
        if len < 4 {
            break;
        }
        lens.push(len);
        len /= 2;
    }
    let mut out = coeffs.to_vec();
    for &l in lens.iter().rev() {
        let t = inverse_level(&out[..l])?;
        out[..l].copy_from_slice(&t);
    }
    Ok(out)
}

/// Separable multi-level 2-D transform of a square row-major matrix: at each
/// level, one analysis pass over every row then every column of the current
/// approximation block (Mallat pyramid). Coefficient layout matches the
/// non-standard Haar quadrant convention.
pub fn forward_2d(input: &[f32], side: usize, levels: u32) -> Result<Vec<f32>> {
    if !is_pow2(side) {
        return Err(WaveletError::NotPowerOfTwo { len: side });
    }
    if input.len() != side * side {
        return Err(WaveletError::NotSquare { width: side, height: input.len() / side.max(1) });
    }
    let mut out = input.to_vec();
    let mut cur = side;
    let mut col = vec![0.0f32; side];
    for _ in 0..levels {
        if cur < 4 {
            break;
        }
        for j in 0..cur {
            let row = forward_level(&out[j * side..j * side + cur])?;
            out[j * side..j * side + cur].copy_from_slice(&row);
        }
        for i in 0..cur {
            for j in 0..cur {
                col[j] = out[j * side + i];
            }
            let t = forward_level(&col[..cur])?;
            for j in 0..cur {
                out[j * side + i] = t[j];
            }
        }
        cur /= 2;
    }
    Ok(out)
}

/// Inverse of [`forward_2d`] with the same `levels`: the round trip the
/// tests pin the forward transform by.
#[cfg(test)]
fn inverse_2d(coeffs: &[f32], side: usize, levels: u32) -> Result<Vec<f32>> {
    if !is_pow2(side) {
        return Err(WaveletError::NotPowerOfTwo { len: side });
    }
    if coeffs.len() != side * side {
        return Err(WaveletError::NotSquare { width: side, height: coeffs.len() / side.max(1) });
    }
    let mut sizes = Vec::new();
    let mut cur = side;
    for _ in 0..levels {
        if cur < 4 {
            break;
        }
        sizes.push(cur);
        cur /= 2;
    }
    let mut out = coeffs.to_vec();
    let mut col = vec![0.0f32; side];
    for &sz in sizes.iter().rev() {
        for i in 0..sz {
            for j in 0..sz {
                col[j] = out[j * side + i];
            }
            let t = inverse_level(&col[..sz])?;
            for j in 0..sz {
                out[j * side + i] = t[j];
            }
        }
        for j in 0..sz {
            let row = inverse_level(&out[j * side..j * side + sz])?;
            out[j * side..j * side + sz].copy_from_slice(&row);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 29 + 5) % 17) as f32 / 17.0 - 0.3).collect()
    }

    fn energy(v: &[f32]) -> f64 {
        v.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    #[test]
    fn filters_are_orthonormal() {
        let hh: f32 = H.iter().map(|h| h * h).sum();
        assert!((hh - 1.0).abs() < 1e-5, "‖h‖² = {hh}");
        let hg: f32 = H.iter().zip(&G).map(|(h, g)| h * g).sum();
        assert!(hg.abs() < 1e-5, "⟨h,g⟩ = {hg}");
        let h_sum: f32 = H.iter().sum();
        assert!((h_sum - 2.0f32.sqrt()).abs() < 1e-5, "Σh = √2 required");
        let g_sum: f32 = G.iter().sum();
        assert!(g_sum.abs() < 1e-5, "Σg = 0 required");
    }

    #[test]
    fn single_level_round_trip() {
        let data = demo(16);
        let t = forward_level(&data).unwrap();
        let back = inverse_level(&t).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn multi_level_round_trip() {
        let data = demo(64);
        for levels in [1, 2, 3, 4, 10] {
            let t = forward(&data, levels).unwrap();
            let back = inverse(&t, levels).unwrap();
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() < 1e-4, "levels {levels}");
            }
        }
    }

    #[test]
    fn transform_preserves_energy() {
        let data = demo(128);
        let t = forward(&data, 5).unwrap();
        let (e1, e2) = (energy(&data), energy(&t));
        assert!((e1 - e2).abs() / e1 < 1e-4, "{e1} vs {e2}");
    }

    #[test]
    fn constant_signal_concentrates_in_approximation() {
        let data = vec![1.0f32; 16];
        let t = forward_level(&data).unwrap();
        // Approximation = √2, details = 0.
        for i in 0..8 {
            assert!((t[i] - 2.0f32.sqrt()).abs() < 1e-5);
            assert!(t[8 + i].abs() < 1e-5);
        }
    }

    #[test]
    fn linear_ramp_has_small_details() {
        // D4 has two vanishing moments: linear signals annihilate in the
        // detail band (up to the periodic wrap at the boundary).
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let t = forward_level(&data).unwrap();
        for i in 1..15 {
            assert!(t[16 + i].abs() < 1e-3, "interior detail {i} = {}", t[16 + i]);
        }
    }

    #[test]
    fn two_d_round_trip() {
        let side = 16;
        let img: Vec<f32> = (0..side * side).map(|i| ((i * 13) % 31) as f32 / 31.0).collect();
        for levels in [1u32, 2, 3] {
            let t = forward_2d(&img, side, levels).unwrap();
            let back = inverse_2d(&t, side, levels).unwrap();
            for (a, b) in img.iter().zip(&back) {
                assert!((a - b).abs() < 1e-4, "levels {levels}");
            }
        }
    }

    #[test]
    fn two_d_energy_preserved() {
        let side = 32;
        let img: Vec<f32> = (0..side * side).map(|i| ((i * 7 + 3) % 13) as f32 / 13.0).collect();
        let t = forward_2d(&img, side, 4).unwrap();
        let (e1, e2) = (energy(&img), energy(&t));
        assert!((e1 - e2).abs() / e1 < 1e-4);
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(forward_level(&demo(5)).is_err());
        assert!(forward(&demo(6), 1).is_err());
        assert!(forward_2d(&demo(12), 3, 1).is_err());
    }

    #[test]
    fn levels_beyond_capacity_saturate() {
        // Requesting more levels than possible stops at length 4 rather than
        // erroring; the inverse uses the same rule so they stay in sync.
        let data = demo(8);
        let t = forward(&data, 99).unwrap();
        let back = inverse(&t, 99).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
