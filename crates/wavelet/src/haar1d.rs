//! One-dimensional Haar transform (paper §3.1).
//!
//! The paper's running example: `[2, 2, 5, 7]` decomposes level by level —
//! averages `[2, 6]` then `[4]`, detail coefficients `[0, 1]` then `[2]` —
//! giving the raw transform `[4, 2, 0, 1]` (overall average first, then
//! details in order of increasing resolution). The paper then normalizes by
//! dividing each coefficient by `√2^i`, `i` being the approximation-level
//! index, yielding `[4, 2, 0, 1/√2]`.
//!
//! Note the paper's prose says "level 0 is the finest resolution level" while
//! its worked example divides the *finest* details by `√2` — the two are
//! inconsistent. We follow the worked example (which also matches the
//! companion book \[SDS96\]): detail coefficients produced at decomposition
//! depth `d` (depth 1 = first/finest averaging pass) are divided by
//! `√2^(L−d)` where `L = log2(n)`, so the example's finest details (`d = 1`,
//! `L = 2`) are divided by `√2`, and the coarsest (`d = 2`) by `√2^0 = 1`.

use crate::{is_pow2, Result, WaveletError};

/// Raw (unnormalized) Haar decomposition. Output layout:
/// `[overall_avg, detail_L, detail_{L-1} pair, …, finest details]` —
/// i.e. the paper's "single coefficient representing the overall average
/// followed by detail coefficients in order of increasing resolution".
pub fn forward(data: &[f32]) -> Result<Vec<f32>> {
    let n = data.len();
    if !is_pow2(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    let mut out = data.to_vec();
    let mut scratch = vec![0.0f32; n];
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = out[2 * i];
            let b = out[2 * i + 1];
            scratch[i] = (a + b) / 2.0; // average
            scratch[half + i] = (b - a) / 2.0; // detail: b - average
        }
        out[..len].copy_from_slice(&scratch[..len]);
        len = half;
    }
    Ok(out)
}

/// Inverse of [`forward`]: reconstructs the original signal exactly.
pub fn inverse(coeffs: &[f32]) -> Result<Vec<f32>> {
    let n = coeffs.len();
    if !is_pow2(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    let mut out = coeffs.to_vec();
    let mut scratch = vec![0.0f32; n];
    let mut len = 1;
    while len < n {
        for i in 0..len {
            let avg = out[i];
            let det = out[len + i];
            scratch[2 * i] = avg - det;
            scratch[2 * i + 1] = avg + det;
        }
        out[..2 * len].copy_from_slice(&scratch[..2 * len]);
        len *= 2;
    }
    Ok(out)
}

/// Applies the paper's `√2^i` normalization in place (see module docs for
/// the depth convention). The coefficient at index `k ∈ [2^(d'), 2^(d'+1))`
/// was produced at depth `L − d'`, so it is divided by `√2^(d')` … worked
/// out: detail block `j` (0 = coarsest single detail, `L−1` = finest half of
/// the array) is divided by `√2^j`. The overall average is untouched.
pub fn normalize(coeffs: &mut [f32]) {
    let n = coeffs.len();
    if n <= 1 {
        return;
    }
    debug_assert!(is_pow2(n));
    let mut block_start = 1usize;
    let mut j = 0u32;
    while block_start < n {
        let block_len = block_start; // blocks have sizes 1, 1, 2, 4, …
        let factor = (2.0f32).powf(j as f32 / 2.0);
        for c in &mut coeffs[block_start..block_start + block_len] {
            *c /= factor;
        }
        block_start += block_len;
        j += 1;
    }
}

/// Undoes [`normalize`].
pub fn denormalize(coeffs: &mut [f32]) {
    let n = coeffs.len();
    if n <= 1 {
        return;
    }
    debug_assert!(is_pow2(n));
    let mut block_start = 1usize;
    let mut j = 0u32;
    while block_start < n {
        let block_len = block_start;
        let factor = (2.0f32).powf(j as f32 / 2.0);
        for c in &mut coeffs[block_start..block_start + block_len] {
            *c *= factor;
        }
        block_start += block_len;
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_raw() {
        // Paper §3.1: I = [2, 2, 5, 7] → I' = [4, 2, 0, 1].
        let out = forward(&[2.0, 2.0, 5.0, 7.0]).unwrap();
        assert_eq!(out, vec![4.0, 2.0, 0.0, 1.0]);
    }

    #[test]
    fn paper_example_normalized() {
        // Paper §3.1: normalized transform is [4, 2, 0, 1/√2].
        let mut out = forward(&[2.0, 2.0, 5.0, 7.0]).unwrap();
        normalize(&mut out);
        assert_eq!(out[0], 4.0);
        assert_eq!(out[1], 2.0);
        assert_eq!(out[2], 0.0);
        assert!((out[3] - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let data = vec![3.0, -1.0, 0.5, 2.25, 8.0, 8.0, -4.0, 1.0];
        let coeffs = forward(&data).unwrap();
        let back = inverse(&coeffs).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn normalize_round_trips() {
        let data = vec![1.0, 4.0, 2.0, 8.0, 5.0, 5.0, 9.0, 0.0];
        let raw = forward(&data).unwrap();
        let mut norm = raw.clone();
        normalize(&mut norm);
        denormalize(&mut norm);
        for (a, b) in raw.iter().zip(&norm) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_signal_has_zero_details() {
        let out = forward(&[5.0; 16]).unwrap();
        assert_eq!(out[0], 5.0);
        assert!(out[1..].iter().all(|&d| d == 0.0));
    }

    #[test]
    fn first_coefficient_is_mean() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let out = forward(&data).unwrap();
        assert!((out[0] - 4.5).abs() < 1e-6);
    }

    #[test]
    fn single_element_is_its_own_transform() {
        assert_eq!(forward(&[7.0]).unwrap(), vec![7.0]);
        assert_eq!(inverse(&[7.0]).unwrap(), vec![7.0]);
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert_eq!(forward(&[1.0, 2.0, 3.0]).unwrap_err(), WaveletError::NotPowerOfTwo { len: 3 });
        assert!(forward(&[]).is_err());
        assert!(inverse(&[1.0, 2.0, 3.0, 4.0, 5.0]).is_err());
    }

    #[test]
    fn linearity_of_transform() {
        let a = vec![1.0, 3.0, 2.0, 6.0];
        let b = vec![4.0, 0.0, -2.0, 2.0];
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ta = forward(&a).unwrap();
        let tb = forward(&b).unwrap();
        let tsum = forward(&sum).unwrap();
        for i in 0..4 {
            assert!((ta[i] + tb[i] - tsum[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn truncating_small_coefficients_gives_small_error() {
        // The lossy-compression property described in §3.1.
        let data: Vec<f32> = (0..64).map(|i| (i as f32 / 10.0).sin()).collect();
        let mut coeffs = forward(&data).unwrap();
        for c in coeffs.iter_mut().skip(1) {
            if c.abs() < 0.01 {
                *c = 0.0;
            }
        }
        let back = inverse(&coeffs).unwrap();
        let max_err = data.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_err < 0.1, "max reconstruction error {max_err}");
    }
}
