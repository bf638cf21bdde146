//! Sliding-window wavelet signatures (paper §5.2).
//!
//! For an `n1 × n2` image, signatures are computed for every window whose
//! size `ω` is a power of two in `[ω_min, ω_max]`, rooted on a grid of
//! stride `dist = min(ω, t)` (the paper's alignment rule). The signature of
//! a window is the `s × s` *lowest frequency band* of its non-standard Haar
//! transform — equivalently, the full transform of the window box-averaged
//! down to `s × s` — concatenated over color channels and level-normalized.
//!
//! Two implementations are provided and verified identical:
//!
//! * [`naive::compute_signatures_naive`] — transforms each window from its
//!   raw pixels: `O(ω²)` per window, `O(N·ω²_max)` total.
//! * [`dynamic::compute_signatures`] — the paper's dynamic-programming
//!   algorithm (Figures 4 and 5): level `ω` windows are assembled from the
//!   stored truncated transforms of their four `ω/2` sub-windows via
//!   `copyBlocks`, giving `O(N·S·log ω_max)` total.
//!
//! Both return [`WindowSignature`]s in identical order (window size
//! ascending, then row-major by root position), which lets tests compare
//! the two outputs element-wise.

pub mod dynamic;
pub mod integral;
pub mod naive;

pub use dynamic::{
    compute_signature_matrix, compute_signatures, compute_signatures_with_threads, SignatureMatrix,
};
pub use integral::{compute_signatures_integral, SummedAreaTable};
pub use naive::compute_signatures_naive;

use crate::{is_pow2, Result, WaveletError};

/// Parameters of the sliding-window sweep. All three size parameters must be
/// powers of two, with `s ≤ ω_min ≤ ω_max` and `ω_min ≥ 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlidingParams {
    /// Signature side: each window contributes `s²` coefficients per channel.
    pub s: usize,
    /// Smallest window side considered.
    pub omega_min: usize,
    /// Largest window side considered.
    pub omega_max: usize,
    /// Desired stride `t` between adjacent windows; the effective stride at
    /// window size `ω` is `min(ω, t)`.
    pub stride: usize,
}

impl SlidingParams {
    /// The paper's retrieval-quality configuration: fixed 64×64 windows with
    /// 2×2 signatures (§6.4), stride chosen for tractable window counts.
    pub fn paper_defaults() -> Self {
        Self { s: 2, omega_min: 64, omega_max: 64, stride: 8 }
    }

    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [("s", self.s), ("omega_min", self.omega_min), ("omega_max", self.omega_max), ("t", self.stride)] {
            if !is_pow2(v) {
                return Err(WaveletError::BadParams(format!("{name} = {v} is not a power of two")));
            }
        }
        if self.omega_min < 2 {
            return Err(WaveletError::BadParams("omega_min must be >= 2".into()));
        }
        if self.s > self.omega_min {
            return Err(WaveletError::BadParams(format!(
                "signature side {} exceeds omega_min {}",
                self.s, self.omega_min
            )));
        }
        if self.omega_min > self.omega_max {
            return Err(WaveletError::BadParams(format!(
                "omega_min {} exceeds omega_max {}",
                self.omega_min, self.omega_max
            )));
        }
        Ok(())
    }

    /// Effective stride at window size `omega` (paper Figure 5, step 2).
    #[inline]
    pub fn dist(&self, omega: usize) -> usize {
        self.stride.min(omega)
    }

    /// Signature dimensionality for a `channels`-channel image.
    #[inline]
    pub fn signature_dims(&self, channels: usize) -> usize {
        self.s * self.s * channels
    }

    /// Number of window root positions along an axis of length `n` for
    /// window size `omega` (0 when the window does not fit).
    pub fn positions(&self, n: usize, omega: usize) -> usize {
        if omega > n {
            0
        } else {
            (n - omega) / self.dist(omega) + 1
        }
    }

    /// Total number of signatures that a sweep over an `n1 × n2` image
    /// produces (all sizes in `[ω_min, ω_max]`).
    pub fn total_windows(&self, n1: usize, n2: usize) -> usize {
        let mut total = 0;
        let mut omega = self.omega_min;
        while omega <= self.omega_max {
            total += self.positions(n1, omega) * self.positions(n2, omega);
            omega *= 2;
        }
        total
    }
}

/// One window's signature: root position, size, and the per-channel
/// concatenated `s²` normalized lowest-band coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSignature {
    /// Root (top-left) pixel x coordinate.
    pub x: usize,
    /// Root (top-left) pixel y coordinate.
    pub y: usize,
    /// Window side length.
    pub omega: usize,
    /// `s² × channels` coefficients, channel-major.
    pub coeffs: Vec<f32>,
}

impl WindowSignature {
    /// Euclidean distance between two signatures (must be equal length).
    pub fn distance(&self, other: &WindowSignature) -> f32 {
        l2_distance(&self.coeffs, &other.coeffs)
    }
}

/// Euclidean distance between two coefficient vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Normalizes an `s × s` raw lowest-band matrix in place, using the same
/// level convention as [`crate::haar2d::normalize_nonstandard`]. Applied by
/// both the naive and DP signature paths so their outputs stay identical.
pub(crate) fn normalize_signature_matrix(coeffs: &mut [f32], s: usize) {
    crate::haar2d::normalize_nonstandard(coeffs, s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_paper_defaults() {
        assert!(SlidingParams::paper_defaults().validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_pow2() {
        let mut p = SlidingParams { s: 2, omega_min: 4, omega_max: 16, stride: 4 };
        assert!(p.validate().is_ok());
        p.s = 3;
        assert!(p.validate().is_err());
        p = SlidingParams { s: 2, omega_min: 6, omega_max: 16, stride: 4 };
        assert!(p.validate().is_err());
        p = SlidingParams { s: 2, omega_min: 4, omega_max: 16, stride: 5 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_sizes() {
        assert!(SlidingParams { s: 8, omega_min: 4, omega_max: 16, stride: 1 }.validate().is_err());
        assert!(SlidingParams { s: 2, omega_min: 16, omega_max: 8, stride: 1 }.validate().is_err());
        assert!(SlidingParams { s: 1, omega_min: 1, omega_max: 8, stride: 1 }.validate().is_err());
    }

    #[test]
    fn dist_follows_min_rule() {
        let p = SlidingParams { s: 2, omega_min: 2, omega_max: 64, stride: 8 };
        assert_eq!(p.dist(2), 2);
        assert_eq!(p.dist(8), 8);
        assert_eq!(p.dist(16), 8);
        assert_eq!(p.dist(64), 8);
    }

    #[test]
    fn position_counts() {
        let p = SlidingParams { s: 2, omega_min: 4, omega_max: 8, stride: 4 };
        // n=16, ω=4, dist=4: roots 0,4,8,12 → 4.
        assert_eq!(p.positions(16, 4), 4);
        // n=16, ω=8, dist=4: roots 0,4,8 → 3.
        assert_eq!(p.positions(16, 8), 3);
        // Window too large.
        assert_eq!(p.positions(4, 8), 0);
        // Exact fit.
        assert_eq!(p.positions(8, 8), 1);
    }

    #[test]
    fn total_window_count() {
        let p = SlidingParams { s: 2, omega_min: 4, omega_max: 8, stride: 4 };
        assert_eq!(p.total_windows(16, 16), 4 * 4 + 3 * 3);
    }

    #[test]
    fn l2_distance_basics() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[1.0], &[1.0]), 0.0);
    }
}
