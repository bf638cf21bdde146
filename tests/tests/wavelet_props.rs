//! Property-based tests for the wavelet substrate: the DP/naive
//! equivalence that the whole Figure 6 experiment rests on, plus transform
//! algebra over arbitrary inputs.

use proptest::prelude::*;
use walrus_wavelet::sliding::{
    compute_signature_matrix, compute_signatures, compute_signatures_naive,
};
use walrus_wavelet::{daubechies, haar1d, haar2d, Guard, SlidingParams};

/// A power-of-two in `[lo, hi]` (both powers of two).
fn pow2_in(lo: usize, hi: usize) -> impl Strategy<Value = usize> {
    let lo_log = lo.trailing_zeros();
    let hi_log = hi.trailing_zeros();
    (lo_log..=hi_log).prop_map(|e| 1usize << e)
}

fn plane(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.0f32..1.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn haar1d_round_trips(data in plane(64)) {
        let coeffs = haar1d::forward(&data).unwrap();
        let back = haar1d::inverse(&coeffs).unwrap();
        for (a, b) in data.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn haar1d_normalization_invertible(data in plane(32)) {
        let raw = haar1d::forward(&data).unwrap();
        let mut n = raw.clone();
        haar1d::normalize(&mut n);
        haar1d::denormalize(&mut n);
        for (a, b) in raw.iter().zip(&n) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn haar2d_nonstandard_round_trips(data in plane(16 * 16)) {
        let w = haar2d::nonstandard_forward(&data, 16).unwrap();
        let back = haar2d::nonstandard_inverse(&w, 16).unwrap();
        for (a, b) in data.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn haar2d_corner_is_average_pyramid_transform(data in plane(32 * 32), m in pow2_in(1, 16)) {
        // The identity the DP algorithm rests on, over random inputs.
        let full = haar2d::nonstandard_forward(&data, 32).unwrap();
        let corner = haar2d::corner(&full, 32, m);
        let avg = haar2d::average_down(&data, 32, m);
        let direct = haar2d::nonstandard_forward(&avg, m).unwrap();
        for (a, b) in corner.iter().zip(&direct) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn haar2d_dc_is_mean(data in plane(8 * 8)) {
        let w = haar2d::nonstandard_forward(&data, 8).unwrap();
        let mean: f32 = data.iter().sum::<f32>() / 64.0;
        prop_assert!((w[0] - mean).abs() < 1e-4);
    }

    #[test]
    fn daubechies_round_trips_and_preserves_energy(data in plane(64), levels in 1u32..5) {
        let t = daubechies::forward(&data, levels).unwrap();
        let back = daubechies::inverse(&t, levels).unwrap();
        for (a, b) in data.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-3);
        }
        let e1: f64 = data.iter().map(|&x| (x as f64).powi(2)).sum();
        let e2: f64 = t.iter().map(|&x| (x as f64).powi(2)).sum();
        if e1 > 1e-6 {
            prop_assert!((e1 - e2).abs() / e1 < 1e-3);
        }
    }

    #[test]
    fn dp_equals_naive_on_random_images(
        seed_plane in plane(24 * 24),
        s in pow2_in(1, 4),
        stride in pow2_in(1, 8),
    ) {
        let params = SlidingParams { s, omega_min: s.max(2) * 2, omega_max: 16, stride };
        prop_assume!(params.validate().is_ok());
        let dp = compute_signatures(&[&seed_plane], 24, 24, &params).unwrap();
        let naive = compute_signatures_naive(&[&seed_plane], 24, 24, &params).unwrap();
        prop_assert_eq!(dp.len(), naive.len());
        for (a, b) in dp.iter().zip(&naive) {
            prop_assert_eq!((a.x, a.y, a.omega), (b.x, b.y, b.omega));
            for (c, d) in a.coeffs.iter().zip(&b.coeffs) {
                prop_assert!((c - d).abs() < 1e-4, "coeff {} vs {}", c, d);
            }
        }
    }

    #[test]
    fn matrix_sweep_equals_naive_on_any_geometry(
        p1 in plane(41 * 37),
        p2 in plane(41 * 37),
        width in 16usize..=41,
        height in 16usize..=37,
        s in pow2_in(1, 4),
        stride in pow2_in(1, 8),
        threads in 1usize..=3,
    ) {
        // Widths and heights the strides do not divide: the last window of
        // a row stops short of the edge, and levels below ω_min have more
        // cells than the level above reads.
        let params = SlidingParams { s, omega_min: s.max(2) * 2, omega_max: 16, stride };
        let planes = [&p1[..width * height], &p2[..width * height]];
        let matrix =
            compute_signature_matrix(&planes, width, height, &params, threads, &Guard::none()).unwrap();
        let naive = compute_signatures_naive(&planes, width, height, &params).unwrap();
        prop_assert_eq!(matrix.len(), naive.len());
        prop_assert_eq!(matrix.dims, 2 * s * s);
        for (i, b) in naive.iter().enumerate() {
            prop_assert_eq!(matrix.windows[i], (b.x, b.y, b.omega));
            for (c, d) in matrix.row(i).iter().zip(&b.coeffs) {
                prop_assert_eq!(c.to_bits(), d.to_bits(), "coeff {} vs {}", c, d);
            }
        }
        // The per-window adapter repacks the same rows.
        let adapted = compute_signatures(&planes, width, height, &params).unwrap();
        for (i, a) in adapted.iter().enumerate() {
            prop_assert_eq!((a.x, a.y, a.omega), matrix.windows[i]);
            prop_assert_eq!(&a.coeffs[..], matrix.row(i));
        }
    }

    #[test]
    fn dp_equals_naive_multichannel_rect(
        p1 in plane(32 * 16),
        p2 in plane(32 * 16),
    ) {
        let params = SlidingParams { s: 2, omega_min: 4, omega_max: 16, stride: 4 };
        let dp = compute_signatures(&[&p1, &p2], 32, 16, &params).unwrap();
        let naive = compute_signatures_naive(&[&p1, &p2], 32, 16, &params).unwrap();
        prop_assert_eq!(dp.len(), naive.len());
        for (a, b) in dp.iter().zip(&naive) {
            for (c, d) in a.coeffs.iter().zip(&b.coeffs) {
                prop_assert!((c - d).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn signature_first_coeff_is_window_mean(data in plane(16 * 16)) {
        let params = SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 8 };
        let sigs = compute_signatures(&[&data], 16, 16, &params).unwrap();
        for sig in &sigs {
            let mut mean = 0.0f32;
            for dy in 0..8 {
                for dx in 0..8 {
                    mean += data[(sig.y + dy) * 16 + sig.x + dx];
                }
            }
            mean /= 64.0;
            prop_assert!((sig.coeffs[0] - mean).abs() < 1e-4);
        }
    }

    #[test]
    fn quantize_keeps_k_largest(coeffs in proptest::collection::vec(-1.0f32..1.0, 2..64), k in 1usize..20) {
        let q = walrus_wavelet::quantize::quantize(&coeffs, k);
        prop_assert!(q.len() <= k.min(coeffs.len() - 1));
        // Every retained coefficient's magnitude is >= every dropped one's.
        let retained: Vec<u32> = q.positive.iter().chain(&q.negative).copied().collect();
        if !retained.is_empty() {
            let min_kept = retained
                .iter()
                .map(|&i| coeffs[i as usize].abs())
                .fold(f32::INFINITY, f32::min);
            for (i, c) in coeffs.iter().enumerate().skip(1) {
                if !retained.contains(&(i as u32)) {
                    prop_assert!(c.abs() <= min_kept + 1e-6);
                }
            }
        }
    }
}
