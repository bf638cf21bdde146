//! Coefficient truncation and quantization.
//!
//! Jacobs, Finkelstein and Salesin's "fast multiresolution image querying"
//! (\[JFS95\], reimplemented in `walrus-baselines`) keeps only the 40–60
//! largest-magnitude wavelet coefficients per channel and "harshly
//! quantizes" them to their sign (+1 / −1), discarding magnitude. This
//! module provides those operations plus the sparse signature type the
//! baseline stores.

/// A truncated, sign-quantized wavelet signature: the flat indices of the
/// retained coefficients, split by sign. Indices within each list are sorted
/// ascending, enabling linear-time overlap counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedSignature {
    /// Indices of retained positive coefficients.
    pub positive: Vec<u32>,
    /// Indices of retained negative coefficients.
    pub negative: Vec<u32>,
}

impl QuantizedSignature {
    /// Number of retained coefficients.
    pub fn len(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// True when no coefficients were retained.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }

    /// Number of indices present *with the same sign* in both signatures —
    /// the matching term of the Jacobs bitmap metric.
    pub fn matches(&self, other: &QuantizedSignature) -> usize {
        sorted_overlap(&self.positive, &other.positive) + sorted_overlap(&self.negative, &other.negative)
    }
}

/// Indices of the `k` largest-magnitude entries of `coeffs`, excluding index
/// 0 (the DC/average term, which Jacobs et al. handle separately). Ties are
/// broken by lower index for determinism.
pub fn top_k_indices(coeffs: &[f32], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (1..coeffs.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        coeffs[b as usize]
            .abs()
            .partial_cmp(&coeffs[a as usize].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Builds a sign-quantized signature from dense coefficients, retaining the
/// `k` largest-magnitude non-DC entries.
pub fn quantize(coeffs: &[f32], k: usize) -> QuantizedSignature {
    let kept = top_k_indices(coeffs, k);
    let mut positive = Vec::new();
    let mut negative = Vec::new();
    for i in kept {
        if coeffs[i as usize] >= 0.0 {
            positive.push(i);
        } else {
            negative.push(i);
        }
    }
    QuantizedSignature { positive, negative }
}

/// Lower edge of the value range the generic thermometer thresholds span.
/// Region signature coefficients are window averages in `[0, 1]` (index 0 of
/// each channel block) and level-normalized details centered on 0, so
/// `[-0.5, 1]` covers the pipeline's output; values outside it saturate,
/// which costs pruning power but never admissibility (the encoding stays
/// monotone).
pub const SIG_RANGE_LO: f32 = -0.5;
/// Upper edge of the generic thermometer threshold range.
pub const SIG_RANGE_HI: f32 = 1.0;

/// Dimensionality of the engine's canonical sliding-window signature:
/// `s² = 4` coefficients per channel (the paper's `s = 2`), channel-major,
/// over 3 color channels. Only this layout gets the role-aware threshold
/// tables below; every other dimensionality falls back to the generic
/// uniform ladder.
const CANONICAL_DIMS: usize = 12;
/// Canonical per-channel block length (`s²`). Index 0 of each block is the
/// window average; the rest are level-normalized detail coefficients.
const CANONICAL_BLOCK: usize = 4;
/// Thresholds for the three window-average dimensions of the canonical
/// layout. Averages concentrate in roughly `[0.15, 0.9]` with most of the
/// discriminating spread above `0.3`, so the 11 thresholds tile
/// `[0.30, 0.75]` at `0.045` spacing — fine enough that a real gap between
/// a probe interval and a region's bounds usually straddles one.
const AVG_LADDER: [f32; 11] = [
    0.300, 0.345, 0.390, 0.435, 0.480, 0.525, 0.570, 0.615, 0.660, 0.705, 0.750,
];
/// Thresholds for the last channel block's detail dimensions. Detail
/// coefficients are level-normalized and concentrate tightly around 0; ten
/// thresholds tile `[-0.09, 0.09]` at `0.02` spacing. The first two blocks'
/// details get no thresholds at all: measured on the benchmark corpus they
/// certify well under 2% of rejections each, so their bits buy more pruning
/// when spent on the dimensions above. Allocation only affects pruning
/// power, never admissibility — any fixed monotone table is admissible.
const DETAIL_LADDER: [f32; 10] =
    [-0.09, -0.07, -0.05, -0.03, -0.01, 0.01, 0.03, 0.05, 0.07, 0.09];

/// The threshold ladder for dimension `d` of a canonical 12-dim signature,
/// and the lane bit offset where its bits start. Layout (63 bits used):
/// dims 0/4/8 (the per-channel averages) get the 11 [`AVG_LADDER`] bits,
/// dims 9–11 (the last block's details) the 10 [`DETAIL_LADDER`] bits, and
/// the remaining detail dims contribute no bits.
fn canonical_ladder(d: usize) -> &'static [f32] {
    if d % CANONICAL_BLOCK == 0 {
        &AVG_LADDER
    } else if d >= CANONICAL_DIMS - (CANONICAL_BLOCK - 1) {
        &DETAIL_LADDER
    } else {
        &[]
    }
}

/// Thermometer-encodes a canonical 12-dim signature vector with the
/// role-aware per-dimension ladders.
fn canonical_thermometer_code(values: &[f32]) -> u64 {
    let mut code = 0u64;
    let mut offset = 0usize;
    for (d, &v) in values.iter().enumerate() {
        let ladder = canonical_ladder(d);
        for (k, &t) in ladder.iter().enumerate() {
            if v > t {
                code |= 1u64 << (offset + k);
            }
        }
        offset += ladder.len();
    }
    code
}

/// A 128-bit binary region signature: two 64-bit thermometer-code lanes,
/// `lanes[0]` encoding the region's per-dimension signature minimum
/// (`bbox_min`) and `lanes[1]` its maximum (`bbox_max`).
///
/// Each dimension owns a fixed run of threshold bits in the lane; bit `k`
/// of a dimension is set iff the value strictly exceeds that dimension's
/// threshold `t_k` (see [`thermometer_code`]). The engine's canonical
/// 12-dim layout uses role-aware per-dimension ladders (`AVG_LADDER` /
/// `DETAIL_LADDER`); any other dimensionality packs `b = 64 / min(D, 64)`
/// uniformly spaced thresholds per dimension. Because every encoding is
/// monotone — a bit set in `code(x)` and clear in `code(y)` proves
/// `x > t_k >= y`, hence `x > y` strictly — comparing lanes yields
/// *certain* interval-disjointness verdicts, never false rejections. That
/// is what makes the popcount-Hamming prefilter admissible: the exact
/// L2/bbox match is only skipped when it provably cannot accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BinarySignature {
    /// `[code(bbox_min), code(bbox_max)]`.
    pub lanes: [u64; 2],
}

impl BinarySignature {
    /// Derives the signature from a region's per-dimension signature bounds.
    /// Deterministic: a pure function of the two vectors, so rebuilding from
    /// a persisted region always reproduces the stored lanes bit-for-bit.
    pub fn from_bbox(bbox_min: &[f32], bbox_max: &[f32]) -> Self {
        BinarySignature { lanes: [thermometer_code(bbox_min), thermometer_code(bbox_max)] }
    }
}

/// Thermometer-encodes a signature vector into one 64-bit lane.
///
/// Canonical 12-dim vectors use the role-aware per-dimension ladders (see
/// `canonical_ladder`): the three window-average dimensions and the last
/// channel block's details carry essentially all of the measured pruning
/// power, so they get dense thresholds and the remaining detail dimensions
/// get none. Every other dimensionality uses the generic uniform ladder:
/// the first `min(D, 64)` dimensions each receive `b = 64 / min(D, 64)`
/// bits at positions `[d*b, (d+1)*b)`; bit `k` is set iff `value > t_k`
/// where `t_k = SIG_RANGE_LO + (k+1) * delta` and
/// `delta = (SIG_RANGE_HI - SIG_RANGE_LO) / (b + 1)`. Dimensions beyond 64
/// are not encoded. Either way the code is a pure, monotone function of the
/// vector, so unencoded or saturated values cost pruning power, never a
/// false rejection.
pub fn thermometer_code(values: &[f32]) -> u64 {
    if values.len() == CANONICAL_DIMS {
        return canonical_thermometer_code(values);
    }
    let dims = values.len().min(64);
    if dims == 0 {
        return 0;
    }
    let bits = 64 / dims;
    let delta = (SIG_RANGE_HI - SIG_RANGE_LO) / (bits as f32 + 1.0);
    let mut code = 0u64;
    for (d, &v) in values.iter().take(dims).enumerate() {
        for k in 0..bits {
            let threshold = SIG_RANGE_LO + (k as f32 + 1.0) * delta;
            if v > threshold {
                code |= 1u64 << (d * bits + k);
            }
        }
    }
    code
}

/// The query side of the binary prefilter: thermometer codes of the probe
/// interval's lower and upper corner, compared against stored
/// [`BinarySignature`]s with two bitwise ops and a popcount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCode {
    lo: u64,
    hi: u64,
}

impl QueryCode {
    /// Codes for an explicit per-dimension probe interval `[lo, hi]`.
    /// Callers must widen the interval by enough slack to absorb f32
    /// rounding in the exact test they are guarding (the engine uses
    /// `eps + 1e-4`).
    pub fn from_interval(lo: &[f32], hi: &[f32]) -> Self {
        QueryCode { lo: thermometer_code(lo), hi: thermometer_code(hi) }
    }

    /// Codes for the ball `[center - radius, center + radius]` per
    /// dimension — the shape of a centroid-signature probe.
    pub fn around(center: &[f32], radius: f32) -> Self {
        let lo: Vec<f32> = center.iter().map(|c| c - radius).collect();
        let hi: Vec<f32> = center.iter().map(|c| c + radius).collect();
        QueryCode::from_interval(&lo, &hi)
    }

    /// Number of `(dimension, threshold)` bit positions that *prove* the
    /// stored region's `[bbox_min, bbox_max]` interval disjoint from the
    /// probe interval — a lower bound on how separated the two are in
    /// signature space, computed with two AND-NOTs, an OR, and a popcount.
    ///
    /// A bit counts iff either `code(bbox_min)` has it and `code(probe_hi)`
    /// does not (region entirely above the probe in that dimension) or
    /// `code(probe_lo)` has it and `code(bbox_max)` does not (entirely
    /// below). Monotonicity of [`thermometer_code`] makes both directions
    /// strict, so a nonzero count is a *certificate* of disjointness.
    pub fn separation_popcount(&self, sig: &BinarySignature) -> u32 {
        ((sig.lanes[0] & !self.hi) | (self.lo & !sig.lanes[1])).count_ones()
    }

    /// True when the popcount certificate proves the stored region cannot
    /// intersect the probe interval: the exact match may be skipped.
    pub fn certainly_disjoint(&self, sig: &BinarySignature) -> bool {
        self.separation_popcount(sig) != 0
    }
}

fn sorted_overlap(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_selects_largest_magnitudes() {
        let coeffs = [9.0, 0.1, -5.0, 0.2, 3.0, -0.05];
        let top = top_k_indices(&coeffs, 2);
        assert_eq!(top, vec![2, 4]); // |−5| and |3|; DC at 0 excluded
    }

    #[test]
    fn top_k_excludes_dc_even_when_largest() {
        let coeffs = [100.0, 1.0, 2.0];
        assert_eq!(top_k_indices(&coeffs, 5), vec![1, 2]);
    }

    #[test]
    fn top_k_with_zero_k() {
        assert!(top_k_indices(&[1.0, 2.0, 3.0], 0).is_empty());
    }

    #[test]
    fn quantize_splits_by_sign() {
        let coeffs = [0.0, 4.0, -3.0, 2.0, -1.0];
        let q = quantize(&coeffs, 3);
        assert_eq!(q.positive, vec![1, 3]);
        assert_eq!(q.negative, vec![2]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn matches_counts_same_signed_overlap() {
        let a = QuantizedSignature { positive: vec![1, 3, 5], negative: vec![2, 8] };
        let b = QuantizedSignature { positive: vec![3, 5, 9], negative: vec![2, 4] };
        assert_eq!(a.matches(&b), 3); // {3, 5} positive + {2} negative
        // A coefficient retained with opposite signs does not match.
        let c = QuantizedSignature { positive: vec![2], negative: vec![3] };
        assert_eq!(a.matches(&c), 0);
    }

    #[test]
    fn matches_is_symmetric() {
        let a = quantize(&[0.0, 1.0, -2.0, 3.0, -4.0, 5.0], 3);
        let b = quantize(&[0.0, -1.0, -2.0, 3.0, 4.0, 0.1], 3);
        assert_eq!(a.matches(&b), b.matches(&a));
    }

    #[test]
    fn self_match_equals_len() {
        let q = quantize(&[0.0, 1.0, -2.0, 0.5, -0.1, 3.0], 4);
        assert_eq!(q.matches(&q), q.len());
    }

    #[test]
    fn empty_signature() {
        let q = quantize(&[5.0], 10);
        assert!(q.is_empty());
        assert_eq!(q.matches(&q), 0);
    }

    /// Deterministic pseudo-random f32 in `[-0.6, 1.1]` (slightly wider than
    /// the nominal signature range, to exercise saturation).
    fn lcg_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as f32 / (1u64 << 31) as f32) * 1.7 - 0.6
    }

    fn lcg_vec(state: &mut u64, dims: usize) -> Vec<f32> {
        (0..dims).map(|_| lcg_f32(state)).collect()
    }

    #[test]
    fn thermometer_code_is_monotone_per_dimension() {
        // For vectors x <= y elementwise, code(x)'s set bits are a subset of
        // code(y)'s — the property every disjointness proof rests on.
        let mut state = 7u64;
        for dims in [1, 4, 12, 48, 64, 80] {
            for _ in 0..50 {
                let x = lcg_vec(&mut state, dims);
                let y: Vec<f32> = x.iter().map(|v| v + lcg_f32(&mut state).abs()).collect();
                let cx = thermometer_code(&x);
                let cy = thermometer_code(&y);
                assert_eq!(cx & !cy, 0, "code({x:?}) not a subset of code({y:?})");
            }
        }
    }

    #[test]
    fn binary_signature_is_deterministic_and_bbox_shaped() {
        let lo = vec![0.1, -0.2, 0.5, 0.9];
        let hi = vec![0.3, 0.0, 0.6, 1.0];
        let sig = BinarySignature::from_bbox(&lo, &hi);
        assert_eq!(sig, BinarySignature::from_bbox(&lo, &hi));
        assert_eq!(sig.lanes[0], thermometer_code(&lo));
        assert_eq!(sig.lanes[1], thermometer_code(&hi));
        // min <= max elementwise means lane 0 is a subset of lane 1.
        assert_eq!(sig.lanes[0] & !sig.lanes[1], 0);
    }

    #[test]
    fn query_code_never_rejects_itself() {
        let mut state = 99u64;
        for dims in [1, 12, 48] {
            for _ in 0..100 {
                let v = lcg_vec(&mut state, dims);
                let sig = BinarySignature::from_bbox(&v, &v);
                let q = QueryCode::around(&v, 0.0);
                assert!(!q.certainly_disjoint(&sig), "self-query rejected: {v:?}");
                assert_eq!(q.separation_popcount(&sig), 0);
            }
        }
    }

    #[test]
    fn disjoint_verdicts_are_certificates() {
        // Whenever the bit test rejects, the real intervals are disjoint in
        // at least one dimension — i.e. the exact match would reject too.
        let mut state = 0xC0FFEE;
        let mut rejected = 0;
        for _ in 0..2000 {
            let dims = 12;
            let center = lcg_vec(&mut state, dims);
            let radius = lcg_f32(&mut state).abs() * 0.2;
            let a = lcg_vec(&mut state, dims);
            let b: Vec<f32> = a.iter().map(|v| v + lcg_f32(&mut state).abs() * 0.1).collect();
            let sig = BinarySignature::from_bbox(&a, &b);
            let q = QueryCode::around(&center, radius);
            if q.certainly_disjoint(&sig) {
                rejected += 1;
                let truly_disjoint = (0..dims).any(|d| {
                    a[d] > center[d] + radius || b[d] < center[d] - radius
                });
                assert!(
                    truly_disjoint,
                    "bit test rejected an intersecting region: \
                     center={center:?} radius={radius} a={a:?} b={b:?}"
                );
            }
        }
        assert!(rejected > 0, "the sweep never rejected anything; the test is vacuous");
    }

    #[test]
    fn dims_beyond_sixty_four_never_prune() {
        // An 80-dim pair differing only past dimension 63 cannot be told
        // apart — no pruning, but also no false rejection.
        let a = vec![0.0f32; 80];
        let mut b = vec![0.0f32; 80];
        b[79] = 0.9;
        let sig = BinarySignature::from_bbox(&b, &b);
        let q = QueryCode::around(&a, 0.01);
        assert!(!q.certainly_disjoint(&sig));
    }

    #[test]
    fn empty_vector_codes_to_zero() {
        assert_eq!(thermometer_code(&[]), 0);
        let sig = BinarySignature::from_bbox(&[], &[]);
        assert_eq!(sig, BinarySignature::default());
        assert!(!QueryCode::from_interval(&[], &[]).certainly_disjoint(&sig));
    }

    #[test]
    fn clear_separation_is_rejected() {
        // A region far above the probe interval in every dimension must be
        // pruned — the prefilter has to have real teeth at D = 12.
        let probe = vec![0.0f32; 12];
        let far = vec![0.9f32; 12];
        let sig = BinarySignature::from_bbox(&far, &far);
        let q = QueryCode::around(&probe, 0.085);
        assert!(q.certainly_disjoint(&sig));
        assert!(q.separation_popcount(&sig) >= 12, "one proof bit per dimension at least");
    }
}
