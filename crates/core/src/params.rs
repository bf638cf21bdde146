//! WALRUS engine parameters.
//!
//! Every knob the paper exposes, collected in one validated struct. The
//! defaults reproduce the configuration of the paper's retrieval-quality
//! experiment (§6.4): 64×64 sliding windows, 2×2 signatures per channel in
//! YCC space, cluster epsilon `ε_c = 0.05`, query epsilon `ε = 0.085`,
//! centroid region signatures, 16×16 region bitmaps, and the quick-union
//! image-matching metric.

use crate::{Result, WalrusError};
use walrus_guard::Budgets;
use walrus_imagery::ColorSpace;
use walrus_wavelet::SlidingParams;

/// How a region's signature summarizes its cluster (paper Definition 4.1
/// and §5.3 offer both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureKind {
    /// The cluster centroid: a point in signature space; two regions match
    /// when their centroids are within `ε` (L2).
    Centroid,
    /// The bounding box of all member signatures; two regions match when
    /// one box extended by `ε` overlaps the other.
    BoundingBox,
}

/// Which image-matching algorithm combines matched region pairs (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingKind {
    /// Union the bitmaps of all matched regions — linear time, relaxes the
    /// one-to-one constraint of Definition 4.2. The paper's §6.4 choice.
    Quick,
    /// Greedy `O(n²)` heuristic for the one-to-one constrained similar
    /// region pair set.
    Greedy,
    /// Exact maximum (exponential; Theorem 5.1 shows the problem NP-hard).
    /// Falls back to greedy above `exact_pair_limit` pairs.
    Exact,
}

/// The denominator variant of the similarity measure (§4 discusses all
/// three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityKind {
    /// Definition 4.3: `(area(∪Qᵢ) + area(∪Tᵢ)) / (area(Q) + area(T))`.
    Symmetric,
    /// Fraction of the *query* image covered by matching regions.
    QueryFraction,
    /// For differently sized images: denominator `2 · area(smaller image)`.
    MinImage,
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalrusParams {
    /// Sliding-window sweep configuration (`s`, `ω_min`, `ω_max`, `t`).
    pub sliding: SlidingParams,
    /// Color space images are converted to before signature extraction.
    pub color_space: ColorSpace,
    /// BIRCH radius threshold `ε_c` for clustering window signatures.
    pub cluster_epsilon: f64,
    /// Region-matching distance `ε` (the querying epsilon of Table 1).
    pub query_epsilon: f32,
    /// Image-similarity acceptance threshold `τ` (Definition 4.3).
    pub tau: f64,
    /// Region signature representation.
    pub signature_kind: SignatureKind,
    /// Image-matching algorithm.
    pub matching: MatchingKind,
    /// Similarity denominator variant.
    pub similarity: SimilarityKind,
    /// Region bitmap grid (`grid × grid` bits per region; §6.4 uses 16).
    pub bitmap_grid: usize,
    /// Optional cap on clusters per image (CF-tree rebuild budget).
    pub max_regions_per_image: Option<usize>,
    /// Pair-count ceiling beyond which [`MatchingKind::Exact`] degrades to
    /// greedy (the exact algorithm is exponential).
    pub exact_pair_limit: usize,
    /// Worker threads for parallel extraction, batch ingest and query
    /// processing. `0` = auto (the `WALRUS_THREADS` environment variable,
    /// then available hardware parallelism); `1` forces fully serial
    /// execution. Results are byte-identical for every value. This is a
    /// runtime knob: snapshots do not persist it, so a bare snapshot file
    /// loads with `0` (auto) and a store directory reopens with whatever
    /// the caller of `open` passes.
    pub threads: usize,
    /// Per-request resource ceilings (max decoded pixels, regions per
    /// image, index candidates, WAL record bytes), enforced at decode,
    /// extraction, probe, and append time. Like `threads` this is a runtime
    /// knob: snapshots do not persist it, a bare snapshot file loads with
    /// the defaults and a store reopens with the caller's.
    pub budgets: Budgets,
    /// Binary-signature prefilter during index probes: `None` = auto (the
    /// `WALRUS_PREFILTER` environment variable, default on), `Some(x)` =
    /// forced. The prefilter is admissible — rankings are bit-identical
    /// either way — so this only trades popcount tests against exact
    /// geometry tests. Runtime knob: not persisted by snapshots, taken from
    /// the caller on every store reopen.
    pub prefilter: Option<bool>,
}

impl WalrusParams {
    /// The configuration of the paper's §6.4 experiment.
    pub fn paper_defaults() -> Self {
        Self {
            sliding: SlidingParams { s: 2, omega_min: 64, omega_max: 64, stride: 8 },
            color_space: ColorSpace::Ycc,
            cluster_epsilon: 0.05,
            query_epsilon: 0.085,
            tau: 0.0,
            signature_kind: SignatureKind::Centroid,
            matching: MatchingKind::Quick,
            similarity: SimilarityKind::Symmetric,
            bitmap_grid: 16,
            max_regions_per_image: None,
            exact_pair_limit: 16,
            threads: 0,
            budgets: Budgets::default(),
            prefilter: None,
        }
    }

    /// A configuration suited to small synthetic images (≤128 px): 8–32 px
    /// windows with stride 4, otherwise paper-like.
    pub fn small_image_defaults() -> Self {
        Self {
            sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
            ..Self::paper_defaults()
        }
    }

    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<()> {
        self.sliding.validate()?;
        if !self.cluster_epsilon.is_finite() || self.cluster_epsilon < 0.0 {
            return Err(WalrusError::BadParams(format!(
                "cluster_epsilon {} must be finite and >= 0",
                self.cluster_epsilon
            )));
        }
        if !self.query_epsilon.is_finite() || self.query_epsilon < 0.0 {
            return Err(WalrusError::BadParams(format!(
                "query_epsilon {} must be finite and >= 0",
                self.query_epsilon
            )));
        }
        if !self.tau.is_finite() || !(0.0..=1.0).contains(&self.tau) {
            return Err(WalrusError::BadParams(format!("tau {} must be in [0, 1]", self.tau)));
        }
        if self.bitmap_grid == 0 {
            return Err(WalrusError::BadParams("bitmap_grid must be >= 1".into()));
        }
        if let Some(m) = self.max_regions_per_image {
            if m < 2 {
                return Err(WalrusError::BadParams("max_regions_per_image must be >= 2".into()));
            }
        }
        if self.exact_pair_limit == 0 {
            return Err(WalrusError::BadParams("exact_pair_limit must be >= 1".into()));
        }
        let b = &self.budgets;
        if b.max_decoded_pixels == 0
            || b.max_regions_per_image == 0
            || b.max_index_candidates == 0
            || b.max_wal_record_bytes == 0
        {
            return Err(WalrusError::BadParams("budgets must all be >= 1".into()));
        }
        Ok(())
    }

    /// Signature dimensionality under this configuration (`s² × channels`;
    /// the paper's §6.4 example: 2×2 × 3 channels = 12-dimensional points).
    pub fn signature_dims(&self) -> usize {
        self.sliding.signature_dims(self.color_space.channel_count())
    }

    /// The effective prefilter setting: an explicit [`Self::prefilter`]
    /// wins; otherwise the `WALRUS_PREFILTER` environment variable (read
    /// once per process; `0`/`off`/`false`/`no` disable), defaulting to
    /// enabled.
    pub fn prefilter_enabled(&self) -> bool {
        self.prefilter.unwrap_or_else(env_prefilter_default)
    }
}

fn env_prefilter_default() -> bool {
    use std::sync::OnceLock;
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("WALRUS_PREFILTER") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !matches!(v.as_str(), "0" | "off" | "false" | "no")
        }
        Err(_) => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate_and_are_twelve_dimensional() {
        let p = WalrusParams::paper_defaults();
        p.validate().unwrap();
        assert_eq!(p.signature_dims(), 12);
        assert_eq!(p.color_space, ColorSpace::Ycc);
        assert_eq!(p.cluster_epsilon, 0.05);
        assert_eq!(p.query_epsilon, 0.085);
    }

    #[test]
    fn small_image_defaults_validate() {
        WalrusParams::small_image_defaults().validate().unwrap();
    }

    #[test]
    fn rejects_bad_epsilons() {
        let mut p = WalrusParams::paper_defaults();
        p.cluster_epsilon = -0.1;
        assert!(p.validate().is_err());
        p = WalrusParams::paper_defaults();
        p.query_epsilon = f32::NAN;
        assert!(p.validate().is_err());
        p = WalrusParams::paper_defaults();
        p.tau = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_degenerate_structure_params() {
        let mut p = WalrusParams::paper_defaults();
        p.bitmap_grid = 0;
        assert!(p.validate().is_err());
        p = WalrusParams::paper_defaults();
        p.max_regions_per_image = Some(1);
        assert!(p.validate().is_err());
        p = WalrusParams::paper_defaults();
        p.exact_pair_limit = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_zero_budgets() {
        let mut p = WalrusParams::paper_defaults();
        p.budgets.max_decoded_pixels = 0;
        assert!(p.validate().is_err());
        p = WalrusParams::paper_defaults();
        p.budgets.max_wal_record_bytes = 0;
        assert!(p.validate().is_err());
        p = WalrusParams::paper_defaults();
        p.budgets = Budgets::unlimited();
        p.validate().unwrap();
    }

    #[test]
    fn sliding_validation_propagates() {
        let mut p = WalrusParams::paper_defaults();
        p.sliding.s = 128; // > omega_min
        assert!(p.validate().is_err());
    }

    #[test]
    fn explicit_prefilter_overrides_environment() {
        let mut p = WalrusParams::paper_defaults();
        p.prefilter = Some(false);
        assert!(!p.prefilter_enabled());
        p.prefilter = Some(true);
        assert!(p.prefilter_enabled());
        p.prefilter = None;
        p.validate().unwrap();
    }

    #[test]
    fn gray_space_reduces_dims() {
        let mut p = WalrusParams::paper_defaults();
        p.color_space = ColorSpace::Gray;
        assert_eq!(p.signature_dims(), 4);
    }
}
