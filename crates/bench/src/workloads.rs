//! Shared workload builders for the experiment harnesses.
//!
//! These encode the substitutions documented in DESIGN.md: the paper's
//! `misc` photo collection becomes a labeled synthetic dataset with the same
//! image sizes and the same semantic structure (a flower class whose members
//! share an object up to translation/scale, plus color-confusable
//! distractors), and the paper's timing image becomes a deterministic busy
//! synthetic scene.

use crate::Scale;
use walrus_core::{ImageDatabase, WalrusParams};
use walrus_imagery::synth::dataset::{
    flower_query_scenario, timing_image, DatasetSpec, ImageClass, SyntheticDataset,
};
use walrus_imagery::{ColorSpace, Image};
use walrus_wavelet::SlidingParams;

/// The three color planes of the deterministic timing scene at `side × side`
/// (Figure 6 uses 256×256).
pub fn timing_planes(side: usize, space: ColorSpace) -> (Vec<Vec<f32>>, usize) {
    let img = timing_image(side, side, 0xBEEF)
        .and_then(|i| i.to_space(space))
        .expect("timing image generation is infallible for valid sides");
    let planes = img.channels().iter().map(|c| c.as_slice().to_vec()).collect();
    (planes, side)
}

/// The retrieval dataset standing in for `misc`: six classes at the paper's
/// image scale (128×96). The flower (query) class is held at 16 images —
/// more than the top-14 cut, so precision cannot saturate by class size,
/// but *rare* relative to the distractors, matching the regime of the
/// paper's 10,000-photo collection where flower photos were a small
/// minority.
pub fn retrieval_dataset(scale: Scale) -> SyntheticDataset {
    let distractors = match scale {
        Scale::Quick => 16,
        Scale::Full => 50,
    };
    let counts: Vec<(ImageClass, usize)> = ImageClass::ALL
        .iter()
        .map(|&c| (c, if c == ImageClass::Flowers { 16 } else { distractors }))
        .collect();
    SyntheticDataset::generate_mixed(
        DatasetSpec {
            images_per_class: 0, // superseded by `counts`
            width: 128,
            height: 96,
            seed: 0x5EED_CAFE,
            classes: ImageClass::ALL.to_vec(),
        },
        &counts,
    )
    .expect("dataset generation is deterministic and infallible")
}

/// Engine parameters mirroring the paper's §6.4 configuration, adapted to
/// the 128×96 synthetic images: multi-size windows 8–32 px with stride 4
/// (the paper's 64×64 windows barely fit its 85–128 px images; the small
/// end of the range is what lets windows fall *inside* objects and carry
/// position/scale-invariant region signatures), 2×2 signatures per YCC
/// channel, `ε_c = 0.05`, `ε = 0.085`, centroid signatures, quick matching.
pub fn retrieval_params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

/// Builds and populates a WALRUS database over the dataset.
pub fn build_walrus_db(dataset: &SyntheticDataset, params: WalrusParams) -> ImageDatabase {
    let mut db = ImageDatabase::new(params).expect("params validated by caller");
    for img in &dataset.images {
        db.insert_image(&img.name, &img.image).expect("dataset images satisfy extraction bounds");
    }
    db
}

/// The Figure-7/8 style query: a flower image rendered by the same
/// generator family as the dataset's flower class (but not a member of it).
pub fn flower_query() -> Image {
    let (query, _) = flower_query_scenario(0xF10_3E5, 128, 96, 0)
        .expect("query scenario generation is infallible");
    query
}

/// Precision of a ranked id list against the flower class.
pub fn precision_at(dataset: &SyntheticDataset, ids: &[usize], k: usize) -> f64 {
    let k = k.min(ids.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ids[..k]
        .iter()
        .filter(|&&id| dataset.images[id].class == ImageClass::Flowers)
        .count();
    hits as f64 / k as f64
}

/// Resolves a database/baseline result name (`flowers_0003`) back to the
/// dataset id. Harness results carry names; the dataset is the ground
/// truth.
pub fn id_of_name(dataset: &SyntheticDataset, name: &str) -> Option<usize> {
    dataset.images.iter().find(|i| i.name == name).map(|i| i.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_planes_shape() {
        let (planes, side) = timing_planes(64, ColorSpace::Ycc);
        assert_eq!(side, 64);
        assert_eq!(planes.len(), 3);
        assert!(planes.iter().all(|p| p.len() == 64 * 64));
    }

    #[test]
    fn quick_dataset_shape() {
        let d = retrieval_dataset(Scale::Quick);
        assert_eq!(d.len(), 96);
        assert_eq!(d.images[0].image.width(), 128);
        assert_eq!(d.images[0].image.height(), 96);
    }

    #[test]
    fn retrieval_params_validate() {
        retrieval_params().validate().unwrap();
    }

    #[test]
    fn precision_math() {
        let d = retrieval_dataset(Scale::Quick);
        let flower_ids: Vec<usize> =
            d.of_class(ImageClass::Flowers).map(|i| i.id).collect();
        assert_eq!(precision_at(&d, &flower_ids, 8), 1.0);
        let brick_ids: Vec<usize> =
            d.of_class(ImageClass::BrickWall).map(|i| i.id).collect();
        assert_eq!(precision_at(&d, &brick_ids, 8), 0.0);
        assert_eq!(precision_at(&d, &[], 5), 0.0);
    }

    #[test]
    fn name_resolution() {
        let d = retrieval_dataset(Scale::Quick);
        let id = id_of_name(&d, "flowers_0000").unwrap();
        assert_eq!(d.images[id].name, "flowers_0000");
        assert!(id_of_name(&d, "nope").is_none());
    }

    #[test]
    fn query_is_not_a_dataset_member() {
        let d = retrieval_dataset(Scale::Quick);
        let q = flower_query();
        assert!(d.images.iter().all(|i| i.image != q));
    }
}
