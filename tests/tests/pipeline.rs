//! End-to-end integration tests: the full WALRUS pipeline over synthetic
//! datasets, including the paper's headline claims as assertions.

use walrus_baselines::{Retriever, WbiisRetriever};
use walrus_core::{ImageDatabase, WalrusParams};
use walrus_imagery::synth::dataset::{
    flower_query_scenario, DatasetSpec, ImageClass, SyntheticDataset,
};
use walrus_wavelet::SlidingParams;

fn engine_params() -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        ..WalrusParams::paper_defaults()
    }
}

fn small_dataset() -> SyntheticDataset {
    SyntheticDataset::generate(DatasetSpec {
        images_per_class: 6,
        width: 128,
        height: 96,
        seed: 0x1234,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap()
}

fn build_db(dataset: &SyntheticDataset) -> ImageDatabase {
    let mut db = ImageDatabase::new(engine_params()).unwrap();
    for img in &dataset.images {
        db.insert_image(&img.name, &img.image).unwrap();
    }
    db
}

#[test]
fn full_pipeline_indexes_and_queries() {
    let dataset = small_dataset();
    let db = build_db(&dataset);
    assert_eq!(db.len(), 36);
    assert!(db.num_regions() > 36, "every image should contribute multiple regions");

    let (query, _) = flower_query_scenario(0x77, 128, 96, 0).unwrap();
    let outcome = db.query(&query).unwrap();
    assert!(outcome.stats.query_regions > 0);
    assert!(!outcome.matches.is_empty(), "the flower query must match something");
    // Results are within similarity bounds and sorted.
    for m in &outcome.matches {
        assert!((0.0..=1.0).contains(&m.similarity));
    }
    for w in outcome.matches.windows(2) {
        assert!(w[0].similarity >= w[1].similarity);
    }
}

#[test]
fn translated_and_scaled_flower_variants_retrieved() {
    // The paper's core robustness claim, as a test: variants containing the
    // query's flower translated/scaled/color-shifted must rank above
    // distractor classes.
    let dataset = small_dataset();
    let (query, variants) = flower_query_scenario(0x99, 128, 96, 4).unwrap();
    let mut db = build_db(&dataset);
    let mut variant_ids = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        variant_ids.push(db.insert_image(&format!("variant_{i}"), v).unwrap());
    }
    // Quick-union similarity saturates at 1.0 for strongly matching images
    // (a granularity limit the paper itself notes in §5.5), so we assert
    // membership and scores rather than exact rank order: every variant
    // must be retrieved with near-perfect similarity, ahead of every
    // non-flower distractor.
    let outcome = db.query(&query).unwrap();
    for (i, expected_id) in variant_ids.iter().enumerate() {
        let hit = outcome
            .matches
            .iter()
            .find(|m| m.image_id == *expected_id)
            .unwrap_or_else(|| panic!("variant_{i} was not retrieved at all"));
        assert!(hit.similarity > 0.9, "variant_{i} similarity {}", hit.similarity);
    }
    let worst_variant = variant_ids
        .iter()
        .map(|id| {
            outcome
                .matches
                .iter()
                .find(|m| m.image_id == *id)
                .map(|m| m.similarity)
                .unwrap_or(0.0)
        })
        .fold(f64::INFINITY, f64::min);
    let class_of = |name: &str| {
        dataset.images.iter().find(|i| i.name == name).map(|i| i.class)
    };
    for m in &outcome.matches {
        if let Some(class) = class_of(&m.name) {
            if class != ImageClass::Flowers {
                assert!(
                    m.similarity <= worst_variant + 1e-9,
                    "distractor {} ({:?}, sim {:.3}) outranked a variant (worst {:.3})",
                    m.name,
                    class,
                    m.similarity,
                    worst_variant
                );
            }
        }
    }
}

#[test]
fn walrus_beats_wbiis_on_region_queries() {
    // The Figure 7 vs Figure 8 comparison as an assertion.
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 16,
        width: 128,
        height: 96,
        seed: 0x5EED_CAFE,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap();
    let db = build_db(&dataset);
    let mut wbiis = WbiisRetriever::new();
    for img in &dataset.images {
        wbiis.insert(&img.name, &img.image).unwrap();
    }
    let (query, _) = flower_query_scenario(0xF10_3E5, 128, 96, 0).unwrap();
    let k = 14;

    let class_of = |name: &str| dataset.images.iter().find(|i| i.name == name).unwrap().class;
    let walrus_hits = db
        .top_k(&query, k)
        .unwrap()
        .iter()
        .filter(|r| class_of(&r.name) == ImageClass::Flowers)
        .count();
    let wbiis_hits = wbiis
        .top_k(&query, k)
        .unwrap()
        .iter()
        .filter(|r| class_of(&r.name) == ImageClass::Flowers)
        .count();
    assert!(
        walrus_hits > wbiis_hits,
        "WALRUS ({walrus_hits}/{k}) must beat WBIIS ({wbiis_hits}/{k})"
    );
    assert!(walrus_hits >= k - 2, "WALRUS should get nearly all flowers, got {walrus_hits}/{k}");
}

#[test]
fn removal_then_requery_is_consistent() {
    let dataset = small_dataset();
    let mut db = build_db(&dataset);
    let (query, _) = flower_query_scenario(0x55, 128, 96, 0).unwrap();
    let before = db.query(&query).unwrap();

    // Remove every flower image.
    let flower_ids: Vec<usize> = dataset
        .images
        .iter()
        .filter(|i| i.class == ImageClass::Flowers)
        .map(|i| i.id)
        .collect();
    for id in &flower_ids {
        db.remove_image(*id).unwrap();
    }
    let after = db.query(&query).unwrap();
    assert!(after.stats.total_matching_regions <= before.stats.total_matching_regions);
    for m in &after.matches {
        assert!(!flower_ids.contains(&m.image_id), "removed image resurfaced");
    }
}

#[test]
fn query_epsilon_monotonicity_end_to_end() {
    // Table 1's shape as a test: selectivity grows with epsilon.
    let dataset = small_dataset();
    let db = build_db(&dataset);
    let (query, _) = flower_query_scenario(0x42, 128, 96, 0).unwrap();
    let mut prev_regions = 0.0;
    let mut prev_images = 0usize;
    for eps in [0.05f32, 0.07, 0.09, 0.15] {
        let out = db.query_with_epsilon(&query, eps).unwrap();
        assert!(
            out.stats.avg_regions_per_query_region >= prev_regions,
            "regions retrieved must not shrink as epsilon grows"
        );
        assert!(out.stats.distinct_images >= prev_images);
        prev_regions = out.stats.avg_regions_per_query_region;
        prev_images = out.stats.distinct_images;
    }
}

#[test]
fn all_similarity_variants_rank_self_first() {
    use walrus_core::SimilarityKind;
    let dataset = small_dataset();
    let target = &dataset.images[3]; // a flower image
    for kind in [SimilarityKind::Symmetric, SimilarityKind::QueryFraction] {
        let mut params = engine_params();
        params.similarity = kind;
        let mut db = ImageDatabase::new(params).unwrap();
        for img in &dataset.images {
            db.insert_image(&img.name, &img.image).unwrap();
        }
        // Quick matching can tie several strong matches at 1.0; the target
        // must be among the top-scoring group with near-perfect similarity.
        let top = db.top_k(&target.image, 10).unwrap();
        let self_hit = top
            .iter()
            .find(|r| r.name == target.name)
            .unwrap_or_else(|| panic!("{kind:?} failed to retrieve the target at all"));
        assert!(self_hit.similarity > 0.99, "{kind:?} self-similarity {}", self_hit.similarity);
        assert!(
            top[0].similarity - self_hit.similarity < 1e-9,
            "{kind:?}: something strictly outranked the identical image"
        );
    }
}

#[test]
fn gray_scale_pipeline_works() {
    use walrus_imagery::ColorSpace;
    let dataset = small_dataset();
    let mut params = engine_params();
    params.color_space = ColorSpace::Gray;
    assert_eq!(params.signature_dims(), 4);
    let mut db = ImageDatabase::new(params).unwrap();
    for img in dataset.images.iter().take(12) {
        db.insert_image(&img.name, &img.image).unwrap();
    }
    let (query, _) = flower_query_scenario(0x31, 128, 96, 0).unwrap();
    let out = db.query(&query).unwrap();
    assert!(out.stats.query_regions > 0);
}
