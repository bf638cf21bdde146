//! Flower search: the paper's Figure 7 / Figure 8 scenario end to end.
//!
//! Builds the labeled synthetic collection (the stand-in for the paper's
//! `misc` dataset), indexes it in WALRUS *and* in the WBIIS baseline, then
//! runs the red-flower query against both and prints the two top-14 lists
//! side by side with ground-truth classes — a terminal rendition of the
//! paper's two figure pages.
//!
//! Run: `cargo run --release -p walrus-examples --bin flower_search`

use walrus_baselines::{Retriever, WbiisRetriever};
use walrus_core::{ImageDatabase, WalrusParams};
use walrus_imagery::synth::dataset::{
    flower_query_scenario, DatasetSpec, ImageClass, SyntheticDataset,
};
use walrus_wavelet::SlidingParams;

const K: usize = 14;

fn main() {
    // The synthetic stand-in for `misc`: 6 classes × 16 images at the
    // paper's image scale.
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 16,
        width: 128,
        height: 96,
        seed: 0x5EED_CAFE,
        classes: ImageClass::ALL.to_vec(),
    })
    .expect("dataset generation is deterministic");
    println!("dataset: {} images across {} classes", dataset.len(), ImageClass::ALL.len());

    // WALRUS with the paper's §6.4 configuration (windows adapted to the
    // image size).
    let params = WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        ..WalrusParams::paper_defaults()
    };
    let mut walrus = ImageDatabase::new(params).expect("params validate");
    let mut wbiis = WbiisRetriever::new();
    for img in &dataset.images {
        walrus.insert_image(&img.name, &img.image).expect("insertion succeeds");
        wbiis.insert(&img.name, &img.image).expect("insertion succeeds");
    }

    // The query: a red flower over green foliage, not itself in the
    // database (like the paper's image 866 query).
    let (query, _) =
        flower_query_scenario(0xF10_3E5, 128, 96, 0).expect("scenario generation succeeds");

    let walrus_top = walrus.top_k(&query, K).expect("query succeeds");
    let wbiis_top = wbiis.top_k(&query, K).expect("query succeeds");

    let class_of = |name: &str| -> &str {
        dataset
            .images
            .iter()
            .find(|i| i.name == name)
            .map(|i| i.class.name())
            .unwrap_or("?")
    };

    println!("\n{:>4}  {:<28} {:<28}", "rank", "WALRUS (Figure 8)", "WBIIS (Figure 7)");
    println!("{}", "-".repeat(64));
    for rank in 0..K {
        let w = walrus_top
            .get(rank)
            .map(|r| format!("{} [{}]", r.name, class_of(&r.name)))
            .unwrap_or_default();
        let b = wbiis_top
            .get(rank)
            .map(|r| format!("{} [{}]", r.name, class_of(&r.name)))
            .unwrap_or_default();
        println!("{:>4}  {:<28} {:<28}", rank + 1, w, b);
    }

    let count_flowers = |names: &[String]| {
        names.iter().filter(|n| class_of(n) == "flowers").count()
    };
    let w_names: Vec<String> = walrus_top.iter().map(|r| r.name.clone()).collect();
    let b_names: Vec<String> = wbiis_top.iter().map(|r| r.name.clone()).collect();
    println!(
        "\nflowers in top {K}: WALRUS {}/{K}, WBIIS {}/{K}",
        count_flowers(&w_names),
        count_flowers(&b_names)
    );
    println!(
        "(the paper observed roughly 14/14 for WALRUS against 7/14 for WBIIS\n\
         on its 10,000-photo collection)"
    );
}
