//! **Ablation A1** — centroid vs bounding-box region signatures
//! (Definition 4.1 / §5.3 offer both without choosing experimentally;
//! §6.4 uses centroids).
//!
//! Bounding boxes are more permissive: a region matches whenever its box,
//! extended by ε, overlaps the query's box — so selectivity should be
//! looser (more regions retrieved) at equal ε, trading precision for
//! recall.
//!
//! Run: `cargo run --release -p walrus-bench --bin ablation_signature`

use walrus_baselines::eval::precision_at_k;
use walrus_bench::report::{f3, Table};
use walrus_bench::workloads::{
    build_walrus_db, flower_query, id_of_name, retrieval_dataset, retrieval_params,
};
use walrus_bench::{scale, time};
use walrus_core::SignatureKind;
use walrus_imagery::synth::ImageClass;

fn main() {
    let dataset = retrieval_dataset(scale());
    let is_flower = |id: usize| dataset.images[id].class == ImageClass::Flowers;
    let query = flower_query();
    println!(
        "Ablation A1: centroid vs bounding-box region signatures\n\
         database: {} synthetic images\n",
        dataset.len()
    );
    let mut table = Table::new(
        "Signature Kind Ablation",
        &["kind", "avg_regions_retrieved", "distinct_images", "precision_at_14", "query_s"],
    );
    for (label, kind) in
        [("centroid", SignatureKind::Centroid), ("bbox", SignatureKind::BoundingBox)]
    {
        let mut params = retrieval_params();
        params.signature_kind = kind;
        let db = build_walrus_db(&dataset, params);
        let (outcome, secs) = time(|| db.query(&query).expect("query succeeds"));
        let ids: Vec<usize> = outcome
            .matches
            .iter()
            .take(14)
            .filter_map(|r| id_of_name(&dataset, &r.name))
            .collect();
        table.row(&[
            label.to_string(),
            f3(outcome.stats.avg_regions_per_query_region),
            outcome.stats.distinct_images.to_string(),
            f3(precision_at_k(&ids, is_flower, 14)),
            f3(secs),
        ]);
    }
    table.print();
    println!(
        "Expectation: bounding boxes retrieve at least as many regions per\n\
         query region as centroids (they are a superset test at equal ε)."
    );
}
