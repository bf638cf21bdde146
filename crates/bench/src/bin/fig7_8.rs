//! **Figures 7 & 8** — retrieval quality: WALRUS vs the single-signature
//! systems (WBIIS, plus FMIQ and a color histogram as extra context).
//!
//! The paper's qualitative experiment: for a query of red flowers on green
//! foliage, WBIIS returns ≈7/14 semantically unrelated images (brick walls,
//! sunsets, a dog on a lawn — images sharing *global* color layout), while
//! WALRUS returns 13–14/14 flower images, including flowers at different
//! positions and scales.
//!
//! With the synthetic dataset the judgment is quantitative: every image has
//! a ground-truth class, so the harness reports each system's top-14 list
//! with classes, plus precision@14 against the flower class. The
//! reproduction target is `precision(WALRUS) > precision(WBIIS)` with
//! WALRUS retrieving flower variants at different positions/scales.
//!
//! Run: `cargo run --release -p walrus-bench --bin fig7_8`

use walrus_baselines::eval::precision_at_k;
use walrus_baselines::{FmiqRetriever, HistogramRetriever, Retriever, WbiisRetriever};
use walrus_bench::report::{f3, Table};
use walrus_bench::workloads::{
    build_walrus_db, flower_query, id_of_name, retrieval_dataset, retrieval_params,
};
use walrus_bench::scale;
use walrus_imagery::synth::ImageClass;

const K: usize = 14;

fn main() {
    let dataset = retrieval_dataset(scale());
    let is_flower = |id: usize| dataset.images[id].class == ImageClass::Flowers;
    let query = flower_query();
    println!(
        "Figures 7 & 8: top-{K} retrieval quality on {} labeled synthetic images\n\
         query: red flower over green foliage (not a database member)\n",
        dataset.len()
    );

    // WALRUS.
    let db = build_walrus_db(&dataset, retrieval_params());
    let walrus_top = db.top_k(&query, K).expect("query succeeds");
    let walrus_ids: Vec<usize> =
        walrus_top.iter().filter_map(|r| id_of_name(&dataset, &r.name)).collect();

    // Baselines.
    let mut systems: Vec<(String, Vec<usize>)> = Vec::new();
    systems.push(("WALRUS".into(), walrus_ids));
    let mut wbiis = WbiisRetriever::new();
    let mut fmiq = FmiqRetriever::new();
    let mut hist = HistogramRetriever::new();
    for img in &dataset.images {
        wbiis.insert(&img.name, &img.image).expect("insert succeeds");
        fmiq.insert(&img.name, &img.image).expect("insert succeeds");
        hist.insert(&img.name, &img.image).expect("insert succeeds");
    }
    for retr in [&wbiis as &dyn Retriever, &fmiq, &hist] {
        let top = retr.top_k(&query, K).expect("query succeeds");
        let ids = top.iter().filter_map(|r| id_of_name(&dataset, &r.name)).collect();
        systems.push((retr.system_name().to_string(), ids));
    }

    // Ranked lists with ground-truth classes.
    for (name, ids) in &systems {
        let mut table = Table::new(&format!("{name} Top {K}"), &["rank", "image", "class"]);
        for (rank, &id) in ids.iter().enumerate() {
            let img = &dataset.images[id];
            table.row(&[(rank + 1).to_string(), img.name.clone(), img.class.name().to_string()]);
        }
        table.print();
    }

    // The headline comparison.
    let mut summary = Table::new("Precision At 14", &["system", "precision"]);
    let mut walrus_p = 0.0;
    let mut wbiis_p = 0.0;
    for (name, ids) in &systems {
        let p = precision_at_k(ids, is_flower, K);
        if name == "WALRUS" {
            walrus_p = p;
        }
        if name == "WBIIS" {
            wbiis_p = p;
        }
        summary.row(&[name.clone(), f3(p)]);
    }
    summary.print();
    println!(
        "Paper shape check: WALRUS precision ({:.3}) must exceed WBIIS\n\
         precision ({:.3}); the paper observed ~14/14 vs ~7/14.",
        walrus_p, wbiis_p
    );
}
