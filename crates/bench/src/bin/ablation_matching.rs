//! **Ablation A2** — quick-union vs greedy one-to-one vs exact matching
//! (paper §5.5).
//!
//! Two measurements:
//!
//! 1. End-to-end: the same query under each matching algorithm — ranking
//!    quality and query time. Quick is the paper's choice; greedy enforces
//!    Definition 4.2's one-to-one constraint; exact is the NP-hard optimum
//!    (Theorem 5.1) run under a pair-count cap.
//! 2. Greedy-vs-exact gap: random small matching instances where the exact
//!    optimum is computable — reports the mean and worst ratio of greedy
//!    covered area to the optimum.
//!
//! Run: `cargo run --release -p walrus-bench --bin ablation_matching`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walrus_baselines::eval::precision_at_k;
use walrus_bench::report::{f3, Table};
use walrus_bench::workloads::{
    build_walrus_db, flower_query, id_of_name, retrieval_dataset, retrieval_params,
};
use walrus_bench::{scale, time};
use walrus_core::bitmap::RegionBitmap;
use walrus_core::matching::{score_exact, score_greedy, MatchPair};
use walrus_core::{MatchingKind, Region, SimilarityKind};
use walrus_imagery::synth::ImageClass;

fn main() {
    end_to_end();
    greedy_gap();
}

fn end_to_end() {
    let dataset = retrieval_dataset(scale());
    let is_flower = |id: usize| dataset.images[id].class == ImageClass::Flowers;
    let query = flower_query();
    println!(
        "Ablation A2 (part 1): matching algorithm end-to-end\n\
         database: {} synthetic images\n",
        dataset.len()
    );
    let mut table = Table::new(
        "Matching Kind Ablation",
        &["kind", "top1_similarity", "precision_at_14", "query_s"],
    );
    for (label, kind) in [
        ("quick", MatchingKind::Quick),
        ("greedy", MatchingKind::Greedy),
        ("exact", MatchingKind::Exact),
    ] {
        let mut params = retrieval_params();
        params.matching = kind;
        let db = build_walrus_db(&dataset, params);
        let (top, secs) = time(|| db.top_k(&query, 14).expect("query succeeds"));
        let ids: Vec<usize> =
            top.iter().filter_map(|r| id_of_name(&dataset, &r.name)).collect();
        table.row(&[
            label.to_string(),
            f3(top.first().map_or(0.0, |t| t.similarity)),
            f3(precision_at_k(&ids, is_flower, 14)),
            f3(secs),
        ]);
    }
    table.print();
}

/// Builds a random region over a 64×64 image.
fn random_region(rng: &mut StdRng) -> Region {
    let mut bitmap = RegionBitmap::new(64, 64, 16);
    let windows = rng.gen_range(1..4);
    for _ in 0..windows {
        let x = rng.gen_range(0..56);
        let y = rng.gen_range(0..56);
        let w = rng.gen_range(8..32);
        let h = rng.gen_range(8..32);
        bitmap.mark_window(x, y, w, h);
    }
    Region::new(vec![0.0; 4], vec![0.0; 4], vec![0.0; 4], bitmap, windows)
}

fn greedy_gap() {
    println!("Ablation A2 (part 2): greedy vs exact covered-area ratio on random instances\n");
    let mut rng = StdRng::seed_from_u64(0xA2);
    let mut table =
        Table::new("Greedy Vs Exact Gap", &["pairs", "instances", "mean_ratio", "worst_ratio"]);
    for n_pairs in [3usize, 6, 9, 12] {
        let instances = 40;
        let mut ratios = Vec::with_capacity(instances);
        for _ in 0..instances {
            let nq = rng.gen_range(2..=4usize);
            let nt = rng.gen_range(2..=4usize);
            let q: Vec<Region> = (0..nq).map(|_| random_region(&mut rng)).collect();
            let t: Vec<Region> = (0..nt).map(|_| random_region(&mut rng)).collect();
            let mut pairs = Vec::with_capacity(n_pairs);
            for _ in 0..n_pairs {
                pairs.push(MatchPair { q: rng.gen_range(0..nq), t: rng.gen_range(0..nt) });
            }
            let area = 64 * 64;
            let g = score_greedy(&q, &t, &pairs, area, area, SimilarityKind::Symmetric);
            let e = score_exact(&q, &t, &pairs, area, area, SimilarityKind::Symmetric);
            let g_cov = (g.covered_query_area + g.covered_target_area) as f64;
            let e_cov = (e.covered_query_area + e.covered_target_area) as f64;
            assert!(e_cov + 1e-9 >= g_cov, "exact must dominate greedy");
            ratios.push(if e_cov > 0.0 { g_cov / e_cov } else { 1.0 });
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let worst = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        table.row(&[n_pairs.to_string(), instances.to_string(), f3(mean), f3(worst)]);
    }
    table.print();
    println!(
        "Expectation: greedy stays close to the optimum on typical\n\
         instances (mean ratio near 1.0) — the justification for the\n\
         paper's O(n^2) heuristic."
    );
}
