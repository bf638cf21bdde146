//! **Ablation A4** — sliding-window stride and size range (paper §5.2).
//!
//! The paper fixes one window size (64×64) for its quality experiment but
//! the algorithm supports ranges `[ω_min, ω_max]` and any power-of-two
//! stride `t`. This harness sweeps both and reports the cost (window count,
//! extraction time, regions) and the benefit (precision@14 on the labeled
//! dataset), quantifying the trade the paper leaves implicit.
//!
//! Run: `cargo run --release -p walrus-bench --bin ablation_windows`

use walrus_baselines::eval::precision_at_k;
use walrus_bench::report::{f3, Table};
use walrus_bench::workloads::{
    build_walrus_db, flower_query, id_of_name, retrieval_dataset, retrieval_params,
};
use walrus_bench::{scale, time};
use walrus_core::extract_regions;
use walrus_wavelet::SlidingParams;
use walrus_imagery::synth::ImageClass;

fn main() {
    let dataset = retrieval_dataset(scale());
    let is_flower = |id: usize| dataset.images[id].class == ImageClass::Flowers;
    let query = flower_query();
    println!(
        "Ablation A4: window stride and size-range sweeps\n\
         database: {} synthetic images (128x96)\n",
        dataset.len()
    );

    let mut table = Table::new(
        "Window Configuration",
        &["omega_range", "stride", "windows", "regions", "extract_s", "precision_at_14"],
    );
    let configs: Vec<(usize, usize, usize)> = vec![
        // (omega_min, omega_max, stride)
        (32, 32, 16),
        (32, 32, 8),
        (32, 32, 4),
        (16, 32, 8),
        (8, 32, 8),
    ];
    for (omega_min, omega_max, stride) in configs {
        let mut params = retrieval_params();
        params.sliding = SlidingParams { s: 2, omega_min, omega_max, stride };
        let windows = params.sliding.total_windows(128, 96);
        let (regions, extract_s) =
            time(|| extract_regions(&query, &params).expect("extraction succeeds"));
        let db = build_walrus_db(&dataset, params);
        let top = db.top_k(&query, 14).expect("query succeeds");
        let ids: Vec<usize> = top.iter().filter_map(|r| id_of_name(&dataset, &r.name)).collect();
        table.row(&[
            format!("{omega_min}-{omega_max}"),
            stride.to_string(),
            windows.to_string(),
            regions.len().to_string(),
            f3(extract_s),
            f3(precision_at_k(&ids, is_flower, 14)),
        ]);
    }
    table.print();
    println!(
        "Expectation: denser strides and wider size ranges multiply window\n\
         counts (cost) with diminishing precision gains — the reason the\n\
         paper settles on a single 64x64 window size with a coarse stride."
    );
}
