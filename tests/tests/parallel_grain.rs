//! Each operation fans out at one grain, read off the helper set's section
//! counters: a query fans out per query region (the ε-probes) and per
//! candidate image (the scoring) inside each shard, and nowhere else — not
//! in the wavelet sweep, not across shards.
//!
//! One test, because `walrus_parallel::stats()` is process-global: a second
//! test in this binary would open sections of its own while this one
//! counts.

use std::sync::Arc;

use walrus_core::storage::FaultIo;
use walrus_core::{extract_regions, Guard, ShardedStore, TraceContext, WalrusParams};
use walrus_imagery::synth::dataset::{
    flower_query_scenario, DatasetSpec, ImageClass, SyntheticDataset,
};
use walrus_imagery::Image;
use walrus_wavelet::SlidingParams;

/// Sections opened so far, shared with a helper or run inline.
fn sections() -> usize {
    let stats = walrus_parallel::stats();
    stats.sections_inline + stats.sections_shared
}

#[test]
fn a_query_fans_out_per_region_and_per_candidate_inside_each_shard_only() {
    let params = WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 32, stride: 4 },
        threads: 2,
        ..WalrusParams::paper_defaults()
    };
    let dataset = SyntheticDataset::generate(DatasetSpec {
        images_per_class: 2,
        width: 128,
        height: 96,
        seed: 0x6A1E,
        classes: ImageClass::ALL.to_vec(),
    })
    .unwrap();
    let items: Vec<(&str, &Image)> =
        dataset.images.iter().map(|i| (i.name.as_str(), &i.image)).collect();
    let shards = 2;
    let (store, _) =
        ShardedStore::open_with(Arc::new(FaultIo::new()), "/walrus", params, shards).unwrap();
    store.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
    let (query, _) = flower_query_scenario(0x51, 128, 96, 0).unwrap();

    // Extraction — colour conversion, the DP sweep, BIRCH — runs on the
    // calling thread.
    let before = sections();
    let regions = extract_regions(&query, &params).unwrap();
    assert_eq!(sections() - before, 0, "extracting a query image opened a section");
    assert!(regions.len() >= 2, "the query must have several regions to fan out over");

    // A query: per healthy shard one section over the query regions and one
    // over the candidate images; the scatter over the shards opens none.
    let trace = TraceContext::monotonic();
    let before = sections();
    let outcome = store.query_guarded(&query, &Guard::none().tracing(trace.clone())).unwrap();
    let opened = sections() - before;
    assert_eq!(outcome.stats.query_regions, regions.len());
    let report = trace.report();
    let probes: Vec<_> = report.spans.iter().filter(|s| s.name == "shard_probe").collect();
    assert_eq!(probes.len(), shards, "one shard_probe span per shard");
    for probe in probes {
        let images = probe.counters.iter().find(|(name, _)| *name == "images").map(|(_, v)| *v);
        assert!(images >= Some(2), "every shard must score several candidates: {images:?}");
    }
    assert_eq!(opened, 2 * shards, "sections opened by one query on {shards} shards");
}
