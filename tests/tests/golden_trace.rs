//! Golden-trace regression test: a fixed-seed ingest + query must produce a
//! byte-stable span tree — same span names, nesting, and counter values —
//! at every worker-thread count of the matrix: each test renders the trace
//! serial and parallel and holds both to the one fixture.
//!
//! Durations are rendered as `0us` because the trace runs on a [`TestClock`]
//! that is never advanced; everything else in the render is engine output,
//! so any drift in pipeline behavior (window counts, cluster counts, index
//! probes, candidate pruning) shows up as a fixture diff.
//!
//! Regenerate after an intentional engine change with:
//! `UPDATE_GOLDEN=1 cargo test -p walrus-integration-tests --test golden_trace`

use std::path::PathBuf;
use std::sync::Arc;

use walrus_core::storage::FaultIo;
use walrus_core::{Guard, ImageDatabase, ShardedStore, TestClock, TraceContext, WalrusParams};
use walrus_imagery::{ColorSpace, Image};
use walrus_integration_tests::THREAD_COUNTS;
use walrus_wavelet::SlidingParams;

const FIXTURE: &str = "golden_trace.txt";
const SHARDED_FIXTURE: &str = "golden_trace_sharded.txt";
const IMAGES: usize = 16;
/// Pinned shard count for the sharded fixture: the rendered span tree is a
/// function of the store itself, so it is byte-stable at any thread count.
const SHARDS: usize = 4;

fn params(threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 },
        threads,
        ..WalrusParams::paper_defaults()
    }
}

/// The same deterministic 16×16 block pattern the server e2e suite ingests.
fn seeded_image(seed: usize) -> Image {
    Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, c| {
        ((x / 4 + y / 4 + c + seed) % 4) as f32 / 3.0
    })
    .unwrap()
}

/// Finds the committed fixture by walking up from the current directory —
/// works from the package root (cargo), the workspace root, and detached
/// verification harnesses alike.
fn fixture_path(name: &str) -> Option<PathBuf> {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        for cand in [
            dir.join("fixtures").join(name),
            dir.join("tests").join("fixtures").join(name),
        ] {
            if cand.exists() {
                return Some(cand);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Where to write the fixture when regenerating: the nearest existing
/// `fixtures/` or `tests/fixtures/` directory above the current directory.
fn fixture_write_path(name: &str) -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        for parent in [dir.join("fixtures"), dir.join("tests").join("fixtures")] {
            if parent.is_dir() {
                return parent.join(name);
            }
        }
        if !dir.pop() {
            panic!("no fixtures/ directory found above the current directory");
        }
    }
}

/// Compares `rendered` against the committed fixture `name`, or rewrites it
/// under `UPDATE_GOLDEN=1`.
fn assert_matches_fixture(rendered: &str, name: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = fixture_write_path(name);
        std::fs::write(&path, rendered).unwrap();
        println!("wrote {}", path.display());
        return;
    }
    let path = fixture_path(name).unwrap_or_else(|| {
        panic!("fixture {name} not found; run once with UPDATE_GOLDEN=1 to create it")
    });
    let expected = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        rendered,
        expected,
        "trace drifted from {} — if the pipeline change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Runs the seeded ingest + query on `threads` workers under a frozen
/// [`TestClock`] and returns the concatenated rendered traces.
fn golden_render(threads: usize) -> String {
    let clock = TestClock::new();
    let mut db = ImageDatabase::new(params(threads)).unwrap();

    let images: Vec<(String, Image)> =
        (0..IMAGES).map(|seed| (format!("img-{seed}"), seeded_image(seed))).collect();
    let items: Vec<(&str, &Image)> =
        images.iter().map(|(name, img)| (name.as_str(), img)).collect();

    let ingest_trace = TraceContext::new(clock.clone());
    let guard = Guard::none().tracing(ingest_trace.clone());
    db.insert_images_batch_guarded(&items, &guard).unwrap();

    let query_trace = TraceContext::new(clock.clone());
    let guard = Guard::none().tracing(query_trace.clone());
    let outcome = db.query_guarded(&seeded_image(0), &guard).unwrap();
    assert!(!outcome.matches.is_empty(), "the seeded query must match itself");

    format!("# ingest\n{}# query\n{}", ingest_trace.report().render(), query_trace.report().render())
}

#[test]
fn golden_trace_is_byte_stable() {
    for threads in THREAD_COUNTS {
        let rendered = golden_render(threads);

        // Structural sanity first, so a broken pipeline fails with a
        // readable message instead of a wall-of-text fixture diff.
        for span in [
            "ingest", "extract", "index", "query", "decode", "wavelet", "birch", "rstar_probe",
            "match",
        ] {
            assert!(rendered.contains(span), "threads {threads}: {span:?} missing:\n{rendered}");
        }
        assert!(rendered.contains("images=16"), "{rendered}");
        // Frozen clock ⇒ all durations render as zero.
        assert!(!rendered.lines().any(|l| l.contains("us") && !l.contains(" 0us")), "{rendered}");

        assert_matches_fixture(&rendered, FIXTURE);
    }
}

/// The sharded counterpart: same seeded ingest + query against a 4-shard
/// [`ShardedStore`] over a deterministic in-memory filesystem. The query
/// trace gains one `shard_probe` child span per shard; everything else
/// (per-stage counters, nesting) must line up with the in-memory pipeline.
fn golden_sharded_render(threads: usize) -> String {
    let clock = TestClock::new();
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io, "db", params(threads), SHARDS).unwrap();

    let images: Vec<(String, Image)> =
        (0..IMAGES).map(|seed| (format!("img-{seed}"), seeded_image(seed))).collect();
    let items: Vec<(&str, &Image)> =
        images.iter().map(|(name, img)| (name.as_str(), img)).collect();

    let ingest_trace = TraceContext::new(clock.clone());
    let guard = Guard::none().tracing(ingest_trace.clone());
    store.insert_images_batch_guarded(&items, &guard).unwrap();

    let query_trace = TraceContext::new(clock.clone());
    let guard = Guard::none().tracing(query_trace.clone());
    let outcome = store.query_guarded(&seeded_image(0), &guard).unwrap();
    assert!(!outcome.matches.is_empty(), "the seeded query must match itself");

    format!("# ingest\n{}# query\n{}", ingest_trace.report().render(), query_trace.report().render())
}

#[test]
fn golden_sharded_trace_is_byte_stable() {
    for threads in THREAD_COUNTS {
        let rendered = golden_sharded_render(threads);

        for span in ["ingest", "extract", "wal_append", "query", "shard_probe", "rstar_probe"] {
            assert!(rendered.contains(span), "threads {threads}: {span:?} missing:\n{rendered}");
        }
        // Exactly one probe span per shard, whatever the thread count.
        assert_eq!(
            rendered.matches("shard_probe").count(),
            SHARDS,
            "expected {SHARDS} shard_probe spans:\n{rendered}"
        );
        assert!(!rendered.lines().any(|l| l.contains("us") && !l.contains(" 0us")), "{rendered}");

        assert_matches_fixture(&rendered, SHARDED_FIXTURE);
    }
}

#[test]
fn golden_sharded_trace_is_identical_across_repeat_runs() {
    for threads in THREAD_COUNTS {
        assert_eq!(golden_sharded_render(threads), golden_sharded_render(threads));
    }
}

#[test]
fn golden_trace_is_identical_across_repeat_runs() {
    // Same process, two runs: catches nondeterminism (map iteration order,
    // uninitialized counters) that one run against the fixture could miss.
    for threads in THREAD_COUNTS {
        assert_eq!(golden_render(threads), golden_render(threads));
    }
}
