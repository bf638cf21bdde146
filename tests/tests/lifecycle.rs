//! Request lifecycle integration tests: deadlines, cooperative
//! cancellation, resource budgets, and failed WAL appends — the contract
//! that a WALRUS request can always be bounded in time and resources
//! without ever corrupting the store.
//!
//! The two headline properties (ISSUE acceptance):
//!
//! 1. a query with a millisecond deadline against a 1000-image database
//!    returns a `Partial` best-so-far outcome — it never hangs and never
//!    panics;
//! 2. a cancelled batch ingest leaves the durable store (every shard's
//!    snapshot + WAL) byte-for-byte identical; so does an append that fails
//!    under an injected transient write fault.
//!
//! Every test that runs the engine does so at each worker-thread count of
//! the matrix, and the store-level ones at each shard count too.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use walrus_core::storage::{Fault, FaultIo, FaultKind};
use walrus_core::{
    CancelToken, Deadline, DurableDatabase, Guard, ImageDatabase, Interrupt, ResultStatus,
    ShardedStore, TestClock, WalrusError, WalrusParams,
};
use walrus_imagery::{ColorSpace, Image};
use walrus_integration_tests::{threads_by_shards, THREAD_COUNTS};
use walrus_wavelet::SlidingParams;

fn params(threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
        threads,
        ..WalrusParams::paper_defaults()
    }
}

/// A small image whose content varies with `seed` (so regions differ).
fn tile(seed: usize) -> Image {
    let hue = (seed % 17) as f32 / 17.0;
    let split = 8 + (seed % 16);
    Image::from_fn(32, 32, ColorSpace::Rgb, move |x, y, c| match c {
        0 => {
            if x < split {
                0.85
            } else {
                hue
            }
        }
        1 => {
            if y < split {
                hue
            } else {
                0.2
            }
        }
        _ => 0.1 + hue / 2.0,
    })
    .unwrap()
}

/// The one real-clock smoke in this suite: everything else that involves
/// time runs on an injected [`TestClock`], but this acceptance headline
/// keeps exercising the actual monotonic clock end to end.
#[test]
fn millisecond_deadline_query_on_1k_image_db_returns_partial() {
    let images: Vec<(String, Image)> =
        (0..1000).map(|i| (format!("img{i}"), tile(i))).collect();
    let items: Vec<(&str, &Image)> = images.iter().map(|(n, i)| (n.as_str(), i)).collect();
    // A large query image makes extraction alone exceed 1 ms, so the
    // deadline always fires somewhere in the pipeline.
    let query = Image::from_fn(128, 128, ColorSpace::Rgb, |x, y, c| {
        ((x / 9 + y / 7 + c) % 5) as f32 / 5.0
    })
    .unwrap();
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(params(threads)).unwrap();
        db.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
        assert_eq!(db.len(), 1000);

        let started = Instant::now();
        let out = db
            .query_guarded(&query, &Guard::with_timeout(Duration::from_millis(1)))
            .expect("deadline must degrade, not error");
        let elapsed = started.elapsed();
        assert_eq!(out.status, ResultStatus::Partial, "threads {threads}");
        // "Within one chunk" of the deadline, with a generous CI margin — the
        // point is that it cannot run anywhere near full-query time or hang.
        assert!(elapsed < Duration::from_secs(10), "query ran {elapsed:?} past a 1 ms deadline");

        // The same query unguarded completes and reports Complete.
        let full = db.query_guarded(&query, &Guard::none()).unwrap();
        assert_eq!(full.status, ResultStatus::Complete, "threads {threads}");
    }
}

#[test]
fn deadline_on_a_test_clock_expires_exactly_at_the_boundary() {
    let clock = TestClock::new();
    let deadline = Deadline::after_on(clock.clone(), Duration::from_millis(50));
    assert!(!deadline.expired());
    assert_eq!(deadline.remaining(), Duration::from_millis(50));
    clock.advance(Duration::from_millis(49));
    assert!(!deadline.expired());
    assert_eq!(deadline.remaining(), Duration::from_millis(1));
    clock.advance(Duration::from_millis(1));
    assert!(deadline.expired());
    assert_eq!(deadline.remaining(), Duration::ZERO);
}

#[test]
fn expired_test_clock_deadline_degrades_to_partial_without_sleeping() {
    // The deterministic twin of the 1k-image smoke above: the deadline is
    // expired by advancing an injected clock, so no database is large
    // enough, no margin is generous enough, and no wall time is spent.
    let images: Vec<(String, Image)> = (0..40).map(|i| (format!("img{i}"), tile(i))).collect();
    let items: Vec<(&str, &Image)> = images.iter().map(|(n, i)| (n.as_str(), i)).collect();
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(params(threads)).unwrap();
        db.insert_images_batch_guarded(&items, &Guard::none()).unwrap();

        let clock = TestClock::new();
        let guard = Guard::with_timeout_on(clock.clone(), Duration::from_millis(5));
        clock.advance(Duration::from_millis(5));
        let out = db.query_guarded(&tile(3), &guard).unwrap();
        assert_eq!(out.status, ResultStatus::Partial, "threads {threads}");
        assert!(out.matches.is_empty(), "deadline expired before extraction: nothing was scored");

        // An unexpired deadline on the same (now frozen) clock completes in
        // full — the degradation above came from the deadline, not the
        // plumbing.
        let guard = Guard::with_timeout_on(clock.clone(), Duration::from_millis(5));
        let full = db.query_guarded(&tile(3), &guard).unwrap();
        assert_eq!(full.status, ResultStatus::Complete, "threads {threads}");
        assert!(!full.matches.is_empty());
    }
}

#[test]
fn deadline_partial_is_a_correctly_ranked_prefix() {
    // Deterministic variant of the acceptance property, using the guard's
    // poll-count trip instead of wall clock: with threads = 1 the partial
    // result is exactly the first candidates in ascending-id order, ranked
    // exactly as the full result ranks them.
    let mut db = ImageDatabase::new(params(1)).unwrap();
    let images: Vec<(String, Image)> = (0..40).map(|i| (format!("img{i}"), tile(i))).collect();
    let items: Vec<(&str, &Image)> = images.iter().map(|(n, i)| (n.as_str(), i)).collect();
    db.insert_images_batch_guarded(&items, &Guard::none()).unwrap();

    let query = tile(3);
    let q_regions = walrus_core::extract_regions(&query, db.params()).unwrap();
    let full = db.query_regions(&q_regions, query.area(), 0.0).unwrap();
    let mut ids: Vec<usize> = full.matches.iter().map(|m| m.image_id).collect();
    ids.sort_unstable();
    ids.dedup();
    // At min_similarity 0 every candidate appears in the ranking, so the
    // match ids are exactly the candidate ids scored in ascending order.
    assert_eq!(ids.len(), full.stats.distinct_images);
    assert!(ids.len() >= 4, "need several candidates for a meaningful prefix");

    let scored_prefix = ids.len() / 2;
    let prefix_ids = &ids[..scored_prefix];
    // Serial guarded maps poll before each item: the probe stage consumes
    // one poll per query region, then one per scored candidate.
    let polls = q_regions.len() + scored_prefix;
    let guard = Guard::none().trip_after(polls, Interrupt::DeadlineExceeded);
    let part = db.query_regions_guarded(&q_regions, query.area(), 0.0, &guard).unwrap();
    assert_eq!(part.status, ResultStatus::Partial);
    assert_eq!(part.stats.total_matching_regions, full.stats.total_matching_regions);

    // The partial ranking is the full ranking restricted to the prefix ids
    // (filtering preserves rank order; both rank identically).
    let expected: Vec<_> =
        full.matches.iter().filter(|m| prefix_ids.contains(&m.image_id)).collect();
    assert_eq!(part.matches.len(), expected.len());
    for (got, want) in part.matches.iter().zip(&expected) {
        assert_eq!(got.image_id, want.image_id);
        assert_eq!(got.similarity.to_bits(), want.similarity.to_bits());
        assert_eq!(got.matched_pairs, want.matched_pairs);
    }
}

/// A batch ingest interrupted by `guard` — wherever in the batch the
/// interrupt lands — must fail with `expected` and leave the store as it
/// found it: every file of every shard byte-identical, no I/O performed at
/// all, and the same images answering queries, also from other threads.
/// Checked at every `(threads, shards)` pair of the matrix, each with a
/// fresh guard from `guard` (a poll-count trip is spent once it fires).
fn assert_interrupted_batch_leaves_the_store_untouched(
    guard: impl Fn() -> Guard,
    expected: Interrupt,
) {
    for (threads, shards) in threads_by_shards() {
        assert_interrupted_batch_leaves_the_store_untouched_at(&guard(), expected, threads, shards);
    }
}

fn assert_interrupted_batch_leaves_the_store_untouched_at(
    guard: &Guard,
    expected: Interrupt,
    threads: usize,
    shards: usize,
) {
    let io = Arc::new(FaultIo::new());
    let (store, _) = ShardedStore::open_with(io.clone(), "db", params(threads), shards).unwrap();
    for i in 0..6 {
        store.insert_image(&format!("pre{i}"), &tile(i)).unwrap();
    }
    store.checkpoint().unwrap();
    // Past the checkpoint, so snapshots *and* logs hold committed state.
    for i in 6..10 {
        store.insert_image(&format!("pre{i}"), &tile(i)).unwrap();
    }
    let files = |io: &FaultIo| -> Vec<_> {
        io.file_names().into_iter().map(|p| (p.clone(), io.file_bytes(&p).unwrap())).collect()
    };
    let files_before = files(&io);
    assert!(files_before.iter().any(|(p, _)| p.ends_with("wal.log")));
    let ops_before = io.op_count();
    let answer_before = store.query(&tile(0)).unwrap();

    let batch: Vec<(String, walrus_imagery::Image)> =
        (20..28).map(|i| (format!("new{i}"), tile(i))).collect();
    let items: Vec<(&str, &walrus_imagery::Image)> =
        batch.iter().map(|(n, i)| (n.as_str(), i)).collect();
    match (store.insert_images_batch_guarded(&items, guard), expected) {
        (Err(WalrusError::Cancelled), Interrupt::Cancelled) => {}
        (Err(WalrusError::DeadlineExceeded), Interrupt::DeadlineExceeded) => {}
        (other, _) => {
            panic!("{threads} thread(s), {shards} shard(s): expected {expected:?}, got {other:?}")
        }
    }

    assert_eq!(io.op_count(), ops_before, "an interrupted batch must not perform any IO at all");
    assert_eq!(files(&io), files_before, "an interrupted batch must not touch any shard's files");
    assert_eq!(store.len(), 10);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let out = store.query_guarded(&tile(0), &Guard::none()).unwrap();
                assert_eq!(out.status, ResultStatus::Complete);
                assert_eq!(out.stats, answer_before.stats);
            });
        }
    });

    // The store is still fully usable afterwards, and the ids the aborted
    // batch would have taken were never handed out.
    assert_eq!(store.insert_image("post", &tile(7)).unwrap(), 10);
    assert_eq!(store.len(), 11);
}

#[test]
fn cancelled_batch_ingest_leaves_snapshot_and_wal_bit_identical() {
    // Cancelled before it starts.
    let token = CancelToken::new();
    token.cancel();
    assert_interrupted_batch_leaves_the_store_untouched(
        || Guard::with_token(token.clone()),
        Interrupt::Cancelled,
    );
}

#[test]
fn cancelled_shared_batch_ingest_is_all_or_nothing() {
    // Interrupted part-way through extraction (the trip counts guard polls,
    // which the extraction workers share, and the eight images poll at
    // least once each): still nothing of the batch may land.
    for (polls, interrupt) in [(2, Interrupt::Cancelled), (6, Interrupt::DeadlineExceeded)] {
        assert_interrupted_batch_leaves_the_store_untouched(
            || Guard::none().trip_after(polls, interrupt),
            interrupt,
        );
    }
}

#[test]
fn transient_append_faults_exhaust_cleanly_without_poisoning() {
    for threads in THREAD_COUNTS {
        let io = Arc::new(FaultIo::new());
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params(threads)).unwrap();
        store.insert_image("a", &tile(2)).unwrap();
        let wal_before = io.file_bytes(Path::new("db/wal.log")).unwrap();

        // Fail the very next op: the WAL append of the insert below. The
        // append path then cuts the tail back (truncate + fsync).
        io.set_fault(Some(Fault { at_op: io.op_count(), kind: FaultKind::Transient }));
        match store.insert_image("b", &tile(3)) {
            Err(WalrusError::Io { context, source }) => {
                assert!(context.contains("wal.log"), "context should name the file: {context}");
                assert_eq!(source.kind(), std::io::ErrorKind::Interrupted);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        // The tail was restored: not poisoned, WAL unchanged, and the store
        // keeps accepting writes.
        assert!(!store.is_poisoned());
        assert_eq!(io.file_bytes(Path::new("db/wal.log")).unwrap(), wal_before);
        assert_eq!(store.len(), 1);
        store.insert_image("b", &tile(3)).unwrap();
        assert_eq!(store.len(), 2);

        // The log the failure left behind replays cleanly on reopen.
        drop(store);
        let (store, report) = DurableDatabase::open_with(io, "db", params(threads)).unwrap();
        assert_eq!(report.records_replayed, 2);
        assert!(!report.torn_tail_truncated);
        assert_eq!(store.db().image(1).unwrap().name, "b");
    }
}

#[test]
fn wal_record_budget_blocks_oversized_appends() {
    for threads in THREAD_COUNTS {
        let io = Arc::new(FaultIo::new());
        let mut tiny = params(threads);
        tiny.budgets.max_wal_record_bytes = 64; // far below any insert record
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", tiny).unwrap();
        let wal_before = io.file_bytes(Path::new("db/wal.log"));
        match store.insert_image("a", &tile(2)) {
            Err(WalrusError::BudgetExceeded { what, used, limit }) => {
                assert_eq!(what, "wal record bytes");
                assert!(used > limit);
                assert_eq!(limit, 64);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(io.file_bytes(Path::new("db/wal.log")), wal_before, "nothing may reach the log");
        assert!(store.is_empty());
    }
}

#[test]
fn budget_breaches_surface_before_work_is_done() {
    let mut p = params(1);
    p.budgets.max_decoded_pixels = 16;
    let db = ImageDatabase::new(p).unwrap();
    match db.query_guarded(&tile(1), &Guard::none()) {
        Err(WalrusError::BudgetExceeded { what: "decoded pixels", used, limit: 16 }) => {
            assert_eq!(used, 32 * 32);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}
