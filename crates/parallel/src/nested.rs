//! Nested sections on private helper sets of a pinned size: a section
//! opened inside a helper's chunk (the shape batch ingest → sweep has) must
//! terminate whether it finds no helper, a busy one, or idle ones.

use super::*;

/// Runs `outer_chunks` chunks on `set`, each of which opens its own section
/// of `inner_chunks` chunks on the same set, and returns how many inner
/// chunks ran in total and how many outer chunks ran off the calling thread.
fn nested(set: &'static HelperSet, threads: usize) -> (usize, usize) {
    const OUTER: usize = 16;
    const INNER: usize = 12;
    let caller = std::thread::current().id();
    let (inner_ran, on_helper) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let none = Guard::none();
    let interrupted = run_chunks(set, threads, OUTER, &none, &|_| {
        if std::thread::current().id() != caller {
            on_helper.fetch_add(1, Ordering::SeqCst);
        } else if set.cpus > 1 {
            // Hold the caller back until a helper has taken an outer chunk,
            // so the nested section below really opens on a helper.
            while on_helper.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }
        let interrupted = run_chunks(set, threads, INNER, &none, &|_| {
            inner_ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(interrupted, None);
    });
    assert_eq!(interrupted, None);
    assert_eq!(inner_ran.load(Ordering::SeqCst), OUTER * INNER);
    (inner_ran.into_inner(), on_helper.into_inner())
}

#[test]
fn nested_sections_terminate_with_0_1_and_3_helpers() {
    for cpus in [1, 2, 4] {
        let set: &'static HelperSet = Box::leak(Box::new(HelperSet::new(cpus)));
        // threads = 2 leaves helpers idle for the nested sections to take
        // when cpus = 4; threads = 4 has every helper already in the outer one.
        for threads in [2, 4] {
            for _ in 0..50 {
                let (_, on_helper) = nested(set, threads);
                assert_eq!(on_helper > 0, cpus > 1, "cpus = {cpus}, threads = {threads}");
            }
        }
        assert_eq!(set.threads_started.load(Ordering::Relaxed), cpus - 1);
        assert_eq!(set.busy.load(Ordering::Relaxed), 0, "gauge must return to zero");
        assert!(set.lock().offers.is_empty());
    }
}
