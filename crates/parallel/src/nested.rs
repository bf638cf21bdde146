//! The helper-set contract on private sets of a pinned size — 0, 1 and 3
//! helpers, whatever the host has: every chunk runs once, panics on the
//! caller or a helper resurface, a saturated set runs its sections inline,
//! and a tripped guard stops the section and the map half of the public
//! primitives. `tests/pool_stress.rs` checks the same properties
//! through the public primitives, at the one helper count the host's CPUs
//! give the process-wide set.
//!
//! Nested sections come first: a section opened inside a helper's chunk
//! must terminate whether it finds no helper, a busy one, or idle ones.

use super::*;
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;

/// Private sets with 0, 1 and 3 helpers. Leaked: helpers park on them for
/// the life of the test process, exactly as on the process-wide set.
fn pinned_sets() -> impl Iterator<Item = &'static HelperSet> {
    [1, 2, 4].into_iter().map(|cpus| &*Box::leak(Box::new(HelperSet::new(cpus))))
}

/// What every set must look like once its sections are over.
fn assert_quiescent(set: &HelperSet) {
    assert_eq!(set.threads_started.load(Ordering::Relaxed), set.cpus - 1);
    assert_eq!(set.busy.load(Ordering::Relaxed), 0, "gauge must return to zero");
    assert!(set.lock().offers.is_empty());
}

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
    for set in pinned_sets() {
        let cpus = set.cpus;
        // threads = 2 leaves helpers idle for the nested sections to take
        // when cpus = 4; threads = 4 has every helper already in the outer one.
        for threads in [2, 4] {
            for _ in 0..50 {
                let (_, on_helper) = nested(set, threads);
                assert_eq!(on_helper > 0, cpus > 1, "cpus = {cpus}, threads = {threads}");
            }
        }
        assert_quiescent(set);
    }
}

#[test]
fn sections_run_every_chunk_once_and_start_helpers_once_with_0_1_and_3_helpers() {
    const CHUNKS: usize = 32;
    for set in pinned_sets() {
        let none = Guard::none();
        for round in 0..1_000 {
            let ran: Vec<AtomicUsize> = (0..CHUNKS).map(|_| AtomicUsize::new(0)).collect();
            let interrupted = run_chunks(set, 4, CHUNKS, &none, &|c| {
                ran[c].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(interrupted, None);
            assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1), "round {round}");
        }
        assert_quiescent(set);
    }
}

#[test]
fn a_helpers_panic_resurfaces_on_the_caller_and_the_helper_survives_with_1_and_3_helpers() {
    for set in pinned_sets().filter(|set| set.cpus > 1) {
        let none = Guard::none();
        // The caller's chunks wait for a helper to take one, so the helper
        // really runs a chunk; `on_helper` runs there once.
        let with_helper = |on_helper: &(dyn Fn() + Sync)| {
            let caller = std::thread::current().id();
            let helper_in = AtomicBool::new(false);
            run_chunks(set, 2, 8, &none, &|_| {
                if std::thread::current().id() == caller {
                    while !helper_in.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else if !helper_in.swap(true, Ordering::SeqCst) {
                    on_helper();
                }
            })
        };
        let caught = catch_unwind(AssertUnwindSafe(|| with_helper(&|| panic!("helper boom"))));
        let payload = caught.expect_err("a helper's panic must not be swallowed");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"), "cpus = {}", set.cpus);
        // Returns only once a helper has joined: the one that panicked is
        // still there to help.
        assert_eq!(with_helper(&|| {}), None);
        assert_quiescent(set);
    }
}

#[test]
fn a_tripped_guard_stops_the_section_with_work_missing_with_0_1_and_3_helpers() {
    const CHUNKS: usize = 256;
    for set in pinned_sets() {
        for threads in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let guard = Guard::none().trip_after(5, Interrupt::Cancelled);
            let interrupted = run_chunks(set, threads, CHUNKS, &guard, &|_| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(interrupted, Some(Interrupt::Cancelled), "cpus = {}", set.cpus);
            // Every poll that succeeded ran its chunk, and no other did.
            assert_eq!(ran.load(Ordering::SeqCst), 5, "cpus = {}, threads = {threads}", set.cpus);
        }
        assert_quiescent(set);
    }
}

#[test]
fn a_callers_panic_resurfaces_and_the_set_keeps_working_with_0_1_and_3_helpers() {
    for set in pinned_sets() {
        let none = Guard::none();
        // Helpers hold their chunks until the caller has claimed one, so they
        // cannot finish the section without it.
        let caller = std::thread::current().id();
        let caller_in = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(set, 4, 16, &none, &|_| {
                if std::thread::current().id() == caller {
                    caller_in.store(true, Ordering::SeqCst);
                    panic!("caller boom");
                }
                while !caller_in.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
        }));
        let payload = caught.expect_err("the caller's panic must not be swallowed");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"), "cpus = {}", set.cpus);

        let ran = AtomicUsize::new(0);
        let interrupted = run_chunks(set, 4, 16, &none, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!((interrupted, ran.into_inner()), (None, 16), "cpus = {}", set.cpus);
        assert_quiescent(set);
    }
}

#[test]
fn a_saturated_set_runs_every_section_inline_with_0_1_and_3_helpers() {
    const CHUNKS: usize = 64;
    for set in pinned_sets() {
        let cpus = set.cpus;
        let inline_before = set.sections_inline.load(Ordering::Relaxed);
        // One thread per CPU, each counted busy (as a pool worker inside a
        // job is) before any of them opens its section: no CPU is spare.
        let all_in = Barrier::new(cpus);
        let outcomes: Vec<(Option<Interrupt>, usize, usize)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..cpus)
                .map(|_| {
                    s.spawn(|| {
                        let _busy = set.enter();
                        all_in.wait();
                        let me = std::thread::current().id();
                        let (ran, elsewhere) = (AtomicUsize::new(0), AtomicUsize::new(0));
                        let interrupted = run_chunks(set, 4, CHUNKS, &Guard::none(), &|_| {
                            ran.fetch_add(1, Ordering::SeqCst);
                            if std::thread::current().id() != me {
                                elsewhere.fetch_add(1, Ordering::SeqCst);
                            }
                        });
                        // Nobody leaves while another may still open its section.
                        all_in.wait();
                        (interrupted, ran.into_inner(), elsewhere.into_inner())
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for outcome in outcomes {
            assert_eq!(outcome, (None, CHUNKS, 0), "cpus = {cpus}: a saturated set shared a section");
        }
        assert_eq!(set.sections_shared.load(Ordering::Relaxed), 0, "cpus = {cpus}");
        assert_eq!(set.sections_inline.load(Ordering::Relaxed) - inline_before, cpus);
        assert_quiescent(set);
    }
}

#[test]
fn the_guarded_map_half_keeps_its_contract_with_0_1_and_3_helpers() {
    let items: Vec<usize> = (0..4096).collect();
    let double = |_: usize, x: &usize| x * 2;
    for set in pinned_sets() {
        for threads in [2, 8] {
            let ctx = format!("cpus = {}, threads = {threads}", set.cpus);

            // Tripped before the section opens: nothing runs.
            let token = CancelToken::new();
            token.cancel();
            let (parts, interrupted) =
                map_chunks(set, threads, &Guard::with_token(token), &items, &double);
            assert_eq!(interrupted, Some(Interrupt::Cancelled), "{ctx}");
            assert!(parts.is_empty(), "{ctx}");

            // Tripped mid-run: exactly the chunks whose poll succeeded ran,
            // sorted by start and computed right; the rest is missing.
            let guard = Guard::none().trip_after(5, Interrupt::DeadlineExceeded);
            let (parts, interrupted) = map_chunks(set, threads, &guard, &items, &double);
            assert_eq!(interrupted, Some(Interrupt::DeadlineExceeded), "{ctx}");
            assert_eq!(parts.len(), 5, "{ctx}");
            assert!(parts.windows(2).all(|w| w[0].0 < w[1].0), "{ctx}");
            for (start, out) in &parts {
                assert!(out.iter().enumerate().all(|(i, &v)| v == (start + i) * 2), "{ctx}");
            }
        }
        assert_quiescent(set);
    }
}
