//! Stress suite for the persistent helper set behind the data-parallel
//! primitives. Every test here asserts on the process-wide counters of
//! [`walrus_parallel::stats`], so the tests take one lock and run one at a
//! time; the helper count is whatever the host's CPUs give
//! (`stats().helpers`). The same contract at a pinned 0, 1 and 3 helpers is
//! swept on private helper sets by the crate's unit tests (`nested.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use walrus_parallel::{
    parallel_map, parallel_map_partial, stats, CancelToken, Guard, Interrupt, WorkerPool,
};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Maps `x + 1` over `items` with two workers while making sure a helper
/// takes part: the caller's chunks wait until some other thread has entered
/// the closure. `on_helper` runs once, on the helper's first item.
fn map_with_helper(items: &[usize], on_helper: impl Fn() + Sync) -> Vec<usize> {
    assert!(stats().helpers > 0, "needs a helper thread");
    let caller = std::thread::current().id();
    let helper_in = AtomicBool::new(false);
    parallel_map(2, items, |_, &x| {
        if std::thread::current().id() == caller {
            while !helper_in.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        } else if !helper_in.swap(true, Ordering::SeqCst) {
            on_helper();
        }
        x + 1
    })
}

#[test]
fn ten_thousand_sections_start_no_thread_after_the_first() {
    let _serial = serial();
    let items: Vec<usize> = (0..64).collect();
    let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
    assert_eq!(parallel_map(4, &items, |_, &x| x * 3), expected);
    let first = stats();
    // The first section of an idle process is shared whenever helpers exist,
    // and that is when all of them start.
    assert_eq!(first.threads_started, first.helpers);

    let armed = Guard::with_token(CancelToken::new());
    for round in 0..10_000 {
        if round % 2 == 0 {
            assert_eq!(parallel_map(4, &items, |_, &x| x * 3), expected);
        } else {
            let out = parallel_map_partial(4, &armed, &items, |i, &x| round + i + x);
            assert_eq!(out.interrupted, None);
            let want = |(i, &(j, v)): (usize, &(usize, usize))| j == i && v == round + 2 * i;
            assert!(out.completed.iter().enumerate().all(want));
        }
    }
    let last = stats();
    assert_eq!(last.threads_started, first.threads_started, "a section created a thread");
    assert_eq!(
        (last.sections_inline + last.sections_shared)
            - (first.sections_inline + first.sections_shared),
        10_000,
        "every section is counted once, as inline or as shared"
    );
}

#[test]
fn panics_resurface_on_the_caller_and_the_helpers_survive() {
    let _serial = serial();
    let items: Vec<usize> = (0..64).collect();
    let expected: Vec<usize> = items.iter().map(|x| x + 1).collect();
    let payload_of = |caught: Box<dyn std::any::Any + Send>| {
        caught.downcast_ref::<&str>().copied().unwrap_or("<not a str>")
    };

    // A panic in the caller's own chunk; helpers hold theirs until the
    // caller has claimed one, so they cannot finish the section without it.
    let caller = std::thread::current().id();
    let caller_in = AtomicBool::new(false);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        parallel_map(4, &items, |_, &x| {
            if std::thread::current().id() == caller {
                caller_in.store(true, Ordering::SeqCst);
                panic!("caller boom");
            }
            while !caller_in.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            x
        })
    }));
    assert_eq!(payload_of(caught.expect_err("panic must not be swallowed")), "caller boom");
    assert_eq!(parallel_map(4, &items, |_, &x| x + 1), expected);

    if stats().helpers == 0 {
        return;
    }
    // A panic in a helper's chunk: same payload, on the caller.
    let before = stats();
    let caught =
        catch_unwind(AssertUnwindSafe(|| map_with_helper(&items, || panic!("helper boom"))));
    assert_eq!(payload_of(caught.expect_err("panic must not be swallowed")), "helper boom");
    // The helper that panicked is still there to help: this call returns
    // only once a helper has joined it.
    assert_eq!(map_with_helper(&items, || {}), expected);
    assert_eq!(stats().threads_started, before.threads_started);
}

#[test]
fn nested_sections_terminate() {
    let _serial = serial();
    let outer: Vec<usize> = (0..24).collect();
    let inner: Vec<usize> = (0..40).collect();
    let inner_sum: usize = inner.iter().sum();
    for threads in [2, 4] {
        let out = parallel_map(threads, &outer, |_, &o| {
            parallel_map(threads, &inner, |_, &i| i + o).into_iter().sum::<usize>()
        });
        for (o, total) in out.into_iter().enumerate() {
            assert_eq!(total, inner_sum + o * inner.len(), "threads = {threads}");
        }
    }
}

#[test]
fn saturated_pool_runs_its_sections_inline() {
    let _serial = serial();
    // One worker per CPU the helper set believes in, all inside a job at
    // once: no CPU is spare, so no section may be offered to a helper.
    let cpus = stats().helpers + 1;
    let pool = WorkerPool::new(cpus, cpus);
    let before = stats();
    let all_in = Arc::new(Barrier::new(cpus));
    let wrong = Arc::new(AtomicUsize::new(0));
    for _ in 0..cpus {
        let (all_in, wrong) = (Arc::clone(&all_in), Arc::clone(&wrong));
        pool.try_execute(move || {
            all_in.wait();
            let items: Vec<usize> = (0..512).collect();
            let out = parallel_map(4, &items, |i, &x| x + i);
            if out != items.iter().map(|x| x * 2).collect::<Vec<_>>() {
                wrong.fetch_add(1, Ordering::SeqCst);
            }
            // Nobody leaves its job while another may still open its section.
            all_in.wait();
        })
        .ok()
        .expect("one queue slot per worker");
    }
    assert!(pool.wait_idle(Duration::from_secs(60)));
    assert_eq!(wrong.load(Ordering::SeqCst), 0);
    let after = stats();
    assert_eq!(after.sections_shared, before.sections_shared, "a saturated pool shared a section");
    assert_eq!(after.sections_inline - before.sections_inline, cpus);
    assert_eq!(after.threads_started, before.threads_started);
}

#[test]
fn tripped_guards_keep_their_contract_with_helpers_around() {
    let _serial = serial();
    let items: Vec<usize> = (0..4096).collect();

    // Tripped before the section opens: nothing runs, at any width.
    for threads in [1, 2, 8] {
        let token = CancelToken::new();
        token.cancel();
        let out = parallel_map_partial(threads, &Guard::with_token(token), &items, |_, &x| x);
        assert_eq!(out.interrupted, Some(Interrupt::Cancelled));
        assert!(out.completed.is_empty(), "threads = {threads}");
    }

    // Tripped mid-run: interrupted ⇒ work is missing, what completed is
    // index-sorted and right, and the serial path yields the exact prefix.
    for threads in [1, 2, 8] {
        let guard = Guard::none().trip_after(5, Interrupt::DeadlineExceeded);
        let out = parallel_map_partial(threads, &guard, &items, |_, &x| x * 2);
        assert_eq!(out.interrupted, Some(Interrupt::DeadlineExceeded), "threads = {threads}");
        assert!(out.completed.len() < items.len());
        assert!(out.completed.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(out.completed.iter().all(|&(i, v)| v == i * 2));
        if threads == 1 {
            let prefix: Vec<(usize, usize)> = (0..5).map(|i| (i, i * 2)).collect();
            assert_eq!(out.completed, prefix);
        }
    }

    // Exactly the polls that succeeded ran work: one item per poll in the
    // serial path, one chunk per poll in a section.
    for threads in [1, 2, 8] {
        let ran = AtomicUsize::new(0);
        let guard = Guard::none().trip_after(7, Interrupt::Cancelled);
        let out = parallel_map_partial(threads, &guard, &items, |_, &x| {
            ran.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.interrupted, Some(Interrupt::Cancelled), "threads = {threads}");
        assert_eq!(ran.load(Ordering::SeqCst), out.completed.len(), "threads = {threads}");
        // Seven polls succeeded: seven items serially, seven whole chunks
        // in a section.
        assert_eq!(out.completed.len() % 7, 0, "threads = {threads}");
        if threads == 1 {
            assert_eq!(out.completed.len(), 7);
        }
    }
}
