//! # walrus-parallel
//!
//! Dependency-free data-parallel primitives for the WALRUS engine. The
//! environment is offline (no rayon), so this crate provides the minimal
//! substrate the hot paths need:
//!
//! * [`parallel_map`] — map a function over a slice, chunked and dynamically
//!   scheduled, returning results **in input order** (deterministic
//!   regardless of thread count or scheduling).
//! * [`try_parallel_map`] — same, for fallible functions; the error
//!   reported is the one at the **lowest input index**, exactly what a
//!   serial loop would have returned first.
//! * [`parallel_for`] — scatter a vector of owned tasks (typically
//!   `(index, &mut [T])` slices carved out of an output buffer with
//!   `chunks_mut`) across workers; order of execution is unspecified, but
//!   each task owns disjoint data so results are deterministic.
//! * [`resolve_threads`] — the engine-wide thread-count policy: explicit
//!   request > `WALRUS_THREADS` env var > [`std::thread::available_parallelism`].
//! * [`WorkerPool`] (in [`pool`]) — the serving side: a long-lived
//!   fixed-size pool with a bounded queue, load-shedding submission, panic
//!   isolation, and a drain-then-shutdown lifecycle for graceful server stop.
//! * [`stats`] — how many sections ran inline or shared, and how many
//!   threads this crate ever started.
//!
//! ## Execution model
//!
//! A call with `threads > 1` opens a *section*: the input is cut into chunks
//! (the chunking depends on `threads` and the input only) and **the calling
//! thread claims chunks itself** until none are left. No thread is created
//! per call. Instead one process-wide set of `resolve_threads(0) − 1` helper
//! threads is started on the first section that can use it and parked
//! between sections; a section is offered to at most
//! `min(threads − 1, idle helpers, spare CPUs)` of them, where spare CPUs is
//! `resolve_threads(0)` minus a gauge of threads already inside a
//! [`WorkerPool`] job or a section. A saturated server therefore runs every
//! section as the plain serial loop — no lock, no wake-up, no allocation —
//! while a lone request or a batch ingest on an idle machine still fans out.
//! The caller waits only for helpers that joined before it ran out of
//! chunks, so a helper that wakes late costs nothing.
//!
//! ## Guarantees
//!
//! * **Serial fallback:** every primitive runs inline on the calling thread
//!   when `threads <= 1` or the input is trivially small, so single-threaded
//!   callers pay only a branch.
//! * **Determinism:** outputs are ordered by input index; floating-point
//!   work is partitioned, never re-associated, so results are byte-identical
//!   to serial ones whoever ran which chunk.
//! * **Panic propagation:** a panic in any chunk — on the caller or on a
//!   helper — resurfaces on the calling thread once every helper has left
//!   the section; the helper survives and no result is silently dropped.
//!
//! Closures borrow from the caller's stack, so there is no `'static` bound
//! anywhere — the hot paths pass borrowed images, parameter structs and
//! index references straight through.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;

pub mod pool;

#[cfg(test)]
mod nested;

pub use pool::WorkerPool;
pub use walrus_guard::{Budgets, CancelToken, Deadline, Guard, Interrupt};

/// Upper bound on worker threads; guards against absurd `WALRUS_THREADS`
/// values spawning thousands of OS threads.
pub const MAX_THREADS: usize = 256;

/// Resolves the effective worker count for a requested value, applying the
/// engine-wide policy:
///
/// 1. `requested > 0` wins (the `WalrusParams::threads` knob);
/// 2. otherwise the `WALRUS_THREADS` environment variable, if set to a
///    positive integer (read once per process);
/// 3. otherwise [`std::thread::available_parallelism`] (1 if unknown).
///
/// The result is clamped to `[1, MAX_THREADS]`.
pub fn resolve_threads(requested: usize) -> usize {
    static ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    let resolved = if requested > 0 {
        requested
    } else if let Some(n) = *ENV.get_or_init(|| {
        std::env::var("WALRUS_THREADS").ok().and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0)
    }) {
        n
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    };
    resolved.clamp(1, MAX_THREADS)
}

/// Counters of the process-wide helper set, for `/metrics` and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelStats {
    /// Size of the helper set: `resolve_threads(0) − 1`.
    pub helpers: usize,
    /// Threads this crate's primitives ever created. Moves once, on the
    /// first shared section, and never again.
    pub threads_started: usize,
    /// Sections with `threads > 1` that ran on the calling thread alone
    /// because no CPU or helper was spare.
    pub sections_inline: usize,
    /// Sections offered to at least one helper.
    pub sections_shared: usize,
}

/// Snapshot of the process-wide helper set's counters.
pub fn stats() -> ParallelStats {
    let set = helper_set();
    ParallelStats {
        helpers: set.cpus - 1,
        threads_started: set.threads_started.load(Ordering::Relaxed),
        sections_inline: set.sections_inline.load(Ordering::Relaxed),
        sections_shared: set.sections_shared.load(Ordering::Relaxed),
    }
}

/// The persistent helper threads plus the load gauge that decides whether a
/// section may use them. Production code uses the one process-wide instance
/// ([`helper_set`]); unit tests build private ones to pin the helper count.
struct HelperSet {
    /// CPUs the process may keep busy (at least 1).
    cpus: usize,
    /// Threads inside a [`WorkerPool`] job or a shared section right now.
    /// A hint that publishes no data, hence `Relaxed` everywhere.
    busy: AtomicUsize,
    state: Mutex<SetState>,
    /// Parked helpers wait here for an offer with a free slot.
    wake: Condvar,
    threads_started: AtomicUsize,
    sections_inline: AtomicUsize,
    sections_shared: AtomicUsize,
}

struct SetState {
    /// Whether the helper threads were started (once, lazily).
    started: bool,
    /// Helper threads alive.
    helpers: usize,
    /// Helpers inside a section right now.
    active: usize,
    /// Open sections that may still take helpers.
    offers: Vec<Offer>,
}

struct Offer {
    section: &'static Section<'static>,
    /// Helpers that may still join.
    slots: usize,
    /// Helpers that did join: exactly the ones the caller waits for.
    joined: usize,
}

thread_local! {
    /// Whether this thread is already counted in a `busy` gauge, so a pool
    /// worker that opens a section (or a helper that opens a nested one) is
    /// counted once.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Keeps the current thread counted in a `busy` gauge until dropped.
struct Busy<'a>(Option<&'a AtomicUsize>);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        if let Some(busy) = self.0 {
            busy.fetch_sub(1, Ordering::Relaxed);
            COUNTED.with(|c| c.set(false));
        }
    }
}

fn helper_set() -> &'static HelperSet {
    static SET: OnceLock<HelperSet> = OnceLock::new();
    SET.get_or_init(|| HelperSet::new(resolve_threads(0)))
}

impl HelperSet {
    fn new(cpus: usize) -> Self {
        HelperSet {
            cpus: cpus.clamp(1, MAX_THREADS),
            busy: AtomicUsize::new(0),
            state: Mutex::new(SetState {
                started: false,
                helpers: 0,
                active: 0,
                offers: Vec::new(),
            }),
            wake: Condvar::new(),
            threads_started: AtomicUsize::new(0),
            sections_inline: AtomicUsize::new(0),
            sections_shared: AtomicUsize::new(0),
        }
    }

    /// Every update under this lock is a single counter step or a push /
    /// remove, so the state stays valid even if a holder ever panicked.
    fn lock(&self) -> MutexGuard<'_, SetState> {
        lock_ignore_poison(&self.state)
    }

    /// Counts the current thread as busy, unless an enclosing job or section
    /// already did.
    fn enter(&self) -> Busy<'_> {
        if COUNTED.with(|c| c.replace(true)) {
            return Busy(None);
        }
        self.busy.fetch_add(1, Ordering::Relaxed);
        Busy(Some(&self.busy))
    }

    /// CPUs left for helpers once every busy thread, and the current one,
    /// has its own. Lock-free: the saturated path stops here.
    fn spare(&self) -> usize {
        let own = usize::from(!COUNTED.with(Cell::get));
        self.cpus.saturating_sub(self.busy.load(Ordering::Relaxed) + own)
    }

    /// Offers `section` to up to `want` helpers and returns the latch the
    /// caller must drop **before** `section` goes away, or `None` when no
    /// CPU or helper is spare and the caller runs the section alone.
    fn offer<'s>(&'static self, section: &'s Section<'s>, want: usize) -> Option<Latch<'s>> {
        let mut state = self.lock();
        if !state.started {
            self.start(&mut state);
        }
        let slots = want.min(self.spare()).min(state.helpers - state.active);
        if slots == 0 {
            drop(state);
            self.sections_inline.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: this erases the lifetime of a section that lives on the
        // caller's stack and borrows the caller's closure. The erased
        // reference is reachable only through `state.offers`. A helper copies
        // it out only under the state lock, and only while incrementing the
        // offer's `joined`; it touches the section for the last time when it
        // increments `finished`. `Latch::drop` — which runs before `section`
        // is dropped, on return and on unwind, because the latch borrows it —
        // removes the offer under the same lock, after which no further
        // helper can obtain the reference, and then blocks until `finished`
        // has reached the `joined` it read. So every use of the erased
        // reference happens while the section is alive.
        let erased =
            unsafe { std::mem::transmute::<&'s Section<'s>, &'static Section<'static>>(section) };
        let busy = self.enter();
        state.offers.push(Offer { section: erased, slots, joined: 0 });
        // Nothing may come between the push and the latch that withdraws it.
        let latch = Latch { set: self, section, _busy: busy };
        drop(state);
        if slots == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
        self.sections_shared.fetch_add(1, Ordering::Relaxed);
        Some(latch)
    }

    /// Starts the helper threads: the only thread creation in this crate's
    /// primitives. They are never joined — they park between sections for
    /// the life of the process and hold nothing that needs unwinding.
    fn start(&'static self, state: &mut SetState) {
        state.started = true;
        for i in 0..self.cpus - 1 {
            let spawned = std::thread::Builder::new()
                .name(format!("walrus-helper-{i}"))
                .spawn(move || self.helper_loop());
            // A refused spawn (thread limit) only means fewer helpers: the
            // caller of a section always makes progress alone.
            if spawned.is_ok() {
                state.helpers += 1;
            }
        }
        self.threads_started.fetch_add(state.helpers, Ordering::Relaxed);
    }

    fn helper_loop(&'static self) {
        let mut state = self.lock();
        loop {
            let Some(offer) = state.offers.iter_mut().find(|o| o.slots > 0) else {
                state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            offer.slots -= 1;
            offer.joined += 1;
            let section = offer.section;
            state.active += 1;
            drop(state);
            {
                let _busy = self.enter();
                section.help();
            }
            // Back to idle before releasing the latch, so the caller's next
            // section finds this helper and its CPU available again.
            state = self.lock();
            state.active -= 1;
            // The increment is the last access to the section: once the
            // caller observes it the section may be gone, so the handle to
            // wake the caller is copied out first.
            let caller = section.caller.clone();
            section.finished.fetch_add(1, Ordering::Release);
            caller.unpark();
        }
    }
}

/// One fork-join section, on the caller's stack: a claim counter over
/// `n_chunks` chunk indices, the first interrupt and panic seen, and the
/// completion latch (`finished`) its helpers release.
struct Section<'a> {
    next: AtomicUsize,
    n_chunks: usize,
    guard: &'a Guard,
    run: &'a (dyn Fn(usize) + Sync),
    stopped: Mutex<Option<Interrupt>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Helpers that have left the section for good. `Release` on the
    /// helper's increment pairs with the caller's `Acquire` load in
    /// `Latch::drop`, publishing everything the helper's chunks wrote.
    finished: AtomicUsize,
    caller: Thread,
}

impl Section<'_> {
    /// The chunk-claim loop every thread of a section runs, caller and
    /// helpers alike.
    fn work(&self) {
        loop {
            // Claim first, then poll: an interrupt observed here leaves the
            // claimed chunk uncomputed, preserving the invariant that
            // `interrupted` implies missing work.
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                break;
            }
            if let Err(int) = self.guard.poll() {
                lock_ignore_poison(&self.stopped).get_or_insert(int);
                break;
            }
            (self.run)(c);
        }
    }

    /// A helper's share: the claim loop with a panic caught and kept for the
    /// caller, so the helper thread survives and still releases the latch.
    fn help(&self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.work())) {
            // Nothing after a panic is worth computing.
            self.next.store(self.n_chunks, Ordering::Relaxed);
            lock_ignore_poison(&self.panic).get_or_insert(payload);
        }
    }
}

/// Held by the caller while its section is on offer. Dropping it withdraws
/// the offer and waits for the helpers that joined — the invariant behind the
/// lifetime erasure in [`HelperSet::offer`].
struct Latch<'s> {
    set: &'static HelperSet,
    section: &'s Section<'s>,
    _busy: Busy<'static>,
}

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        let joined = {
            let mut state = self.set.lock();
            let at = state
                .offers
                .iter()
                .position(|o| std::ptr::eq::<Section<'_>>(o.section, self.section))
                .expect("only this drop removes the offer");
            state.offers.swap_remove(at).joined
        };
        // A helper still inside is finishing one chunk: spin for about that
        // long before paying a sleep and a wake-up for it.
        let mut spins = 0u32;
        while self.section.finished.load(Ordering::Acquire) < joined {
            if spins < 1 << 10 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// Runs `run(c)` once for every chunk index `c < n_chunks` the guard lets
/// through, on the calling thread and up to `threads − 1` helpers of `set`.
/// Returns the first interrupt observed; re-raises a helper's panic.
fn run_chunks(
    set: &'static HelperSet,
    threads: usize,
    n_chunks: usize,
    guard: &Guard,
    run: &(dyn Fn(usize) + Sync),
) -> Option<Interrupt> {
    let section = Section {
        next: AtomicUsize::new(0),
        n_chunks,
        guard,
        run,
        stopped: Mutex::new(None),
        panic: Mutex::new(None),
        finished: AtomicUsize::new(0),
        caller: std::thread::current(),
    };
    let latch = set.offer(&section, threads - 1);
    section.work();
    drop(latch);
    if let Some(payload) = lock_ignore_poison(&section.panic).take() {
        resume_unwind(payload);
    }
    section.stopped.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Worker count for a section over `len` units, or `None` when it runs as
/// the plain serial loop on the caller: one worker asked for, at most one
/// unit, or no spare CPU (decided without taking a lock).
fn section_threads(threads: usize, len: usize) -> Option<usize> {
    let threads = threads.clamp(1, MAX_THREADS).min(len);
    if threads <= 1 {
        return None;
    }
    let set = helper_set();
    if set.spare() == 0 {
        set.sections_inline.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    Some(threads)
}

/// Chunk size that gives each worker several chunks to steal (dynamic load
/// balancing for irregular per-item cost) without paying scheduling
/// overhead per item.
fn chunk_size(len: usize, threads: usize) -> usize {
    // ~4 chunks per worker, at least 1 item per chunk.
    len.div_ceil(threads.saturating_mul(4).max(1)).max(1)
}

/// The shared half of the map primitives: maps chunk by chunk through
/// [`run_chunks`] and returns `(start index, outputs)` runs sorted by start,
/// plus the interrupt that stopped the section early, if any.
fn map_chunks<T, U, F>(
    threads: usize,
    guard: &Guard,
    items: &[T],
    f: &F,
) -> (Vec<(usize, Vec<U>)>, Option<Interrupt>)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let chunk = chunk_size(items.len(), threads);
    let n_chunks = items.len().div_ceil(chunk);
    let done: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    let interrupted = run_chunks(helper_set(), threads, n_chunks, guard, &|c| {
        let start = c * chunk;
        let end = (start + chunk).min(items.len());
        let out: Vec<U> =
            items[start..end].iter().enumerate().map(|(i, t)| f(start + i, t)).collect();
        lock_ignore_poison(&done).push((start, out));
    });
    let mut parts = done.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_unstable_by_key(|(start, _)| *start);
    (parts, interrupted)
}

/// The shared half of the for primitives: one task per claim.
fn for_chunks<T, F>(threads: usize, guard: &Guard, tasks: Vec<T>, f: &F) -> Option<Interrupt>
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n_tasks = tasks.len();
    let queue = Mutex::new(tasks);
    run_chunks(helper_set(), threads, n_tasks, guard, &|_| {
        // Pop from the back: O(1) and contention-free enough for the coarse
        // task granularity the engine uses. Every claim that gets here pops
        // exactly one task, so the queue cannot run dry first.
        let task = lock_ignore_poison(&queue).pop();
        if let Some(t) = task {
            f(t);
        }
    })
}

/// Maps `f` over `items` using up to `threads` workers, returning outputs
/// in input order. `f` receives `(index, &item)`. Runs inline when
/// `threads <= 1` or there is at most one item.
pub fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let Some(threads) = section_threads(threads, items.len()) else {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    };
    let (parts, _) = map_chunks(threads, &Guard::none(), items, &f);
    let mut out = Vec::with_capacity(items.len());
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// Fallible [`parallel_map`]: maps `f` over `items` and collects the `Ok`
/// values in input order, or returns the error with the **lowest input
/// index** — the same error a serial left-to-right loop would hit first
/// (later items may still have been evaluated; their results are dropped).
pub fn try_parallel_map<T, U, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    let results = parallel_map(threads, items, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Runs `f` once per task, distributing owned tasks across up to `threads`
/// workers. Tasks typically carry disjoint `&mut` slices carved from an
/// output buffer, which is what makes mutation from many workers safe.
/// Execution order is unspecified. Runs inline when `threads <= 1` or there
/// is at most one task.
pub fn parallel_for<T, F>(threads: usize, tasks: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let Some(threads) = section_threads(threads, tasks.len()) else {
        for t in tasks {
            f(t);
        }
        return;
    };
    for_chunks(threads, &Guard::none(), tasks, &f);
}

/// A poisoned mutex here only means another thread panicked; that panic is
/// about to resurface on the section's caller, so the data is never observed.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Result of a guarded partial map: everything that finished before the
/// guard tripped.
///
/// Invariant: `interrupted.is_some()` implies at least one item was **not**
/// computed, and `interrupted.is_none()` implies `completed` covers every
/// input item. `completed` is sorted by input index. Which items complete
/// under interruption depends on scheduling (workers stop within one chunk
/// of the trip), except in the serial path where `completed` is always the
/// exact prefix of items processed before the trip.
#[derive(Debug)]
pub struct PartialOutput<U> {
    /// `(input index, result)` pairs, sorted by index.
    pub completed: Vec<(usize, U)>,
    /// The interrupt that stopped the map early, if any.
    pub interrupted: Option<Interrupt>,
}

/// [`parallel_map`] that cooperates with a [`Guard`]: workers poll the guard
/// before starting each chunk (each item, in the serial path), so in-flight
/// work stops within one chunk of cancellation or deadline expiry. Results
/// computed before the trip are returned rather than discarded — that is
/// what lets the query path serve best-so-far partial answers.
pub fn parallel_map_partial<T, U, F>(
    threads: usize,
    guard: &Guard,
    items: &[T],
    f: F,
) -> PartialOutput<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if !guard.is_armed() {
        let out = parallel_map(threads, items, f);
        return PartialOutput { completed: out.into_iter().enumerate().collect(), interrupted: None };
    }
    let Some(threads) = section_threads(threads, items.len()) else {
        let mut completed = Vec::with_capacity(items.len());
        let mut interrupted = None;
        for (i, t) in items.iter().enumerate() {
            if let Err(int) = guard.poll() {
                interrupted = Some(int);
                break;
            }
            completed.push((i, f(i, t)));
        }
        return PartialOutput { completed, interrupted };
    };
    let (parts, interrupted) = map_chunks(threads, guard, items, &f);
    let mut completed = Vec::with_capacity(items.len());
    for (start, part) in parts {
        completed.extend(part.into_iter().enumerate().map(|(i, u)| (start + i, u)));
    }
    PartialOutput { completed, interrupted }
}

/// Guarded [`try_parallel_map`]: stops within one chunk of an interrupt and
/// surfaces it as `E` (via `From<Interrupt>`); otherwise identical semantics
/// to [`try_parallel_map`], including lowest-index error selection.
///
/// An interrupt takes precedence over item errors: under interruption the
/// set of evaluated items is scheduling-dependent, so reporting an item
/// error from it would be nondeterministic, while the interrupt itself is
/// the caller's own signal.
pub fn try_parallel_map_guarded<T, U, E, F>(
    threads: usize,
    guard: &Guard,
    items: &[T],
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send + From<Interrupt>,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    let partial = parallel_map_partial(threads, guard, items, f);
    if let Some(int) = partial.interrupted {
        return Err(E::from(int));
    }
    let mut out = Vec::with_capacity(partial.completed.len());
    for (_, r) in partial.completed {
        out.push(r?);
    }
    Ok(out)
}

/// Guarded [`parallel_for`]: workers poll the guard before each task and
/// abandon the queue on an interrupt. On `Err`, an unspecified subset of
/// tasks has run — callers must treat the shared output as garbage (the
/// engine only uses this inside computations that are discarded wholesale
/// when interrupted).
pub fn parallel_for_guarded<T, F>(
    threads: usize,
    guard: &Guard,
    tasks: Vec<T>,
    f: F,
) -> Result<(), Interrupt>
where
    T: Send,
    F: Fn(T) + Sync,
{
    if !guard.is_armed() {
        parallel_for(threads, tasks, f);
        return Ok(());
    }
    let Some(threads) = section_threads(threads, tasks.len()) else {
        for t in tasks {
            guard.poll()?;
            f(t);
        }
        return Ok(());
    };
    match for_chunks(threads, guard, tasks, &f) {
        Some(int) => Err(int),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_explicit_request_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(100_000), MAX_THREADS);
    }

    #[test]
    fn resolve_auto_is_at_least_one() {
        let n = resolve_threads(0);
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    fn map_preserves_order_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let serial = parallel_map(1, &items, |i, &x| x * 2 + i);
        for threads in [2, 3, 8, 64] {
            let par = parallel_map(threads, &items, |i, &x| x * 2 + i);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[7u32], |i, &x| (i, x)), vec![(0, 7)]);
        // More threads than items.
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(16, &items, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 4] {
            let err = try_parallel_map(threads, &items, |_, &x| {
                if x == 3 || x == 400 {
                    Err(x)
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err, 3, "threads = {threads}");
        }
    }

    #[test]
    fn try_map_ok_collects_in_order() {
        let items: Vec<usize> = (0..100).collect();
        let out: Result<Vec<usize>, ()> = try_parallel_map(8, &items, |_, &x| Ok(x * x));
        assert_eq!(out.unwrap(), items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn for_scatters_disjoint_slices() {
        let mut buf = vec![0u64; 1024];
        for threads in [1, 2, 8] {
            buf.fill(0);
            let tasks: Vec<(usize, &mut [u64])> = buf.chunks_mut(32).enumerate().collect();
            parallel_for(threads, tasks, |(chunk, slice)| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = (chunk * 32 + i) as u64;
                }
            });
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, i as u64, "threads = {threads}");
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, &items, |_, &x| {
                if x == 17 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(caught.is_err(), "panic must not be swallowed");
    }

    #[test]
    fn partial_map_unarmed_guard_is_complete() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map_partial(4, &Guard::none(), &items, |_, &x| x * 2);
        assert_eq!(out.interrupted, None);
        assert_eq!(out.completed.len(), 100);
        for (i, (idx, v)) in out.completed.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn partial_map_serial_trip_yields_exact_prefix() {
        let items: Vec<usize> = (0..50).collect();
        let guard = Guard::none().trip_after(7, Interrupt::DeadlineExceeded);
        let out = parallel_map_partial(1, &guard, &items, |_, &x| x);
        assert_eq!(out.interrupted, Some(Interrupt::DeadlineExceeded));
        assert_eq!(out.completed.len(), 7);
        for (i, (idx, v)) in out.completed.iter().enumerate() {
            assert_eq!((*idx, *v), (i, i));
        }
    }

    #[test]
    fn partial_map_parallel_cancel_stops_early() {
        let items: Vec<usize> = (0..10_000).collect();
        let token = CancelToken::new();
        token.cancel();
        let out = parallel_map_partial(4, &Guard::with_token(token), &items, |_, &x| x);
        assert_eq!(out.interrupted, Some(Interrupt::Cancelled));
        assert!(out.completed.is_empty(), "pre-cancelled guard must do no work");
    }

    #[test]
    fn partial_map_interrupted_implies_missing_work() {
        let items: Vec<usize> = (0..4096).collect();
        for threads in [1, 2, 8] {
            let guard = Guard::none().trip_after(3, Interrupt::Cancelled);
            let out = parallel_map_partial(threads, &guard, &items, |_, &x| x);
            assert_eq!(out.interrupted, Some(Interrupt::Cancelled), "threads = {threads}");
            assert!(out.completed.len() < items.len(), "threads = {threads}");
            let mut last = None;
            for (idx, v) in &out.completed {
                assert_eq!(idx, v);
                assert!(last < Some(*idx), "completed must be index-sorted");
                last = Some(*idx);
            }
        }
    }

    #[test]
    fn guarded_try_map_maps_interrupt_into_error() {
        #[derive(Debug, PartialEq)]
        enum E {
            Int(Interrupt),
            Item(usize),
        }
        impl From<Interrupt> for E {
            fn from(i: Interrupt) -> Self {
                E::Int(i)
            }
        }
        let items: Vec<usize> = (0..200).collect();
        // No interrupt: behaves like try_parallel_map (lowest-index error).
        let err = try_parallel_map_guarded(4, &Guard::none(), &items, |_, &x| {
            if x == 5 || x == 150 {
                Err(E::Item(x))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, E::Item(5));
        // Interrupt wins over item errors.
        let guard = Guard::none().trip_after(0, Interrupt::Cancelled);
        let err: E = try_parallel_map_guarded(4, &guard, &items, |_, &x| Ok::<usize, E>(x))
            .unwrap_err();
        assert_eq!(err, E::Int(Interrupt::Cancelled));
    }

    #[test]
    fn guarded_for_runs_all_without_interrupt() {
        let mut buf = vec![0u64; 256];
        let tasks: Vec<(usize, &mut [u64])> = buf.chunks_mut(16).enumerate().collect();
        let res = parallel_for_guarded(4, &Guard::none(), tasks, |(chunk, slice)| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (chunk * 16 + i) as u64 + 1;
            }
        });
        assert!(res.is_ok());
        assert!(buf.iter().all(|&v| v > 0));
    }

    #[test]
    fn guarded_for_aborts_on_trip() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..1000).collect();
        let guard = Guard::none().trip_after(5, Interrupt::DeadlineExceeded);
        let res = parallel_for_guarded(1, &guard, tasks, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(res, Err(Interrupt::DeadlineExceeded));
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn map_runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..777).collect();
        let out = parallel_map(8, &items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 777);
        assert_eq!(counter.load(Ordering::Relaxed), 777);
    }
}
