//! Long-lived bounded worker pool for serving workloads.
//!
//! The data-parallel primitives in the crate root ([`parallel_map`] and
//! friends) split one computation across the caller and the crate's parked
//! helper threads; they never own a request. [`WorkerPool`] is the serving
//! half, which does:
//!
//! * a fixed set of named OS threads that live as long as the pool;
//! * a **bounded** FIFO job queue — when it is full, [`WorkerPool::try_execute`]
//!   hands the job back instead of queueing unbounded work, which is the
//!   hook servers use for load-shedding (e.g. HTTP 503);
//! * panic isolation — a panicking job is caught and counted, the worker
//!   thread survives, so one poisonous request cannot shrink the pool;
//! * cooperative shutdown — [`WorkerPool::wait_idle`] lets a caller drain
//!   in-flight work with a deadline, then [`WorkerPool::shutdown`] wakes the
//!   workers, drops whatever is still queued, and joins the threads.
//!
//! Jobs are `FnOnce() + Send + 'static` boxes: unlike the data-parallel
//! primitives there is no borrowing from the caller's stack, because the pool
//! outlives any one call site.
//!
//! A worker counts as busy in the crate's load gauge for as long as it is
//! inside a job, so a section opened from a job takes helpers only while
//! CPUs are spare: with every worker on a request, sections run inline.
//!
//! [`parallel_map`]: crate::parallel_map

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::MAX_THREADS;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for jobs (or shutdown).
    job_ready: Condvar,
    /// Drain callers wait here for `queue empty && active == 0`.
    idle: Condvar,
    /// Jobs that panicked (caught; the worker survived).
    panics: AtomicUsize,
}

/// Fixed-size worker pool with a bounded job queue. See the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    capacity: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (clamped to `[1, MAX_THREADS]`)
    /// and room for `queue_depth` queued jobs (at least 1) beyond the ones
    /// already executing.
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let capacity = queue_depth.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            panics: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("walrus-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers, threads, capacity }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queue capacity (jobs that can wait beyond the executing ones).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs waiting in the queue right now.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().expect("pool lock").queue.len()
    }

    /// Jobs executing on a worker right now.
    pub fn active(&self) -> usize {
        self.shared.state.lock().expect("pool lock").active
    }

    /// Jobs that panicked since the pool was created. The workers survive a
    /// panicking job, so this is an observability counter, not a health bit.
    pub fn panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Submits a job, or hands it back when the queue is full or the pool is
    /// shutting down. Never blocks — this is the admission-control point, and
    /// the returned closure lets the caller run its own rejection path (close
    /// a socket, answer 503, run inline, ...).
    pub fn try_execute<F>(&self, job: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'static,
    {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            if state.shutdown || state.queue.len() >= self.capacity {
                drop(state);
                return Err(job);
            }
            state.queue.push_back(Box::new(job));
        }
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Blocks until the pool is idle (no queued and no executing jobs) or
    /// `timeout` elapses. Returns `true` when idle was reached. This is the
    /// drain step of graceful shutdown: stop submitting, `wait_idle`, then
    /// [`WorkerPool::shutdown`].
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("pool lock");
        while !(state.queue.is_empty() && state.active == 0) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            let (next, wait) = self
                .shared
                .idle
                .wait_timeout(state, remaining.min(Duration::from_millis(50)))
                .expect("pool lock");
            state = next;
            let _ = wait;
        }
        true
    }

    /// Stops the pool: no new jobs are accepted, **queued jobs are dropped**,
    /// jobs already executing run to completion, and all workers are joined.
    /// Returns the number of queued jobs that were discarded. Idempotent.
    ///
    /// Callers that want queued work to finish should [`WorkerPool::wait_idle`]
    /// first; `shutdown` itself is the hard stop.
    pub fn shutdown(&mut self) -> usize {
        let dropped = {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
            let dropped: Vec<Job> = state.queue.drain(..).collect();
            dropped.len()
            // Drop the jobs outside the lock? They are plain closures; dropping
            // under the lock is fine and keeps the accounting atomic.
        };
        self.shared.job_ready.notify_all();
        for worker in self.workers.drain(..) {
            // A worker only fails to join if a panic escaped `catch_unwind`
            // (e.g. a panic in a Drop impl); surface that loudly.
            worker.join().expect("pool worker panicked outside job isolation");
        }
        self.shared.idle.notify_all();
        dropped
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.job_ready.wait(state).expect("pool lock");
            }
        };
        let Some(job) = job else { return };
        {
            let _busy = crate::helper_set().enter();
            // Isolate panics: the job owns its data (FnOnce + 'static), so
            // unwind safety concerns don't cross the boundary into pool state.
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut state = shared.state.lock().expect("pool lock");
        state.active -= 1;
        if state.active == 0 && state.queue.is_empty() {
            drop(state);
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let mut job = {
                let counter = Arc::clone(&counter);
                move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            };
            // On a single-core box the submitter can outrun the workers and
            // briefly fill the queue; spin until a slot frees up.
            loop {
                match pool.try_execute(job) {
                    Ok(()) => break,
                    Err(rejected) => {
                        job = rejected;
                        std::thread::yield_now();
                    }
                }
            }
        }
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut pool = WorkerPool::new(1, 2);
        // Occupy the single worker so queued jobs cannot drain.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .ok()
        .expect("first job admitted");
        started_rx.recv().unwrap();

        // Fill the queue to capacity...
        assert!(pool.try_execute(|| {}).is_ok());
        assert!(pool.try_execute(|| {}).is_ok());
        // ...and the next job bounces back to the caller.
        let mut bounced = false;
        if let Err(job) = pool.try_execute(|| {}) {
            bounced = true;
            // The caller gets the closure back and may run it inline.
            job();
        }
        assert!(bounced, "queue at capacity must reject");
        assert!(!pool.wait_idle(Duration::from_millis(20)), "worker is blocked");

        release_tx.send(()).unwrap();
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkerPool::new(1, 8);
        let survived = Arc::new(AtomicBool::new(false));
        pool.try_execute(|| panic!("poison request")).ok().expect("admitted");
        let flag = Arc::clone(&survived);
        pool.try_execute(move || flag.store(true, Ordering::SeqCst))
            .ok()
            .expect("admitted");
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert!(survived.load(Ordering::SeqCst), "worker must survive a panic");
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn shutdown_drops_queued_jobs_and_rejects_new_ones() {
        let mut pool = WorkerPool::new(1, 8);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .ok()
        .expect("admitted");
        started_rx.recv().unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.try_execute(move || flag.store(true, Ordering::SeqCst))
            .ok()
            .expect("admitted");

        release_tx.send(()).unwrap();
        // The queued job may or may not start before shutdown wins the lock;
        // both outcomes are legal. What must hold: shutdown joins cleanly and
        // afterwards nothing is accepted.
        let dropped = pool.shutdown();
        assert!(dropped <= 1);
        assert_eq!(dropped == 1, !ran.load(Ordering::SeqCst));
        assert!(pool.try_execute(|| {}).is_err(), "pool is closed");
    }
}
