//! A dependency-free scoped worker pool for embarrassingly parallel jobs.
//!
//! The figure harness runs hundreds of independent simulations (kernel ×
//! design point × machine size); each one is single-threaded and
//! deterministic, so running them on different OS threads changes nothing
//! about the results — only the wall-clock time of the sweep. This module
//! owns that parallelism for the whole workspace:
//!
//! * [`run_jobs`] executes a job list on a fixed number of workers and
//!   returns the results **in input order**, so output built from them
//!   (CSV files, tables, `BENCH_*.json`) is bit-identical whether the
//!   sweep ran on one worker or sixteen.
//! * [`run_jobs_observed`] additionally reports each job's index, result,
//!   and wall-clock duration as it completes — the hook the bench harness
//!   uses for `[7/40] heat @ sparse16k … 1.8s` progress lines.
//! * [`default_jobs`] picks the worker count: the `COHESION_JOBS`
//!   environment variable when set, otherwise the machine's available
//!   parallelism.
//! * [`WorkerPool`] is the *persistent* counterpart of [`run_jobs`]: a
//!   long-lived pool with a bounded submission queue (backpressure is an
//!   explicit [`SubmitError::Full`], never an unbounded buffer), panic
//!   isolation per job, and a graceful [`WorkerPool::drain`] that
//!   finishes queued work before the threads exit. `cohesiond` schedules client-submitted simulation
//!   jobs on it.
//!
//! Jobs must be [`Send`] closures over [`Send`] inputs: the type system
//! rejects jobs that smuggle shared mutable state, which is what keeps a
//! parallel sweep trivially deterministic. A panicking job does not tear
//! down the process from a worker thread; the pool finishes the remaining
//! jobs, then re-raises the panic of the **lowest-indexed** failed job on
//! the calling thread, so the propagated failure is deterministic too.
//!
//! # Example
//!
//! ```
//! use cohesion_testkit::pool;
//!
//! // Results arrive in input order regardless of which worker ran what.
//! let squares = pool::run_jobs(4, (0u64..32).collect(), |i| i * i);
//! assert_eq!(squares, (0u64..32).map(|i| i * i).collect::<Vec<_>>());
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count.
///
/// `COHESION_JOBS=1` forces sequential execution (useful when bisecting or
/// profiling a single simulation); invalid or zero values are ignored with
/// a warning.
pub const JOBS_ENV: &str = "COHESION_JOBS";

/// The default worker count: [`JOBS_ENV`] when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
///
/// ```
/// assert!(cohesion_testkit::pool::default_jobs() >= 1);
/// ```
pub fn default_jobs() -> usize {
    match std::env::var(JOBS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring invalid {JOBS_ENV}={v:?} (want a positive integer)");
                available_parallelism()
            }
        },
        Err(_) => available_parallelism(),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs every job in `jobs` on at most `workers` OS threads and returns
/// the results in input order.
///
/// `workers` is clamped to `1..=jobs.len()`; with one worker (or one job)
/// everything runs inline on the calling thread, so `--jobs 1` really is
/// the sequential path. Panics in jobs are propagated (see the
/// [module docs](self) for the ordering guarantee).
///
/// ```
/// use cohesion_testkit::pool;
///
/// let upper = pool::run_jobs(2, vec!["swcc", "hwcc"], |s: &str| s.to_uppercase());
/// assert_eq!(upper, vec!["SWCC", "HWCC"]);
/// assert!(pool::run_jobs(8, Vec::<u32>::new(), |x| x).is_empty());
/// ```
pub fn run_jobs<T, R, F>(workers: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    run_jobs_observed(workers, jobs, f, |_, _, _| {})
}

/// Like [`run_jobs`], but calls `done(index, &result, elapsed)` as each
/// job completes (from whichever thread ran it), with the job's wall-clock
/// duration. Completion order is nondeterministic; the returned `Vec` is
/// still in input order.
///
/// ```
/// use cohesion_testkit::pool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let completed = AtomicUsize::new(0);
/// let out = pool::run_jobs_observed(
///     2,
///     vec![1u32, 2, 3],
///     |x| x + 1,
///     |_index, _result, _elapsed| {
///         completed.fetch_add(1, Ordering::Relaxed);
///     },
/// );
/// assert_eq!(out, vec![2, 3, 4]);
/// assert_eq!(completed.load(Ordering::Relaxed), 3);
/// ```
pub fn run_jobs_observed<T, R, F, O>(workers: usize, jobs: Vec<T>, f: F, done: O) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    O: Fn(usize, &R, Duration) + Sync,
{
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let start = Instant::now();
                let r = f(item);
                done(i, &r, start.elapsed());
                r
            })
            .collect();
    }

    // One slot per job for both input and output; a shared atomic cursor
    // hands out work. Workers never touch the same slot twice, so the
    // mutexes are uncontended — they exist to make the slot transfer
    // provably safe without unsafe code.
    let work: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().unwrap().take().expect("each job taken once");
                let start = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => {
                        done(i, &r, start.elapsed());
                        *out[i].lock().unwrap() = Some(r);
                    }
                    Err(payload) => panics.lock().unwrap().push((i, payload)),
                }
            });
        }
    });

    let mut panics = panics.into_inner().unwrap();
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _)| *i);
        resume_unwind(panics.remove(0).1);
    }
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("every job produced a result"))
        .collect()
}

// ---------------------------------------------------------------------
// Persistent pool: long-lived workers, bounded queue, graceful drain
// ---------------------------------------------------------------------

/// Why [`WorkerPool::submit`] rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — the caller must shed load (this
    /// is the backpressure signal `cohesiond` turns into a `queue-full`
    /// wire error) or retry later.
    Full,
    /// The pool is draining or has been drained; no new work is accepted.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "worker pool queue is full"),
            SubmitError::Draining => write!(f, "worker pool is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

type BoxedJob = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    queue: VecDeque<BoxedJob>,
    draining: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    queue_cap: usize,
    running: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicUsize,
}

/// A long-lived worker pool with a bounded submission queue.
///
/// Unlike [`run_jobs`], which executes one fixed job list and returns,
/// `WorkerPool` keeps `workers` OS threads alive across many independent
/// submissions — the shape a server needs. Guarantees:
///
/// * **Bounded memory.** At most `queue_cap` jobs wait; beyond that,
///   [`WorkerPool::submit`] returns [`SubmitError::Full`] instead of
///   buffering without limit.
/// * **Panic isolation.** A panicking job is caught and counted
///   ([`WorkerPool::panicked`]); the worker thread survives and moves on
///   to the next job. (Servers report the failure to one client; they do
///   not die.)
/// * **Graceful drain.** [`WorkerPool::drain`] stops intake, lets every
///   queued and running job finish, then joins the worker threads.
///   Dropping the pool without calling `drain` drains it too.
///
/// Jobs communicate results however they like (typically an
/// `std::sync::mpsc` channel captured by the closure).
///
/// ```
/// use cohesion_testkit::pool::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(2, 64);
/// let (tx, rx) = mpsc::channel();
/// for i in 0u64..8 {
///     let tx = tx.clone();
///     pool.submit(move || tx.send(i * i).unwrap()).unwrap();
/// }
/// drop(tx);
/// let mut got: Vec<u64> = rx.iter().collect();
/// got.sort();
/// assert_eq!(got, (0..8).map(|i| i * i).collect::<Vec<_>>());
/// pool.drain();
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) servicing a queue of at
    /// most `queue_cap` pending jobs (clamped to ≥ 1).
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            queue_cap: queue_cap.max(1),
            running: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    fn worker_loop(shared: Arc<PoolShared>) {
        loop {
            let job = {
                let mut st = shared.state.lock().expect("pool state poisoned");
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.draining {
                        return;
                    }
                    st = shared.work_ready.wait(st).expect("pool state poisoned");
                }
            };
            shared.running.fetch_add(1, Ordering::AcqRel);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            shared.running.fetch_sub(1, Ordering::AcqRel);
            shared.completed.fetch_add(1, Ordering::AcqRel);
            if outcome.is_err() {
                shared.panicked.fetch_add(1, Ordering::AcqRel);
            }
            // Wake the drainer (and fellow workers) in case this was the
            // last job standing between drain() and the exit condition.
            shared.work_ready.notify_all();
        }
    }

    /// Enqueues `job` for execution on some worker.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when `queue_cap` jobs are already waiting,
    /// [`SubmitError::Draining`] after [`WorkerPool::drain`] began.
    pub fn submit<F>(&self, job: F) -> Result<(), SubmitError>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        if st.draining {
            return Err(SubmitError::Draining);
        }
        if st.queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::Full);
        }
        st.queue.push_back(Box::new(job));
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs waiting in the queue (not yet started).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("pool state poisoned").queue.len()
    }

    /// Jobs currently executing on a worker.
    pub fn running(&self) -> usize {
        self.shared.running.load(Ordering::Acquire)
    }

    /// Jobs that have finished (including panicked ones).
    pub fn completed(&self) -> usize {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Jobs that panicked (caught; the worker survived).
    pub fn panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::Acquire)
    }

    /// Stops intake, finishes every queued and running job, and joins the
    /// worker threads. Returns the total number of jobs the pool executed
    /// over its lifetime.
    pub fn drain(mut self) -> usize {
        self.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.completed()
    }

    fn begin_drain(&self) {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        st.draining = true;
        drop(st);
        self.shared.work_ready.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod worker_pool_tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn executes_submitted_jobs_and_drains() {
        let pool = WorkerPool::new(4, 128);
        let (tx, rx) = mpsc::channel();
        for i in 0u32..50 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap()).unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(pool.drain(), 50);
    }

    #[test]
    fn bounded_queue_rejects_with_full() {
        // One worker blocked on a gate; capacity 2 → third submit is Full.
        let pool = WorkerPool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait until the gate job occupies the worker so the queue is empty.
        while pool.running() == 0 {
            std::thread::yield_now();
        }
        pool.submit(|| {}).unwrap();
        pool.submit(|| {}).unwrap();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Full));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(pool.drain(), 3);
    }

    #[test]
    fn submit_after_drop_of_drained_pool_is_rejected() {
        let pool = WorkerPool::new(2, 8);
        pool.begin_drain();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Draining));
        assert_eq!(pool.drain(), 0);
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.submit(|| panic!("job boom")).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u8).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(7));
        assert_eq!(pool.panicked(), 1);
        assert_eq!(pool.drain(), 2);
    }

    #[test]
    fn drain_finishes_queued_work() {
        let pool = WorkerPool::new(2, 256);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(pool.drain(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_list_returns_empty() {
        let out: Vec<u32> = run_jobs(4, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_workers_preserves_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = jobs.iter().map(|i| i * 3 + 1).collect();
        assert_eq!(run_jobs(3, jobs, |i| i * 3 + 1), expect);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(run_jobs(64, vec![1u8, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn zero_workers_clamps_to_sequential() {
        assert_eq!(run_jobs(0, vec![5i32], |x| x - 1), vec![4]);
    }

    #[test]
    fn panic_propagates_with_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_jobs(4, (0..16).collect(), |i: i32| {
                if i == 9 {
                    panic!("job nine exploded");
                }
                i
            });
        }))
        .expect_err("pool must re-raise the job panic");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job nine exploded"), "payload was {msg:?}");
    }

    #[test]
    fn lowest_indexed_panic_wins() {
        // Both jobs panic; the pool must deterministically re-raise job 2's.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_jobs(4, (0..8).collect(), |i: i32| {
                if i >= 2 {
                    panic!("boom {i}");
                }
                i
            });
        }))
        .expect_err("panics must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom 2");
    }

    #[test]
    fn observer_sees_every_index_once() {
        let seen = Mutex::new(vec![0u32; 20]);
        run_jobs_observed(
            4,
            (0..20usize).collect(),
            |i| i,
            |idx, &r, elapsed| {
                assert_eq!(idx, r);
                assert!(elapsed <= Duration::from_secs(60));
                seen.lock().unwrap()[idx] += 1;
            },
        );
        assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
