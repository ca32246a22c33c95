//! The shared work-stealing task executor.
//!
//! Every stage's helpers run here: the scheduler's claim loop spawns at most
//! `width − 1` helper morsels per drained stage (a shuffle map stage or an
//! action's result stage) and a [`PipelinedJob`](crate::PipelinedJob)'s
//! helpers up to its prefetch depth ahead of its consumer. A *morsel* is one
//! helper, which claims and runs positions of its stage until none is left.
//! The caller always claims too, so a one-task stage, and every drained
//! stage of a context built with [`RddContext::serial`](crate::RddContext::serial)
//! (a server's), runs on the caller's thread. Workers keep their own deque
//! (newest-first, for cache locality) and steal the oldest morsel from a
//! sibling when their own deque and the shared injector run dry, so a query
//! with a single long partition cannot strand the other workers idle while
//! a concurrent query has morsels queued.
//!
//! The pool size is taken from the `SHARK_EXECUTOR_THREADS` environment
//! variable when the global executor is first touched (falling back to the
//! host's available parallelism); serving layers may fix it earlier via
//! [`Executor::configure_global`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Distinguishes worker threads of different executors (unit tests create
/// private pools next to the global one).
static NEXT_EXECUTOR_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(executor id, worker index)` when the current thread is a pool
    /// worker — lets `spawn` from inside a task target the worker's own
    /// deque instead of the shared injector.
    static WORKER: std::cell::Cell<Option<(u64, usize)>> = const { std::cell::Cell::new(None) };
}

struct ExecutorShared {
    id: u64,
    /// Tasks submitted from outside the pool, oldest first.
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker; the owner pushes and pops at the back, thieves
    /// take from the front.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Pairs with `wake` to park idle workers without losing notifications:
    /// producers bump `pending` and notify while holding the lock.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Tasks enqueued anywhere but not yet picked up.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    steals: AtomicU64,
}

impl ExecutorShared {
    /// Take one task: own deque (newest first), then the injector, then
    /// steal the oldest task from another worker's deque.
    fn find_task(&self, index: usize) -> Option<Task> {
        if let Some(task) = lock(&self.locals[index]).pop_back() {
            return Some(task);
        }
        if let Some(task) = lock(&self.injector).pop_front() {
            return Some(task);
        }
        for offset in 1..self.locals.len() {
            let victim = (index + offset) % self.locals.len();
            if let Some(task) = lock(&self.locals[victim]).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    fn push(&self, task: Task, worker: Option<usize>) {
        match worker {
            Some(index) => lock(&self.locals[index]).push_back(task),
            None => lock(&self.injector).push_back(task),
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        // Notify under the sleep lock so a worker that just checked
        // `pending` and is about to wait cannot miss the wakeup.
        let _guard = lock(&self.sleep);
        self.wake.notify_one();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: Arc<ExecutorShared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.id, index))));
    loop {
        if let Some(task) = shared.find_task(index) {
            if shared.pending.fetch_sub(1, Ordering::SeqCst) > 1 {
                // More work is queued: cascade the wakeup to a sibling.
                let _guard = lock(&shared.sleep);
                shared.wake.notify_one();
            }
            // A panicking task must not take the worker down with it. The
            // scheduler's tasks already turn their panics into errors; this
            // guards the pool against any other submitter's, and the worker
            // moves on to the next morsel.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            continue;
        }
        let guard = lock(&shared.sleep);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.pending.load(Ordering::SeqCst) > 0 {
            continue;
        }
        drop(shared.wake.wait(guard));
    }
}

/// A work-stealing pool of worker threads executing boxed tasks (morsels).
///
/// Most callers use the process-wide instance returned by
/// [`Executor::global`]; tests may build private pools with
/// [`Executor::new`], which are shut down (draining queued tasks first) on
/// drop.
pub struct Executor {
    shared: Arc<ExecutorShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Build a private pool with `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        let shared = Arc::new(ExecutorShared {
            id: NEXT_EXECUTOR_ID.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("shark-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, handles }
    }

    /// The process-wide executor, created on first use. Its size comes from
    /// [`Executor::configure_global`] if that ran first, else the
    /// `SHARK_EXECUTOR_THREADS` environment variable, else the host's
    /// available parallelism.
    pub fn global() -> &'static Executor {
        global_cell().get_or_init(|| Executor::new(default_threads()))
    }

    /// Fix the global executor's thread count before anything uses it.
    /// Returns `false` (without resizing) when the global pool already
    /// exists — pool size is a process-lifetime decision.
    pub fn configure_global(threads: usize) -> bool {
        let mut installed = false;
        global_cell().get_or_init(|| {
            installed = true;
            Executor::new(threads)
        });
        installed
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.locals.len()
    }

    /// How many tasks were stolen from another worker's deque — a liveness
    /// signal for the stealing path, surfaced for tests and diagnostics.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Submit one task. From a pool worker the task lands on that worker's
    /// own deque (newest-first); from any other thread it goes to the
    /// shared injector.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let worker = WORKER.with(|w| w.get()).and_then(|(id, index)| {
            if id == self.shared.id {
                Some(index)
            } else {
                None
            }
        });
        self.shared.push(Box::new(f), worker);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn global_cell() -> &'static OnceLock<Executor> {
    static GLOBAL: OnceLock<Executor> = OnceLock::new();
    &GLOBAL
}

fn default_threads() -> usize {
    if let Ok(value) = std::env::var("SHARK_EXECUTOR_THREADS") {
        if let Ok(threads) = value.trim().parse::<usize>() {
            return threads.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn spawn_runs_every_task() {
        let pool = Executor::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..64 {
            let count = count.clone();
            let done = done.clone();
            pool.spawn(move || {
                count.fetch_add(1, Ordering::SeqCst);
                *lock(&done.0) += 1;
                done.1.notify_all();
            });
        }
        let mut finished = lock(&done.0);
        while *finished < 64 {
            finished = done.1.wait(finished).unwrap();
        }
        assert_eq!(count.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn workers_steal_from_a_loaded_sibling_deque() {
        let pool = Executor::new(4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let ran = Arc::new(AtomicUsize::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        // One seed task spawns a burst of follow-ups from inside the pool:
        // they all land on the seed worker's own deque, so the only way the
        // other three workers ever run one is by stealing it.
        {
            let pool_shared = pool.shared.clone();
            let gate = gate.clone();
            let ran = ran.clone();
            let done = done.clone();
            pool.spawn(move || {
                let worker = WORKER.with(|w| w.get()).expect("on a pool worker");
                assert_eq!(worker.0, pool_shared.id);
                for _ in 0..32 {
                    let ran = ran.clone();
                    let done = done.clone();
                    pool_shared.push(
                        Box::new(move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                            *lock(&done.0) += 1;
                            done.1.notify_all();
                        }),
                        Some(worker.1),
                    );
                }
                // Hold the seed worker hostage until every follow-up ran:
                // the deque owner cannot drain its own backlog, so the
                // steal path must.
                let mut open = lock(&gate.0);
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut finished = lock(&done.0);
        while *finished < 32 {
            let now = std::time::Instant::now();
            assert!(
                now < deadline,
                "steal path stalled: {} of 32 ran",
                *finished
            );
            finished = done.1.wait_timeout(finished, deadline - now).unwrap().0;
        }
        drop(finished);
        *lock(&gate.0) = true;
        gate.1.notify_all();
        assert_eq!(ran.load(Ordering::SeqCst), 32);
        assert!(pool.steals() >= 32, "stolen {} of 32", pool.steals());
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_worker() {
        let pool = Executor::new(1);
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        pool.spawn(|| panic!("task exploded"));
        let flag = done.clone();
        pool.spawn(move || {
            *lock(&flag.0) = true;
            flag.1.notify_all();
        });
        // The single worker must survive the first task's panic to run the
        // second one.
        let mut ok = lock(&done.0);
        while !*ok {
            let (guard, timeout) = done.1.wait_timeout(ok, Duration::from_secs(10)).unwrap();
            ok = guard;
            assert!(!timeout.timed_out(), "worker died with the panicking task");
        }
    }

    #[test]
    fn dropping_a_pool_drains_queued_tasks_first() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = Executor::new(2);
            for _ in 0..16 {
                let ran = ran.clone();
                pool.spawn(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop immediately: shutdown must not discard queued tasks.
        }
        assert_eq!(ran.load(Ordering::SeqCst), 16);
    }
}
