//! Persistent work-stealing worker pool for shard-parallel execution.
//!
//! The columnar layout's shard kernels run whenever a rule
//! application's [`Parallelism`](crate::Parallelism) degree yields more
//! than one shard. They used to spawn fresh `std::thread::scope`
//! workers on *every* rule application; at realistic shard sizes the
//! spawn/join cost rivalled the kernel work and the measured speedup
//! hovered around 1×. This module replaces that with one
//! process-wide pool of detached workers, created lazily and reused
//! for the lifetime of the process:
//!
//! * each worker owns a deque of tasks; submissions are distributed
//!   round-robin and an idle worker **steals** from the back of a
//!   sibling's deque before parking, so an uneven shard split cannot
//!   strand work behind a busy worker;
//! * [`run_batch`] executes a batch of closures and returns their
//!   results **in submission order** — scheduling (which worker ran
//!   which shard, in what interleaving) can never leak into results,
//!   which is what keeps parallel rule applications bit-identical to
//!   the sequential ones at every thread count;
//! * the submitting thread participates as one executor of its own
//!   batch, so a degree-`d` batch needs only `d − 1` pool workers,
//!   degree-1 batches never touch the pool at all, and the pool works
//!   (degenerating to sequential) even on a single-core host;
//! * a task that is itself running on a pool worker executes nested
//!   batches inline — no pool-in-pool deadlocks by construction;
//! * [`spawn_count`] exposes the number of worker threads ever
//!   spawned, so tests can pin "zero spawns per rule application
//!   after warmup".
//!
//! Built on `std` threads, mutexes, and condvars only (the build
//! vendors its dependencies; no crossbeam/rayon), with no `unsafe`:
//! tasks are `'static` boxed closures, shared inputs travel in `Arc`s
//! and outputs come back through indexed result slots.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

/// A type-erased unit of pool work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A batch task producing a `T` for its result slot.
pub type BatchTask<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// Locks a mutex, tolerating poison: a panicking shard task must not
/// wedge every later rule application in the process. The protected
/// state stays structurally valid across unwinds (queues of boxed
/// closures, result slots), so continuing past poison is sound.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

struct WorkerDeque {
    tasks: Mutex<VecDeque<Task>>,
}

struct PoolShared {
    /// One deque per worker; grows (never shrinks) under `grow`.
    deques: RwLock<Vec<Arc<WorkerDeque>>>,
    /// Sleep coordination: workers re-scan under this lock before
    /// waiting, submitters notify under it after pushing — so a push
    /// either happens before a worker's scan (and is seen) or the
    /// submitter's notify is serialized after the worker's wait.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Worker threads ever spawned (monotone; the warmup pin).
    spawned: AtomicUsize,
}

/// The process-wide worker pool. Obtain it via [`global`]; all
/// submission goes through [`run_batch`].
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes growth so two racing `ensure_capacity` calls cannot
    /// both spawn the same missing workers.
    grow: Mutex<()>,
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                deques: RwLock::new(Vec::new()),
                sleep: Mutex::new(()),
                wake: Condvar::new(),
                next: AtomicUsize::new(0),
                spawned: AtomicUsize::new(0),
            }),
            grow: Mutex::new(()),
        }
    }

    /// Ensures enough workers exist to run batches of `degree`
    /// concurrent tasks: the submitter executes one strand itself, so
    /// `degree − 1` workers suffice. Spawns only the missing workers
    /// (none, after warmup) and never shrinks the pool.
    pub fn ensure_capacity(&self, degree: usize) {
        let target = degree.saturating_sub(1);
        if self.workers() >= target {
            return;
        }
        let _g = lock_ignore_poison(&self.grow);
        let current = self.workers();
        for idx in current..target {
            let deque = Arc::new(WorkerDeque {
                tasks: Mutex::new(VecDeque::new()),
            });
            self.shared
                .deques
                .write()
                .unwrap_or_else(|poison| poison.into_inner())
                .push(deque);
            let shared = Arc::clone(&self.shared);
            self.shared.spawned.fetch_add(1, Ordering::SeqCst);
            std::thread::Builder::new()
                .name(format!("hq-pool-{idx}"))
                .spawn(move || worker_loop(shared, idx))
                .expect("spawning a pool worker thread failed");
        }
    }

    /// Number of live pool workers (== threads ever spawned; workers
    /// are never retired).
    pub fn workers(&self) -> usize {
        self.shared
            .deques
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .len()
    }

    /// Submits a task round-robin to a worker deque and wakes sleepers.
    fn submit(&self, task: Task) {
        let deques = self
            .shared
            .deques
            .read()
            .unwrap_or_else(|poison| poison.into_inner());
        debug_assert!(!deques.is_empty(), "submit requires ensure_capacity first");
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % deques.len();
        lock_ignore_poison(&deques[slot].tasks).push_back(task);
        drop(deques);
        let _g = lock_ignore_poison(&self.shared.sleep);
        self.shared.wake.notify_all();
    }
}

/// The shared process-wide pool, created on first use.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Total pool worker threads ever spawned. After warming the pool to
/// the maximum degree a workload uses, this count stays constant — the
/// property `tests/differential_parallel.rs` pins.
pub fn spawn_count() -> usize {
    global().shared.spawned.load(Ordering::SeqCst)
}

/// Current pool worker-thread count (0 until the first parallel batch
/// or explicit warmup). Recorded in `BENCH_*.json` so single-core
/// container runs are distinguishable from real multi-core results.
pub fn workers() -> usize {
    global().workers()
}

thread_local! {
    /// Set while this thread is executing a pool task: nested
    /// `run_batch` calls run inline instead of re-entering the pool.
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Pops the next task for worker `idx`: own deque front first, then
/// steal from the back of sibling deques (scanning circularly from
/// `idx + 1` for fairness).
fn find_task(shared: &PoolShared, idx: usize) -> Option<Task> {
    let deques = shared
        .deques
        .read()
        .unwrap_or_else(|poison| poison.into_inner());
    let n = deques.len();
    if let Some(task) = lock_ignore_poison(&deques[idx].tasks).pop_front() {
        return Some(task);
    }
    for off in 1..n {
        let victim = (idx + off) % n;
        if let Some(task) = lock_ignore_poison(&deques[victim].tasks).pop_back() {
            return Some(task);
        }
    }
    None
}

fn worker_loop(shared: Arc<PoolShared>, idx: usize) {
    loop {
        if let Some(task) = find_task(&shared, idx) {
            IN_POOL_TASK.with(|flag| flag.set(true));
            // A panicking task must not kill the worker: catch the
            // unwind and keep serving. The batch that owned the task
            // observes the panic through its unfilled result slot.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            IN_POOL_TASK.with(|flag| flag.set(false));
            continue;
        }
        // Re-scan under the sleep lock before parking so a submission
        // racing with the empty scan above cannot be lost: a push
        // either lands before this scan (and is seen) or its notify is
        // serialized after our wait.
        let guard = lock_ignore_poison(&shared.sleep);
        match find_task(&shared, idx) {
            Some(task) => {
                drop(guard);
                IN_POOL_TASK.with(|flag| flag.set(true));
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                IN_POOL_TASK.with(|flag| flag.set(false));
            }
            None => {
                let _unused = shared
                    .wake
                    .wait(guard)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        }
    }
}

/// Shared state of one in-flight batch: an order-preserving work queue
/// plus indexed result slots.
struct BatchState<T> {
    pending: Mutex<VecDeque<(usize, BatchTask<T>)>>,
    results: Mutex<Vec<Option<T>>>,
    finished: AtomicUsize,
    total: usize,
    done: Condvar,
}

/// Increments the batch's finished count and notifies the waiter even
/// when the task unwinds (the slot then simply stays `None`).
struct FinishGuard<'a, T> {
    state: &'a BatchState<T>,
}

impl<T> Drop for FinishGuard<'_, T> {
    fn drop(&mut self) {
        self.state.finished.fetch_add(1, Ordering::SeqCst);
        let _g = lock_ignore_poison(&self.state.results);
        self.state.done.notify_all();
    }
}

impl<T> BatchState<T> {
    /// Executes pending batch tasks until the queue is empty. Runs on
    /// pool workers *and* on the submitting thread — dynamic load
    /// balancing at batch granularity.
    fn drain(&self) {
        loop {
            let job = lock_ignore_poison(&self.pending).pop_front();
            let Some((idx, task)) = job else { return };
            let guard = FinishGuard { state: self };
            let value = task();
            lock_ignore_poison(&self.results)[idx] = Some(value);
            drop(guard);
        }
    }
}

/// Runs `tasks` with up to `degree` concurrent executors (the calling
/// thread plus `degree − 1` pool workers) and returns the results in
/// task order. Shard outputs therefore recombine in **fixed shard
/// order** no matter which worker ran which shard — the determinism
/// contract of the columnar shard kernels.
///
/// Degenerate cases stay strictly sequential on the calling thread:
/// `degree ≤ 1`, a single task, or a call made from inside a pool task
/// (nested parallelism runs inline rather than re-entering the pool).
///
/// # Panics
///
/// Propagates a panic from any task (the pool workers themselves
/// survive it).
pub fn run_batch<T: Send + 'static>(degree: usize, tasks: Vec<BatchTask<T>>) -> Vec<T> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    if degree <= 1 || n == 1 || IN_POOL_TASK.with(|flag| flag.get()) {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let pool = global();
    let executors = degree.min(n);
    pool.ensure_capacity(executors);
    let state = Arc::new(BatchState {
        pending: Mutex::new(tasks.into_iter().enumerate().collect()),
        results: Mutex::new((0..n).map(|_| None).collect()),
        finished: AtomicUsize::new(0),
        total: n,
        done: Condvar::new(),
    });
    for _ in 0..executors - 1 {
        let state = Arc::clone(&state);
        pool.submit(Box::new(move || state.drain()));
    }
    state.drain();
    let mut slots = lock_ignore_poison(&state.results);
    while state.finished.load(Ordering::SeqCst) < state.total {
        slots = state
            .done
            .wait(slots)
            .unwrap_or_else(|poison| poison.into_inner());
    }
    let slots = std::mem::take(&mut *slots);
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| slot.unwrap_or_else(|| panic!("pool batch task {idx} panicked")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let tasks: Vec<BatchTask<usize>> = (0..64)
            .map(|i: usize| Box::new(move || i * i) as BatchTask<usize>)
            .collect();
        let out = run_batch(4, tasks);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_batches_run_inline() {
        let before = spawn_count();
        assert_eq!(run_batch(1, vec![Box::new(|| 7) as BatchTask<i32>]), [7]);
        assert_eq!(
            run_batch(8, vec![Box::new(|| 9) as BatchTask<i32>]),
            [9],
            "single task never enters the pool"
        );
        assert!(run_batch::<i32>(8, Vec::new()).is_empty());
        assert_eq!(spawn_count(), before, "degenerate batches spawn nothing");
    }

    #[test]
    fn warmup_then_no_further_spawns() {
        global().ensure_capacity(4);
        let before = spawn_count();
        assert!(before >= 3);
        for round in 0..50 {
            let tasks: Vec<BatchTask<usize>> = (0..8)
                .map(|i| Box::new(move || i + round) as BatchTask<usize>)
                .collect();
            let out = run_batch(4, tasks);
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
        assert_eq!(spawn_count(), before);
    }

    #[test]
    fn nested_batches_run_inline_on_workers() {
        global().ensure_capacity(3);
        let tasks: Vec<BatchTask<Vec<u32>>> = (0..6)
            .map(|i| {
                Box::new(move || {
                    let inner: Vec<BatchTask<u32>> = (0..4)
                        .map(|j| Box::new(move || (i * 10 + j) as u32) as BatchTask<u32>)
                        .collect();
                    run_batch(3, inner)
                }) as BatchTask<Vec<u32>>
            })
            .collect();
        let out = run_batch(3, tasks);
        for (i, inner) in out.into_iter().enumerate() {
            let expect: Vec<u32> = (0..4).map(|j| (i * 10 + j) as u32).collect();
            assert_eq!(inner, expect);
        }
    }

    #[test]
    fn pool_survives_a_panicking_task() {
        global().ensure_capacity(2);
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<BatchTask<u32>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("shard kernel failure")),
                Box::new(|| 3),
            ];
            run_batch(2, tasks)
        });
        assert!(result.is_err(), "the panic must propagate to the caller");
        // The pool still works afterwards.
        let tasks: Vec<BatchTask<u32>> = (0u32..8).map(|i| Box::new(move || i) as _).collect();
        assert_eq!(run_batch(2, tasks), (0..8).collect::<Vec<_>>());
    }
}
