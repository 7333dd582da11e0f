//! A persistent ordered-result worker pool on `std` primitives.
//!
//! `new` spawns the worker threads once and every [`WorkerPool::map`]
//! call reuses them. That bounds resident memory, not spawn cost: a
//! prototype on per-call `std::thread::scope` threads kept the streamed
//! zfp_t throughput (2-core Xeon VM, glibc 2.36) but raised peak RSS by
//! 18–27%, because each exited worker leaves a glibc malloc arena holding
//! its freed memory for a later thread to take over (with
//! `MALLOC_ARENA_MAX=1` both designs read the same).
//!
//! A `map` publishes one type-erased *job*: workers claim task indices
//! from a shared atomic cursor and write results into a pre-sized slot
//! vector, so distribution and reassembly are allocation-free and input
//! order holds by construction. The submitting thread works too, so a
//! 1-worker pool is fully functional and small pools finish tail tasks
//! without idling the caller. A panicking task poisons the job and `map`
//! panics, rather than silently dropping a result.
//!
//! [`WorkerPool::pipeline`] streams an unbounded sequence through the same
//! threads with a bounded in-flight window: the producer and the in-order
//! consumer stay on the submitting thread while workers overlap `f` across
//! items, and backpressure pauses the producer when the window is full, so
//! the whole stream is never resident.

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

// Under `RUSTFLAGS="--cfg loom"` every sync primitive and thread handle
// comes from loom, whose model tests (tests/loom_pool.rs) drive this pool
// through schedule exploration; the source is otherwise identical.
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(loom)]
use loom::thread::{spawn, JoinHandle};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::thread::{spawn, JoinHandle};

/// Locks ignoring poison: a `map` that panics out (by design, when a task
/// panics) must not brick the pool for later calls.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One published `map` call, type-erased so workers need no generics.
///
/// `run` executes task `i` against `ctx`, a pointer into the submitting
/// call's stack frame. The frame is guaranteed live while `remaining > 0`
/// because the submitter blocks until every claimed task has finished.
struct Job {
    /// Type-erased task runner.
    ///
    // SAFETY: callers of `run` must pass the `ctx` pointer stored beside
    // it (which the thunk casts back to its concrete `MapCtx`) and a task
    // index claimed exactly once from `next`, while the submitting frame
    // is still alive (`remaining > 0`).
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    n_tasks: usize,
    /// Next task index to claim.
    next: AtomicUsize,
    /// Tasks claimed-or-unclaimed that have not finished yet.
    remaining: AtomicUsize,
    /// Set when any task panicked; checked by the submitter.
    panicked: AtomicBool,
}

// SAFETY: `Job` is only non-auto-Send because of `ctx`, a pointer into
// the submitting `map` call's stack frame. That frame outlives the job:
// the submitter blocks until `remaining == 0` before returning. The data
// behind `ctx` is `MapCtx<T, R, F>` whose `T: Send`, `R: Send`, `F: Sync`
// bounds are enforced by `WorkerPool::map` before the thunk is erased.
// Modeled by the loom test `model_job_claiming_is_exactly_once` in
// tests/loom_pool.rs.
unsafe impl Send for Job {}
// SAFETY: concurrent `&Job` access is confined to the atomics (claim
// cursor, remaining count, panic flag) and to `run`, which partitions the
// `UnsafeCell` task/result slots by claimed index so no two threads touch
// the same cell (see `run_one`). Modeled by the loom tests
// `model_job_claiming_is_exactly_once` and
// `model_panic_propagates_and_pool_survives` in tests/loom_pool.rs.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until the cursor is exhausted. Returns after
    /// contributing; completion is signalled by whoever finishes last.
    fn work(&self, shared: &Shared) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return;
            }
            // SAFETY: `i` was claimed from `next` exactly once, `ctx` is
            // the pointer `run` was erased with, and the submitting frame
            // is alive because it blocks until `remaining` hits zero.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.ctx, i) }));
            if outcome.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task done: retire the job so idle workers stop
                // seeing it, and wake the submitter.
                let mut slot = lock(&shared.slot);
                slot.task = None;
                drop(slot);
                shared.done.notify_all();
            }
        }
    }
}

/// One published `pipeline` call, type-erased like [`Job`]: workers call
/// `step` repeatedly until it returns `false` (stream closed or
/// poisoned), then disengage.
struct StreamJob {
    /// Type-erased single-step runner: waits for one queued item, runs
    /// the pipeline's `f` on it, and files the result.
    ///
    // SAFETY: callers of `step` must pass the `ctx` pointer stored
    // beside it (which the thunk casts back to its concrete `PipeCtx`)
    // while the submitting frame is alive; the submitter guarantees that
    // by waiting for `engaged == 0` before returning.
    step: unsafe fn(*const ()) -> bool,
    ctx: *const (),
    /// Workers currently inside (or committed to entering) `step`.
    /// Incremented under the slot lock at claim time so the submitter's
    /// retire-then-drain sequence can never miss a late joiner.
    engaged: AtomicUsize,
}

// SAFETY: `StreamJob` is only non-auto-Send because of `ctx`, a pointer
// into the submitting `pipeline` call's stack frame. That frame outlives
// the job: workers register in `engaged` under the slot lock before
// touching `ctx`, and the submitter retires the task and then blocks
// until `engaged` drops to zero before its frame unwinds. Modeled by the
// loom test `model_pipeline_is_ordered_and_complete` in
// tests/loom_pool.rs.
unsafe impl Send for StreamJob {}
// SAFETY: concurrent `&StreamJob` access is confined to the `engaged`
// atomic and to `step`, whose target (`PipeCtx`) serializes every shared
// field behind its own mutex. The `T: Send`, `R: Send`, `F: Sync` bounds
// are enforced by `WorkerPool::pipeline` before the thunk is erased.
// Modeled by the loom tests `model_pipeline_is_ordered_and_complete` and
// `model_pipeline_panic_propagates_and_pool_survives` in
// tests/loom_pool.rs.
unsafe impl Sync for StreamJob {}

/// What the job slot currently holds.
#[derive(Clone)]
enum Task {
    /// A `map` batch: claim indices until the cursor is exhausted.
    Batch(Arc<Job>),
    /// A `pipeline` stream: step until the stream closes.
    Stream(Arc<StreamJob>),
}

/// Current-task slot guarded by `Shared::slot`.
#[derive(Default)]
struct JobSlot {
    task: Option<Task>,
    /// Bumped per submission so a worker never re-enters a job it already
    /// drained (its cursor stays exhausted but the Arc may still be live).
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<JobSlot>,
    /// Workers park here between jobs.
    work: Condvar,
    /// Submitters park here until their job retires.
    done: Condvar,
}

impl Shared {
    fn worker_loop(&self) {
        let mut seen_epoch = 0u64;
        loop {
            let task = {
                let mut slot = lock(&self.slot);
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if slot.epoch != seen_epoch {
                        if let Some(task) = &slot.task {
                            seen_epoch = slot.epoch;
                            // Register on stream tasks while still under
                            // the slot lock: the submitter retires the
                            // task under this lock, so it either sees
                            // this engagement or we never saw the task.
                            if let Task::Stream(sjob) = task {
                                sjob.engaged.fetch_add(1, Ordering::AcqRel);
                            }
                            break task.clone();
                        }
                        // Job already retired; skip to its epoch so we
                        // don't spin on the stale slot.
                        seen_epoch = slot.epoch;
                    }
                    slot = self.work.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            match task {
                Task::Batch(job) => job.work(self),
                Task::Stream(sjob) => {
                    // SAFETY: this worker is registered in `engaged`, so
                    // the submitting frame (and the `ctx` it owns) stays
                    // alive until we disengage below.
                    while unsafe { (sjob.step)(sjob.ctx) } {}
                    sjob.engaged.fetch_sub(1, Ordering::AcqRel);
                    // Synchronize with a submitter parked in its
                    // retire-and-drain wait, mirroring the batch retire.
                    drop(lock(&self.slot));
                    self.done.notify_all();
                }
            }
        }
    }
}

/// Owns the threads; dropped when the last pool clone goes away.
struct PoolInner {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes `map` calls: the job slot holds one job at a time.
    submit: Mutex<()>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Fixed-size pool whose threads persist across `map` calls. Cloning is
/// cheap and shares the same threads.
#[derive(Clone)]
pub struct WorkerPool {
    workers: NonZeroUsize,
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.get())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` threads (clamped to ≥ 1), spawned
    /// immediately and reused by every `map` on this pool or its clones.
    pub fn new(workers: usize) -> Self {
        let workers = NonZeroUsize::new(workers.max(1)).unwrap();
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers.get())
            .map(|_| {
                let shared = shared.clone();
                spawn(move || shared.worker_loop())
            })
            .collect();
        Self {
            workers,
            inner: Arc::new(PoolInner {
                shared,
                handles: Mutex::new(handles),
                submit: Mutex::new(()),
            }),
        }
    }

    /// One thread per available CPU.
    pub fn per_cpu() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// Runs `f` over `tasks` on the pool, returning results in input order.
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers.get() == 1 || n == 1 {
            return tasks.into_iter().map(f).collect();
        }

        struct MapCtx<T, R, F> {
            tasks: Vec<UnsafeCell<Option<T>>>,
            results: Vec<UnsafeCell<Option<R>>>,
            f: F,
        }
        // SAFETY contract: `ctx` must point at a live `MapCtx<T, R, F>`
        // and `i` must be a task index claimed exactly once, so the cells
        // at `i` are touched by exactly one thread.
        unsafe fn run_one<T, R, F: Fn(T) -> R>(ctx: *const (), i: usize) {
            // SAFETY: per the contract, `ctx` is the submitter's live
            // `MapCtx` erased in `map` below.
            let ctx = unsafe { &*(ctx as *const MapCtx<T, R, F>) };
            // SAFETY: index `i` is claimed exactly once, making this
            // thread the sole accessor of the cells at `i`.
            let task = unsafe { (*ctx.tasks[i].get()).take() }.expect("task claimed twice");
            let result = (ctx.f)(task);
            // SAFETY: same exclusive claim on the result cell at `i`.
            unsafe { *ctx.results[i].get() = Some(result) };
        }

        let ctx = MapCtx {
            tasks: tasks
                .into_iter()
                .map(|t| UnsafeCell::new(Some(t)))
                .collect(),
            results: (0..n).map(|_| UnsafeCell::new(None)).collect::<Vec<_>>(),
            f,
        };
        let job = Arc::new(Job {
            run: run_one::<T, R, F>,
            ctx: &ctx as *const MapCtx<T, R, F> as *const (),
            n_tasks: n,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
        });

        let shared = &self.inner.shared;
        let _submit = lock(&self.inner.submit);
        {
            let mut slot = lock(&shared.slot);
            slot.task = Some(Task::Batch(job.clone()));
            slot.epoch = slot.epoch.wrapping_add(1);
        }
        shared.work.notify_all();

        // Participate, then wait for stragglers still running claimed tasks.
        job.work(shared);
        let mut slot = lock(&shared.slot);
        while job.remaining.load(Ordering::Acquire) > 0 {
            slot = shared.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        drop(slot);

        if job.panicked.load(Ordering::Acquire) {
            // audit:allow(L6): deliberate panic propagation, not protocol
            // state. The job is already drained (`remaining == 0` above)
            // and retired from the slot by the last finisher, so unwinding
            // here cannot leave a worker waiting on a missed notification.
            panic!("worker task panicked");
        }
        ctx.results
            .into_iter()
            // audit:allow(L6): unreachable unless a task panicked, and that
            // path already unwound above; the drain invariant (job retired,
            // `remaining == 0`) holds before any of these expects run.
            .map(|cell| cell.into_inner().expect("worker task panicked"))
            .collect()
    }

    /// Runs a bounded-window streaming pipeline on the pool: `producer`
    /// yields items on the calling thread, workers apply `f`
    /// concurrently, and `consumer` receives every result on the calling
    /// thread in production order.
    ///
    /// At most `window` items (clamped to ≥ 1) are in flight — queued,
    /// executing, or finished-but-unconsumed — so peak memory is bounded
    /// by `window` items regardless of stream length: once the window is
    /// full the producer is not polled again until the oldest result has
    /// been consumed (backpressure). Ordering is by construction, not by
    /// scheduling: results are filed by sequence number and handed to
    /// `consumer` strictly in production order.
    ///
    /// A `producer` or `consumer` error returns immediately with that
    /// error; results still in flight are drained and dropped. A
    /// panicking `f` poisons the call, which panics with
    /// `"worker task panicked"` after draining — the pool itself
    /// survives for the next submission, exactly like [`WorkerPool::map`].
    pub fn pipeline<T, R, E, P, F, C>(
        &self,
        window: usize,
        mut producer: P,
        f: F,
        mut consumer: C,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        P: FnMut() -> Result<Option<T>, E>,
        F: Fn(T) -> R + Sync,
        C: FnMut(R) -> Result<(), E>,
    {
        struct PipeState<T, R> {
            queue: VecDeque<(u64, T)>,
            done: BTreeMap<u64, R>,
            /// No more items will be queued (stream over, error, or
            /// poisoned); parked workers should disengage.
            closed: bool,
            /// Some `f` call panicked; surfaced by the submitter.
            panicked: bool,
        }
        struct PipeCtx<T, R, F> {
            state: Mutex<PipeState<T, R>>,
            /// Workers park here for the next queued item.
            task_ready: Condvar,
            /// The submitter parks here for the next filed result.
            result_ready: Condvar,
            f: F,
        }
        // SAFETY contract: `ctx` must point at a live `PipeCtx<T, R, F>`.
        // The submitting frame keeps it alive until every engaged worker
        // has left this function (it drains `engaged` to zero).
        unsafe fn step_one<T, R, F: Fn(T) -> R>(ctx: *const ()) -> bool {
            // SAFETY: per the contract, `ctx` is the submitter's live
            // `PipeCtx` erased in `pipeline` below.
            let ctx = unsafe { &*(ctx as *const PipeCtx<T, R, F>) };
            let (idx, item) = {
                let mut st = lock(&ctx.state);
                loop {
                    if st.panicked {
                        return false;
                    }
                    if let Some(pair) = st.queue.pop_front() {
                        break pair;
                    }
                    if st.closed {
                        return false;
                    }
                    st = ctx.task_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            match catch_unwind(AssertUnwindSafe(|| (ctx.f)(item))) {
                Ok(r) => {
                    let mut st = lock(&ctx.state);
                    st.done.insert(idx, r);
                    drop(st);
                    ctx.result_ready.notify_all();
                    true
                }
                Err(_) => {
                    let mut st = lock(&ctx.state);
                    st.panicked = true;
                    st.closed = true;
                    drop(st);
                    ctx.task_ready.notify_all();
                    ctx.result_ready.notify_all();
                    false
                }
            }
        }

        let window = window.max(1) as u64;
        let ctx = PipeCtx {
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                done: BTreeMap::new(),
                closed: false,
                panicked: false,
            }),
            task_ready: Condvar::new(),
            result_ready: Condvar::new(),
            f,
        };
        let sjob = Arc::new(StreamJob {
            step: step_one::<T, R, F>,
            ctx: &ctx as *const PipeCtx<T, R, F> as *const (),
            engaged: AtomicUsize::new(0),
        });

        let shared = &self.inner.shared;
        let _submit = lock(&self.inner.submit);
        {
            let mut slot = lock(&shared.slot);
            slot.task = Some(Task::Stream(sjob.clone()));
            slot.epoch = slot.epoch.wrapping_add(1);
        }
        shared.work.notify_all();

        // The loop runs user closures on this frame, so even a panicking
        // producer/consumer must drain the workers before `ctx` unwinds.
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
            let mut next_in = 0u64;
            let mut next_out = 0u64;
            let mut source_done = false;
            loop {
                // Keep the bounded window full.
                while !source_done && next_in - next_out < window {
                    match producer()? {
                        Some(item) => {
                            let mut st = lock(&ctx.state);
                            if st.panicked {
                                // Surfaced as a panic after the drain.
                                return Ok(());
                            }
                            st.queue.push_back((next_in, item));
                            drop(st);
                            ctx.task_ready.notify_one();
                            next_in += 1;
                        }
                        None => source_done = true,
                    }
                }
                if next_out == next_in {
                    return Ok(());
                }
                // Consume the next result in production order.
                let r = {
                    let mut st = lock(&ctx.state);
                    loop {
                        if st.panicked {
                            return Ok(());
                        }
                        if let Some(r) = st.done.remove(&next_out) {
                            break r;
                        }
                        st = ctx.result_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                };
                next_out += 1;
                consumer(r)?;
            }
        }));

        // Close the stream, retire the slot task, and wait until no
        // worker is inside `step_one` before `ctx` leaves this frame.
        {
            let mut st = lock(&ctx.state);
            st.closed = true;
            st.queue.clear();
        }
        ctx.task_ready.notify_all();
        {
            let mut slot = lock(&shared.slot);
            slot.task = None;
            while sjob.engaged.load(Ordering::Acquire) > 0 {
                slot = shared.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        }
        let panicked = lock(&ctx.state).panicked;
        match run {
            Err(payload) => resume_unwind(payload),
            Ok(result) => {
                if panicked {
                    // audit:allow(L6): deliberate panic propagation, not
                    // protocol state. The stream is retired from the slot
                    // and fully drained (`engaged == 0` above) before this
                    // runs, so no worker is parked on this call's condvars.
                    panic!("worker task panicked");
                }
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_input_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<u64> = (0..1000).collect();
        let out = pool.map(tasks, |t| t * t);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_input() {
        let pool = WorkerPool::new(3);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential_path() {
        let pool = WorkerPool::new(1);
        let out = pool.map(vec![1, 2, 3], |t| t + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let count = AtomicUsize::new(0);
        let pool = WorkerPool::new(8);
        let out = pool.map((0..500).collect::<Vec<_>>(), |t| {
            count.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(out.len(), 500);
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn workers_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn threads_persist_across_map_calls() {
        let pool = WorkerPool::new(4);
        // Run several maps back-to-back on the same pool; every call must
        // produce complete, ordered results from the same worker threads.
        for round in 0..20u64 {
            let out = pool.map((0..64u64).collect::<Vec<_>>(), |t| t + round);
            assert_eq!(out, (0..64u64).map(|t| t + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clones_share_the_pool() {
        let pool = WorkerPool::new(3);
        let cloned = pool.clone();
        assert_eq!(cloned.workers(), 3);
        let out = cloned.map(vec![5, 6], |t| t * 10);
        assert_eq!(out, vec![50, 60]);
        let out = pool.map(vec![7], |t| t * 10);
        assert_eq!(out, vec![70]);
    }

    #[test]
    #[should_panic(expected = "worker task panicked")]
    fn task_panic_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        pool.map((0..16).collect::<Vec<_>>(), |t| {
            if t == 7 {
                panic!("boom");
            }
            t
        });
    }

    #[test]
    fn pool_survives_a_panicked_map() {
        let pool = WorkerPool::new(4);
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0, 1, 2, 3], |t| {
                if t == 2 {
                    panic!("boom");
                }
                t
            })
        }));
        assert!(poisoned.is_err());
        let out = pool.map(vec![10, 20], |t| t + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn pipeline_consumes_in_production_order() {
        let pool = WorkerPool::new(4);
        let mut next = 0u64;
        let mut seen = Vec::new();
        pool.pipeline(
            4,
            || -> Result<Option<u64>, ()> {
                next += 1;
                Ok((next <= 200).then_some(next - 1))
            },
            |t| t * 3,
            |r| {
                seen.push(r);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..200).map(|t| t * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_window_bounds_in_flight_items() {
        let pool = WorkerPool::new(4);
        let window = 3usize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut next = 0u32;
        pool.pipeline(
            window,
            || -> Result<Option<u32>, ()> {
                next += 1;
                if next > 64 {
                    return Ok(None);
                }
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                Ok(Some(next))
            },
            |t| t,
            |_| {
                live.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) <= window,
            "window exceeded: {} in flight",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pipeline_empty_stream_never_calls_f_or_consumer() {
        let pool = WorkerPool::new(2);
        pool.pipeline(
            4,
            || -> Result<Option<u32>, ()> { Ok(None) },
            |_| panic!("no items to run"),
            |_: u32| panic!("no results to consume"),
        )
        .unwrap();
    }

    #[test]
    fn pipeline_producer_error_propagates() {
        let pool = WorkerPool::new(2);
        let mut n = 0u32;
        let r = pool.pipeline(
            2,
            || {
                n += 1;
                if n > 5 {
                    Err("producer failed")
                } else {
                    Ok(Some(n))
                }
            },
            |t| t,
            |_| Ok(()),
        );
        assert_eq!(r, Err("producer failed"));
    }

    #[test]
    fn pipeline_consumer_error_propagates() {
        let pool = WorkerPool::new(3);
        let mut n = 0u32;
        let r = pool.pipeline(
            2,
            || {
                n += 1;
                Ok((n <= 50).then_some(n))
            },
            |t| t,
            |r| {
                if r == 10 {
                    Err("consumer failed")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("consumer failed"));
    }

    #[test]
    #[should_panic(expected = "worker task panicked")]
    fn pipeline_task_panic_propagates_to_caller() {
        let pool = WorkerPool::new(3);
        let mut n = 0u32;
        let _ = pool.pipeline(
            4,
            || -> Result<Option<u32>, ()> {
                n += 1;
                Ok((n <= 32).then_some(n))
            },
            |t| {
                if t == 9 {
                    panic!("boom");
                }
                t
            },
            |_| Ok(()),
        );
    }

    #[test]
    fn pool_survives_a_panicked_pipeline_and_alternates_with_map() {
        let pool = WorkerPool::new(3);
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut n = 0u32;
            let _ = pool.pipeline(
                2,
                || -> Result<Option<u32>, ()> {
                    n += 1;
                    Ok((n <= 8).then_some(n))
                },
                |t| {
                    if t == 3 {
                        panic!("boom");
                    }
                    t
                },
                |_| Ok(()),
            );
        }));
        assert!(poisoned.is_err());
        // Batch and stream submissions share the slot; both must work
        // after the poisoned call.
        assert_eq!(pool.map(vec![1, 2], |t| t * 2), vec![2, 4]);
        let mut n = 0u32;
        let mut sum = 0u32;
        pool.pipeline(
            2,
            || -> Result<Option<u32>, ()> {
                n += 1;
                Ok((n <= 10).then_some(n))
            },
            |t| t,
            |r| {
                sum += r;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(sum, 55);
    }

    #[test]
    fn parallel_speedup_on_cpu_bound_work() {
        // Not a strict benchmark — just verify the pool actually uses
        // multiple threads by observing concurrent execution.
        use std::sync::atomic::AtomicUsize;
        static CONCURRENT: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        pool.map((0..16).collect::<Vec<_>>(), |_| {
            let now = CONCURRENT.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            CONCURRENT.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(PEAK.load(Ordering::SeqCst) >= 2, "no observed concurrency");
    }
}
