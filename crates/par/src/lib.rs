//! # rhb-par
//!
//! A hand-rolled scoped thread pool plus deterministic fan-out helpers.
//! The build environment is fully offline — no rayon, no crossbeam — so
//! this crate implements the minimum the compute hot path needs from
//! `std` alone:
//!
//! * [`Pool`]: persistent worker threads around one shared job queue.
//!   Callers submit a *batch* of scoped closures with [`Pool::run`] and
//!   block until every closure finished; while blocked, the calling
//!   thread drains the queue itself, so nested `run` calls (a worker
//!   task fanning out again) never deadlock and a pool of size 1 simply
//!   executes everything inline on the caller.
//! * [`Pool::parallel_map`]: splits `0..n` into contiguous chunks and
//!   returns the per-chunk results **in chunk order** — the building
//!   block for the fixed-order reductions that keep parallel results
//!   bit-exact with the serial path (see DESIGN.md's determinism
//!   contract).
//! * a process-wide pool ([`pool`]) sized by the `RHB_THREADS`
//!   environment variable (default: `std::thread::available_parallelism`).
//!
//! Panics inside a task are caught, the batch is still drained to
//! completion, and the first payload is re-thrown on the submitting
//! thread — a fan-out behaves like a `for` loop that panicked.
//!
//! ## Determinism
//!
//! The pool itself never reorders *results*: `run` executes a fixed set
//! of closures whose output locations are chosen by the caller, and
//! `parallel_map` returns chunk results positionally. Whether a parallel
//! computation is bit-identical to the serial one is therefore decided
//! entirely by how callers split the work; every user in this workspace
//! splits so that each output element is produced by exactly one task
//! using the serial evaluation order, and merges per-chunk partials in
//! chunk order on one thread.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cancellable tasks.
// ---------------------------------------------------------------------------

/// Error a cancelled task observes at its next [`CancelToken::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task cancelled")
    }
}

impl std::error::Error for Cancelled {}

struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// Cooperative cancellation handle for long-running tasks.
///
/// A supervisor holds one clone and the task another; the task polls
/// [`CancelToken::checkpoint`] (or [`CancelToken::is_cancelled`]) at its
/// natural yield points and bails out when the supervisor called
/// [`CancelToken::cancel`] or the deadline passed. Cancellation is purely
/// cooperative — a task that never polls is abandoned, not killed; the
/// campaign watchdog pairs this token with a supervisor-side timeout so
/// the *worker* is reclaimed even when the task ignores the token.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-cancels once `timeout` elapses.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
            }),
        }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left before the deadline auto-cancels, if one was set.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Poll point for cooperative tasks: `Err(Cancelled)` once cancelled.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token was cancelled or timed out.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

/// A unit of work submitted to the pool. Scoped: may borrow from the
/// caller's stack, because [`Pool::run`] does not return before every
/// task of the batch has completed.
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

/// Queue + signalling shared between the workers and submitting threads.
///
/// One condvar serves both "a job was pushed" and "a batch made
/// progress": workers and latch-waiters alike sleep on it and re-check
/// their own condition, which keeps the missed-wakeup analysis trivial.
struct Shared {
    queue: Mutex<VecDeque<StaticTask>>,
    signal: Condvar,
    shutdown: AtomicBool,
}

/// Per-batch completion latch. `remaining` counts tasks not yet
/// finished; the submitting thread blocks on the shared condvar until it
/// reaches zero. The first panic payload of the batch is stashed here.
struct Latch {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fixed-size pool of worker threads executing scoped task batches.
///
/// `threads` is the *total* parallelism: a pool of size `n` spawns
/// `n - 1` workers and counts the submitting thread as the `n`-th lane.
/// Size 1 spawns nothing and [`Pool::run`] degenerates to a serial
/// `for` loop — the byte-identical serial fallback.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with the given total parallelism (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rhb-par-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        rhb_telemetry::gauge!("par/pool_size", threads);
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// Total parallelism (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes a batch of scoped tasks, blocking until all complete.
    ///
    /// The submitting thread participates: it drains the queue while
    /// waiting, so even a pool of size 1 (no workers) makes progress,
    /// and a task that itself calls `run` self-drains its sub-batch.
    ///
    /// # Panics
    ///
    /// If any task panics, the batch still runs to completion and the
    /// first panic payload is resumed on the submitting thread.
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        rhb_telemetry::counter!("par/tasks_total", n);
        if self.workers.is_empty() || n == 1 {
            // Serial fallback: same closures, same order, no queue.
            for task in tasks {
                task();
            }
            return;
        }
        let latch = Arc::new(Latch {
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for task in tasks {
                let latch = Arc::clone(&latch);
                let shared = Arc::clone(&self.shared);
                let wrapped: Task<'_> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        let mut slot = latch.panic.lock().unwrap_or_else(|e| e.into_inner());
                        slot.get_or_insert(payload);
                    }
                    // Release-ordered so the submitter's Acquire load of 0
                    // sees every task's writes; wake anyone re-checking.
                    latch.remaining.fetch_sub(1, Ordering::Release);
                    shared.signal.notify_all();
                });
                // SAFETY: `run` blocks below until `remaining` hits zero,
                // i.e. every wrapped closure (and the borrows it captures)
                // has finished executing before the caller's frame can be
                // unwound. The 'static lifetime is therefore never
                // observable beyond the true scope of the borrow.
                let wrapped: StaticTask = unsafe { std::mem::transmute(wrapped) };
                queue.push_back(wrapped);
            }
            rhb_telemetry::gauge_max!("par/queue_depth", queue.len());
            self.shared.signal.notify_all();
        }
        // Drain until our batch is done, helping with whatever is queued
        // (our tasks, or another batch's — either way it's progress).
        let mut self_ran = 0usize;
        loop {
            if latch.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(task) = queue.pop_front() {
                drop(queue);
                task();
                self_ran += 1;
                continue;
            }
            if latch.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            // Queue empty and batch unfinished: tasks are running on
            // workers. Sleep until one completes (or something is pushed).
            let _guard = self
                .shared
                .signal
                .wait_timeout(queue, std::time::Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner());
        }
        // Fraction of this batch the workers (rather than the submitter)
        // absorbed — an approximate utilization signal for the recorder.
        rhb_telemetry::gauge!(
            "par/worker_utilization",
            (n.saturating_sub(self_ran)) as f64 / n as f64
        );
        let payload = latch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Splits `0..n` into contiguous chunks of at least `min_grain`
    /// items, applies `f` to each chunk in parallel, and returns the
    /// results **in chunk order**. With one thread (or one chunk) this
    /// is exactly `vec![f(0..n)]`.
    pub fn parallel_map<R, F>(&self, n: usize, min_grain: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = split_range(n, self.threads, min_grain);
        if ranges.len() <= 1 {
            return ranges.into_iter().map(&f).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(ranges.len());
        slots.resize_with(ranges.len(), || None);
        let fref = &f;
        let tasks: Vec<Task<'_>> = slots
            .iter_mut()
            .zip(ranges)
            .map(|(slot, range)| Box::new(move || *slot = Some(fref(range))) as Task<'_>)
            .collect();
        self.run(tasks);
        slots
            .into_iter()
            .map(|s| s.expect("parallel_map task completed"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker reads the flag under it and
        // then waits, so the store lands either before that read or after
        // the worker sleeps, where the notify below reaches it. Unlocked,
        // it could land in between and the worker would sleep forever.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    // Per-worker utilization accounting. Handles bypass the name lookup
    // and the sink, so the hot loop pays two Instant reads and two
    // relaxed adds per task while telemetry is enabled — and only the
    // usual one relaxed load per iteration while it is not. Task latency
    // additionally feeds the shared `par/task_s` histogram.
    let busy = rhb_telemetry::counter_handle(&format!("par/worker/{index}/busy_us"));
    let idle = rhb_telemetry::counter_handle(&format!("par/worker/{index}/idle_us"));
    loop {
        let wait_start = rhb_telemetry::enabled().then(std::time::Instant::now);
        let task = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.signal.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(t0) = wait_start {
            idle.add(t0.elapsed().as_micros() as u64);
        }
        match task {
            Some(task) => {
                rhb_telemetry::counter!("par/tasks_on_workers", 1);
                let t0 = rhb_telemetry::enabled().then(std::time::Instant::now);
                task();
                if let Some(t0) = t0 {
                    let elapsed = t0.elapsed();
                    busy.add(elapsed.as_micros() as u64);
                    rhb_telemetry::observe_value("par/task_s", elapsed.as_secs_f64());
                }
            }
            None => return,
        }
    }
}

/// Splits `0..n` into at most `pieces` contiguous ranges of at least
/// `min_grain` items each (the last range absorbs the remainder).
/// Returns an empty vector when `n == 0`.
pub fn split_range(n: usize, pieces: usize, min_grain: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let pieces = pieces.max(1).min(n.div_ceil(min_grain.max(1)));
    let chunk = n.div_ceil(pieces);
    (0..n)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(n))
        .collect()
}

/// Splits `data` into disjoint mutable chunks matching `ranges` (as
/// produced by [`split_range`]), where each range index spans `stride`
/// elements of `data`. The chunks come back in range order, ready to be
/// zipped with the ranges into per-task closures.
///
/// # Panics
///
/// Panics if the ranges are not contiguous from 0 or overrun `data`.
pub fn split_slice_mut<'a, T>(
    data: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    let mut rest = data;
    let mut out = Vec::with_capacity(ranges.len());
    let mut covered = 0usize;
    for r in ranges {
        assert_eq!(r.start, covered, "ranges must be contiguous from 0");
        let (head, tail) = rest.split_at_mut((r.end - r.start) * stride);
        out.push(head);
        rest = tail;
        covered = r.end;
    }
    out
}

// ---------------------------------------------------------------------------
// Process-wide pool.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<RwLock<Arc<Pool>>> = OnceLock::new();

fn global() -> &'static RwLock<Arc<Pool>> {
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(Pool::new(default_threads()))))
}

/// Pool size the process starts with: `RHB_THREADS` if set (values < 1
/// clamp to 1), otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    match std::env::var("RHB_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The process-wide pool every data-parallel kernel submits to.
pub fn pool() -> Arc<Pool> {
    Arc::clone(&global().read().unwrap_or_else(|e| e.into_inner()))
}

/// Current total parallelism of the process-wide pool.
pub fn current_threads() -> usize {
    pool().threads()
}

/// Replaces the process-wide pool (benchmarks and determinism tests
/// sweep thread counts at runtime). In-flight [`Pool::run`] calls on the
/// old pool finish normally; the old pool's workers shut down when the
/// last `Arc` drops.
pub fn set_global_threads(threads: usize) {
    let mut slot = global().write().unwrap_or_else(|e| e.into_inner());
    if slot.threads() != threads.max(1) {
        *slot = Arc::new(Pool::new(threads));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_range_covers_without_overlap() {
        for (n, pieces, grain) in [(10, 3, 1), (1, 8, 1), (100, 4, 64), (7, 7, 2), (0, 3, 1)] {
            let ranges = split_range(n, pieces, grain);
            let mut covered = 0usize;
            for r in &ranges {
                assert_eq!(r.start, covered, "ranges must be contiguous");
                assert!(r.end > r.start);
                covered = r.end;
            }
            assert_eq!(covered, n);
            if grain > 0 && n > 0 {
                assert!(ranges.len() <= n.div_ceil(grain));
            }
        }
    }

    #[test]
    fn workers_record_utilization_and_task_latency() {
        rhb_telemetry::install(Arc::new(rhb_telemetry::NoopSink));
        let pool = Pool::new(4);
        let tasks: Vec<Task<'_>> = (0..64)
            .map(|_| {
                Box::new(|| std::thread::sleep(std::time::Duration::from_micros(200))) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        let report = rhb_telemetry::report();
        let hist = report
            .histograms
            .iter()
            .find(|h| h.name == "par/task_s")
            .expect("task latency histogram recorded");
        assert!(hist.count > 0);
        // At least one worker accumulated busy time (the submitter drains
        // too, so not every worker necessarily ran a task).
        let busy: u64 = report
            .counters_with_prefix("par/worker")
            .iter()
            .filter(|(n, _)| n.ends_with("busy_us"))
            .map(|(_, v)| v)
            .sum();
        assert!(busy > 0, "no worker recorded busy time");
        rhb_telemetry::shutdown();
    }

    #[test]
    fn cancel_token_flags_every_clone_and_checkpoint_errors() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(clone.checkpoint().is_ok());
        assert_eq!(token.remaining(), None);
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn cancel_token_deadline_auto_cancels() {
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        assert!(token.remaining().is_some());
        std::thread::sleep(Duration::from_millis(20));
        assert!(token.is_cancelled(), "deadline must auto-cancel");
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        // A generous deadline does not cancel on its own.
        let slow = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!slow.is_cancelled());
        slow.cancel();
        assert!(slow.is_cancelled());
    }

    #[test]
    fn size_one_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let mut seen = Vec::new();
        {
            let seen = &mut seen;
            pool.run(vec![Box::new(move || {
                assert_eq!(std::thread::current().id(), tid);
                seen.push(1);
            })]);
        }
        assert_eq!(seen, vec![1]);
    }
}
