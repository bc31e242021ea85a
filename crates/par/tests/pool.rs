//! Behavioral suite for the scoped pool: scoped borrows, result order,
//! nesting, panic propagation, and the global-pool façade.

use rhb_par::{pool, set_global_threads, split_range, Pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The global pool is process-wide state; tests that resize it must not
/// interleave.
static GLOBAL_POOL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn all_tasks_run_exactly_once() {
    for threads in [1, 2, 4] {
        let pool = Pool::new(threads);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<rhb_par::Task<'_>> = (0..64)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as rhb_par::Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64, "threads={threads}");
    }
}

#[test]
fn tasks_may_borrow_the_callers_stack() {
    let pool = Pool::new(3);
    let input: Vec<u64> = (0..1000).collect();
    let mut partials = [0u64; 4];
    {
        let chunks: Vec<&[u64]> = input.chunks(250).collect();
        let tasks: Vec<rhb_par::Task<'_>> = partials
            .iter_mut()
            .zip(chunks)
            .map(|(slot, chunk)| Box::new(move || *slot = chunk.iter().sum()) as rhb_par::Task<'_>)
            .collect();
        pool.run(tasks);
    }
    assert_eq!(partials.iter().sum::<u64>(), 1000 * 999 / 2);
}

#[test]
fn parallel_map_returns_results_in_chunk_order() {
    for threads in [1, 2, 4] {
        let pool = Pool::new(threads);
        let results = pool.parallel_map(103, 10, |range| range.clone());
        // Chunk order == positional order, covering 0..103 contiguously.
        let mut covered = 0usize;
        for r in &results {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 103);
    }
}

#[test]
fn parallel_map_is_identical_across_thread_counts() {
    let work =
        |range: std::ops::Range<usize>| -> f32 { range.map(|i| (i as f32 * 0.001).sin()).sum() };
    let serial = Pool::new(1).parallel_map(10_000, 256, work);
    for threads in [2, 4, 7] {
        let parallel = Pool::new(threads).parallel_map(10_000, 256, work);
        // Same chunking (decided by grain and n, not pool size would differ)…
        // chunk count may differ per pool size, so compare the fixed-order
        // fold instead: replaying chunks in order must agree bit-for-bit
        // with a fully serial scan when each chunk is internally serial.
        let serial_total = serial.iter().fold(0.0f64, |a, &b| a + b as f64);
        let par_total = parallel.iter().fold(0.0f64, |a, &b| a + b as f64);
        // f64 fold of few chunks of f32 partials: not bitwise comparable
        // across different chunkings — the bitwise guarantee is per
        // identical chunking, which split_range gives for equal inputs.
        assert!((serial_total - par_total).abs() < 0.5);
        let same_split = split_range(10_000, threads, 256);
        let redone: Vec<f32> = same_split.iter().cloned().map(work).collect();
        assert_eq!(redone, Pool::new(threads).parallel_map(10_000, 256, work));
    }
}

#[test]
fn nested_run_does_not_deadlock() {
    let pool = Pool::new(2);
    let total = AtomicUsize::new(0);
    let tasks: Vec<rhb_par::Task<'_>> = (0..4)
        .map(|_| {
            let pool = &pool;
            let total = &total;
            Box::new(move || {
                let inner: Vec<rhb_par::Task<'_>> = (0..4)
                    .map(|_| {
                        Box::new(move || {
                            total.fetch_add(1, Ordering::Relaxed);
                        }) as rhb_par::Task<'_>
                    })
                    .collect();
                pool.run(inner);
            }) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
    assert_eq!(total.load(Ordering::Relaxed), 16);
}

#[test]
fn panic_in_a_task_propagates_after_the_batch_drains() {
    let pool = Pool::new(3);
    let completed = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let tasks: Vec<rhb_par::Task<'_>> = (0..8)
            .map(|i| {
                let completed = &completed;
                Box::new(move || {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }) as rhb_par::Task<'_>
            })
            .collect();
        pool.run(tasks);
    }));
    let payload = result.expect_err("panic must propagate to the submitter");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap()
    });
    assert!(msg.contains("task 3 exploded"));
    // Every non-panicking task still ran: the batch drains fully.
    assert_eq!(completed.load(Ordering::Relaxed), 7);
    // The pool survives a panicked batch.
    let after = AtomicUsize::new(0);
    pool.run(vec![Box::new(|| {
        after.fetch_add(1, Ordering::Relaxed);
    })]);
    assert_eq!(after.load(Ordering::Relaxed), 1);
}

/// Dropping a pool whose workers have only just started must still wake
/// and join every one of them. A worker reads the shutdown flag under the
/// queue lock and then waits; an unlocked store of the flag could land in
/// between, and `drop` then hung within a few hundred fresh pools.
#[test]
fn dropping_a_fresh_pool_joins_every_worker() {
    for _ in 0..2_000 {
        drop(Pool::new(3));
    }
}

#[test]
fn global_pool_resizes_and_honors_minimum() {
    let _guard = GLOBAL_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_global_threads(3);
    assert_eq!(pool().threads(), 3);
    set_global_threads(0); // clamps to 1
    assert_eq!(pool().threads(), 1);
    set_global_threads(1);
    let sum = pool().parallel_map(100, 1, |r| r.sum::<usize>());
    assert_eq!(sum.iter().sum::<usize>(), 4950);
}
