//! Deterministic work scheduling over a fixed pool of scoped threads.
//!
//! Independent work items (frames, pyramid levels, window-row chunks)
//! are executed by [`parallel_map`]: a pure function over item indices
//! runs on `workers` threads and returns results **in index order**, so
//! callers that concatenate results reproduce the serial traversal
//! exactly — parallelism never reorders output. The detection-serving
//! runtime builds on this primitive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panic caught inside one work item of [`try_parallel_map`]. The
/// panic is isolated to its item: every other item still completes and
/// returns its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The item index whose closure panicked.
    pub index: usize,
    /// The panic payload, when it was a string (the common case);
    /// a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Applies `f` to every index in `0..n` using `workers` scoped threads
/// and returns the results in index order.
///
/// Work is distributed dynamically: each worker claims the next
/// unclaimed index from a shared counter, so uneven item costs (small
/// pyramid levels vs. large ones) still balance. With `workers <= 1`
/// the map runs inline on the caller's thread; results are identical
/// either way because ordering is restored by index before returning.
///
/// # Panics
///
/// Re-raises the first (lowest-index) panic from `f`. Use
/// [`try_parallel_map`] to isolate panics per item instead.
pub fn parallel_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_parallel_map(workers, n, f)
        .into_iter()
        .map(|r| match r {
            Ok(value) => value,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

/// Like [`parallel_map`], but catches panics per work item: item `i`'s
/// slot holds `Err(WorkerPanic)` when `f(i)` panicked, and every other
/// item still completes normally. The worker thread that caught the
/// panic keeps claiming further items, so one poisoned input cannot
/// take a thread (or the whole batch) down with it.
pub fn try_parallel_map<T, F>(workers: usize, n: usize, f: F) -> Vec<Result<T, WorkerPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |idx: usize| {
        catch_unwind(AssertUnwindSafe(|| f(idx)))
            .map_err(|payload| WorkerPanic { index: idx, message: panic_message(&*payload) })
    };
    if n == 0 {
        return Vec::new();
    }
    if workers <= 1 || n == 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let threads = workers.min(n);
    let mut slots: Vec<Option<Result<T, WorkerPanic>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, Result<T, WorkerPanic>)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            return done;
                        }
                        done.push((idx, run(idx)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (idx, value) in handle.join().expect("worker threads never panic: items are caught")
            {
                slots[idx] = Some(value);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every index computed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_serial_for_any_worker_count() {
        let f = |i: usize| (i * 31 + 7) % 101;
        let serial: Vec<_> = (0..57).map(f).collect();
        for workers in [1, 2, 3, 4, 8, 64] {
            assert_eq!(parallel_map(workers, 57, f), serial, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        assert_eq!(parallel_map::<usize, _>(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn try_parallel_map_isolates_panics_to_their_item() {
        for workers in [1, 2, 4] {
            let results = try_parallel_map(workers, 9, |i| {
                assert!(i != 3 && i != 7, "chaos at {i}");
                i * 2
            });
            for (i, r) in results.iter().enumerate() {
                match (i, r) {
                    (3 | 7, Err(p)) => {
                        assert_eq!(p.index, i);
                        assert!(p.message.contains("chaos"), "{p}");
                    }
                    (_, Ok(v)) => assert_eq!(*v, i * 2),
                    (i, r) => panic!("item {i} unexpectedly {r:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_map_reraises_the_first_panic() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(2, 4, |i| {
                assert!(i != 2, "boom at {i}");
                i
            })
        });
        let err = caught.unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("work item 2"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }
}
