//! Bounded request queue with batching and configurable backpressure.
//!
//! Producers [`push`](RequestQueue::push) individual requests; the
//! serving loop drains them in arrival order with
//! [`pop_batch`](RequestQueue::pop_batch), up to `batch_size` at a
//! time. When the queue is at capacity, [`Backpressure::Reject`]
//! returns an error to the producer immediately while
//! [`Backpressure::Block`] parks it until space frees up.

use pcnn_core::Error;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a full queue does to producers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backpressure {
    /// `push` fails with [`PushError::Full`]; the producer decides
    /// whether to drop or retry.
    Reject,
    /// `push` blocks until a slot frees up (or the queue closes).
    Block,
}

/// Queue/batcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum queued requests before backpressure engages.
    pub capacity: usize,
    /// Maximum requests handed out per [`RequestQueue::pop_batch`].
    pub batch_size: usize,
    /// Behavior when the queue is full.
    pub backpressure: Backpressure,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { capacity: 64, batch_size: 8, backpressure: Backpressure::Block }
    }
}

impl QueueConfig {
    /// Validates the capacity and batch size, so a degenerate queue is an
    /// [`Error`] at configuration time rather than a panic in
    /// [`RequestQueue::new`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), Error> {
        let bad = |what: &str, reason: &str| {
            Err(Error::InvalidConfig { what: what.to_owned(), reason: reason.to_owned() })
        };
        if self.capacity == 0 {
            return bad("queue.capacity", "queue capacity must be positive");
        }
        if self.batch_size == 0 {
            return bad("queue.batch_size", "batch size must be positive");
        }
        if self.batch_size > self.capacity {
            return bad("queue.batch_size", "batch size cannot exceed queue capacity");
        }
        Ok(())
    }
}

/// Why a [`RequestQueue::push`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity under [`Backpressure::Reject`].
    Full,
    /// The queue has been closed; no further requests are accepted.
    Closed,
    /// The queue stayed full past the deadline passed to
    /// [`RequestQueue::push_timeout`].
    Timeout,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full"),
            PushError::Closed => write!(f, "queue closed"),
            PushError::Timeout => write!(f, "queue stayed full past the push deadline"),
        }
    }
}

impl std::error::Error for PushError {}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue that hands items out in batches.
#[derive(Debug)]
pub struct RequestQueue<T> {
    config: QueueConfig,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> RequestQueue<T> {
    /// An empty queue.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch_size` is zero.
    pub fn new(config: QueueConfig) -> Self {
        assert!(config.capacity > 0, "queue capacity must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        RequestQueue {
            config,
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The queue configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.config
    }

    /// Locks the state, recovering from lock poisoning. The queue's
    /// invariants are a `VecDeque` plus a flag — both valid after any
    /// panic mid-critical-section — so a panicking worker elsewhere in
    /// the process must not wedge every producer and consumer forever.
    fn lock_state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Enqueues one request, applying the configured backpressure, and
    /// returns the queue depth right after the insert.
    pub fn push(&self, item: T) -> Result<usize, PushError> {
        let mut state = self.lock_state();
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.items.len() < self.config.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                self.not_empty.notify_one();
                return Ok(depth);
            }
            match self.config.backpressure {
                Backpressure::Reject => return Err(PushError::Full),
                Backpressure::Block => {
                    state =
                        self.not_full.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Enqueues one request, blocking at most `timeout` for space even
    /// under [`Backpressure::Block`] — the deadline-respecting push for
    /// supervised producers that must not park indefinitely behind a
    /// stalled consumer. Under [`Backpressure::Reject`] this behaves
    /// exactly like [`push`](RequestQueue::push).
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<usize, PushError> {
        let start = Instant::now();
        let mut state = self.lock_state();
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.items.len() < self.config.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                self.not_empty.notify_one();
                return Ok(depth);
            }
            match self.config.backpressure {
                Backpressure::Reject => return Err(PushError::Full),
                Backpressure::Block => {
                    let Some(remaining) = timeout.checked_sub(start.elapsed()) else {
                        return Err(PushError::Timeout);
                    };
                    let (guard, result) = self
                        .not_full
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    state = guard;
                    if result.timed_out() && state.items.len() >= self.config.capacity {
                        return Err(PushError::Timeout);
                    }
                }
            }
        }
    }

    /// Blocks until at least one request is available, then drains up
    /// to `batch_size` in arrival order. Returns `None` once the queue
    /// is closed and empty.
    pub fn pop_batch(&self) -> Option<Vec<T>> {
        let mut state = self.lock_state();
        loop {
            if !state.items.is_empty() {
                let n = state.items.len().min(self.config.batch_size);
                let batch: Vec<T> = state.items.drain(..n).collect();
                self.not_full.notify_all();
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.lock_state().items.len()
    }

    /// Closes the queue: pending requests still drain, new pushes fail,
    /// and blocked producers/consumers wake up.
    pub fn close(&self) {
        let mut state = self.lock_state();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_batching() {
        let q = RequestQueue::new(QueueConfig {
            capacity: 10,
            batch_size: 3,
            backpressure: Backpressure::Reject,
        });
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_batch().unwrap(), vec![0, 1, 2]);
        assert_eq!(q.pop_batch().unwrap(), vec![3, 4]);
    }

    #[test]
    fn reject_mode_errors_on_full() {
        let q = RequestQueue::new(QueueConfig {
            capacity: 2,
            batch_size: 2,
            backpressure: Backpressure::Reject,
        });
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushError::Full));
        q.pop_batch().unwrap();
        q.push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_push_and_drains() {
        let q = RequestQueue::new(QueueConfig::default());
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed));
        assert_eq!(q.pop_batch().unwrap(), vec![7]);
        assert_eq!(q.pop_batch(), None);
    }

    #[test]
    fn push_timeout_gives_up_on_a_full_blocking_queue() {
        let q = RequestQueue::new(QueueConfig {
            capacity: 1,
            batch_size: 1,
            backpressure: Backpressure::Block,
        });
        q.push(0u32).unwrap();
        let start = std::time::Instant::now();
        let err = q.push_timeout(1, Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, PushError::Timeout);
        assert!(start.elapsed() >= Duration::from_millis(25), "returned too early");
        // The queue still works afterwards.
        assert_eq!(q.pop_batch().unwrap(), vec![0]);
        q.push_timeout(2, Duration::from_millis(30)).unwrap();
        assert_eq!(q.pop_batch().unwrap(), vec![2]);
    }

    #[test]
    fn push_timeout_succeeds_when_space_frees_in_time() {
        let q = RequestQueue::new(QueueConfig {
            capacity: 1,
            batch_size: 1,
            backpressure: Backpressure::Block,
        });
        q.push(0u32).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| q.push_timeout(1, Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop_batch().unwrap(), vec![0]);
            producer.join().unwrap().unwrap();
        });
        assert_eq!(q.pop_batch().unwrap(), vec![1]);
    }

    #[test]
    fn queue_survives_a_panicking_lock_holder() {
        let q = std::sync::Arc::new(RequestQueue::new(QueueConfig {
            capacity: 4,
            batch_size: 4,
            backpressure: Backpressure::Reject,
        }));
        q.push(1u32).unwrap();
        // Poison the mutex: panic while holding it on another thread.
        let q2 = q.clone();
        let handle = std::thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("poison the queue lock");
        });
        assert!(handle.join().is_err());
        // Every operation recovers instead of propagating the poison.
        q.push(2).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_batch().unwrap(), vec![1, 2]);
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed));
    }

    #[test]
    fn block_mode_unblocks_when_consumer_drains() {
        let q = RequestQueue::new(QueueConfig {
            capacity: 1,
            batch_size: 1,
            backpressure: Backpressure::Block,
        });
        q.push(0u32).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| q.push(1).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop_batch().unwrap(), vec![0]);
            producer.join().unwrap();
            assert_eq!(q.pop_batch().unwrap(), vec![1]);
        });
    }
}
