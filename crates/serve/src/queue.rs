//! The bounded request queue between connection readers and the worker
//! pool.
//!
//! Storage is the lock-free Vyukov ring ([`prio_obs::ring::Ring`], MPMC),
//! so the hot push/pop path is a couple of atomics. What the ring does
//! not provide — and what a daemon needs — is *waiting*: workers must
//! park when the queue is empty and wake when work arrives or the queue
//! closes. A `Mutex<bool>`+`Condvar` pair layers that on without
//! touching the fast path:
//!
//! * [`RequestQueue::push`] stores into the ring first, then takes the
//!   (uncontended) mutex briefly before `notify_one`. Taking the lock —
//!   even though no state is written under it — closes the lost-wakeup
//!   window: a worker that checked the ring empty cannot have parked yet
//!   if the pusher holds the lock, and cannot miss the notify if it has.
//! * A full ring is the caller's signal to **shed**: `push` returns the
//!   rejected item and bumps `serve.queue.shed`; nothing ever blocks on
//!   the way in.
//! * [`RequestQueue::close`] flips the closed flag and wakes everyone;
//!   [`RequestQueue::pop_wait`] keeps draining until the queue is both
//!   closed **and** empty, so a graceful shutdown never drops accepted
//!   work.

use prio_obs::ring::Ring;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A closable bounded MPMC queue that sheds on overflow and parks
/// consumers on empty.
pub struct RequestQueue<T> {
    ring: Ring<T>,
    closed: Mutex<bool>,
    wake: Condvar,
}

impl<T> RequestQueue<T> {
    /// A queue holding at least `capacity` items (the ring rounds up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> RequestQueue<T> {
        RequestQueue {
            ring: Ring::with_capacity(capacity),
            closed: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// The actual (rounded) capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Enqueues `item`, waking one parked worker. On a full ring the item
    /// comes straight back (`Err`) and `serve.queue.shed` is bumped — the
    /// caller turns that into an `overloaded` response. Pushing to a
    /// closed queue is also a shed: accept stopped, drain is in progress.
    pub fn push(&self, item: T) -> Result<(), T> {
        {
            let closed = self.closed.lock().unwrap();
            if *closed {
                counter!("serve.queue.shed").inc();
                return Err(item);
            }
            // Still holding the lock: a concurrent close() cannot complete
            // until the store below is visible to draining workers.
            match self.ring.push(item) {
                Ok(()) => {}
                Err(item) => {
                    counter!("serve.queue.shed").inc();
                    return Err(item);
                }
            }
        }
        self.wake.notify_one();
        Ok(())
    }

    /// Pops an item, parking until one arrives. Returns `None` only once
    /// the queue is closed *and* drained.
    pub fn pop_wait(&self) -> Option<T> {
        loop {
            if let Some(item) = self.ring.pop() {
                return Some(item);
            }
            let mut closed = self.closed.lock().unwrap();
            // Re-check under the lock: a push that happened between our
            // failed pop and acquiring the lock has already stored its
            // item (stores happen under this same lock), so we see it.
            if let Some(item) = self.ring.pop() {
                return Some(item);
            }
            if *closed {
                return None;
            }
            // Timed wait as a belt-and-braces backstop; correctness does
            // not depend on it (pushes hold the lock before notifying).
            let (guard, _) = self
                .wake
                .wait_timeout(closed, Duration::from_millis(50))
                .unwrap();
            closed = guard;
            drop(closed);
        }
    }

    /// Non-blocking pop (used by drain loops and tests).
    pub fn try_pop(&self) -> Option<T> {
        self.ring.pop()
    }

    /// Closes the queue: future pushes shed, and parked workers wake to
    /// drain the remainder and exit.
    pub fn close(&self) {
        let mut closed = self.closed.lock().unwrap();
        *closed = true;
        drop(closed);
        self.wake.notify_all();
    }

    /// Whether [`close`](RequestQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        *self.closed.lock().unwrap()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_and_shed() {
        let q: RequestQueue<u32> = RequestQueue::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop_wait(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_drains_then_ends() {
        let q: RequestQueue<u32> = RequestQueue::with_capacity(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(3), Err(3), "push after close must shed");
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn parked_consumer_wakes_on_push_and_close() {
        let q: Arc<RequestQueue<u32>> = Arc::new(RequestQueue::with_capacity(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop_wait() {
                    got.push(item);
                }
                got
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        q.push(8).unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![7, 8]);
    }

    #[test]
    fn many_producers_one_consumer_loses_nothing() {
        let q: Arc<RequestQueue<u64>> = Arc::new(RequestQueue::with_capacity(1024));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        while q.push(p * 1000 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop_wait() {
                    got.push(item);
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100u64).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
