//! The bounded request queue between connection readers and the worker
//! pool: one `Mutex` over a `VecDeque` and a closed flag, plus a
//! `Condvar` that parks workers while the queue is empty.
//!
//! * [`RequestQueue::push`] never blocks: when the queue is closed or
//!   already holds its capacity, the item comes straight back and
//!   `serve.queue.shed` is bumped — the caller's signal to **shed**.
//! * [`RequestQueue::pop_wait`] waits on the condvar until an item
//!   arrives or the queue closes. Pushes and closes change the state
//!   under the same lock the waiter checks it under, so no wakeup is
//!   lost.
//! * [`RequestQueue::close`] flips the closed flag and wakes everyone;
//!   `pop_wait` keeps draining until the queue is both closed **and**
//!   empty, so a graceful shutdown never drops accepted work.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the lock guards.
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A closable bounded MPMC queue that sheds on overflow and parks
/// consumers on empty.
pub struct RequestQueue<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    capacity: usize,
}

impl<T> RequestQueue<T> {
    /// A queue holding at most `capacity` items (at least 1). The storage
    /// is allocated up front, so pushes never allocate and a request's
    /// allocations do not depend on how deep the queue happens to be.
    pub fn with_capacity(capacity: usize) -> RequestQueue<T> {
        let capacity = capacity.max(1);
        RequestQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            wake: Condvar::new(),
            capacity,
        }
    }

    /// The state, locked. A poisoned lock means a thread panicked inside
    /// a queue operation, which is a bug.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .expect("a thread panicked holding the request queue lock")
    }

    /// The most items the queue holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item`, waking one parked worker. On a full queue the
    /// item comes straight back (`Err`) and `serve.queue.shed` is bumped
    /// — the caller turns that into an `overloaded` response. Pushing to
    /// a closed queue is also a shed: accept stopped, drain is in
    /// progress.
    pub fn push(&self, item: T) -> Result<(), T> {
        {
            let mut state = self.lock();
            if state.closed || state.items.len() >= self.capacity {
                prio_obs::counter!("serve.queue.shed").inc();
                return Err(item);
            }
            state.items.push_back(item);
        }
        self.wake.notify_one();
        Ok(())
    }

    /// Pops an item, parking until one arrives. Returns `None` only once
    /// the queue is closed *and* drained.
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .wake
                .wait(state)
                .expect("a thread panicked holding the request queue lock");
        }
    }

    /// Closes the queue: future pushes shed, and parked workers wake to
    /// drain the remainder and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_and_shed() {
        let q: RequestQueue<u32> = RequestQueue::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop_wait(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), Some(3));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_is_exact_not_rounded_up() {
        let q: RequestQueue<u32> = RequestQueue::with_capacity(3);
        assert_eq!(q.capacity(), 3);
        for i in 0..3 {
            assert!(q.push(i).is_ok(), "item {i} fits");
        }
        assert_eq!(q.push(3), Err(3), "a fourth item sheds");
        assert_eq!(q.depth(), 3);
        assert_eq!(RequestQueue::<u32>::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn close_drains_then_ends() {
        let q: RequestQueue<u32> = RequestQueue::with_capacity(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
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
