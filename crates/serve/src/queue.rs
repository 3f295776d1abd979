//! A bounded MPMC work queue with load shedding.
//!
//! The event loop pushes parsed requests with
//! [`BoundedQueue::try_push`]; when the queue is at capacity the push
//! fails *immediately* and the caller sheds load (HTTP 429 + `Retry-After`) instead of letting an
//! unbounded backlog build. Workers block on [`BoundedQueue::pop`],
//! which drains remaining items after [`BoundedQueue::close`] and only
//! then returns `None` — exactly the graceful-shutdown order the
//! daemon needs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// A fixed-capacity FIFO shared between the event loop and workers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why [`BoundedQueue::try_push`] rejected an item; the item is handed
/// back to the caller.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity: shed load.
    Full(T),
    /// The queue was closed: the server is shutting down.
    Closed(T),
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: further pushes fail, and blocked `pop`s return
    /// once remaining items are drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn rejects_when_full_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drains_in_fifo_order_after_close() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert!(matches!(q.try_push("c"), Err(PushError::Closed("c"))));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || q.pop()));
        }
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_move_every_item() {
        let q = Arc::new(BoundedQueue::new(8));
        let total = 200u32;
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..total {
                    let mut item = i;
                    loop {
                        match q.try_push(item) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                item = back;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                }
                q.close();
            })
        };
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        producer.join().unwrap();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }
}
