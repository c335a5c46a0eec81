//! The service's one admission queue: a bounded, per-client fair queue
//! of command lines that the worker pool drains.
//!
//! * **Admission.** A hard global capacity (bounded memory) *and* a
//!   per-client quota. A line that would exceed either bound is refused
//!   with [`Admission::Overloaded`] at once — it never waits in line —
//!   so a transport bounces it at network latency, not at queue-drain
//!   latency.
//! * **Fairness.** Per-client FIFOs popped round-robin: a client with 50
//!   queued commands and a client with 1 alternate, so the chatty client
//!   cannot starve the quiet one at dispatch; the quota stops it from
//!   starving them at admission.
//! * **Drain.** Once closed, pushes fail with
//!   [`Admission::ShuttingDown`] while pops keep succeeding until the
//!   queue is empty, then return `None` (the workers' exit signal), so
//!   every admitted line is still executed and answered.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

/// Why the queue refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Global capacity or the client's quota is exhausted.
    Overloaded,
    /// The queue is closed (the service is draining for shutdown).
    ShuttingDown,
}

struct FairState<T> {
    queues: HashMap<u64, VecDeque<T>>,
    /// Clients with at least one queued item, in dispatch rotation.
    order: VecDeque<u64>,
    len: usize,
    closed: bool,
}

/// Bounded multi-producer queue with per-client FIFOs and round-robin
/// dispatch (see the module docs for the admission and drain rules).
pub(crate) struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    available: Condvar,
    capacity: usize,
    quota: usize,
}

impl<T> FairQueue<T> {
    /// `capacity` is clamped to at least 1; `quota == 0` defaults to
    /// `capacity / 4` (min 1), and a larger quota is clamped to the
    /// capacity.
    pub(crate) fn new(capacity: usize, quota: usize) -> Self {
        let capacity = capacity.max(1);
        let quota = if quota == 0 {
            (capacity / 4).max(1)
        } else {
            quota.min(capacity)
        };
        Self {
            state: Mutex::new(FairState {
                queues: HashMap::new(),
                order: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
            quota,
        }
    }

    /// Global capacity bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-client admission quota.
    pub(crate) fn quota(&self) -> usize {
        self.quota
    }

    /// Admits one item for `client`, returning the queue depth after
    /// the push (for high-water-mark metrics).
    pub(crate) fn push(&self, client: u64, item: T) -> Result<usize, Admission> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return Err(Admission::ShuttingDown);
        }
        if st.len >= self.capacity {
            return Err(Admission::Overloaded);
        }
        let q = st.queues.entry(client).or_default();
        if q.len() >= self.quota {
            return Err(Admission::Overloaded);
        }
        let newly_active = q.is_empty();
        q.push_back(item);
        if newly_active {
            st.order.push_back(client);
        }
        st.len += 1;
        let depth = st.len;
        drop(st);
        self.available.notify_one();
        Ok(depth)
    }

    /// Takes the next item round-robin across clients, blocking while
    /// the queue is open but empty. `None` means closed *and* drained.
    pub(crate) fn pop(&self) -> Option<(u64, T)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(client) = st.order.pop_front() {
                let q = st.queues.get_mut(&client).expect("client in rotation");
                let item = q.pop_front().expect("rotation implies non-empty");
                if q.is_empty() {
                    st.queues.remove(&client);
                } else {
                    st.order.push_back(client);
                }
                st.len -= 1;
                return Some((client, item));
            }
            if st.closed {
                return None;
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Switches to drain mode and wakes every blocked `pop`.
    pub(crate) fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
    }

    /// True once [`FairQueue::close`] has run.
    pub(crate) fn is_closed(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
    }

    /// Items currently queued (all clients).
    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let q: FairQueue<u32> = FairQueue::new(16, 8);
        for item in [10, 11, 12] {
            q.push(1, item).unwrap();
        }
        q.push(2, 20).unwrap();
        for item in [30, 31] {
            q.push(3, item).unwrap();
        }
        let order: Vec<(u64, u32)> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(
            order,
            vec![(1, 10), (2, 20), (3, 30), (1, 11), (3, 31), (1, 12)],
            "dispatch must alternate clients, not drain client 1 first"
        );
    }

    #[test]
    fn fair_queue_enforces_capacity_and_quota() {
        let q: FairQueue<u32> = FairQueue::new(8, 2);
        // Per-client quota trips first.
        q.push(1, 0).unwrap();
        q.push(1, 1).unwrap();
        assert_eq!(q.push(1, 2), Err(Admission::Overloaded));
        // Other clients still have room…
        for c in 2..=4u64 {
            q.push(c, 0).unwrap();
            q.push(c, 1).unwrap();
        }
        // …until the global bound trips for everyone.
        assert_eq!(q.len(), 8);
        assert_eq!(q.push(9, 0), Err(Admission::Overloaded));
        // Draining one slot reopens admission for an under-quota client.
        q.pop().unwrap();
        q.push(9, 0).unwrap();
    }

    #[test]
    fn fair_queue_close_drains_then_ends() {
        let q: FairQueue<u32> = FairQueue::new(4, 4);
        q.push(1, 1).unwrap();
        q.push(1, 2).unwrap();
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(1, 3), Err(Admission::ShuttingDown));
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((1, 2)));
        assert_eq!(q.pop(), None, "closed + empty ends the pop loop");
    }

    #[test]
    fn fair_queue_pop_blocks_until_push() {
        let q: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(4, 4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(7, 42).unwrap();
        assert_eq!(popper.join().unwrap(), Some((7, 42)));
    }
}
