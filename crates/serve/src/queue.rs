//! Bounded, per-client-fair job queue.
//!
//! Admission control and fairness live here: the queue holds at most
//! `cap` jobs *total* (a full queue rejects, it never blocks the
//! submitting connection), and jobs are dequeued round-robin across the
//! clients that have work queued — a client that dumps 50 jobs cannot
//! starve one that submitted a single job; their next jobs alternate.
//!
//! Shutdown is a drain: [`FairQueue::close`] stops admission while
//! [`FairQueue::pop`] keeps delivering until the queue is empty, then
//! returns `None` so workers exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; nothing was enqueued.
    Full,
    /// The queue is closed for shutdown; nothing was enqueued.
    Closed,
}

struct State<T> {
    /// One FIFO per client with queued work, in round-robin rotation
    /// order; emptied queues leave the rotation.
    queues: VecDeque<(u64, VecDeque<T>)>,
    len: usize,
    closed: bool,
}

/// The bounded multi-client queue. All methods are `&self`; the queue
/// is shared behind an `Arc`.
pub struct FairQueue<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    cap: usize,
}

impl<T> FairQueue<T> {
    /// Locks the queue state, recovering from poisoning. Every mutation
    /// under the lock (`len`, the rotation, `closed`) is completed
    /// before any call that could panic, so a panicking thread — worker
    /// or connection — leaves the state consistent; propagating the
    /// poison would instead cascade one thread's panic into every
    /// other queue user.
    fn lock_state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A queue admitting at most `cap` jobs at once (floored at 1).
    pub fn new(cap: usize) -> FairQueue<T> {
        FairQueue {
            state: Mutex::new(State {
                queues: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            cond: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// The configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Jobs currently queued (across all clients).
    pub fn len(&self) -> usize {
        self.lock_state().len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues one job for `client`. Full or closed queues refuse
    /// immediately — admission control must never block the connection
    /// that asked.
    pub fn push(&self, client: u64, item: T) -> Result<(), PushError> {
        let mut s = self.lock_state();
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.len >= self.cap {
            return Err(PushError::Full);
        }
        match s.queues.iter_mut().find(|(c, _)| *c == client) {
            Some((_, q)) => q.push_back(item),
            None => {
                let mut q = VecDeque::new();
                q.push_back(item);
                s.queues.push_back((client, q));
            }
        }
        s.len += 1;
        drop(s);
        self.cond.notify_one();
        Ok(())
    }

    /// Dequeues the next job, rotating across clients: the serving
    /// client's queue moves to the back of the rotation (or leaves it
    /// when emptied). Blocks until there is work; `None` once the queue
    /// is closed *and* drained, so the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock_state();
        loop {
            if s.len > 0 {
                let (client, mut q) = s.queues.pop_front().expect("len>0 implies a queue");
                let item = q.pop_front().expect("client queues are never empty");
                if !q.is_empty() {
                    s.queues.push_back((client, q));
                }
                s.len -= 1;
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes admission: pushes refuse from now on, pops drain what is
    /// queued and then return `None`.
    pub fn close(&self) {
        self.lock_state().closed = true;
        self.cond.notify_all();
    }

    /// Drains everything still queued right now (used to refuse leftover
    /// jobs in typed form when shutting down with no workers to run
    /// them).
    pub fn drain_now(&self) -> Vec<T> {
        let mut s = self.lock_state();
        let mut out = Vec::with_capacity(s.len);
        while let Some((_, mut q)) = s.queues.pop_front() {
            out.extend(q.drain(..));
        }
        s.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn round_robins_across_clients() {
        let q = FairQueue::new(16);
        // Client 1 floods before client 2 gets a word in.
        for i in 0..3 {
            q.push(1, (1, i)).unwrap();
        }
        for i in 0..2 {
            q.push(2, (2, i)).unwrap();
        }
        // Closed, so the drain ends at the last item instead of blocking.
        q.close();
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]);
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = FairQueue::new(2);
        q.push(1, "a").unwrap();
        q.push(2, "b").unwrap();
        assert_eq!(q.push(1, "c"), Err(PushError::Full));
        assert_eq!(q.len(), 2, "the rejected job was not enqueued");
        // Freeing a slot re-admits.
        assert_eq!(q.pop(), Some("a"));
        q.push(1, "c").unwrap();
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = FairQueue::new(4);
        q.push(1, 10).unwrap();
        q.push(1, 11).unwrap();
        q.close();
        assert_eq!(q.push(1, 12), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_wakes_on_push_from_another_thread() {
        let q = Arc::new(FairQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(7, 99).unwrap();
        assert_eq!(t.join().unwrap(), Some(99));
    }

    #[test]
    fn survives_a_panic_while_the_lock_is_held() {
        let q = Arc::new(FairQueue::new(4));
        q.push(1, 7).unwrap();
        // Poison the mutex: panic with the guard held.
        let q2 = Arc::clone(&q);
        let poisoner = std::thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("worker died holding the queue lock");
        });
        assert!(poisoner.join().is_err());
        assert!(q.state.is_poisoned(), "the panic did poison the mutex");
        // Every path still works: the state was consistent at the panic.
        assert_eq!(q.len(), 1);
        q.push(2, 8).unwrap();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(8));
        q.close();
        assert_eq!(q.pop(), None);
    }
}
