//! Fixed-capacity single-producer / single-consumer record queues.
//!
//! The sharded dataplane pins one worker core per key-hash shard; the
//! producer (the network event loop) routes each [`crate::QueueRecord`] to
//! its shard's queue. Hardware telemetry pipelines use exactly this shape —
//! a bounded ring per consumer with backpressure — so the queue here is
//! deliberately *fixed capacity*: when a shard falls behind, the producer
//! blocks rather than buffering unboundedly (§3.2's eviction-rate argument
//! assumes the collection path keeps up on average, not at every instant).
//!
//! # Design
//!
//! One `Mutex` around a `VecDeque` that is allocated at `capacity` and
//! never grows, plus two `Condvar`s: the producer waits on `not_full`, the
//! consumer on `not_empty`. Records cross by move. Both sides work in
//! batches ([`Sender::send_all`], [`Receiver::recv_many`]), so the lock is
//! taken once per few hundred records. Each half's `Drop` lowers its alive
//! flag under the lock and notifies the peer: a dropped [`Sender`] is
//! end-of-stream once the queue drains, a dropped [`Receiver`] fails
//! further sends with [`SendError`]. `Drop` runs during a panic unwind too,
//! so a worker that dies mid-run wakes a blocked producer into that error
//! instead of a deadlock; liveness rests on a flag read under the mutex.
//!
//! A lock-free word-encoded ring held this place from PR 8 to PR 14. The
//! interleaved A/B on the benchmark's `sharded_handoff` workload that
//! retired it (10 pairs on each of two seeds, 2 cores; CHANGES.md, PR 15):
//! `replay_rps` 3.70 → 3.75 M and 3.85 → 3.93 M records/s, `drain_ms`
//! 59.9 → 61.2 and 59.1 → 59.4, each within the lock-free ring's own
//! quartiles or better. In isolation the queue is the slower transport
//! (66 vs 48 ns per record into a consumer that only counts); end to end
//! that bought nothing, so the design with a third of the code stayed.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Error returned when sending into a channel whose receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spsc receiver disconnected")
    }
}

impl std::error::Error for SendError {}

#[derive(Debug)]
struct State<T> {
    /// Allocated at `capacity`; occupancy never exceeds it, so it never
    /// reallocates.
    ring: VecDeque<T>,
    capacity: usize,
    sender_alive: bool,
    receiver_alive: bool,
}

#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    /// The producer waits here while the ring is full.
    not_full: Condvar,
    /// The consumer waits here while the ring is empty.
    not_empty: Condvar,
}

impl<T> Shared<T> {
    /// Lock the state. Poison is ignored: no caller code runs under the
    /// lock and every update leaves the state valid, so a peer's panic
    /// says nothing about the queue — and `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The producing half of a bounded SPSC channel.
#[derive(Debug)]
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half of a bounded SPSC channel.
#[derive(Debug)]
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded SPSC channel holding at most `capacity` elements.
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "spsc capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            sender_alive: true,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Block until the ring has a free slot; `Err` once the receiver is
    /// gone.
    fn wait_free(&self) -> Result<MutexGuard<'_, State<T>>, SendError> {
        let state = self
            .shared
            .not_full
            .wait_while(self.shared.lock(), |s| {
                s.receiver_alive && s.ring.len() == s.capacity
            })
            .unwrap_or_else(PoisonError::into_inner);
        if state.receiver_alive {
            Ok(state)
        } else {
            Err(SendError)
        }
    }

    /// Send one element, blocking while the ring is full.
    pub fn send(&self, item: T) -> Result<(), SendError> {
        self.wait_free()?.ring.push_back(item);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Drain `batch` into the ring, blocking for space as needed. The batch
    /// is emptied on success (elements are moved out in order); on a
    /// disconnected receiver the unsent remainder stays in `batch`.
    ///
    /// One lock acquisition moves as many elements as fit, so the
    /// per-record synchronization cost is `O(1/batch_len)` locks.
    pub fn send_all(&self, batch: &mut Vec<T>) -> Result<(), SendError> {
        while !batch.is_empty() {
            let mut state = self.wait_free()?;
            let take = (state.capacity - state.ring.len()).min(batch.len());
            state.ring.extend(batch.drain(..take));
            drop(state);
            self.shared.not_empty.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.lock().sender_alive = false;
        self.shared.not_empty.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Block until the ring holds an element or the sender is gone (an
    /// empty ring on return means end-of-stream).
    fn wait_available(&self) -> MutexGuard<'_, State<T>> {
        self.shared
            .not_empty
            .wait_while(self.shared.lock(), |s| s.sender_alive && s.ring.is_empty())
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Receive up to `max` elements into `out` (appended), blocking until at
    /// least one element is available or the channel is closed and drained.
    /// Returns the number received; 0 means end-of-stream (so `max` must be
    /// positive — a zero `max` could return 0 on an open channel and fake
    /// end-of-stream to the caller).
    pub fn recv_many(&self, out: &mut Vec<T>, max: usize) -> usize {
        assert!(max > 0, "recv_many needs a positive max");
        let mut state = self.wait_available();
        let take = max.min(state.ring.len());
        out.extend(state.ring.drain(..take));
        drop(state);
        self.shared.not_full.notify_one();
        take
    }

    /// Receive one element, or `None` at end-of-stream.
    pub fn recv(&self) -> Option<T> {
        let item = self.wait_available().ring.pop_front()?;
        self.shared.not_full.notify_one();
        Some(item)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
        self.shared.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = channel::<u64>(4);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while rx.recv_many(&mut got, 3) > 0 {}
            got
        });
        let mut batch: Vec<u64> = (0..1000).collect();
        tx.send_all(&mut batch).unwrap();
        assert!(batch.is_empty());
        drop(tx);
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_backpressures_without_loss() {
        // Tiny ring, slow consumer: every element still arrives exactly once.
        let (tx, rx) = channel::<u64>(2);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                let n = rx.recv_many(&mut got, 1);
                if n == 0 {
                    break;
                }
                thread::yield_now();
            }
            got
        });
        for i in 0..500 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn sender_drop_closes_stream() {
        let (tx, rx) = channel::<u64>(8);
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_many(&mut buf, 16), 0);
    }

    #[test]
    fn receiver_drop_errors_sends() {
        let (tx, rx) = channel::<u64>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError));
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.send_all(&mut batch), Err(SendError));
        assert_eq!(batch, vec![1, 2, 3]);
    }

    #[test]
    fn send_all_larger_than_capacity_interleaves() {
        let (tx, rx) = channel::<u64>(3);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while rx.recv_many(&mut got, 2) > 0 {}
            got
        });
        let mut batch: Vec<u64> = (0..100).collect();
        tx.send_all(&mut batch).unwrap();
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn non_power_of_two_capacity_is_exact() {
        // The allocation may round up, but occupancy must cap at 5.
        let (tx, rx) = channel::<u64>(5);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        // A 6th send must block: run it on a thread and make sure it only
        // completes after one element is consumed.
        let t = thread::spawn(move || {
            tx.send(5).unwrap();
            drop(tx);
        });
        assert_eq!(rx.recv(), Some(0));
        t.join().unwrap();
        let mut rest = Vec::new();
        while rx.recv_many(&mut rest, 8) > 0 {}
        assert_eq!(rest, vec![1, 2, 3, 4, 5]);
    }
}
