//! Two-thread stress tests for the bounded SPSC queue
//! (`perfq_switch::spsc`): FIFO integrity and exactly-once delivery under
//! randomized batch sizes, yield injection, and full/empty boundary races,
//! exact backpressure (occupancy ≤ capacity), and peer-death liveness.

use perfq_packet::{Nanos, PacketBuilder};
use perfq_switch::spsc::{channel, SendError};
use perfq_switch::QueueRecord;
use std::net::Ipv4Addr;
use std::thread;

/// Deterministic SplitMix64 — the stress schedule must be reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `1..=max`.
    fn batch(&mut self, max: u64) -> usize {
        (self.next() % max + 1) as usize
    }
}

/// One randomized producer/consumer round over a `u64` ring: `total`
/// sequential items cross a ring of `capacity` slots in random batch
/// sizes with random yields on both sides; the consumer must observe
/// exactly `0..total` in order, and an unbounded receive must never find
/// more than `capacity` items queued — `send_all` backpressures exactly,
/// non-power-of-two capacities included.
fn hammer(seed: u64, capacity: usize, total: u64) {
    let (tx, rx) = channel::<u64>(capacity);
    let consumer = thread::spawn(move || {
        let mut rng = Rng(seed ^ 0xdead_beef);
        let mut got = Vec::with_capacity(total as usize);
        loop {
            if rng.next() % 7 == 0 {
                thread::yield_now();
            }
            let max = if rng.batch(5) == 1 {
                usize::MAX
            } else {
                rng.batch(64)
            };
            let n = rx.recv_many(&mut got, max);
            assert!(n <= capacity, "{n} items queued in a ring of {capacity}");
            if n == 0 {
                break;
            }
        }
        got
    });
    let mut rng = Rng(seed);
    let mut next = 0u64;
    let mut batch = Vec::new();
    while next < total {
        let n = (rng.batch(97) as u64).min(total - next);
        batch.extend(next..next + n);
        next += n;
        if rng.next() % 2 == 0 {
            tx.send_all(&mut batch).expect("receiver alive");
            assert!(batch.is_empty(), "send_all drains the batch");
        }
        if rng.next() % 11 == 0 {
            thread::yield_now();
        }
    }
    tx.send_all(&mut batch).expect("receiver alive");
    drop(tx);
    let got = consumer.join().unwrap();
    assert_eq!(got.len() as u64, total, "no loss, no duplication");
    assert!(
        got.iter().copied().eq(0..total),
        "FIFO order preserved (seed {seed}, capacity {capacity})"
    );
}

#[test]
fn randomized_batches_preserve_fifo_exactly_once() {
    hammer(1, 1024, 200_000);
    hammer(2, 64, 100_000);
}

#[test]
fn tiny_rings_race_the_full_empty_boundary() {
    // Capacity 1 forces a full/empty transition on every element; 3 and 7
    // exercise the non-power-of-two occupancy cap under contention.
    for (seed, capacity) in [(3u64, 1usize), (4, 2), (5, 3), (6, 7)] {
        hammer(seed, capacity, 20_000);
    }
}

#[test]
fn single_sends_interleave_with_batch_receives() {
    let (tx, rx) = channel::<u64>(8);
    let consumer = thread::spawn(move || {
        let mut rng = Rng(42);
        let mut got = Vec::new();
        while rx.recv_many(&mut got, rng.batch(5)) > 0 {
            if rng.next() % 3 == 0 {
                thread::yield_now();
            }
        }
        got
    });
    for i in 0..50_000u64 {
        tx.send(i).expect("receiver alive");
    }
    drop(tx);
    let got = consumer.join().unwrap();
    assert!(got.iter().copied().eq(0..50_000));
}

#[test]
fn receiver_death_mid_stream_errors_instead_of_deadlocking() {
    let (tx, rx) = channel::<u64>(4);
    let consumer = thread::spawn(move || {
        let mut got = Vec::new();
        // Take a few batches, then walk away with the ring full.
        while got.len() < 100 {
            if rx.recv_many(&mut got, 16) == 0 {
                break;
            }
        }
        drop(rx);
        got
    });
    // Keep sending until the dead receiver surfaces as an error; a queue
    // that missed the death would deadlock here once the ring filled.
    let mut i = 0u64;
    let err = loop {
        match tx.send(i) {
            Ok(()) => i += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(format!("{err}"), "spsc receiver disconnected");
    let got = consumer.join().unwrap();
    assert!(got.iter().copied().eq(0..got.len() as u64), "prefix intact");
}

#[test]
fn consumer_panic_unparks_a_blocked_producer() {
    // Regression: a shard worker that panics mid-run drops its Receiver
    // during the unwind. A producer blocked on the full ring must wake
    // *because that drop notified it* and then surface the death as
    // SendError.
    let (tx, rx) = channel::<u64>(1);
    let worker = thread::spawn(move || {
        let mut got = Vec::new();
        rx.recv_many(&mut got, 2);
        panic!("worker died mid-run");
    });
    let mut i = 0u64;
    let err = loop {
        match tx.send(i) {
            Ok(()) => i += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(err, SendError);
    // The worker's own panic payload is intact for the drain to re-raise.
    let payload = worker.join().unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker died mid-run"));
}

#[test]
fn consumer_panic_unblocks_a_parked_send_all() {
    // Same liveness property through the batch path: send_all blocked on a
    // full ring must error out (leaving the remainder staged) when the
    // consumer dies, never hang.
    let (tx, rx) = channel::<u64>(2);
    let worker = thread::spawn(move || {
        let mut got = Vec::new();
        rx.recv_many(&mut got, 1);
        panic!("worker died mid-batch");
    });
    let mut pending: Vec<u64> = (0..10_000).collect();
    let err = loop {
        match tx.send_all(&mut pending) {
            Ok(()) => pending = (0..10_000).collect(),
            Err(e) => break e,
        }
    };
    assert_eq!(err, SendError);
    assert!(!pending.is_empty(), "unsent remainder stays staged");
    assert!(worker.join().is_err());
}

#[test]
fn producer_panic_wakes_a_waiting_consumer_as_end_of_stream() {
    // The mirror image: a consumer blocked on the empty ring must observe
    // end-of-stream when the producer's unwind drops the Sender.
    let (tx, rx) = channel::<u64>(8);
    let producer = thread::spawn(move || {
        tx.send(7).unwrap();
        // Let the consumer drain and block on the empty ring.
        thread::sleep(std::time::Duration::from_millis(50));
        panic!("producer died");
    });
    assert_eq!(rx.recv(), Some(7));
    assert_eq!(rx.recv(), None, "dropped sender surfaces end-of-stream");
    assert!(producer.join().is_err());
}

#[test]
fn queue_records_cross_the_ring_bit_identically() {
    // Full QueueRecords under batch races: every record must arrive
    // exactly as sent — the sharded dataplane's
    // correctness rests on this.
    let make = |i: u64| -> QueueRecord {
        let packet = if i % 3 == 0 {
            PacketBuilder::udp()
                .src(Ipv4Addr::from((i as u32) | 0x0a00_0000), (i % 50_000) as u16)
                .dst(Ipv4Addr::new(10, 0, 0, 8), 53)
                .payload_len((i % 1400) as u16)
                .uniq(i)
                .build()
        } else {
            PacketBuilder::tcp()
                .src(Ipv4Addr::new(10, 0, 0, 1), 1000 + (i % 100) as u16)
                .dst(Ipv4Addr::from((i as u32) ^ 0x0a00_00ff), 80)
                .seq(i as u32)
                .payload_len((i % 1460) as u16)
                .uniq(i)
                .build()
        };
        QueueRecord {
            packet,
            qid: (i % 7) as u32,
            tin: Nanos(i * 10),
            // Every 11th record is a drop (infinite tout) — the sentinel
            // must survive the ring too.
            tout: if i % 11 == 0 {
                Nanos::INFINITY
            } else {
                Nanos(i * 10 + 5)
            },
            qsize: (i % 13) as u32,
            qout: (i % 5) as u32,
            path: i.wrapping_mul(0x100).wrapping_add(7),
        }
    };
    let n = 20_000u64;
    let (tx, rx) = channel::<QueueRecord>(256);
    let consumer = thread::spawn(move || {
        let mut rng = Rng(9);
        let mut got = Vec::new();
        while rx.recv_many(&mut got, rng.batch(300)) > 0 {
            if rng.next() % 5 == 0 {
                thread::yield_now();
            }
        }
        got
    });
    let mut rng = Rng(10);
    let mut batch = Vec::new();
    let mut i = 0u64;
    while i < n {
        let take = (rng.batch(400) as u64).min(n - i);
        batch.extend((i..i + take).map(make));
        i += take;
        tx.send_all(&mut batch).expect("receiver alive");
    }
    drop(tx);
    let got = consumer.join().unwrap();
    assert_eq!(got.len() as u64, n);
    for (i, rec) in got.iter().enumerate() {
        assert_eq!(*rec, make(i as u64), "record {i} round-trips the ring");
    }
}
