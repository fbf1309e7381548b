//! The output-queue model.
//!
//! Each switch port has one FIFO queue drained at the port's line rate. The
//! model is analytic rather than slotted: a packet arriving at `t` with
//! length `L` starts transmission at `max(t, previous departure)` and departs
//! after `L·8 / rate` — exact FIFO timing without per-cycle simulation.
//!
//! The queue produces the schema's performance metadata:
//!
//! * `tin` — the arrival time;
//! * `tout` — the computed departure time, or ∞ when the packet arrives to a
//!   full queue and is dropped (§2: "If a packet is dropped at a queue, we
//!   assign tout the value infinity");
//! * `qsize`/`qin` — occupancy seen at enqueue;
//! * `qout` — occupancy remaining at departure.
//!
//! Departure records are *released* only once simulated time passes their
//! `tout` (drops release immediately), so the record stream a query consumes
//! is ordered by observation time, like a real telemetry stream.

use crate::record::QueueRecord;
use perfq_packet::{Nanos, Packet};
use std::collections::VecDeque;

/// Counters for one queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted.
    pub enqueued: u64,
    /// Packets dropped (queue full).
    pub dropped: u64,
    /// Maximum occupancy observed at enqueue.
    pub max_qsize: u32,
}

#[derive(Debug, Clone)]
struct Inflight {
    record: QueueRecord,
}

/// A FIFO output queue with finite capacity and fixed drain rate.
#[derive(Debug, Clone)]
pub struct OutputQueue {
    qid: u32,
    /// Drain rate in bits per nanosecond (= Gbit/s).
    rate_bits_per_ns: f64,
    capacity: usize,
    /// Accepted packets not yet released as records, in departure order.
    inflight: VecDeque<Inflight>,
    /// Departure time of the most recently accepted packet.
    last_departure: Nanos,
    stats: QueueStats,
}

impl OutputQueue {
    /// Create a queue. `rate_bps` is the port speed in bits/second;
    /// `capacity` is the maximum number of queued packets.
    #[must_use]
    pub fn new(qid: u32, rate_bps: f64, capacity: usize) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!(capacity > 0, "capacity must be positive");
        OutputQueue {
            qid,
            rate_bits_per_ns: rate_bps / 1e9,
            capacity,
            inflight: VecDeque::new(),
            last_departure: Nanos::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// The queue id.
    #[must_use]
    pub fn qid(&self) -> u32 {
        self.qid
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Transmission time of a packet at this queue's rate, rounded up to a
    /// whole nanosecond.
    ///
    /// The ceiling is a truncation plus one when a fraction remains — equal
    /// to `f64::ceil` for every finite `x ≥ 0`, without the libm call that
    /// `ceil` is on an x86-64 target lacking SSE4.1.
    #[must_use]
    pub fn tx_time(&self, wire_len: u16) -> Nanos {
        let x = f64::from(wire_len) * 8.0 / self.rate_bits_per_ns;
        let whole = x as u64;
        Nanos(whole.saturating_add(u64::from((whole as f64) < x)))
    }

    /// Current occupancy at time `now` (packets not yet departed).
    ///
    /// FIFO service at one rate makes `tout` non-decreasing along the
    /// deque, so the count of still-present packets is a partition point —
    /// O(log n) instead of a full scan on the per-packet enqueue path.
    #[must_use]
    pub fn occupancy(&self, now: Nanos) -> u32 {
        (self.inflight.len() - self.inflight.partition_point(|f| f.record.tout <= now)) as u32
    }

    /// Offer a packet at time `now` (arrivals must be non-decreasing in
    /// time). Returns the drop record if the queue was full, else `None`
    /// (the departure record is released later by [`OutputQueue::release`]).
    pub fn offer(&mut self, packet: Packet, now: Nanos, path: u64) -> Option<QueueRecord> {
        let qsize = self.occupancy(now);
        self.stats.max_qsize = self.stats.max_qsize.max(qsize);
        if qsize as usize >= self.capacity {
            self.stats.dropped += 1;
            return Some(QueueRecord {
                packet,
                qid: self.qid,
                tin: now,
                tout: Nanos::INFINITY,
                qsize,
                qout: 0,
                path: QueueRecord::extend_path(path, self.qid),
            });
        }
        self.stats.enqueued += 1;
        let start = now.max(self.last_departure);
        let tout = start + self.tx_time(packet.wire_len);
        self.last_departure = tout;
        self.inflight.push_back(Inflight {
            record: QueueRecord {
                packet,
                qid: self.qid,
                tin: now,
                tout,
                qsize,
                qout: 0, // filled at release
                path: QueueRecord::extend_path(path, self.qid),
            },
        });
        None
    }

    /// Release departure records whose `tout ≤ now`, with exact `qout`,
    /// handing each to `sink`. Sink-based rather than `Vec`-returning so the
    /// per-event hot path of `Network::run` allocates nothing per release.
    pub fn release(&mut self, now: Nanos, mut sink: impl FnMut(QueueRecord)) {
        while let Some(front) = self.inflight.front() {
            let tout = front.record.tout;
            if tout > now {
                break;
            }
            let mut rec = self.inflight.pop_front().expect("front exists").record;
            // Occupancy at departure: packets already enqueued (tin < tout)
            // and still present (their tout > this one's — FIFO order means
            // all remaining entries qualify on departure order). Arrivals
            // are non-decreasing, so the count is a partition point.
            rec.qout = self.inflight.partition_point(|f| f.record.tin < tout) as u32;
            sink(rec);
        }
    }

    /// Release everything regardless of time (end of simulation).
    pub fn flush(&mut self, sink: impl FnMut(QueueRecord)) {
        self.release(Nanos::INFINITY, sink);
    }

    /// Departure time of the last accepted packet (next packet's earliest
    /// start of service).
    #[must_use]
    pub fn horizon(&self) -> Nanos {
        self.last_departure
    }

    /// Departure time of the oldest unreleased packet, if any — the
    /// earliest time at which [`OutputQueue::release`] would produce a
    /// record (`Switch` caches the minimum across its queues to skip
    /// release scans entirely between departures).
    #[must_use]
    pub fn next_release(&self) -> Option<Nanos> {
        self.inflight.front().map(|f| f.record.tout)
    }

    /// Return the queue to its just-built state: no inflight packets, an
    /// idle port, and zeroed statistics. [`crate::Network::run`] calls this
    /// at the start of every run so a reused network behaves identically to
    /// a fresh one.
    pub fn reset(&mut self) {
        self.inflight.clear();
        self.last_departure = Nanos::ZERO;
        self.stats = QueueStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_packet::PacketBuilder;

    /// 1000-byte packets at 8 Gbit/s: exactly 1000 ns of transmission each.
    fn queue() -> OutputQueue {
        OutputQueue::new(1, 8e9, 4)
    }

    /// Collect-into-Vec shims over the sink API (test convenience).
    fn release_at(q: &mut OutputQueue, now: Nanos) -> Vec<QueueRecord> {
        let mut out = Vec::new();
        q.release(now, |r| out.push(r));
        out
    }

    fn flush_all(q: &mut OutputQueue) -> Vec<QueueRecord> {
        release_at(q, Nanos::INFINITY)
    }

    fn pkt(uniq: u64) -> Packet {
        // payload 946 → wire length 1000 bytes.
        PacketBuilder::tcp().payload_len(946).uniq(uniq).build()
    }

    #[test]
    fn empty_queue_has_immediate_service() {
        let mut q = queue();
        assert!(q.offer(pkt(1), Nanos(0), 0).is_none());
        let recs = flush_all(&mut q);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].tin, Nanos(0));
        assert_eq!(recs[0].tout, Nanos(1000));
        assert_eq!(recs[0].qsize, 0);
        assert_eq!(recs[0].qout, 0);
    }

    #[test]
    fn back_to_back_packets_queue_up() {
        let mut q = queue();
        q.offer(pkt(1), Nanos(0), 0);
        q.offer(pkt(2), Nanos(100), 0);
        q.offer(pkt(3), Nanos(200), 0);
        let recs = flush_all(&mut q);
        assert_eq!(recs[0].tout, Nanos(1000));
        assert_eq!(recs[1].tout, Nanos(2000)); // waits for pkt 1
        assert_eq!(recs[2].tout, Nanos(3000));
        assert_eq!(recs[0].qsize, 0);
        assert_eq!(recs[1].qsize, 1);
        assert_eq!(recs[2].qsize, 2);
        // Departure occupancies: pkt1 leaves 2 behind, pkt3 leaves none.
        assert_eq!(recs[0].qout, 2);
        assert_eq!(recs[1].qout, 1);
        assert_eq!(recs[2].qout, 0);
    }

    #[test]
    fn queueing_delay_accumulates() {
        let mut q = queue();
        for i in 0..4u64 {
            q.offer(pkt(i), Nanos(0), 0);
        }
        let recs = flush_all(&mut q);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.delay(), Nanos(1000 * (i as u64 + 1)));
        }
    }

    #[test]
    fn overflow_drops_with_infinite_tout() {
        let mut q = queue();
        for i in 0..4u64 {
            assert!(q.offer(pkt(i), Nanos(0), 0).is_none());
        }
        let drop = q.offer(pkt(99), Nanos(0), 0).expect("queue full");
        assert!(drop.is_drop());
        assert_eq!(drop.qsize, 4);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 4);
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut q = queue();
        q.offer(pkt(1), Nanos(0), 0);
        // Long idle gap: queue fully drains.
        q.offer(pkt(2), Nanos(10_000), 0);
        let recs = flush_all(&mut q);
        assert_eq!(recs[1].qsize, 0);
        assert_eq!(recs[1].tout, Nanos(11_000));
    }

    #[test]
    fn release_respects_time() {
        let mut q = queue();
        q.offer(pkt(1), Nanos(0), 0);
        q.offer(pkt(2), Nanos(0), 0);
        assert!(release_at(&mut q, Nanos(999)).is_empty());
        let first = release_at(&mut q, Nanos(1000));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].packet.uniq, 1);
        let second = release_at(&mut q, Nanos(5000));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].packet.uniq, 2);
    }

    #[test]
    fn occupancy_reflects_departures() {
        let mut q = queue();
        q.offer(pkt(1), Nanos(0), 0);
        q.offer(pkt(2), Nanos(0), 0);
        assert_eq!(q.occupancy(Nanos(500)), 2);
        assert_eq!(q.occupancy(Nanos(1500)), 1);
        assert_eq!(q.occupancy(Nanos(2500)), 0);
    }

    #[test]
    fn max_qsize_tracked() {
        let mut q = queue();
        for i in 0..4u64 {
            q.offer(pkt(i), Nanos(0), 0);
        }
        assert_eq!(q.stats().max_qsize, 3);
    }

    #[test]
    fn path_is_extended() {
        let mut q = queue();
        q.offer(pkt(1), Nanos(0), 7);
        let recs = flush_all(&mut q);
        assert_eq!(recs[0].path, QueueRecord::extend_path(7, 1));
    }

    /// The truncate-and-bump ceiling is `f64::ceil` exactly, at every wire
    /// length and at whole and fractional rates.
    #[test]
    fn tx_time_equals_the_libm_ceiling() {
        for rate_bps in [1e9, 10e9, 40e9, 100e9, 2.5e9 / 3.0] {
            let q = OutputQueue::new(0, rate_bps, 8);
            for wire_len in 0..=u16::MAX {
                let x = f64::from(wire_len) * 8.0 / q.rate_bits_per_ns;
                assert_eq!(
                    q.tx_time(wire_len),
                    Nanos(x.ceil() as u64),
                    "{wire_len} B at {rate_bps} bit/s"
                );
            }
        }
    }

    #[test]
    fn tx_time_scales_with_length() {
        let q = OutputQueue::new(0, 10e9, 8); // 10 Gbit/s
        assert_eq!(q.tx_time(1250), Nanos(1000)); // 10_000 bits / 10 bits-per-ns
        assert_eq!(q.tx_time(125), Nanos(100));
    }
}
