//! A single switch: a set of output queues behind a forwarding decision.
//!
//! The model captures exactly what the paper's schema observes — per-queue
//! arrival/departure times, occupancy and drops. Parsing and match-action
//! processing happen at line rate and contribute fixed latency, which the
//! queue timestamps absorb; the variable (and diagnostically interesting)
//! component is queueing, which [`OutputQueue`] models exactly.

use crate::queue::{OutputQueue, QueueStats};
use crate::record::QueueRecord;
use perfq_packet::{Nanos, Packet};

/// Maximum ports per switch (fixes the qid numbering scheme:
/// `qid = switch_id · MAX_PORTS + port`).
pub const MAX_PORTS: usize = 64;

/// Configuration of one switch.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Number of output ports (each with one queue).
    pub ports: usize,
    /// Port line rate in bits/second.
    pub port_rate_bps: f64,
    /// Queue capacity in packets.
    pub queue_capacity: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 16,
            port_rate_bps: 10e9,
            queue_capacity: 128,
        }
    }
}

/// Result of offering a packet to a switch.
#[derive(Debug, Clone, PartialEq)]
pub enum Forwarded {
    /// Accepted; departs the switch at `tout`.
    Enqueued {
        /// Departure time from the output queue.
        tout: Nanos,
        /// Path identifier after this queue.
        path: u64,
    },
    /// Dropped at the output queue; the drop record is produced immediately.
    Dropped(QueueRecord),
}

/// A switch with per-port output queues.
#[derive(Debug, Clone)]
pub struct Switch {
    queues: Vec<OutputQueue>,
    /// Lower bound on the earliest unreleased departure across all queues
    /// (`Nanos::INFINITY` when idle): [`Switch::release`] returns in one
    /// compare when no record can be due yet, instead of scanning every
    /// port's queue on every event.
    next_release: Nanos,
    /// Bit `p` set iff port `p`'s queue holds unreleased packets: a release
    /// walks only these ports (`MAX_PORTS` = 64 fits one word).
    busy: u64,
}

impl Switch {
    /// Build a switch. `id` determines its queues' global ids.
    #[must_use]
    pub fn new(id: u32, cfg: &SwitchConfig) -> Self {
        assert!(
            cfg.ports > 0 && cfg.ports <= MAX_PORTS,
            "1..={MAX_PORTS} ports"
        );
        let base = id * MAX_PORTS as u32;
        let port0 = OutputQueue::new(base, cfg.port_rate_bps, cfg.queue_capacity);
        Switch {
            queues: (0..cfg.ports)
                .map(|p| port0.twin(base + p as u32))
                .collect(),
            next_release: Nanos::INFINITY,
            busy: 0,
        }
    }

    /// The global qid of a port's queue.
    #[must_use]
    pub fn qid(&self, port: usize) -> u32 {
        self.queues[port].qid()
    }

    /// Offer a packet to an output port at `now`; the packet is copied only
    /// into its queue record.
    pub fn offer(&mut self, packet: &Packet, port: usize, now: Nanos, path: u64) -> Forwarded {
        let queue = &mut self.queues[port];
        match queue.offer(packet, now, path) {
            Some(drop) => Forwarded::Dropped(drop),
            None => {
                let tout = queue.horizon();
                // The accepted packet can only lower the earliest pending
                // departure (it *is* the queue's front when the queue was
                // idle), so the cached bound stays a lower bound.
                self.next_release = self.next_release.min(tout);
                self.busy |= 1 << port;
                Forwarded::Enqueued {
                    tout,
                    path: QueueRecord::extend_path(path, queue.qid()),
                }
            }
        }
    }

    /// Release departure records up to `now` from all queues, straight into
    /// `sink` (no intermediate collection), in ascending port order. One
    /// compare when nothing is due; otherwise only the busy ports are
    /// visited.
    pub fn release(&mut self, now: Nanos, sink: &mut impl FnMut(QueueRecord)) {
        if now < self.next_release {
            return;
        }
        let mut next = Nanos::INFINITY;
        let mut ports = self.busy;
        while ports != 0 {
            let port = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let q = &mut self.queues[port];
            q.release(now, &mut *sink);
            match q.next_release() {
                Some(t) => next = next.min(t),
                None => self.busy &= !(1 << port),
            }
        }
        self.next_release = next;
    }

    /// Release everything (end of run).
    pub fn flush(&mut self, sink: &mut impl FnMut(QueueRecord)) {
        for q in &mut self.queues {
            q.flush(&mut *sink);
        }
        self.next_release = Nanos::INFINITY;
        self.busy = 0;
    }

    /// Aggregate queue statistics.
    #[must_use]
    pub fn stats(&self) -> Vec<(u32, QueueStats)> {
        self.queues.iter().map(|q| (q.qid(), q.stats())).collect()
    }

    /// Reset every queue to its just-built state (see
    /// [`crate::queue::OutputQueue::reset`]).
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            q.reset();
        }
        self.next_release = Nanos::INFINITY;
        self.busy = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_packet::PacketBuilder;

    fn pkt(uniq: u64) -> Packet {
        PacketBuilder::tcp().payload_len(946).uniq(uniq).build()
    }

    #[test]
    fn qids_are_globally_unique() {
        let cfg = SwitchConfig::default();
        let s0 = Switch::new(0, &cfg);
        let s1 = Switch::new(1, &cfg);
        assert_eq!(s0.qid(0), 0);
        assert_eq!(s0.qid(15), 15);
        assert_eq!(s1.qid(0), 64);
        assert_eq!(s1.qid(3), 67);
    }

    #[test]
    fn forwarding_reports_departure_time() {
        let mut s = Switch::new(
            0,
            &SwitchConfig {
                ports: 2,
                port_rate_bps: 8e9,
                queue_capacity: 4,
            },
        );
        match s.offer(&pkt(1), 0, Nanos(0), 0) {
            Forwarded::Enqueued { tout, path } => {
                assert_eq!(tout, Nanos(1000));
                assert_ne!(path, 0);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn drops_surface_immediately() {
        let mut s = Switch::new(
            0,
            &SwitchConfig {
                ports: 1,
                port_rate_bps: 8e9,
                queue_capacity: 2,
            },
        );
        s.offer(&pkt(1), 0, Nanos(0), 0);
        s.offer(&pkt(2), 0, Nanos(0), 0);
        match s.offer(&pkt(3), 0, Nanos(0), 0) {
            Forwarded::Dropped(r) => {
                assert!(r.is_drop());
                assert_eq!(r.packet.uniq, 3);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn release_and_flush_produce_all_records() {
        let mut s = Switch::new(0, &SwitchConfig::default());
        s.offer(&pkt(1), 0, Nanos(0), 0);
        s.offer(&pkt(2), 1, Nanos(0), 0);
        let mut records = Vec::new();
        s.release(Nanos(10_000_000), &mut |r| records.push(r));
        s.flush(&mut |r| records.push(r));
        assert_eq!(records.len(), 2);
        // Different ports → different qids.
        assert_ne!(records[0].qid, records[1].qid);
    }

    #[test]
    fn stats_roll_up_per_queue() {
        let mut s = Switch::new(
            0,
            &SwitchConfig {
                ports: 2,
                port_rate_bps: 8e9,
                queue_capacity: 1,
            },
        );
        s.offer(&pkt(1), 0, Nanos(0), 0);
        s.offer(&pkt(2), 0, Nanos(0), 0); // dropped
        let stats = s.stats();
        assert_eq!(stats[0].1.enqueued, 1);
        assert_eq!(stats[0].1.dropped, 1);
        assert_eq!(stats[1].1.enqueued, 0);
    }
}
