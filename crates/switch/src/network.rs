//! Multi-switch networks.
//!
//! The paper's queries span "every network queue" — per-flow end-to-end
//! latency sums over multiple queues, and incast localization needs a fabric
//! where many sources converge on one egress. This module provides the three
//! topologies the examples and tests use:
//!
//! * **Single** — one switch; the evaluation's configuration;
//! * **Linear(n)** — a chain, for multi-hop latency accumulation;
//! * **LeafSpine** — a 2-tier Clos fabric with ECMP-style flow hashing, for
//!   the incast scenario.
//!
//! Execution is one loop driven by arrivals. The outer loop walks the
//! input; an accepted packet that has hops left schedules its next-hop
//! arrival at `tout + link_latency` on an event heap (departure times are
//! known analytically from the queue model). Before each arrival the loop
//! handles every heap event due at or before it — internal events go first
//! on time ties. One routine serves an event at any hop of any topology:
//! compute that one hop of the packet's route, release the switch's due
//! departures, offer the packet to the hop's queue. Records stream to the
//! caller's sink roughly in observation order; per-queue order is exact.
//! The stream as a whole is not sorted by observation time: a switch
//! releases due departures port by port, so across ports (and across hops)
//! it steps back in time.

use crate::record::QueueRecord;
use crate::spsc;
use crate::switch::{Forwarded, Switch, SwitchConfig};
use perfq_kvstore::hash::SeededHasher;
use perfq_packet::{Nanos, Packet};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// Network shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One switch; output port by destination hash.
    Single,
    /// A chain of `n` switches; every packet traverses all of them.
    Linear(usize),
    /// A 2-tier Clos: `leaves` leaf switches, `spines` spine switches.
    /// Hosts hash onto leaves by address; inter-leaf flows cross one spine
    /// picked by 5-tuple hash (ECMP).
    LeafSpine {
        /// Number of leaf switches.
        leaves: usize,
        /// Number of spine switches.
        spines: usize,
    },
}

/// Network configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Topology.
    pub topology: Topology,
    /// Per-switch configuration.
    pub switch: SwitchConfig,
    /// Propagation + processing latency between switches.
    pub link_latency: Nanos,
    /// Seed for the (deterministic) routing hashes.
    pub routing_seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            topology: Topology::Single,
            switch: SwitchConfig::default(),
            link_latency: Nanos::from_micros(1),
            routing_seed: 0x5157_17c4,
        }
    }
}

/// A simulated network.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    switches: Vec<Switch>,
    /// The address hash, seeded once: `hash_key(routing_seed, &u32)`.
    ip_hasher: SeededHasher,
    /// The ECMP spine hash over the 5-tuple, seeded once.
    ecmp_hasher: SeededHasher,
    /// Pending next-hop arrivals. Empty between runs; its storage is kept,
    /// so steady-state replay allocates nothing per packet.
    events: BinaryHeap<Reverse<Ev>>,
    /// Push counter: equal-time events pop in the order they were pushed.
    seq: u64,
    /// Reusable batch buffer for [`Network::run_batched`].
    batch_scratch: Vec<QueueRecord>,
}

/// One hop of a packet's route: (switch index, output port).
type Hop = (usize, usize);

/// A packet's arrival at hop `hop` (≥ 1) of its route.
#[derive(Debug, Clone)]
struct Ev {
    time: Nanos,
    seq: u64,
    hop: u32,
    path: u64,
    packet: Packet,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// `h % m`, as a mask when `m` is a power of two (the two agree there).
fn reduce(h: u64, m: usize) -> usize {
    let m = m as u64;
    (if m.is_power_of_two() {
        h & (m - 1)
    } else {
        h % m
    }) as usize
}

impl Network {
    /// Build a network.
    #[must_use]
    pub fn new(cfg: NetworkConfig) -> Self {
        let n_switches = match cfg.topology {
            Topology::Single => 1,
            Topology::Linear(n) => n.max(1),
            Topology::LeafSpine { leaves, spines } => {
                assert!(leaves > 0 && spines > 0, "need leaves and spines");
                leaves + spines
            }
        };
        // Leaf-spine needs enough ports: leaves face spines + hosts, spines
        // face leaves.
        if let Topology::LeafSpine { leaves, spines } = cfg.topology {
            assert!(
                cfg.switch.ports > spines && cfg.switch.ports >= leaves,
                "switch needs ≥ {} ports for this fabric",
                spines.max(leaves)
            );
        }
        Network {
            cfg,
            switches: (0..n_switches)
                .map(|i| Switch::new(i as u32, &cfg.switch))
                .collect(),
            ip_hasher: SeededHasher::new(cfg.routing_seed),
            ecmp_hasher: SeededHasher::new(cfg.routing_seed ^ 0xecae),
            events: BinaryHeap::new(),
            seq: 0,
            batch_scratch: Vec::new(),
        }
    }

    /// The switches (for stats inspection).
    #[must_use]
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// Total drops across all queues.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.switches
            .iter()
            .flat_map(|s| s.stats())
            .map(|(_, st)| st.dropped)
            .sum()
    }

    fn hash_ip(&self, ip: Ipv4Addr, modulus: usize) -> usize {
        let mut h = self.ip_hasher.clone();
        h.write_u32(u32::from(ip));
        reduce(h.finish(), modulus)
    }

    /// Hop `i` of a packet's route, as (switch, out-port), and whether it is
    /// the route's last. Computes only that hop's hashes and allocates
    /// nothing; `i` must lie on the route (hops before it were not last).
    fn hop(&self, packet: &Packet, i: usize) -> (Hop, bool) {
        let dst = packet.headers.ipv4.dst;
        let ports = self.cfg.switch.ports;
        match self.cfg.topology {
            Topology::Single => ((0, self.hash_ip(dst, ports)), true),
            Topology::Linear(n) => ((i, self.hash_ip(dst, ports)), i + 1 >= n),
            Topology::LeafSpine { leaves, spines } => {
                let dst_leaf = self.hash_ip(dst, leaves);
                // Host-facing ports sit above the spine-facing ports.
                let host_port = || spines + self.hash_ip(dst, ports - spines);
                let spine = || {
                    let mut h = self.ecmp_hasher.clone();
                    packet.five_tuple().to_bits().hash(&mut h);
                    reduce(h.finish(), spines)
                };
                match i {
                    0 => {
                        let src_leaf = self.hash_ip(packet.headers.ipv4.src, leaves);
                        if src_leaf == dst_leaf {
                            ((src_leaf, host_port()), true)
                        } else {
                            ((src_leaf, spine()), false) // leaf → spine
                        }
                    }
                    1 => ((leaves + spine(), dst_leaf % ports), false), // spine → dst leaf
                    _ => ((dst_leaf, host_port()), true),               // leaf → host
                }
            }
        }
    }

    /// Return every switch (queues, horizons, statistics) to its just-built
    /// state and drop any pending event. [`Network::run`] calls this first,
    /// so each run — including reuse of one `Network` across several runs —
    /// starts from an idle network with zeroed drop counters.
    pub fn reset(&mut self) {
        for sw in &mut self.switches {
            sw.reset();
        }
        self.events.clear();
        self.seq = 0;
    }

    /// Run a packet stream through the network, streaming every queue record
    /// to `sink`.
    ///
    /// The loop is driven by arrivals: before each input packet it handles
    /// every pending next-hop event whose time is at or before the packet's
    /// arrival (so on a time tie the internal event goes first, and
    /// equal-time internal events go in the order they were scheduled), then
    /// offers the packet to its first hop; the events left when the input
    /// ends are handled last. A single-switch network never schedules one.
    ///
    /// Input is expected in arrival order (trace generators guarantee it),
    /// but nothing checks it, and out-of-order input is well defined: a late
    /// arrival is served at its own timestamp against each queue as it
    /// stands — departures already released stay released, its departure
    /// starts no earlier than the queue's last one — and nothing panics.
    ///
    /// Each run starts from an idle network: queues, port horizons and
    /// per-queue statistics (including drop counters) are [`Network::reset`]
    /// first, so running the same packets through one `Network` twice
    /// produces identical records and identical [`Network::total_drops`].
    pub fn run(
        &mut self,
        packets: impl Iterator<Item = Packet>,
        mut sink: impl FnMut(QueueRecord),
    ) {
        self.reset();
        for packet in packets {
            self.drain_events(packet.arrival, &mut sink);
            self.step(&packet, 0, packet.arrival, 0, &mut sink);
        }
        self.drain_events(Nanos::INFINITY, &mut sink);
        for sw in &mut self.switches {
            sw.flush(&mut sink);
        }
    }

    /// Handle every pending event due at or before `until`, earliest first.
    fn drain_events(&mut self, until: Nanos, sink: &mut impl FnMut(QueueRecord)) {
        while let Some(Reverse(ev)) = (self.events.peek_mut())
            .filter(|top| top.0.time <= until)
            .map(PeekMut::pop)
        {
            self.step(&ev.packet, ev.hop, ev.time, ev.path, sink);
        }
    }

    /// `packet` reaches hop `hop` of its route at `now` with path id `path`:
    /// release that switch's due departures, offer the packet to the hop's
    /// queue, and schedule the next hop if it was accepted and has one.
    fn step(
        &mut self,
        packet: &Packet,
        hop: u32,
        now: Nanos,
        path: u64,
        sink: &mut impl FnMut(QueueRecord),
    ) {
        let ((sw_idx, port), last) = self.hop(packet, hop as usize);
        let sw = &mut self.switches[sw_idx];
        sw.release(now, sink);
        match sw.offer(packet, port, now, path) {
            Forwarded::Dropped(record) => sink(record),
            Forwarded::Enqueued { tout, path } => {
                if !last {
                    self.seq += 1;
                    self.events.push(Reverse(Ev {
                        time: tout + self.cfg.link_latency,
                        seq: self.seq,
                        hop: hop + 1,
                        path,
                        packet: *packet,
                    }));
                }
            }
        }
    }

    /// Convenience: run and collect all records (small traces/tests).
    pub fn run_collect(&mut self, packets: impl Iterator<Item = Packet>) -> Vec<QueueRecord> {
        let mut out = Vec::new();
        self.run(packets, |r| out.push(r));
        out
    }

    /// Run a packet stream, delivering queue records to `sink` in batches of
    /// up to `batch_size` (the final batch may be shorter). The same
    /// arrival-driven loop and tie rule as [`Network::run`], so record order
    /// is identical; batching only amortizes the consumer's per-record entry
    /// cost (see `Runtime::process_batch` in `perfq-core`).
    pub fn run_batched(
        &mut self,
        packets: impl Iterator<Item = Packet>,
        batch_size: usize,
        mut sink: impl FnMut(&[QueueRecord]),
    ) {
        assert!(batch_size > 0, "batch size must be positive");
        let mut buf = std::mem::take(&mut self.batch_scratch);
        buf.clear();
        buf.reserve(batch_size);
        self.run(packets, |r| {
            buf.push(r);
            if buf.len() == batch_size {
                sink(&buf);
                buf.clear();
            }
        });
        if !buf.is_empty() {
            sink(&buf);
        }
        buf.clear();
        self.batch_scratch = buf;
    }

    /// Run a packet stream, routing every queue record to one of `shards`
    /// consumers over fixed-capacity SPSC queues — the producer half of the
    /// sharded dataplane (`ShardedRuntime` in `perfq-core` owns the
    /// consumer half).
    ///
    /// `shard_of` maps a record to a shard index (a pure function of the
    /// record's group key, so one key never lands on two shards). Records
    /// move into per-shard buffers of `batch` and are pushed with one lock
    /// per batch, so each shard receives its records in stream order; when a
    /// shard's queue is full the producer blocks (backpressure), mirroring a
    /// hardware collection path with bounded per-core rings. All senders are
    /// dropped on return, closing every stream.
    ///
    /// Returns the number of records routed to each shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard_of` returns an index out of range, or if a consumer
    /// disappears mid-run (dropped [`spsc::Receiver`]).
    pub fn run_sharded(
        &mut self,
        packets: impl Iterator<Item = Packet>,
        mut shard_of: impl FnMut(&QueueRecord) -> usize,
        senders: Vec<spsc::Sender<QueueRecord>>,
        batch: usize,
    ) -> Vec<u64> {
        assert!(batch > 0, "batch size must be positive");
        assert!(!senders.is_empty(), "need at least one shard");
        let mut buffers: Vec<Vec<QueueRecord>> = (0..senders.len())
            .map(|_| Vec::with_capacity(batch))
            .collect();
        let mut routed = vec![0u64; senders.len()];
        self.run(packets, |r| {
            let s = shard_of(&r);
            assert!(
                s < senders.len(),
                "shard_of returned {s} with {} shards",
                senders.len()
            );
            routed[s] += 1;
            buffers[s].push(r);
            if buffers[s].len() == batch {
                senders[s]
                    .send_all(&mut buffers[s])
                    .expect("shard worker disconnected");
            }
        });
        for (buf, tx) in buffers.iter_mut().zip(&senders) {
            if !buf.is_empty() {
                tx.send_all(buf).expect("shard worker disconnected");
            }
        }
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::MAX_PORTS;
    use perfq_kvstore::hash::hash_key;
    use perfq_packet::PacketBuilder;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A packet's whole route, hop by hop.
    fn route(net: &Network, packet: &Packet) -> Vec<Hop> {
        let mut hops = Vec::new();
        loop {
            let (hop, last) = net.hop(packet, hops.len());
            hops.push(hop);
            if last {
                return hops;
            }
        }
    }

    fn pkt(uniq: u64, src: Ipv4Addr, dst: Ipv4Addr, at: Nanos) -> Packet {
        PacketBuilder::tcp()
            .src(src, 1000)
            .dst(dst, 80)
            .payload_len(946)
            .uniq(uniq)
            .arrival(at)
            .build()
    }

    #[test]
    fn single_switch_every_packet_observed_once() {
        let mut net = Network::new(NetworkConfig::default());
        let packets: Vec<Packet> = (0..100)
            .map(|i| {
                pkt(
                    i,
                    Ipv4Addr::new(10, 0, 0, (i % 20) as u8),
                    Ipv4Addr::new(172, 16, 0, (i % 5) as u8),
                    Nanos(i * 1000),
                )
            })
            .collect();
        let records = net.run_collect(packets.into_iter());
        assert_eq!(records.len(), 100);
        let mut uniqs: Vec<u64> = records.iter().map(|r| r.packet.uniq).collect();
        uniqs.sort_unstable();
        assert_eq!(uniqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn linear_chain_observes_each_packet_per_hop() {
        let mut net = Network::new(NetworkConfig {
            topology: Topology::Linear(3),
            ..Default::default()
        });
        let packets: Vec<Packet> = (0..50)
            .map(|i| {
                pkt(
                    i,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(172, 16, 0, (i % 7) as u8),
                    Nanos(i * 2000),
                )
            })
            .collect();
        let records = net.run_collect(packets.into_iter());
        assert_eq!(records.len(), 150);
        let mut per_pkt: HashMap<u64, Vec<&QueueRecord>> = HashMap::new();
        for r in &records {
            per_pkt.entry(r.packet.uniq).or_default().push(r);
        }
        for (uniq, recs) in per_pkt {
            assert_eq!(recs.len(), 3, "packet {uniq}");
            // Hops happen at increasing times with link latency in between.
            let mut sorted = recs.clone();
            sorted.sort_by_key(|r| r.tin);
            for w in sorted.windows(2) {
                assert!(w[1].tin >= w[0].tout + Nanos::from_micros(1));
            }
            // Path accumulates three queues.
            let deepest = sorted.last().expect("nonempty");
            assert!(deepest.path > 0x100);
        }
    }

    #[test]
    fn end_to_end_latency_sums_per_queue_delays() {
        let mut net = Network::new(NetworkConfig {
            topology: Topology::Linear(2),
            ..Default::default()
        });
        let records = net.run_collect(std::iter::once(pkt(
            1,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(172, 16, 0, 1),
            Nanos(0),
        )));
        let total: u64 = records.iter().map(|r| r.delay().as_nanos()).sum();
        // Two store-and-forward hops of a 1000 B packet at 10 Gbit/s: 800 ns each.
        assert_eq!(total, 1600);
    }

    #[test]
    fn leaf_spine_cross_leaf_takes_three_hops() {
        let cfg = NetworkConfig {
            topology: Topology::LeafSpine {
                leaves: 4,
                spines: 2,
            },
            ..Default::default()
        };
        let mut net = Network::new(cfg);
        // Find a src/dst pair on different leaves.
        let mut found = None;
        'outer: for a in 1..50u8 {
            for b in 1..50u8 {
                let p = pkt(
                    1,
                    Ipv4Addr::new(10, 0, 0, a),
                    Ipv4Addr::new(172, 16, 0, b),
                    Nanos(0),
                );
                if route(&net, &p).len() == 3 {
                    found = Some(p);
                    break 'outer;
                }
            }
        }
        let p = found.expect("some pair crosses leaves");
        let records = net.run_collect(std::iter::once(p));
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn leaf_spine_same_leaf_is_one_hop() {
        let cfg = NetworkConfig {
            topology: Topology::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            ..Default::default()
        };
        let net = Network::new(cfg);
        let mut one_hop = 0;
        let mut three_hop = 0;
        for a in 1..40u8 {
            let p = pkt(
                1,
                Ipv4Addr::new(10, 0, 0, a),
                Ipv4Addr::new(172, 16, 0, a.wrapping_mul(7)),
                Nanos(0),
            );
            match route(&net, &p).len() {
                1 => one_hop += 1,
                3 => three_hop += 1,
                other => panic!("unexpected route length {other}"),
            }
        }
        assert!(one_hop > 0, "some pairs share a leaf");
        assert!(three_hop > 0, "some pairs cross the spine");
    }

    #[test]
    fn ecmp_spreads_flows_across_spines() {
        let cfg = NetworkConfig {
            topology: Topology::LeafSpine {
                leaves: 2,
                spines: 4,
            },
            switch: SwitchConfig {
                ports: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let net = Network::new(cfg);
        let mut spine_used = std::collections::HashSet::new();
        for sp in 1..100u16 {
            let p = PacketBuilder::tcp()
                .src(Ipv4Addr::new(10, 0, 0, 1), 1000 + sp)
                .dst(Ipv4Addr::new(172, 16, 0, 200), 80)
                .uniq(u64::from(sp))
                .build();
            let hops = route(&net, &p);
            if hops.len() == 3 {
                spine_used.insert(hops[1].0);
            }
        }
        assert!(spine_used.len() >= 3, "flows hash across spines");
    }

    #[test]
    fn congestion_produces_drops_with_infinite_tout() {
        let mut net = Network::new(NetworkConfig {
            switch: SwitchConfig {
                ports: 1,
                port_rate_bps: 1e9, // slow port: 8 µs per 1000 B packet
                queue_capacity: 4,
            },
            ..Default::default()
        });
        // 100 packets arriving every 100 ns overwhelm the port.
        let packets: Vec<Packet> = (0..100)
            .map(|i| {
                pkt(
                    i,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(172, 16, 0, 1),
                    Nanos(i * 100),
                )
            })
            .collect();
        let records = net.run_collect(packets.into_iter());
        let drops = records.iter().filter(|r| r.is_drop()).count();
        assert!(drops > 50, "only {drops} drops");
        assert_eq!(net.total_drops() as usize, drops);
        assert_eq!(records.len(), 100);
    }

    #[test]
    fn network_reuse_across_runs_is_well_defined() {
        // Reusing one Network must behave exactly like a fresh one: queue
        // horizons, inflight state and drop counters all reset per run.
        let mut net = Network::new(NetworkConfig {
            switch: SwitchConfig {
                ports: 1,
                port_rate_bps: 1e9,
                queue_capacity: 4,
            },
            ..Default::default()
        });
        let packets: Vec<Packet> = (0..60)
            .map(|i| {
                pkt(
                    i,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(172, 16, 0, 1),
                    Nanos(i * 100),
                )
            })
            .collect();
        let first = net.run_collect(packets.clone().into_iter());
        let drops_first = net.total_drops();
        assert!(drops_first > 0, "workload must overload the port");
        // Second run through the SAME network: identical records, and the
        // drop counter reflects this run alone (not an accumulation).
        let second = net.run_collect(packets.clone().into_iter());
        assert_eq!(first, second, "reused network must replay identically");
        assert_eq!(net.total_drops(), drops_first);
        // And a batched run over the same network agrees too.
        let mut third = Vec::new();
        net.run_batched(packets.into_iter(), 7, |part| third.extend_from_slice(part));
        assert_eq!(first, third);
        assert_eq!(net.total_drops(), drops_first);
    }

    #[test]
    fn run_sharded_routes_every_record_once() {
        let packets: Vec<Packet> = (0..300)
            .map(|i| {
                pkt(
                    i,
                    Ipv4Addr::new(10, 0, 0, (i % 13) as u8),
                    Ipv4Addr::new(172, 16, 0, (i % 11) as u8),
                    Nanos(i * 500),
                )
            })
            .collect();
        let mut net = Network::new(NetworkConfig::default());
        let want = net.run_collect(packets.clone().into_iter());

        let shards = 3usize;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| crate::spsc::channel(64)).unzip();
        let consumers: Vec<_> = rxs
            .into_iter()
            .map(|rx| {
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while rx.recv_many(&mut got, 32) > 0 {}
                    got
                })
            })
            .collect();
        let routed = net.run_sharded(
            packets.into_iter(),
            |r| (r.packet.uniq % shards as u64) as usize,
            txs,
            16,
        );
        let per_shard: Vec<Vec<QueueRecord>> =
            consumers.into_iter().map(|c| c.join().unwrap()).collect();
        // Each shard receives exactly the unsharded stream filtered to it,
        // in stream order: sharded exactness rests on per-key order.
        for (i, (n, recs)) in routed.iter().zip(&per_shard).enumerate() {
            let expect: Vec<QueueRecord> = (want.iter())
                .filter(|r| r.packet.uniq % shards as u64 == i as u64)
                .cloned()
                .collect();
            assert_eq!(*n as usize, recs.len(), "shard {i} count");
            assert_eq!(*recs, expect, "shard {i} records or their order");
        }
    }

    /// An order-sensitive digest of every `QueueRecord` field, then of every
    /// queue's `QueueStats`.
    fn run_digest(net: &mut Network, packets: Vec<Packet>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        for r in net.run_collect(packets.into_iter()) {
            let p = &r.packet;
            let key = p.five_tuple().to_bits();
            for v in [
                key as u64,
                (key >> 64) as u64,
                p.uniq,
                p.arrival.as_nanos(),
                u64::from(p.wire_len),
                u64::from(r.qid),
                r.tin.as_nanos(),
                r.tout.as_nanos(),
                u64::from(r.qsize),
                u64::from(r.qout),
                r.path,
            ] {
                mix(v);
            }
        }
        for (qid, st) in net.switches().iter().flat_map(Switch::stats) {
            for v in [
                u64::from(qid),
                st.enqueued,
                st.dropped,
                u64::from(st.max_qsize),
            ] {
                mix(v);
            }
        }
        h
    }

    /// The queue model's output is pinned, not only same-run determinism:
    /// a change to release order, occupancy or drop accounting moves these
    /// digests.
    #[test]
    fn queue_model_is_pinned() {
        // A slow 4-port switch, overloaded on every port at once.
        let mut slow = Network::new(NetworkConfig {
            switch: SwitchConfig {
                ports: 4,
                port_rate_bps: 1e9,
                queue_capacity: 4,
            },
            ..Default::default()
        });
        let packets: Vec<Packet> = (0..400)
            .map(|i| {
                let src = Ipv4Addr::new(10, 0, 0, (i % 7) as u8);
                pkt(
                    i,
                    src,
                    Ipv4Addr::new(172, 16, 0, (i % 16) as u8),
                    Nanos(i * 700),
                )
            })
            .collect();
        let records = slow.run_collect(packets.clone().into_iter());
        let held = records.iter().filter(|r| !r.is_drop());
        let busiest = held
            .clone()
            .map(|a| {
                let at = held.clone().filter(|b| b.tin <= a.tin && a.tin < b.tout);
                at.map(|b| b.qid)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
            })
            .max();
        assert!(busiest >= Some(3), "ports busy at once: {busiest:?}");
        assert!(slow.total_drops() > 0);
        assert_eq!(run_digest(&mut slow, packets), 0x1e819c790cabbaeb);

        let mut fabric = Network::new(NetworkConfig {
            topology: Topology::LeafSpine {
                leaves: 4,
                spines: 2,
            },
            ..Default::default()
        });
        let packets: Vec<Packet> = (0..3000)
            .map(|i| {
                let src = Ipv4Addr::new(10, 0, (i % 7) as u8, (i % 29) as u8);
                pkt(
                    i,
                    src,
                    Ipv4Addr::new(172, 16, 0, (i % 23) as u8),
                    Nanos(i * 40),
                )
            })
            .collect();
        assert_eq!(run_digest(&mut fabric, packets), 0x5a3d9a2068758d6a);

        // A 3-switch chain on a 200 ns lattice: 1000 B take 800 ns a hop and
        // links 1 µs, so arrivals at the first switch tie with next-hop
        // events at the later ones, and the tie rule orders the stream.
        let mut chain = Network::new(NetworkConfig {
            topology: Topology::Linear(3),
            switch: SwitchConfig {
                ports: 4,
                port_rate_bps: 10e9,
                queue_capacity: 4,
            },
            ..Default::default()
        });
        let packets: Vec<Packet> = (0..2000)
            .map(|i| {
                let src = Ipv4Addr::new(10, 0, 0, (i % 7) as u8);
                let dst = Ipv4Addr::new(172, 16, 0, (i % 13) as u8);
                pkt(i, src, dst, Nanos(i * 200))
            })
            .collect();
        assert_eq!(run_digest(&mut chain, packets), 0x3c3251563adbd082);
        assert!(chain.total_drops() > 0);
    }

    /// Out-of-order input is served, not rejected: every arrival at its own
    /// timestamp against the queues as they stand. The digest pins that
    /// behaviour on a 2-switch chain whose arrivals step backwards.
    #[test]
    fn out_of_order_input_is_pinned() {
        let mut chain = Network::new(NetworkConfig {
            topology: Topology::Linear(2),
            switch: SwitchConfig {
                ports: 4,
                port_rate_bps: 1e9,
                queue_capacity: 4,
            },
            ..Default::default()
        });
        let packets: Vec<Packet> = (0..600)
            .map(|i| {
                let src = Ipv4Addr::new(10, 0, 0, (i % 7) as u8);
                let at = Nanos(i * 2000 + (i * 7919 % 13) * 3000);
                pkt(i, src, Ipv4Addr::new(172, 16, 0, (i % 11) as u8), at)
            })
            .collect();
        let backwards = packets.windows(2).filter(|w| w[1].arrival < w[0].arrival);
        assert!(backwards.count() > 80);
        assert_eq!(run_digest(&mut chain, packets), 0xb11932e0355aa415);
        assert!(chain.total_drops() > 0);
    }

    /// `hop`'s seeded-once hasher and its mask for power-of-two moduli
    /// reproduce `hash_key(routing_seed, &u32) % m` exactly.
    #[test]
    fn hop_hash_equals_hash_key_mod_m() {
        let seed = NetworkConfig::default().routing_seed;
        for ports in 1..=MAX_PORTS {
            let net = Network::new(NetworkConfig {
                switch: SwitchConfig {
                    ports,
                    ..Default::default()
                },
                ..Default::default()
            });
            for a in 0..3000u32 {
                let dst = Ipv4Addr::from(a.wrapping_mul(0x9e37_79b9));
                let p = pkt(0, Ipv4Addr::new(10, 0, 0, 1), dst, Nanos(0));
                let want = hash_key(seed, &u32::from(dst)) % ports as u64;
                assert_eq!(net.hop(&p, 0), ((0, want as usize), true), "m = {ports}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random, unsorted arrival times on slow 4-port switches, one to
        /// three in a chain: nothing panics, each packet is recorded at
        /// every hop up to and including the one that drops it, departures
        /// never precede arrivals, no queue holds more than its capacity,
        /// and the drop counters agree with the drop records.
        #[test]
        fn unsorted_input_keeps_the_queue_invariants(
            arrivals in prop::collection::vec((0u64..200_000, 0u8..16), 1..300),
            switches in 1usize..4,
        ) {
            let capacity = 4;
            let mut net = Network::new(NetworkConfig {
                topology: Topology::Linear(switches),
                switch: SwitchConfig {
                    ports: 4,
                    port_rate_bps: 1e9,
                    queue_capacity: capacity,
                },
                ..Default::default()
            });
            let packets = arrivals.iter().enumerate().map(|(i, &(at, dst))| {
                let src = Ipv4Addr::new(10, 0, 0, (i % 7) as u8);
                pkt(i as u64, src, Ipv4Addr::new(172, 16, 0, dst), Nanos(at))
            });
            let records = net.run_collect(packets);
            let mut per_packet = vec![(0usize, 0usize); arrivals.len()];
            for r in &records {
                let seen = &mut per_packet[r.packet.uniq as usize];
                if r.is_drop() {
                    seen.1 += 1;
                } else {
                    prop_assert!(r.tout >= r.tin, "{r:?}");
                    seen.0 += 1;
                }
                prop_assert!(r.qsize as usize <= capacity, "{r:?}");
            }
            for (uniq, &(held, dropped)) in per_packet.iter().enumerate() {
                prop_assert!(
                    (held == switches && dropped == 0) || (held < switches && dropped == 1),
                    "packet {uniq}: {held} held, {dropped} dropped"
                );
            }
            let drops = records.iter().filter(|r| r.is_drop()).count();
            prop_assert_eq!(net.total_drops() as usize, drops);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let packets: Vec<Packet> = (0..200)
            .map(|i| {
                pkt(
                    i,
                    Ipv4Addr::new(10, 0, 0, (i % 13) as u8),
                    Ipv4Addr::new(172, 16, 0, (i % 11) as u8),
                    Nanos(i * 500),
                )
            })
            .collect();
        let cfg = NetworkConfig {
            topology: Topology::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            ..Default::default()
        };
        let a = Network::new(cfg).run_collect(packets.clone().into_iter());
        let b = Network::new(cfg).run_collect(packets.into_iter());
        assert_eq!(a, b);
    }
}
