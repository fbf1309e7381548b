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
//! Execution is event-driven: an event is a packet's arrival at a switch;
//! accepted packets schedule their next-hop arrival at
//! `tout + link_latency` (departure times are known analytically from the
//! queue model). Records stream to the caller's sink roughly in observation
//! order; per-queue order is exact.

use crate::record::QueueRecord;
use crate::spsc;
use crate::switch::{Forwarded, Switch, SwitchConfig};
use perfq_kvstore::hash::hash_key;
use perfq_packet::{Nanos, Packet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// Pooled storage of the event heap: kept across runs so steady-state
    /// replay never grows a fresh heap (zero allocations per packet).
    heap_scratch: Vec<Reverse<Ev>>,
    /// Reusable per-event route buffer (topologies with unbounded hop
    /// counts — `Linear(n)` — rule out a fixed-size array).
    route_scratch: Vec<Hop>,
    /// Reusable batch buffer for [`Network::run_batched`].
    batch_scratch: Vec<QueueRecord>,
}

/// One hop of a packet's route: (switch index, output port).
type Hop = (usize, usize);

#[derive(Debug, Clone)]
struct Ev {
    time: Nanos,
    seq: u64,
    hop: u8,
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
                cfg.switch.ports >= spines + 1 && cfg.switch.ports >= leaves,
                "switch needs ≥ {} ports for this fabric",
                spines.max(leaves)
            );
        }
        Network {
            cfg,
            switches: (0..n_switches)
                .map(|i| Switch::new(i as u32, &cfg.switch))
                .collect(),
            heap_scratch: Vec::new(),
            route_scratch: Vec::new(),
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
        (hash_key(self.cfg.routing_seed, &u32::from(ip)) % modulus as u64) as usize
    }

    /// The route a packet takes, as (switch, out-port) hops.
    #[must_use]
    pub fn route(&self, packet: &Packet) -> Vec<Hop> {
        let mut hops = Vec::new();
        self.route_into(packet, &mut hops);
        hops
    }

    /// Compute a packet's route into a reusable buffer (cleared first) — the
    /// event loop's allocation-free form of [`Network::route`].
    pub fn route_into(&self, packet: &Packet, hops: &mut Vec<Hop>) {
        hops.clear();
        let dst = packet.headers.ipv4.dst;
        let ports = self.cfg.switch.ports;
        match self.cfg.topology {
            Topology::Single => hops.push((0, self.hash_ip(dst, ports))),
            Topology::Linear(n) => {
                let port = self.hash_ip(dst, ports);
                hops.extend((0..n.max(1)).map(|i| (i, port)));
            }
            Topology::LeafSpine { leaves, spines } => {
                let src_leaf = self.hash_ip(packet.headers.ipv4.src, leaves);
                let dst_leaf = self.hash_ip(dst, leaves);
                // Host-facing ports sit above the spine-facing ports.
                let host_port = spines + self.hash_ip(dst, ports - spines);
                if src_leaf == dst_leaf {
                    hops.push((src_leaf, host_port));
                    return;
                }
                let spine = (hash_key(
                    self.cfg.routing_seed ^ 0xecae,
                    &packet.five_tuple().to_bits(),
                ) % spines as u64) as usize;
                hops.push((src_leaf, spine)); // leaf → spine
                hops.push((leaves + spine, dst_leaf % ports)); // spine → dst leaf
                hops.push((dst_leaf, host_port)); // leaf → host
            }
        }
    }

    /// Return every switch (queues, horizons, statistics) to its just-built
    /// state. [`Network::run`] calls this first, so each run — including
    /// reuse of one `Network` across several runs — starts from an idle
    /// network with zeroed drop counters.
    pub fn reset(&mut self) {
        for sw in &mut self.switches {
            sw.reset();
        }
    }

    /// Run a packet stream through the network, streaming every queue record
    /// to `sink`. Input must be sorted by arrival time (trace generators
    /// guarantee this).
    ///
    /// Each run starts from an idle network: queues, port horizons and
    /// per-queue statistics (including drop counters) are [`Network::reset`]
    /// first, so running the same packets through one `Network` twice
    /// produces identical records and identical [`Network::total_drops`].
    pub fn run(&mut self, packets: impl Iterator<Item = Packet>, mut sink: impl FnMut(QueueRecord)) {
        self.reset();
        // The heap holds only *internal* (next-hop) events; arrivals merge
        // in straight from the sorted input iterator, so a single-switch
        // topology never touches the heap at all. Its storage is pooled on
        // the Network (as is the route buffer), so steady-state replay
        // allocates nothing per packet.
        let mut heap: BinaryHeap<Reverse<Ev>> =
            BinaryHeap::from(std::mem::take(&mut self.heap_scratch));
        debug_assert!(heap.is_empty());
        let mut route = std::mem::take(&mut self.route_scratch);
        let mut seq = 0u64;
        let mut input = packets.peekable();

        loop {
            // Two-way merge, internal events first on time ties — identical
            // order to the old push-everything-through-the-heap loop, where
            // an arrival tied with an earlier-pushed (lower-seq) internal
            // event popped second.
            let take_input = match (input.peek(), heap.peek()) {
                (Some(p), Some(Reverse(e))) => p.arrival < e.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let ev = if take_input {
                let p = input.next().expect("peeked");
                seq += 1;
                Ev {
                    time: p.arrival,
                    seq,
                    hop: 0,
                    path: 0,
                    packet: p,
                }
            } else {
                let Some(Reverse(ev)) = heap.pop() else {
                    unreachable!("heap side chosen only when non-empty");
                };
                ev
            };
            self.route_into(&ev.packet, &mut route);
            let (sw_idx, port) = route[usize::from(ev.hop)];
            let sw = &mut self.switches[sw_idx];
            sw.release(ev.time, &mut sink);
            match sw.offer(ev.packet, port, ev.time, ev.path) {
                Forwarded::Dropped(record) => sink(record),
                Forwarded::Enqueued { tout, path } => {
                    if usize::from(ev.hop) + 1 < route.len() {
                        seq += 1;
                        heap.push(Reverse(Ev {
                            time: tout + self.cfg.link_latency,
                            seq,
                            hop: ev.hop + 1,
                            path,
                            packet: ev.packet,
                        }));
                    }
                }
            }
        }
        for sw in &mut self.switches {
            sw.flush(&mut sink);
        }
        self.heap_scratch = heap.into_vec();
        self.route_scratch = route;
    }

    /// Convenience: run and collect all records (small traces/tests).
    pub fn run_collect(&mut self, packets: impl Iterator<Item = Packet>) -> Vec<QueueRecord> {
        let mut out = Vec::new();
        self.run(packets, |r| out.push(r));
        out
    }

    /// Run a packet stream, delivering queue records to `sink` in batches of
    /// up to `batch_size` (the final batch may be shorter). Record order is
    /// identical to [`Network::run`]; batching only amortizes the consumer's
    /// per-record entry cost (see `Runtime::process_batch` in `perfq-core`).
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
    /// record's group key, so one key never lands on two shards). This is
    /// [`Network::run_multi_sharded`] with one consumer: staging,
    /// backpressure and stream close are described there.
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
        self.run_multi_sharded(packets, |_, r| shard_of(r), vec![senders], batch)
            .pop()
            .expect("one consumer in, one routed-count vector out")
    }

    /// Run a packet stream once, fanning every queue record out to several
    /// sharded consumers — the producer half of the **multi-query** sharded
    /// dataplane, where K installed programs each own N worker shards but
    /// the network event loop runs a single time.
    ///
    /// `shard_of(k, record)` maps a record to consumer `k`'s shard (each
    /// program routes by its own group key); `senders[k]` holds consumer
    /// `k`'s per-shard queues. Records are staged in per-shard buffers of
    /// `batch` and pushed with one lock per batch; when a shard's queue is
    /// full the producer blocks (backpressure), mirroring a hardware
    /// collection path with bounded per-core rings. All senders are dropped
    /// on return, closing every stream.
    ///
    /// Returns per-consumer, per-shard routed counts.
    ///
    /// # Panics
    ///
    /// Panics if `shard_of` returns an index out of range, or a consumer
    /// disappears mid-run.
    pub fn run_multi_sharded(
        &mut self,
        packets: impl Iterator<Item = Packet>,
        mut shard_of: impl FnMut(usize, &QueueRecord) -> usize,
        senders: Vec<Vec<spsc::Sender<QueueRecord>>>,
        batch: usize,
    ) -> Vec<Vec<u64>> {
        assert!(batch > 0, "batch size must be positive");
        assert!(
            senders.iter().all(|s| !s.is_empty()) && !senders.is_empty(),
            "every consumer needs at least one shard"
        );
        let mut buffers: Vec<Vec<Vec<QueueRecord>>> = senders
            .iter()
            .map(|s| (0..s.len()).map(|_| Vec::with_capacity(batch)).collect())
            .collect();
        let mut routed: Vec<Vec<u64>> = senders.iter().map(|s| vec![0u64; s.len()]).collect();
        let last = senders.len() - 1;
        self.run(packets, |r| {
            // The final consumer takes the record by move — K consumers
            // cost K-1 clones per record, and the common K=1 case none.
            for (k, txs) in senders[..last].iter().enumerate() {
                let s = shard_of(k, &r);
                assert!(
                    s < txs.len(),
                    "shard_of returned {s} for consumer {k} with {} shards",
                    txs.len()
                );
                routed[k][s] += 1;
                buffers[k][s].push(r.clone());
                if buffers[k][s].len() == batch {
                    txs[s]
                        .send_all(&mut buffers[k][s])
                        .expect("shard worker disconnected");
                }
            }
            let s = shard_of(last, &r);
            assert!(
                s < senders[last].len(),
                "shard_of returned {s} for consumer {last} with {} shards",
                senders[last].len()
            );
            routed[last][s] += 1;
            buffers[last][s].push(r);
            if buffers[last][s].len() == batch {
                senders[last][s]
                    .send_all(&mut buffers[last][s])
                    .expect("shard worker disconnected");
            }
        });
        for (bufs, txs) in buffers.iter_mut().zip(&senders) {
            for (buf, tx) in bufs.iter_mut().zip(txs) {
                if !buf.is_empty() {
                    tx.send_all(buf).expect("shard worker disconnected");
                }
            }
        }
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_packet::PacketBuilder;
    use std::collections::HashMap;

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
        let records =
            net.run_collect(std::iter::once(pkt(1, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(172, 16, 0, 1), Nanos(0))));
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
                let route = net.route(&p);
                if route.len() == 3 {
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
            match net.route(&p).len() {
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
            let route = net.route(&p);
            if route.len() == 3 {
                spine_used.insert(route[1].0);
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
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| crate::spsc::channel(64)).unzip();
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
        for (i, (n, recs)) in routed.iter().zip(&per_shard).enumerate() {
            assert_eq!(*n as usize, recs.len(), "shard {i} count");
            assert!(
                recs.iter().all(|r| r.packet.uniq % shards as u64 == i as u64),
                "shard {i} got foreign records"
            );
        }
        // Same multiset of records as the unsharded run (order differs
        // across shards; within a shard it is a subsequence of the stream).
        let mut flat: Vec<QueueRecord> = per_shard.into_iter().flatten().collect();
        let mut expect = want;
        let key = |r: &QueueRecord| (r.packet.uniq, r.qid, r.tin);
        flat.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(flat, expect);
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
