//! Synthetic CAIDA-like trace generation.
//!
//! This is the substitution for the paper's CAIDA April-2016 capture (157 M
//! packets, ~3.8 M 5-tuples over 5 minutes of a 10 Gbit/s link): a stream of
//! parsed packets whose *key-reference locality* — heavy-tailed flow sizes,
//! Poisson flow arrivals, interleaved flow lifetimes — matches the regime
//! that drives the paper's cache results. See `ARCHITECTURE.md` for the workload rationale.
//!
//! The generator is a lazy event merge: a binary heap holds the next packet
//! of every live flow; new flows arrive by a Poisson process until the
//! configured duration; packets after the duration cut are discarded exactly
//! like a capture that stops at five minutes.

use crate::dist::{BoundedPareto, Exponential, PacketSizeMix, Zipf};
use crate::tcp::{TcpDynamics, TcpFlowSeq};
use perfq_packet::{Nanos, Packet, PacketBuilder, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// How packets are spaced within a flow.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// All flows share one mean inter-packet gap (exponential jitter).
    FixedMeanGap(f64),
    /// Each flow picks a lifetime uniformly in `[min_ns, max_ns]` and paces
    /// its packets to fill it: `gap = lifetime / size`. This reproduces the
    /// WAN regime the paper's CAIDA trace exhibits — elephants are fast,
    /// mice are sparse, and *every* flow spans seconds, so the instantaneous
    /// working set far exceeds the on-chip cache and drives the Fig. 5/6
    /// eviction behaviour.
    LifetimePaced {
        /// Shortest flow lifetime (ns).
        min_ns: u64,
        /// Longest flow lifetime (ns).
        max_ns: u64,
    },
}

/// Configuration of the synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// RNG seed (every run with the same config is bit-identical).
    pub seed: u64,
    /// Capture duration; no packets are emitted past it.
    pub duration: Nanos,
    /// Poisson flow-arrival rate (flows per second).
    pub flows_per_sec: f64,
    /// Flow-size distribution in packets.
    pub flow_size: BoundedPareto,
    /// Intra-flow packet pacing.
    pub pacing: Pacing,
    /// Packet (payload) size mix.
    pub pkt_sizes: PacketSizeMix,
    /// Fraction of flows that are TCP (the rest are UDP).
    pub tcp_fraction: f64,
    /// Sequence-anomaly rates for TCP flows.
    pub tcp_dynamics: TcpDynamics,
    /// Size of the client (source) address pool.
    pub clients: usize,
    /// Size of the server (destination) address pool.
    pub servers: usize,
    /// Zipf exponent of server popularity (0 = uniform).
    pub server_zipf: f64,
}

impl TraceConfig {
    /// A small trace for unit tests: ~2 s, a few thousand flows.
    #[must_use]
    pub fn test_small(seed: u64) -> Self {
        TraceConfig {
            seed,
            duration: Nanos::from_secs(2),
            flows_per_sec: 2_000.0,
            flow_size: BoundedPareto::new(0.8, 1, 10_000),
            pacing: Pacing::FixedMeanGap(5e6),
            pkt_sizes: PacketSizeMix::internet(),
            tcp_fraction: 0.9,
            tcp_dynamics: TcpDynamics::typical(),
            clients: 2_000,
            servers: 500,
            server_zipf: 0.9,
        }
    }

    /// The benchmark workload: a scaled-down CAIDA-like mix. At seed 42 it
    /// yields 8 785 032 packets of 383 604 flows over 60 s (≈ 22.9 packets
    /// per flow, elephants dominating bytes) — the paper's 3.8 M-flow,
    /// 157 M-packet trace (≈ 41 per flow) shrunk ~10× in flows and ~18× in
    /// packets.
    #[must_use]
    pub fn caida_like(seed: u64) -> Self {
        TraceConfig {
            seed,
            duration: Nanos::from_secs(60),
            flows_per_sec: 6_400.0,
            flow_size: BoundedPareto::new(0.8, 1, 200_000),
            pacing: Pacing::LifetimePaced {
                min_ns: 2_000_000_000,
                max_ns: 120_000_000_000,
            },
            pkt_sizes: PacketSizeMix::internet(),
            tcp_fraction: 0.85,
            tcp_dynamics: TcpDynamics::typical(),
            clients: 200_000,
            servers: 40_000,
            server_zipf: 0.9,
        }
    }

    /// Scale packet volume by scaling the capture duration alone: the
    /// arrival rate and the per-flow size and pacing stay, so about
    /// `factor` times as many flows arrive, and a shorter capture cuts
    /// more of each long flow away.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        self.duration = Nanos((self.duration.as_nanos() as f64 * factor) as u64);
        self
    }
}

/// Well-known service ports used for destination ports.
const SERVICE_PORTS: [u16; 8] = [80, 443, 53, 22, 8080, 3306, 5432, 25];

#[derive(Debug)]
struct LiveFlow {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    is_tcp: bool,
    remaining: u64,
    /// Mean inter-packet gap for this flow, in nanoseconds.
    mean_gap_ns: f64,
    tcp: TcpFlowSeq,
    /// Per-flow deterministic RNG (isolates flows from heap pop order).
    rng: StdRng,
}

/// Heap event: next packet of a live flow at a given time.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    flow_idx: usize,
}

/// The synthetic packet stream. Iterate to receive [`Packet`]s in
/// non-decreasing arrival order.
pub struct SyntheticTrace {
    cfg: TraceConfig,
    rng: StdRng,
    heap: BinaryHeap<Reverse<Event>>,
    flows: Vec<LiveFlow>,
    free_slots: Vec<usize>,
    next_arrival: u64,
    arrivals_done: bool,
    arrival_gap: Exponential,
    server_pick: Zipf,
    uniq: u64,
}

impl SyntheticTrace {
    /// Create a generator from a configuration.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let arrival_gap = Exponential::new(1e9 / cfg.flows_per_sec.max(1e-9));
        let server_pick = Zipf::new(cfg.servers.max(1), cfg.server_zipf);
        SyntheticTrace {
            cfg,
            rng,
            heap: BinaryHeap::new(),
            flows: Vec::new(),
            free_slots: Vec::new(),
            next_arrival: 0,
            arrivals_done: false,
            arrival_gap,
            server_pick,
            uniq: 0,
        }
    }

    fn client_ip(&mut self) -> Ipv4Addr {
        let idx = self.rng.gen_range(0..self.cfg.clients.max(1)) as u32;
        // 10.0.0.0/8 pool, spread via multiplicative hash.
        Ipv4Addr::from(0x0a00_0000 | (idx.wrapping_mul(2_654_435_761) & 0x00ff_ffff))
    }

    fn server_ip(&mut self) -> Ipv4Addr {
        let rank = self.server_pick.sample(&mut self.rng) as u32;
        // 172.16.0.0/12 pool.
        Ipv4Addr::from(0xac10_0000 | (rank.wrapping_mul(2_246_822_519) & 0x000f_ffff))
    }

    fn spawn_flow(&mut self, now: u64) {
        let size = self.cfg.flow_size.sample(&mut self.rng);
        let is_tcp = self.rng.gen::<f64>() < self.cfg.tcp_fraction;
        let mean_gap_ns = match self.cfg.pacing {
            Pacing::FixedMeanGap(g) => g.max(1.0),
            Pacing::LifetimePaced { min_ns, max_ns } => {
                let lifetime = self.rng.gen_range(min_ns..=max_ns.max(min_ns + 1)) as f64;
                (lifetime / size as f64).max(1.0)
            }
        };
        let flow = LiveFlow {
            src: self.client_ip(),
            dst: self.server_ip(),
            src_port: self.rng.gen_range(32_768..=65_535),
            dst_port: SERVICE_PORTS[self.rng.gen_range(0..SERVICE_PORTS.len())],
            is_tcp,
            remaining: size,
            mean_gap_ns,
            tcp: TcpFlowSeq::new(self.rng.gen()),
            rng: StdRng::seed_from_u64(self.rng.gen()),
        };
        let idx = match self.free_slots.pop() {
            Some(i) => {
                self.flows[i] = flow;
                i
            }
            None => {
                self.flows.push(flow);
                self.flows.len() - 1
            }
        };
        self.heap.push(Reverse(Event {
            time: now,
            flow_idx: idx,
        }));
    }

    fn schedule_arrivals_up_to(&mut self, t: u64) {
        while !self.arrivals_done && self.next_arrival <= t {
            let at = self.next_arrival;
            if at >= self.cfg.duration.as_nanos() {
                self.arrivals_done = true;
                break;
            }
            self.spawn_flow(at);
            self.next_arrival = at + self.arrival_gap.sample(&mut self.rng).max(1.0) as u64;
        }
    }

    fn emit(&mut self, flow_idx: usize, now: u64) -> Packet {
        let payload = self.cfg.pkt_sizes.sample(&mut self.rng);
        self.uniq += 1;
        let uniq = self.uniq;
        let flow = &mut self.flows[flow_idx];
        let builder = if flow.is_tcp {
            let (seq, paylen) =
                flow.tcp
                    .next_segment(payload, &self.cfg.tcp_dynamics, &mut flow.rng);
            PacketBuilder::tcp()
                .seq(seq)
                .flags(TcpFlags::ACK)
                .payload_len(paylen)
        } else {
            PacketBuilder::udp().payload_len(payload)
        };
        builder
            .src(flow.src, flow.src_port)
            .dst(flow.dst, flow.dst_port)
            .uniq(uniq)
            .arrival(Nanos(now))
            .build()
    }
}

impl Iterator for SyntheticTrace {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        loop {
            // Make sure every event up to the heap head has had the chance to
            // spawn competing flows.
            let head = self.heap.peek().map(|Reverse(e)| (e.time, e.flow_idx));
            match head {
                None => {
                    if self.arrivals_done {
                        return None;
                    }
                    self.schedule_arrivals_up_to(self.next_arrival);
                    // If duration elapsed without spawning, we are done.
                    if self.heap.is_empty() && self.arrivals_done {
                        return None;
                    }
                }
                Some((t, flow_idx)) => {
                    if !self.arrivals_done && self.next_arrival <= t {
                        self.schedule_arrivals_up_to(t);
                        continue;
                    }
                    if t >= self.cfg.duration.as_nanos() {
                        // Hard capture cut: drop the flow's remaining packets.
                        self.heap.pop();
                        self.free_slots.push(flow_idx);
                        continue;
                    }
                    let pkt = self.emit(flow_idx, t);
                    let flow = &mut self.flows[flow_idx];
                    flow.remaining = flow.remaining.saturating_sub(1);
                    if flow.remaining > 0 {
                        let dt = Exponential::new(flow.mean_gap_ns)
                            .sample(&mut self.rng)
                            .max(1.0) as u64;
                        // A live flow has exactly one pending event, so the
                        // `(time, flow_idx)` keys are unique and pop order
                        // does not depend on the heap's layout: reschedule
                        // the top in place (one sift-down) instead of a pop
                        // and a push.
                        self.heap.peek_mut().expect("peeked nonempty").0.time = t + dt;
                    } else {
                        self.heap.pop();
                        self.free_slots.push(flow_idx);
                    }
                    return Some(pkt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn packets_arrive_in_order_within_duration() {
        let trace = SyntheticTrace::new(TraceConfig::test_small(1));
        let mut last = Nanos::ZERO;
        let mut n = 0u64;
        for p in trace {
            assert!(p.arrival >= last, "out of order at packet {n}");
            assert!(p.arrival < Nanos::from_secs(2));
            last = p.arrival;
            n += 1;
        }
        assert!(n > 10_000, "only {n} packets generated");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = SyntheticTrace::new(TraceConfig::test_small(7))
            .take(5_000)
            .collect();
        let b: Vec<_> = SyntheticTrace::new(TraceConfig::test_small(7))
            .take(5_000)
            .collect();
        assert_eq!(a, b);
    }

    /// An order-sensitive digest of what a generator change could reorder:
    /// five-tuple bits, arrival, wire length and uniq of every packet.
    fn stream_digest(packets: impl Iterator<Item = Packet>) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut n = 0;
        for p in packets {
            let key = p.five_tuple().to_bits();
            for v in [
                key as u64,
                (key >> 64) as u64,
                p.arrival.as_nanos(),
                u64::from(p.wire_len),
                p.uniq,
            ] {
                h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            }
            n += 1;
        }
        (n, h)
    }

    /// The generated stream itself is pinned, not only same-run
    /// determinism: a generator change that reorders events or RNG draws
    /// moves these digests.
    #[test]
    fn generated_stream_is_pinned() {
        let small = SyntheticTrace::new(TraceConfig::test_small(7)).take(50_000);
        assert_eq!(stream_digest(small), (38_971, 0xb9717694dea7d1b2));
        let caida = SyntheticTrace::new(TraceConfig::caida_like(42)).take(200_000);
        assert_eq!(stream_digest(caida), (200_000, 0x0883d73b348068bf));
    }

    #[test]
    fn seeds_differ() {
        let a: Vec<_> = SyntheticTrace::new(TraceConfig::test_small(1))
            .take(100)
            .collect();
        let b: Vec<_> = SyntheticTrace::new(TraceConfig::test_small(2))
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uniq_ids_are_unique_and_sequential() {
        let ids: Vec<u64> = SyntheticTrace::new(TraceConfig::test_small(3))
            .take(1000)
            .map(|p| p.uniq)
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, i as u64 + 1);
        }
    }

    #[test]
    fn flow_structure_is_heavy_tailed() {
        let mut flows: std::collections::HashMap<_, u64> = std::collections::HashMap::new();
        for p in SyntheticTrace::new(TraceConfig::test_small(4)) {
            *flows.entry(p.five_tuple()).or_insert(0) += 1;
        }
        let n_flows = flows.len() as f64;
        let total: u64 = flows.values().sum();
        let mut sizes: Vec<u64> = flows.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let top1: u64 = sizes.iter().take((n_flows / 100.0).ceil() as usize).sum();
        assert!(
            top1 as f64 / total as f64 > 0.15,
            "top-1% flows carry {:.1}%",
            100.0 * top1 as f64 / total as f64
        );
        // Median flow is small.
        let median = sizes[sizes.len() / 2];
        assert!(median <= 5, "median flow size = {median}");
    }

    #[test]
    fn tcp_and_udp_mix_matches_fraction() {
        let mut tcp = 0u64;
        let mut total = 0u64;
        let mut tcp_flows = HashSet::new();
        let mut all_flows = HashSet::new();
        for p in SyntheticTrace::new(TraceConfig::test_small(5)) {
            total += 1;
            if p.headers.is_tcp() {
                tcp += 1;
                tcp_flows.insert(p.five_tuple());
            }
            all_flows.insert(p.five_tuple());
        }
        assert!(total > 0);
        let flow_frac = tcp_flows.len() as f64 / all_flows.len() as f64;
        assert!(
            (flow_frac - 0.9).abs() < 0.03,
            "tcp flow fraction = {flow_frac}"
        );
        assert!(tcp > 0);
    }

    #[test]
    fn caida_like_calibration() {
        // The benchmark preset reads ≈ 22.9 packets per flow at full rate
        // (8 785 032 packets / 383 604 flows at seed 42), against the
        // paper's ≈ 41 (157M pkts / 3.8M flows); the band below holds both.
        // Flow lifetimes span seconds, so the full 60 s window is needed;
        // thin the arrival rate to keep the test fast while preserving
        // per-flow structure.
        let cfg = TraceConfig {
            flows_per_sec: 250.0,
            ..TraceConfig::caida_like(11)
        };
        // Lifetime pacing: flows span seconds, not milliseconds — the
        // property that creates cache reuse-distance pressure.
        assert!(matches!(cfg.pacing, Pacing::LifetimePaced { .. }));
        let mut flows = HashSet::new();
        let mut pkts = 0u64;
        for p in SyntheticTrace::new(cfg) {
            flows.insert(p.five_tuple());
            pkts += 1;
        }
        let per_flow = pkts as f64 / flows.len() as f64;
        assert!(
            per_flow > 8.0 && per_flow < 90.0,
            "packets per flow = {per_flow} (paper: ≈41, full rate: ≈22.9)"
        );
    }

    #[test]
    fn ips_come_from_disjoint_pools() {
        for p in SyntheticTrace::new(TraceConfig::test_small(6)).take(2000) {
            assert_eq!(p.headers.ipv4.src.octets()[0], 10, "client pool is 10/8");
            assert_eq!(
                p.headers.ipv4.dst.octets()[0],
                172,
                "server pool is 172.16/12"
            );
        }
    }

    #[test]
    fn scaled_changes_duration_only() {
        let base = TraceConfig::test_small(1);
        let double = TraceConfig::test_small(1).scaled(2.0);
        assert_eq!(double.duration.as_nanos(), base.duration.as_nanos() * 2);
        assert_eq!(double.flows_per_sec, base.flows_per_sec);
        assert!(matches!(double.pacing, Pacing::FixedMeanGap(_)));
    }
}
