//! Incast scenario generation.
//!
//! The paper motivates switch-side measurement with questions endpoints
//! cannot answer, e.g. "which applications contribute to TCP incast at a
//! particular queue" (§5, discussing TPP/INT). This module synthesizes the
//! classic incast pattern: many servers answer one client's scatter-gather
//! request near-simultaneously, swamping the client's top-of-rack queue —
//! the workload behind the `incast_diagnosis` example.

use crate::dist::PacketSizeMix;
use perfq_packet::{Nanos, Packet, PacketBuilder, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Incast scenario parameters.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of responding servers (the incast fan-in).
    pub servers: usize,
    /// The victim client receiving all responses.
    pub client: Ipv4Addr,
    /// Packets each server sends per round.
    pub burst_pkts: u64,
    /// Number of synchronized request rounds.
    pub rounds: u64,
    /// Gap between rounds.
    pub round_gap: Nanos,
    /// Jitter of each server's response start within a round.
    pub jitter: Nanos,
    /// Gap between a server's packets within its burst.
    pub intra_burst_gap: Nanos,
    /// Response packet payload sizes.
    pub pkt_sizes: PacketSizeMix,
}

impl Default for IncastConfig {
    fn default() -> Self {
        IncastConfig {
            seed: 42,
            servers: 40,
            client: Ipv4Addr::new(10, 0, 0, 1),
            burst_pkts: 32,
            rounds: 5,
            round_gap: Nanos::from_millis(10),
            jitter: Nanos::from_micros(20),
            intra_burst_gap: Nanos::from_micros(1),
            pkt_sizes: PacketSizeMix::datacenter(),
        }
    }
}

/// Generate the incast packet stream, sorted by arrival time.
///
/// Each server uses a distinct 5-tuple (server:svc_port → client:req_port),
/// so per-flow queries attribute queue build-up to contributing connections.
#[must_use]
pub fn generate(cfg: &IncastConfig) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut packets = Vec::new();
    let mut uniq = 0u64;
    let mut seqs = vec![0u32; cfg.servers];
    for round in 0..cfg.rounds {
        let round_start = Nanos(cfg.round_gap.as_nanos() * round);
        for (s, seq) in seqs.iter_mut().enumerate() {
            let server_ip = Ipv4Addr::from(0xac10_0100 + s as u32);
            let start = round_start + Nanos(rng.gen_range(0..=cfg.jitter.as_nanos().max(1)));
            for i in 0..cfg.burst_pkts {
                let payload = cfg.pkt_sizes.sample(&mut rng);
                uniq += 1;
                let t = start + Nanos(cfg.intra_burst_gap.as_nanos() * i);
                packets.push(
                    PacketBuilder::tcp()
                        .src(server_ip, 5001)
                        .dst(cfg.client, 40_000 + round as u16)
                        .seq(*seq)
                        .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                        .payload_len(payload)
                        .uniq(uniq)
                        .arrival(t)
                        .build(),
                );
                *seq = seq.wrapping_add(u32::from(payload.max(1)));
            }
        }
    }
    packets.sort_by_key(|p| (p.arrival, p.uniq));
    packets
}

/// Mix an incast stream into a background stream, preserving time order.
#[must_use]
pub fn merge_with_background(
    mut incast: Vec<Packet>,
    background: impl Iterator<Item = Packet>,
) -> Vec<Packet> {
    // Re-number uniq ids so the merged trace stays collision-free.
    let mut merged: Vec<Packet> = background.collect();
    let offset = merged.iter().map(|p| p.uniq).max().unwrap_or(0);
    for p in &mut incast {
        p.uniq += offset;
    }
    merged.extend(incast);
    merged.sort_by_key(|p| (p.arrival, p.uniq));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticTrace, TraceConfig};
    use std::collections::HashSet;

    #[test]
    fn generates_expected_volume() {
        let cfg = IncastConfig::default();
        let pkts = generate(&cfg);
        assert_eq!(
            pkts.len() as u64,
            cfg.servers as u64 * cfg.burst_pkts * cfg.rounds
        );
    }

    #[test]
    fn all_traffic_targets_the_client() {
        let cfg = IncastConfig::default();
        for p in generate(&cfg) {
            assert_eq!(p.headers.ipv4.dst, cfg.client);
        }
    }

    #[test]
    fn each_server_is_a_distinct_flow() {
        let cfg = IncastConfig {
            rounds: 1,
            ..Default::default()
        };
        let flows: HashSet<_> = generate(&cfg).iter().map(|p| p.five_tuple()).collect();
        assert_eq!(flows.len(), cfg.servers);
    }

    #[test]
    fn bursts_are_synchronized_within_jitter() {
        let cfg = IncastConfig {
            rounds: 1,
            ..Default::default()
        };
        let pkts = generate(&cfg);
        // All first packets of each flow fall within the jitter window.
        let mut first_seen = std::collections::HashMap::new();
        for p in &pkts {
            first_seen.entry(p.five_tuple()).or_insert(p.arrival);
        }
        for t in first_seen.values() {
            assert!(*t <= cfg.jitter, "first packet at {t}");
        }
    }

    #[test]
    fn arrivals_sorted() {
        let pkts = generate(&IncastConfig::default());
        for w in pkts.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn merge_preserves_order_and_uniqueness() {
        let bg = SyntheticTrace::new(TraceConfig::test_small(3)).take(5_000);
        let merged = merge_with_background(generate(&IncastConfig::default()), bg);
        let mut ids = HashSet::new();
        for w in merged.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for p in &merged {
            assert!(ids.insert(p.uniq), "duplicate uniq {}", p.uniq);
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&IncastConfig::default());
        let b = generate(&IncastConfig::default());
        assert_eq!(a, b);
    }
}
