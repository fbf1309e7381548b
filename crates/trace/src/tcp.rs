//! TCP sequence-number dynamics.
//!
//! The paper's Fig. 2 queries `outofseq` and `nonmt` count sequence-number
//! anomalies. Real anomalies come from loss, retransmission and reordering in
//! the network; since we have no production TCP endpoints, this module
//! generates the *sequence-number patterns* those events produce, with
//! configurable rates — preserving exactly the signal the queries consume
//! (see `ARCHITECTURE.md`, workload substitutions).

use rand::Rng;
use std::collections::VecDeque;

/// Rates of sequence anomalies injected into generated TCP flows.
#[derive(Debug, Clone, Copy)]
pub struct TcpDynamics {
    /// Probability that a segment is retransmitted (emitted again later with
    /// the same sequence number — a non-monotonic event).
    pub p_retransmit: f64,
    /// Probability that a segment is reordered with its successor (the
    /// higher sequence number is emitted first — both an out-of-sequence and
    /// a non-monotonic event).
    pub p_reorder: f64,
}

impl TcpDynamics {
    /// Mild WAN-like anomaly rates.
    #[must_use]
    pub fn typical() -> Self {
        TcpDynamics {
            p_retransmit: 0.01,
            p_reorder: 0.005,
        }
    }

    /// Heavy anomaly rates (congested path / incast victim).
    #[must_use]
    pub fn lossy() -> Self {
        TcpDynamics {
            p_retransmit: 0.05,
            p_reorder: 0.02,
        }
    }
}

/// Segments a retransmission waits behind before re-emission (a loss is
/// detected by duplicate ACKs / timeout, several segments later).
const RETRANSMIT_DELAY: u8 = 3;

/// Per-flow sequence-number generator.
#[derive(Debug, Clone)]
pub struct TcpFlowSeq {
    next_seq: u32,
    /// Segments to emit before any fresh one (reordering swaps).
    immediate: VecDeque<(u32, u16)>,
    /// Retransmissions waiting out their delay, in segments.
    delayed: Vec<(u32, u16, u8)>,
}

impl TcpFlowSeq {
    /// Start a flow at an initial sequence number.
    #[must_use]
    pub fn new(isn: u32) -> Self {
        TcpFlowSeq {
            next_seq: isn,
            immediate: VecDeque::new(),
            delayed: Vec::new(),
        }
    }

    /// Produce the next segment `(seq, payload_len)` for a segment of
    /// `payload` bytes, injecting anomalies per `dynamics`.
    pub fn next_segment<R: Rng + ?Sized>(
        &mut self,
        payload: u16,
        dynamics: &TcpDynamics,
        rng: &mut R,
    ) -> (u32, u16) {
        // Age pending retransmissions; a ready one preempts fresh data.
        for d in &mut self.delayed {
            d.2 = d.2.saturating_sub(1);
        }
        if let Some(pos) = self.delayed.iter().position(|d| d.2 == 0) {
            let (seq, len, _) = self.delayed.remove(pos);
            return (seq, len);
        }
        if let Some(seg) = self.immediate.pop_front() {
            return seg;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(u32::from(payload.max(1)));
        let roll: f64 = rng.gen();
        if roll < dynamics.p_retransmit {
            // The segment is emitted now and again a few segments later —
            // by then the sequence number is below the running maximum, so
            // the copy registers as non-monotonic (a retransmission).
            self.delayed.push((seq, payload, RETRANSMIT_DELAY));
            (seq, payload)
        } else if roll < dynamics.p_retransmit + dynamics.p_reorder {
            // Emit the successor first, then this segment.
            let seq2 = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(u32::from(payload.max(1)));
            self.immediate.push_back((seq, payload));
            (seq2, payload)
        } else {
            (seq, payload)
        }
    }
}

/// Reference implementations of the two Fig. 2 anomaly counters, used by
/// tests to validate generated patterns (independent of the query engine).
pub mod counters {
    /// Count "out of sequence" events: packets whose seq is not consecutive
    /// with the previous packet (`lastseq + payload != seq`, matching the
    /// prose: the fold tracks `lastseq = tcpseq + payload_len`).
    #[must_use]
    pub fn out_of_sequence(segments: &[(u32, u16)]) -> u64 {
        let mut count = 0;
        let mut lastseq: Option<u32> = None;
        for (seq, payload) in segments {
            if let Some(expect) = lastseq {
                if expect != *seq {
                    count += 1;
                }
            }
            lastseq = Some(seq.wrapping_add(u32::from((*payload).max(1))));
        }
        count
    }

    /// Count non-monotonic events: packets with `seq < max(seq so far)`.
    #[must_use]
    pub fn non_monotonic(segments: &[(u32, u16)]) -> u64 {
        let mut count = 0;
        let mut maxseq = 0u32;
        for (seq, _) in segments {
            if maxseq > *seq {
                count += 1;
            }
            maxseq = maxseq.max(*seq);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// No anomalies: strictly consecutive sequence numbers.
    const CLEAN: TcpDynamics = TcpDynamics {
        p_retransmit: 0.0,
        p_reorder: 0.0,
    };

    fn generate(dynamics: TcpDynamics, n: usize, seed: u64) -> Vec<(u32, u16)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flow = TcpFlowSeq::new(1000);
        (0..n)
            .map(|_| flow.next_segment(100, &dynamics, &mut rng))
            .collect()
    }

    #[test]
    fn clean_flow_is_strictly_consecutive() {
        let segs = generate(CLEAN, 100, 1);
        assert_eq!(counters::out_of_sequence(&segs), 0);
        assert_eq!(counters::non_monotonic(&segs), 0);
        for (i, (seq, _)) in segs.iter().enumerate() {
            assert_eq!(*seq, 1000 + 100 * i as u32);
        }
    }

    #[test]
    fn retransmissions_create_non_monotonic_events() {
        let d = TcpDynamics {
            p_retransmit: 0.2,
            p_reorder: 0.0,
        };
        let segs = generate(d, 2000, 2);
        let nm = counters::non_monotonic(&segs);
        assert!(nm > 100, "non-monotonic = {nm}");
        // Every retransmission also breaks consecutiveness somewhere.
        assert!(counters::out_of_sequence(&segs) >= nm);
    }

    #[test]
    fn reordering_creates_both_anomalies() {
        let d = TcpDynamics {
            p_retransmit: 0.0,
            p_reorder: 0.2,
        };
        let segs = generate(d, 2000, 3);
        assert!(counters::non_monotonic(&segs) > 100);
        assert!(counters::out_of_sequence(&segs) > 100);
    }

    #[test]
    fn anomaly_rate_tracks_configuration() {
        let d = TcpDynamics {
            p_retransmit: 0.05,
            p_reorder: 0.0,
        };
        let n = 20_000;
        let segs = generate(d, n, 4);
        let nm = counters::non_monotonic(&segs) as f64;
        // Each retransmission event yields exactly one non-monotonic packet;
        // events occur on ~5% of the fresh segments.
        let rate = nm / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn sequence_wraps_safely() {
        let mut flow = TcpFlowSeq::new(u32::MAX - 50);
        let mut rng = StdRng::seed_from_u64(5);
        let d = CLEAN;
        for _ in 0..10 {
            let _ = flow.next_segment(100, &d, &mut rng);
        }
        // No panic: wrapping arithmetic.
    }

    #[test]
    fn zero_payload_still_advances() {
        let mut flow = TcpFlowSeq::new(0);
        let mut rng = StdRng::seed_from_u64(6);
        let d = CLEAN;
        let (a, _) = flow.next_segment(0, &d, &mut rng);
        let (b, _) = flow.next_segment(0, &d, &mut rng);
        assert!(b > a, "pure-ACK streams must not stall the generator");
    }
}
