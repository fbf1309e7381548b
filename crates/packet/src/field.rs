//! Named header fields.
//!
//! The query language's schema exposes packet headers by name (`srcip`,
//! `tcpseq`, `pkt_len`, …). [`HeaderField`] is the bridge: each variant knows
//! how to extract itself from a [`Packet`] as a uniform `u64` word — exactly
//! how a match-action pipeline sees header fields (as bit-vectors on the
//! packet header vector).
//!
//! Queue metadata fields (`qid`, `tin`, `tout`, `qsize`, `pkt_path`) are *not*
//! header fields; they are attached by switches and live in the record types
//! of the `perfq-switch` crate.

use crate::headers::{L4Header, Packet};

/// A packet-header field addressable by the query language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderField {
    /// Source IPv4 address (as a 32-bit integer).
    SrcIp,
    /// Destination IPv4 address (as a 32-bit integer).
    DstIp,
    /// Transport source port (0 if none).
    SrcPort,
    /// Transport destination port (0 if none).
    DstPort,
    /// IP protocol number.
    Proto,
    /// IP TTL.
    Ttl,
    /// IP identification field.
    IpId,
    /// DSCP+ECN byte.
    Tos,
    /// Total wire length of the packet in bytes (`pkt_len`).
    PktLen,
    /// The unique packet identifier (`pkt_uniq`).
    PktUniq,
    /// TCP sequence number (0 for non-TCP).
    TcpSeq,
    /// TCP acknowledgment number (0 for non-TCP).
    TcpAck,
    /// TCP flags byte (0 for non-TCP).
    TcpFlagBits,
    /// TCP receive window (0 for non-TCP).
    TcpWindow,
    /// TCP payload length in bytes (0 for non-TCP).
    PayloadLen,
    /// UDP datagram length (0 for non-UDP).
    UdpLen,
}

impl HeaderField {
    /// All fields, in schema declaration order.
    pub const ALL: [HeaderField; 16] = [
        HeaderField::SrcIp,
        HeaderField::DstIp,
        HeaderField::SrcPort,
        HeaderField::DstPort,
        HeaderField::Proto,
        HeaderField::Ttl,
        HeaderField::IpId,
        HeaderField::Tos,
        HeaderField::PktLen,
        HeaderField::PktUniq,
        HeaderField::TcpSeq,
        HeaderField::TcpAck,
        HeaderField::TcpFlagBits,
        HeaderField::TcpWindow,
        HeaderField::PayloadLen,
        HeaderField::UdpLen,
    ];

    /// The schema name of this field.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            HeaderField::SrcIp => "srcip",
            HeaderField::DstIp => "dstip",
            HeaderField::SrcPort => "srcport",
            HeaderField::DstPort => "dstport",
            HeaderField::Proto => "proto",
            HeaderField::Ttl => "ttl",
            HeaderField::IpId => "ipid",
            HeaderField::Tos => "tos",
            HeaderField::PktLen => "pkt_len",
            HeaderField::PktUniq => "pkt_uniq",
            HeaderField::TcpSeq => "tcpseq",
            HeaderField::TcpAck => "tcpack",
            HeaderField::TcpFlagBits => "tcpflags",
            HeaderField::TcpWindow => "tcpwin",
            HeaderField::PayloadLen => "payload_len",
            HeaderField::UdpLen => "udplen",
        }
    }

    /// The field's width in bits on the wire (used for key-size accounting
    /// in the area model).
    #[must_use]
    pub fn bits(&self) -> u32 {
        match self {
            HeaderField::SrcIp | HeaderField::DstIp | HeaderField::TcpSeq | HeaderField::TcpAck => {
                32
            }
            HeaderField::SrcPort
            | HeaderField::DstPort
            | HeaderField::IpId
            | HeaderField::PktLen
            | HeaderField::TcpWindow
            | HeaderField::PayloadLen
            | HeaderField::UdpLen => 16,
            HeaderField::Proto | HeaderField::Ttl | HeaderField::Tos | HeaderField::TcpFlagBits => {
                8
            }
            HeaderField::PktUniq => 64,
        }
    }

    /// Extract the field from a packet as a `u64` word.
    ///
    /// Fields of absent headers extract as 0 — the convention of match-action
    /// hardware, where invalid header fields read as zero-filled vectors.
    #[must_use]
    pub fn extract(&self, pkt: &Packet) -> u64 {
        let h = &pkt.headers;
        match self {
            HeaderField::SrcIp => u64::from(u32::from(h.ipv4.src)),
            HeaderField::DstIp => u64::from(u32::from(h.ipv4.dst)),
            HeaderField::SrcPort => u64::from(h.l4.src_port().unwrap_or(0)),
            HeaderField::DstPort => u64::from(h.l4.dst_port().unwrap_or(0)),
            HeaderField::Proto => u64::from(h.ipv4.proto.to_u8()),
            HeaderField::Ttl => u64::from(h.ipv4.ttl),
            HeaderField::IpId => u64::from(h.ipv4.ident),
            HeaderField::Tos => u64::from(h.ipv4.dscp_ecn),
            HeaderField::PktLen => u64::from(pkt.wire_len),
            HeaderField::PktUniq => pkt.uniq,
            HeaderField::TcpSeq => match h.l4 {
                L4Header::Tcp(t) => u64::from(t.seq),
                _ => 0,
            },
            HeaderField::TcpAck => match h.l4 {
                L4Header::Tcp(t) => u64::from(t.ack),
                _ => 0,
            },
            HeaderField::TcpFlagBits => match h.l4 {
                L4Header::Tcp(t) => u64::from(t.flags.0),
                _ => 0,
            },
            HeaderField::TcpWindow => match h.l4 {
                L4Header::Tcp(t) => u64::from(t.window),
                _ => 0,
            },
            HeaderField::PayloadLen => u64::from(h.tcp_payload_len()),
            HeaderField::UdpLen => match h.l4 {
                L4Header::Udp(u) => u64::from(u.length),
                _ => 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, f) in HeaderField::ALL.iter().enumerate() {
            let first = HeaderField::ALL.iter().position(|g| g.name() == f.name());
            assert_eq!(first, Some(i), "{} is named once", f.name());
        }
    }

    #[test]
    fn extraction_matches_builder_inputs() {
        let p = PacketBuilder::tcp()
            .src(Ipv4Addr::new(10, 0, 0, 1), 1111)
            .dst(Ipv4Addr::new(10, 0, 0, 2), 2222)
            .seq(777)
            .payload_len(100)
            .uniq(42)
            .build();
        assert_eq!(
            HeaderField::SrcIp.extract(&p),
            u64::from(u32::from(Ipv4Addr::new(10, 0, 0, 1)))
        );
        assert_eq!(HeaderField::SrcPort.extract(&p), 1111);
        assert_eq!(HeaderField::DstPort.extract(&p), 2222);
        assert_eq!(HeaderField::TcpSeq.extract(&p), 777);
        assert_eq!(HeaderField::PayloadLen.extract(&p), 100);
        assert_eq!(HeaderField::PktUniq.extract(&p), 42);
        assert_eq!(HeaderField::Proto.extract(&p), 6);
    }

    #[test]
    fn absent_headers_extract_zero() {
        let p = PacketBuilder::udp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 53)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 99)
            .payload_len(10)
            .build();
        assert_eq!(HeaderField::TcpSeq.extract(&p), 0);
        assert_eq!(HeaderField::TcpFlagBits.extract(&p), 0);
        assert_ne!(HeaderField::UdpLen.extract(&p), 0);
    }

    #[test]
    fn five_tuple_width_is_104_bits() {
        let width: u32 = [
            HeaderField::SrcIp,
            HeaderField::DstIp,
            HeaderField::SrcPort,
            HeaderField::DstPort,
            HeaderField::Proto,
        ]
        .iter()
        .map(|f| f.bits())
        .sum();
        assert_eq!(width, 104, "paper §4: 5-tuple key is 104 bits");
    }
}
