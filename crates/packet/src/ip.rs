//! The IPv4 header, as parsed.

use std::net::Ipv4Addr;

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// The IP protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP (1) — no transport header is modelled.
    Icmp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProto {
    /// Numeric wire value.
    #[must_use]
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }
}

/// An IPv4 header without options (a fixed 20 bytes), mirroring the paper's
/// line-rate parser assumption of fixed-format headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Total length of the IP datagram (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field (used by some generators as a flow-local counter).
    pub ident: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed as on the wire.
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire values the `proto` column reads (`HeaderField::Proto`).
    #[test]
    fn proto_codec_round_trips() {
        for (proto, v) in [
            (IpProto::Icmp, 1),
            (IpProto::Tcp, 6),
            (IpProto::Udp, 17),
            (IpProto::Other(0), 0),
            (IpProto::Other(47), 47),
            (IpProto::Other(255), 255),
        ] {
            assert_eq!(proto.to_u8(), v, "{proto:?}");
        }
    }
}
