//! The in-memory packet view carried through the simulator.

use crate::eth::EthernetHeader;
use crate::flow::FiveTuple;
use crate::ip::Ipv4Header;
use crate::tcp::TcpHeader;
use crate::time::Nanos;
use crate::udp::UdpHeader;

/// The transport-layer header variant of a parsed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4Header {
    /// A TCP segment.
    Tcp(TcpHeader),
    /// A UDP datagram.
    Udp(UdpHeader),
    /// A transport protocol without a modelled header; the raw IP protocol
    /// number is preserved in the IPv4 header.
    Opaque,
}

impl L4Header {
    /// Source port, if the transport protocol has one.
    #[must_use]
    pub fn src_port(&self) -> Option<u16> {
        match self {
            L4Header::Tcp(t) => Some(t.src_port),
            L4Header::Udp(u) => Some(u.src_port),
            L4Header::Opaque => None,
        }
    }

    /// Destination port, if the transport protocol has one.
    #[must_use]
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            L4Header::Tcp(t) => Some(t.dst_port),
            L4Header::Udp(u) => Some(u.dst_port),
            L4Header::Opaque => None,
        }
    }
}

/// All parsed headers of one packet — the schema's `pkt_hdr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeaders {
    /// Link layer.
    pub eth: EthernetHeader,
    /// Network layer.
    pub ipv4: Ipv4Header,
    /// Transport layer.
    pub l4: L4Header,
}

impl PacketHeaders {
    /// The transport five-tuple (ports are zero for port-less protocols, the
    /// convention hardware flow tables use for non-TCP/UDP traffic).
    #[must_use]
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.ipv4.src,
            dst_ip: self.ipv4.dst,
            src_port: self.l4.src_port().unwrap_or(0),
            dst_port: self.l4.dst_port().unwrap_or(0),
            proto: self.ipv4.proto.to_u8(),
        }
    }

    /// TCP payload length in bytes, derived from the IP total length
    /// (headers are fixed 20 + 20 bytes because options are unsupported).
    /// Returns 0 for non-TCP packets.
    #[must_use]
    pub fn tcp_payload_len(&self) -> u16 {
        match self.l4 {
            L4Header::Tcp(_) => self.ipv4.total_len.saturating_sub(40),
            _ => 0,
        }
    }

    /// True iff the packet is TCP.
    #[must_use]
    pub fn is_tcp(&self) -> bool {
        matches!(self.l4, L4Header::Tcp(_))
    }
}

/// A packet inside the simulator: parsed headers plus trace metadata.
///
/// `uniq` realizes the paper's `pkt_uniq` — "a combination of invariant packet
/// headers" that identifies each packet uniquely. Generators assign it; the
/// network never modifies it, so multi-hop observations of one packet share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Parsed headers.
    pub headers: PacketHeaders,
    /// Total wire length in bytes (the schema's `pkt_len`).
    pub wire_len: u16,
    /// Globally unique packet identifier (`pkt_uniq`).
    pub uniq: u64,
    /// Arrival time at the network ingress.
    pub arrival: Nanos,
}

impl Packet {
    /// The transport five-tuple.
    #[must_use]
    pub fn five_tuple(&self) -> FiveTuple {
        self.headers.five_tuple()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ip::IpProto;
    use std::net::Ipv4Addr;

    #[test]
    fn five_tuple_of_tcp_packet() {
        let p = PacketBuilder::tcp()
            .src(Ipv4Addr::new(10, 0, 0, 1), 1234)
            .dst(Ipv4Addr::new(10, 0, 0, 2), 80)
            .seq(42)
            .payload_len(100)
            .build();
        let ft = p.five_tuple();
        assert_eq!(ft.src_port, 1234);
        assert_eq!(ft.dst_port, 80);
        assert_eq!(ft.proto, 6);
        assert!(p.headers.is_tcp());
        assert_eq!(p.headers.tcp_payload_len(), 100);
    }

    #[test]
    fn udp_has_ports_but_no_tcp_payload() {
        let p = PacketBuilder::udp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 53)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 9999)
            .payload_len(64)
            .build();
        assert!(matches!(p.headers.l4, L4Header::Udp(_)));
        assert_eq!(p.headers.tcp_payload_len(), 0);
        assert_eq!(p.headers.l4.src_port(), Some(53));
    }

    #[test]
    fn opaque_l4_has_no_ports() {
        let p = PacketBuilder::proto(IpProto::Icmp)
            .src(Ipv4Addr::new(1, 1, 1, 1), 0)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 0)
            .build();
        assert_eq!(p.headers.l4.src_port(), None);
        assert_eq!(p.five_tuple().src_port, 0);
        assert_eq!(p.five_tuple().proto, 1);
    }
}
