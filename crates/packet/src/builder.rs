//! Ergonomic packet construction for generators and tests.

use crate::eth::{EtherType, EthernetHeader, MacAddr};
use crate::headers::{L4Header, Packet, PacketHeaders};
use crate::ip::{IpProto, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
use crate::time::Nanos;
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use std::net::Ipv4Addr;

/// Builder for [`Packet`]s. Chooses consistent lengths across layers: the IP
/// total length, the UDP length and the wire length all agree with the
/// payload.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    proto: IpProto,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    flags: TcpFlags,
    payload_len: u16,
    uniq: u64,
    arrival: Nanos,
}

impl PacketBuilder {
    fn new(proto: IpProto) -> Self {
        PacketBuilder {
            proto,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            seq: 0,
            flags: TcpFlags::ACK,
            payload_len: 0,
            uniq: 0,
            arrival: Nanos::ZERO,
        }
    }

    /// Start building a TCP packet.
    #[must_use]
    pub fn tcp() -> Self {
        Self::new(IpProto::Tcp)
    }

    /// Start building a UDP packet.
    #[must_use]
    pub fn udp() -> Self {
        Self::new(IpProto::Udp)
    }

    /// Start building a packet with an arbitrary IP protocol (opaque L4).
    #[must_use]
    pub fn proto(proto: IpProto) -> Self {
        Self::new(proto)
    }

    /// Set the source address and port.
    #[must_use]
    pub fn src(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.src_ip = ip;
        self.src_port = port;
        self
    }

    /// Set the destination address and port.
    #[must_use]
    pub fn dst(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.dst_ip = ip;
        self.dst_port = port;
        self
    }

    /// Set the TCP sequence number.
    #[must_use]
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Set the TCP flags.
    #[must_use]
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Set the transport payload length in bytes.
    #[must_use]
    pub fn payload_len(mut self, len: u16) -> Self {
        self.payload_len = len;
        self
    }

    /// Set the unique packet id (`pkt_uniq`).
    #[must_use]
    pub fn uniq(mut self, uniq: u64) -> Self {
        self.uniq = uniq;
        self
    }

    /// Set the ingress arrival time.
    #[must_use]
    pub fn arrival(mut self, t: Nanos) -> Self {
        self.arrival = t;
        self
    }

    /// Finish, producing a consistent [`Packet`].
    #[must_use]
    pub fn build(self) -> Packet {
        let l4_len = match self.proto {
            IpProto::Tcp => TCP_HEADER_LEN,
            IpProto::Udp => UDP_HEADER_LEN,
            _ => 0,
        };
        let total_len = (IPV4_HEADER_LEN + l4_len) as u16 + self.payload_len;
        let l4 = match self.proto {
            IpProto::Tcp => L4Header::Tcp(TcpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                seq: self.seq,
                ack: 0,
                flags: self.flags,
                window: 65535,
            }),
            IpProto::Udp => L4Header::Udp(UdpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                length: UDP_HEADER_LEN as u16 + self.payload_len,
            }),
            _ => L4Header::Opaque,
        };
        let headers = PacketHeaders {
            eth: EthernetHeader {
                dst: MacAddr::from_host_id(u32::from(self.dst_ip)),
                src: MacAddr::from_host_id(u32::from(self.src_ip)),
                ethertype: EtherType::Ipv4,
            },
            ipv4: Ipv4Header {
                dscp_ecn: 0,
                total_len,
                ident: 0,
                flags_frag: 0x4000,
                ttl: 64,
                proto: self.proto,
                src: self.src_ip,
                dst: self.dst_ip,
            },
            l4,
        };
        Packet {
            headers,
            wire_len: crate::eth::ETHERNET_HEADER_LEN as u16 + total_len,
            uniq: self.uniq,
            arrival: self.arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_are_consistent_across_layers() {
        let p = PacketBuilder::tcp()
            .src(Ipv4Addr::new(1, 2, 3, 4), 10)
            .dst(Ipv4Addr::new(5, 6, 7, 8), 20)
            .payload_len(1000)
            .build();
        // eth(14) + ip(20) + tcp(20) + payload(1000)
        assert_eq!(p.wire_len, 1054);
        assert_eq!(p.headers.ipv4.total_len, 1040);
        assert_eq!(p.headers.tcp_payload_len(), 1000);
    }

    #[test]
    fn udp_length_field_includes_header() {
        let p = PacketBuilder::udp()
            .src(Ipv4Addr::new(1, 2, 3, 4), 10)
            .dst(Ipv4Addr::new(5, 6, 7, 8), 20)
            .payload_len(100)
            .build();
        match p.headers.l4 {
            L4Header::Udp(u) => assert_eq!(u.length, 108),
            _ => panic!("expected udp"),
        }
    }

    #[test]
    fn defaults_are_sane() {
        let p = PacketBuilder::tcp().build();
        assert_eq!(p.headers.ipv4.ttl, 64);
        assert_eq!(p.arrival, Nanos::ZERO);
        assert!(p.headers.is_tcp());
    }
}
