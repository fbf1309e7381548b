//! Full-packet wire serialization and parsing.
//!
//! This is the code path a programmable parser walks: Ethernet, branch on
//! EtherType, IPv4, branch on protocol, then TCP or UDP. The simulator mostly
//! carries parsed [`Packet`]s, but trace files store wire bytes: the trace
//! file format (`perfq_trace::io`) writes and reads every packet through
//! this routine, and `tests/trace_replay.rs` round-trips traces through it.

use crate::eth::{EtherType, EthernetHeader};
use crate::headers::{L4Header, Packet, PacketHeaders};
use crate::ip::{IpProto, Ipv4Header};
use crate::tcp::TcpHeader;
use crate::time::Nanos;
use crate::udp::UdpHeader;
use crate::ParseError;

/// Serialize a packet's headers to wire bytes, padding the payload region
/// with zeros so the buffer length equals `pkt.wire_len`.
#[must_use]
pub fn serialize(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(pkt.wire_len as usize);
    pkt.headers.eth.serialize(&mut out);
    pkt.headers.ipv4.serialize(&mut out);
    match &pkt.headers.l4 {
        L4Header::Tcp(t) => {
            t.serialize(&mut out);
        }
        L4Header::Udp(u) => {
            u.serialize(&mut out);
        }
        L4Header::Opaque => {}
    }
    out.resize(pkt.wire_len as usize, 0);
    out
}

/// Parse wire bytes into [`PacketHeaders`], walking the same parse graph a
/// programmable switch parser would.
pub fn parse_headers(buf: &[u8]) -> Result<PacketHeaders, ParseError> {
    let (eth, mut off) = EthernetHeader::parse(buf)?;
    match eth.ethertype {
        EtherType::Ipv4 => {}
        other => {
            return Err(ParseError::UnsupportedProtocol {
                layer: "ethertype",
                value: u32::from(other.to_u16()),
            })
        }
    }
    let (ipv4, ip_len) = Ipv4Header::parse(&buf[off..])?;
    off += ip_len;
    let l4 = match ipv4.proto {
        IpProto::Tcp => {
            let (t, _) = TcpHeader::parse(&buf[off..])?;
            L4Header::Tcp(t)
        }
        IpProto::Udp => {
            let (u, _) = UdpHeader::parse(&buf[off..])?;
            L4Header::Udp(u)
        }
        _ => L4Header::Opaque,
    };
    Ok(PacketHeaders { eth, ipv4, l4 })
}

/// Parse wire bytes into a full [`Packet`], supplying trace metadata.
pub fn parse_packet(buf: &[u8], uniq: u64, arrival: Nanos) -> Result<Packet, ParseError> {
    let headers = parse_headers(buf)?;
    Ok(Packet {
        headers,
        wire_len: buf.len() as u16,
        uniq,
        arrival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn tcp_round_trip() {
        let p = PacketBuilder::tcp()
            .src(Ipv4Addr::new(10, 0, 0, 1), 5000)
            .dst(Ipv4Addr::new(10, 0, 0, 2), 443)
            .seq(12345)
            .ack(999)
            .payload_len(200)
            .uniq(77)
            .arrival(Nanos(1000))
            .build();
        let bytes = serialize(&p);
        assert_eq!(bytes.len(), p.wire_len as usize);
        let q = parse_packet(&bytes, 77, Nanos(1000)).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn udp_round_trip() {
        let p = PacketBuilder::udp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 53)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 5353)
            .payload_len(48)
            .build();
        let bytes = serialize(&p);
        let q = parse_packet(&bytes, 0, Nanos::ZERO).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn opaque_round_trip() {
        let p = PacketBuilder::proto(IpProto::Icmp)
            .src(Ipv4Addr::new(1, 1, 1, 1), 0)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 0)
            .payload_len(8)
            .build();
        let bytes = serialize(&p);
        let q = parse_packet(&bytes, 0, Nanos::ZERO).unwrap();
        assert_eq!(q.headers.l4, L4Header::Opaque);
        assert_eq!(q, p);
    }

    #[test]
    fn non_ipv4_rejected() {
        let p = PacketBuilder::tcp().build();
        let mut bytes = serialize(&p);
        bytes[12] = 0x86;
        bytes[13] = 0xdd; // IPv6 ethertype
        assert!(matches!(
            parse_headers(&bytes).unwrap_err(),
            ParseError::UnsupportedProtocol { layer: "ethertype", .. }
        ));
    }

    #[test]
    fn ip_checksum_present_on_wire() {
        let p = PacketBuilder::tcp().build();
        let bytes = serialize(&p);
        assert!(Ipv4Header::verify_checksum(&bytes[14..]));
    }
}
