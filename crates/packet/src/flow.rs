//! The transport five-tuple.
//!
//! The paper sizes its running example around the transport five-tuple: "The
//! aggregation key (5-tuple) requires 104 bits" (§4). [`FiveTuple`] packs to
//! exactly those 104 bits. The engine builds GROUPBY keys itself, from
//! [`HeaderField`](crate::HeaderField) values.

use std::fmt;
use std::net::Ipv4Addr;

/// The wire width of a packed five-tuple in bits (32+32+16+16+8).
pub const FIVE_TUPLE_BITS: u32 = 104;

/// A transport five-tuple: the canonical GROUPBY key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (0 when the protocol has no ports).
    pub src_port: u16,
    /// Destination transport port (0 when the protocol has no ports).
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FiveTuple {
    /// Pack into the low 104 bits of a `u128`, matching the hardware key
    /// layout the paper's area math assumes.
    #[must_use]
    pub fn to_bits(&self) -> u128 {
        (u128::from(u32::from(self.src_ip)) << 72)
            | (u128::from(u32::from(self.dst_ip)) << 40)
            | (u128::from(self.src_port) << 24)
            | (u128::from(self.dst_port) << 8)
            | u128::from(self.proto)
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} > {}:{} p{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::new(192, 168, 1, 10),
            dst_ip: Ipv4Addr::new(10, 20, 30, 40),
            src_port: 54321,
            dst_port: 443,
            proto: 6,
        }
    }

    #[test]
    fn bits_round_trip() {
        let t = ft();
        // srcip | dstip | srcport | dstport | proto, high to low.
        assert_eq!(t.to_bits(), 0x00c0_a801_0a0a_141e_28d4_3101_bb06);
        // The packing uses exactly 104 bits.
        assert!(t.to_bits() < (1u128 << FIVE_TUPLE_BITS));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ft().to_string(), "192.168.1.10:54321 > 10.20.30.40:443 p6");
    }
}
