//! The Ethernet II header, as parsed.

use std::fmt;

/// Length of an Ethernet II header (no 802.1Q tag) in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Build a locally-administered unicast MAC from a 32-bit host id, handy
    /// for synthetic traces (`02:00:xx:xx:xx:xx`).
    #[must_use]
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// The EtherType of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// Any other value, preserved verbatim.
    Other(u16),
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_broadcast() {
        assert_eq!(
            MacAddr::from_host_id(0x01020304).to_string(),
            "02:00:01:02:03:04"
        );
        // Host MACs are locally-administered unicast, never the broadcast
        // address, whatever the host id.
        assert_ne!(MacAddr::from_host_id(u32::MAX), MacAddr([0xff; 6]));
    }
}
