//! The UDP header, as parsed.

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of UDP header plus payload, in bytes.
    pub length: u16,
}
