//! The TCP header, as parsed.

use std::fmt;

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits (the low 6 of the flags byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Union of two flag sets.
    #[must_use]
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True iff every bit of `other` is set in `self`.
    #[must_use]
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Self::SYN, 'S'),
            (Self::ACK, 'A'),
            (Self::FIN, 'F'),
            (Self::RST, 'R'),
            (Self::PSH, 'P'),
            (Self::URG, 'U'),
        ];
        let mut any = false;
        for (flag, ch) in names {
            if self.contains(flag) {
                write!(f, "{ch}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A TCP header without options (a fixed 20 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_algebra() {
        let f = TcpFlags::SYN.union(TcpFlags::ACK);
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
    }

    #[test]
    fn flag_display() {
        assert_eq!(TcpFlags::SYN.union(TcpFlags::ACK).to_string(), "SA");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }
}
