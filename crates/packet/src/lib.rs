//! # perfq-packet
//!
//! Packet model for the `perfq` system — the reproduction of *"Hardware-Software
//! Co-Design for Network Performance Measurement"* (HotNets 2016).
//!
//! This crate is the bottom-most substrate: it defines what a packet *is* for
//! every other crate. It provides:
//!
//! * [`time`] — nanosecond timestamps ([`Nanos`]) with an explicit *infinity*
//!   used by the paper's schema to mark dropped packets (`tout = ∞`).
//! * [`eth`], [`ip`], [`tcp`], [`udp`] — the header structs a switch parser
//!   would extract, already parsed: the paper's queries read `pkt_hdr` fields,
//!   never wire bytes, so there is no codec. The `*_HEADER_LEN` constants size
//!   built packets.
//! * [`headers`] — the parsed, in-memory view ([`PacketHeaders`]) and the
//!   [`Packet`] carried through the simulator.
//! * [`flow`] — the transport [`FiveTuple`] aggregation key (104 bits on the
//!   wire, per the paper's §4 sizing).
//! * [`field`] — named header fields ([`HeaderField`]) that the query language
//!   schema binds to, with uniform `u64` extraction.
//! * [`builder`] — an ergonomic [`PacketBuilder`] for tests and generators.
//!
//! Everything here is deterministic, allocation-light, and `unsafe`-free.

//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod eth;
pub mod field;
pub mod flow;
pub mod headers;
pub mod ip;
pub mod tcp;
pub mod time;
pub mod udp;

pub use builder::PacketBuilder;
pub use eth::{EtherType, EthernetHeader, MacAddr};
pub use field::HeaderField;
pub use flow::FiveTuple;
pub use headers::{L4Header, Packet, PacketHeaders};
pub use ip::{IpProto, Ipv4Header};
pub use tcp::{TcpFlags, TcpHeader};
pub use time::Nanos;
pub use udp::UdpHeader;
