//! Packet observation records — rows of the paper's base table.
//!
//! §2: "the input table of records contains each packet's arrival and
//! departure at every queue in a network", with schema
//! `(pkt_hdr, qid, tin, tout, qsize, pkt_path)`. A [`QueueRecord`] is one
//! such row; [`QueueRecord::to_row`] lays it out exactly as
//! `perfq_lang::base_schema()` declares, so compiled queries index columns
//! positionally.

use perfq_lang::schema::META_COLUMNS;
use perfq_lang::types::{Value, INFINITY_NS};
use perfq_packet::{HeaderField, Nanos, Packet};

/// One (packet, queue) observation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRecord {
    /// The observed packet.
    pub packet: Packet,
    /// Queue identifier — unique per (switch, port) in the network.
    pub qid: u32,
    /// Arrival (enqueue) time at this queue.
    pub tin: Nanos,
    /// Departure time; `Nanos::INFINITY` if the packet was dropped here.
    pub tout: Nanos,
    /// Queue depth (packets) seen at enqueue — the schema's `qsize`/`qin`.
    pub qsize: u32,
    /// Queue depth at departure (0 for drops).
    pub qout: u32,
    /// Opaque path identifier accumulated over the queues traversed so far
    /// (the schema's `pkt_path`).
    pub path: u64,
}

impl QueueRecord {
    /// True if the packet was dropped at this queue.
    #[must_use]
    pub fn is_drop(&self) -> bool {
        self.tout.is_infinite()
    }

    /// Queueing delay at this queue (infinite for drops).
    #[must_use]
    pub fn delay(&self) -> Nanos {
        self.tout.delta(self.tin)
    }

    /// The time this observation is charged to: departure for forwarded
    /// packets, arrival for drops (a drop has no finite `tout`) — the `now`
    /// every streaming consumer hands its stores.
    #[must_use]
    pub fn observed_at(&self) -> Nanos {
        if self.is_drop() {
            self.tin
        } else {
            self.tout
        }
    }

    /// Extend a path identifier with a traversed queue (an opaque encoding;
    /// the paper leaves `pkt_path` uninterpreted).
    #[must_use]
    pub fn extend_path(path: u64, qid: u32) -> u64 {
        path.wrapping_mul(0x100).wrapping_add(u64::from(qid) + 1)
    }

    /// Materialize the record as a base-schema row.
    ///
    /// Column order is `HeaderField::ALL` then the metadata columns — the
    /// same order `perfq_lang::base_schema()` constructs, asserted by test.
    #[must_use]
    pub fn to_row(&self) -> Vec<Value> {
        let mut row = Vec::with_capacity(HeaderField::ALL.len() + META_COLUMNS.len());
        self.write_row(&mut row);
        row
    }

    /// Materialize the row into a caller-owned buffer (cleared first), so a
    /// streaming consumer reuses one allocation across all records.
    ///
    /// This is the dataplane's record → row step, so the header fields are
    /// laid down with a single L4 dispatch instead of one
    /// [`HeaderField::extract`] match per column; the column order is
    /// identical (asserted by test against `extract`).
    pub fn write_row(&self, row: &mut Vec<Value>) {
        use perfq_packet::L4Header;
        row.clear();
        row.reserve(HeaderField::ALL.len() + META_COLUMNS.len());
        let pkt = &self.packet;
        let h = &pkt.headers;
        let int = |v: u64| Value::Int(v as i64);
        // Header fields, in `HeaderField::ALL` order.
        row.push(int(u64::from(u32::from(h.ipv4.src)))); // srcip
        row.push(int(u64::from(u32::from(h.ipv4.dst)))); // dstip
        let (src_port, dst_port, tcp) = match &h.l4 {
            L4Header::Tcp(t) => (t.src_port, t.dst_port, Some(t)),
            L4Header::Udp(u) => (u.src_port, u.dst_port, None),
            L4Header::Opaque => (0, 0, None),
        };
        row.push(int(u64::from(src_port))); // srcport
        row.push(int(u64::from(dst_port))); // dstport
        row.push(int(u64::from(h.ipv4.proto.to_u8()))); // proto
        row.push(int(u64::from(h.ipv4.ttl))); // ttl
        row.push(int(u64::from(h.ipv4.ident))); // ipid
        row.push(int(u64::from(h.ipv4.dscp_ecn))); // tos
        row.push(int(u64::from(pkt.wire_len))); // pkt_len
        row.push(int(pkt.uniq)); // pkt_uniq
        match tcp {
            Some(t) => {
                row.push(int(u64::from(t.seq))); // tcpseq
                row.push(int(u64::from(t.ack))); // tcpack
                row.push(int(u64::from(t.flags.0))); // tcpflags
                row.push(int(u64::from(t.window))); // tcpwin
            }
            None => {
                row.push(Value::Int(0));
                row.push(Value::Int(0));
                row.push(Value::Int(0));
                row.push(Value::Int(0));
            }
        }
        row.push(int(u64::from(h.tcp_payload_len()))); // payload_len
        row.push(int(u64::from(match &h.l4 {
            L4Header::Udp(u) => u.length,
            _ => 0,
        }))); // udplen
        // Metadata columns.
        row.push(Value::Int(i64::from(self.qid)));
        row.push(Value::Int(nanos_to_i64(self.tin)));
        row.push(Value::Int(nanos_to_i64(self.tout)));
        row.push(Value::Int(i64::from(self.qsize)));
        row.push(Value::Int(i64::from(self.qout)));
        row.push(Value::Int(self.path as i64));
    }

    /// Number of base-schema columns a row holds.
    #[must_use]
    pub fn row_width() -> usize {
        HeaderField::ALL.len() + META_COLUMNS.len()
    }

    /// Materialize only the columns named by `mask` (bit `i` = column `i`
    /// of the base schema), leaving the rest of the buffer untouched.
    ///
    /// This is the compiled dataplane's row writer: a query program knows at
    /// compile time which base columns it reads, so the per-record row
    /// materialization skips the other ~20. The buffer is sized (and
    /// zero-filled) on first use; unmasked cells may hold stale values from
    /// earlier records, which is sound exactly because the caller's mask
    /// covers every column its programs read. Column order matches
    /// [`QueueRecord::write_row`] (asserted by test).
    pub fn write_row_masked(&self, row: &mut Vec<Value>, mask: u64) {
        let width = Self::row_width();
        debug_assert!(width <= 64, "column mask is a u64 bitmap");
        if row.len() != width {
            row.clear();
            row.resize(width, Value::Int(0));
        }
        self.write_row_masked_into(row, mask);
    }

    /// Slice form of [`QueueRecord::write_row_masked`] for callers that keep
    /// many rows in one contiguous buffer (the vectorized engine's lane
    /// matrix): `row` must already be exactly [`QueueRecord::row_width`]
    /// cells. Unmasked cells are left untouched, as in the `Vec` form.
    pub fn write_row_masked_into(&self, row: &mut [Value], mask: u64) {
        debug_assert_eq!(row.len(), Self::row_width());
        let need = |i: usize| mask & (1u64 << i) != 0;
        let pkt = &self.packet;
        let h = &pkt.headers;
        if need(0) {
            row[0] = Value::Int(i64::from(u32::from(h.ipv4.src))); // srcip
        }
        if need(1) {
            row[1] = Value::Int(i64::from(u32::from(h.ipv4.dst))); // dstip
        }
        if need(2) || need(3) {
            let (src_port, dst_port) = match &h.l4 {
                perfq_packet::L4Header::Tcp(t) => (t.src_port, t.dst_port),
                perfq_packet::L4Header::Udp(u) => (u.src_port, u.dst_port),
                perfq_packet::L4Header::Opaque => (0, 0),
            };
            if need(2) {
                row[2] = Value::Int(i64::from(src_port)); // srcport
            }
            if need(3) {
                row[3] = Value::Int(i64::from(dst_port)); // dstport
            }
        }
        if need(4) {
            row[4] = Value::Int(i64::from(h.ipv4.proto.to_u8())); // proto
        }
        if need(5) {
            row[5] = Value::Int(i64::from(h.ipv4.ttl)); // ttl
        }
        if need(6) {
            row[6] = Value::Int(i64::from(h.ipv4.ident)); // ipid
        }
        if need(7) {
            row[7] = Value::Int(i64::from(h.ipv4.dscp_ecn)); // tos
        }
        if need(8) {
            row[8] = Value::Int(i64::from(pkt.wire_len)); // pkt_len
        }
        if need(9) {
            row[9] = Value::Int(pkt.uniq as i64); // pkt_uniq
        }
        if mask & (0b1111 << 10) != 0 {
            let (seq, ack, flags, window) = match &h.l4 {
                perfq_packet::L4Header::Tcp(t) => {
                    (i64::from(t.seq), i64::from(t.ack), i64::from(t.flags.0), i64::from(t.window))
                }
                _ => (0, 0, 0, 0),
            };
            if need(10) {
                row[10] = Value::Int(seq); // tcpseq
            }
            if need(11) {
                row[11] = Value::Int(ack); // tcpack
            }
            if need(12) {
                row[12] = Value::Int(flags); // tcpflags
            }
            if need(13) {
                row[13] = Value::Int(window); // tcpwin
            }
        }
        if need(14) {
            row[14] = Value::Int(i64::from(h.tcp_payload_len())); // payload_len
        }
        if need(15) {
            row[15] = Value::Int(i64::from(match &h.l4 {
                perfq_packet::L4Header::Udp(u) => u.length,
                _ => 0,
            })); // udplen
        }
        if need(16) {
            row[16] = Value::Int(i64::from(self.qid));
        }
        if need(17) {
            row[17] = Value::Int(nanos_to_i64(self.tin));
        }
        if need(18) {
            row[18] = Value::Int(nanos_to_i64(self.tout));
        }
        if need(19) {
            row[19] = Value::Int(i64::from(self.qsize));
        }
        if need(20) {
            row[20] = Value::Int(i64::from(self.qout));
        }
        if need(21) {
            row[21] = Value::Int(self.path as i64);
        }
    }
}

/// Clamp a simulation timestamp into the query layer's integer domain,
/// mapping the drop sentinel onto `infinity`.
#[must_use]
pub fn nanos_to_i64(t: Nanos) -> i64 {
    if t.is_infinite() {
        INFINITY_NS
    } else {
        i64::try_from(t.as_nanos()).unwrap_or(INFINITY_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_lang::schema::base_schema;
    use perfq_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn record() -> QueueRecord {
        QueueRecord {
            packet: PacketBuilder::tcp()
                .src(Ipv4Addr::new(10, 0, 0, 1), 1000)
                .dst(Ipv4Addr::new(10, 0, 0, 2), 80)
                .seq(7)
                .payload_len(100)
                .uniq(3)
                .build(),
            qid: 5,
            tin: Nanos(100),
            tout: Nanos(250),
            qsize: 4,
            qout: 2,
            path: 9,
        }
    }

    #[test]
    fn row_aligns_with_base_schema() {
        let schema = base_schema();
        let row = record().to_row();
        assert_eq!(row.len(), schema.len());
        let at = |name: &str| row[schema.index_of(name).unwrap()];
        assert_eq!(at("qid"), Value::Int(5));
        assert_eq!(at("tin"), Value::Int(100));
        assert_eq!(at("tout"), Value::Int(250));
        assert_eq!(at("qsize"), Value::Int(4));
        assert_eq!(at("qin"), Value::Int(4)); // alias
        assert_eq!(at("qout"), Value::Int(2));
        assert_eq!(at("pkt_path"), Value::Int(9));
        assert_eq!(at("tcpseq"), Value::Int(7));
        assert_eq!(at("srcport"), Value::Int(1000));
        assert_eq!(at("pkt_uniq"), Value::Int(3));
    }

    #[test]
    fn write_row_matches_field_extract_for_all_l4_kinds() {
        // The specialized row writer must agree with the per-field extract
        // path, column for column, for TCP and UDP packets alike.
        let tcp = record();
        let udp = QueueRecord {
            packet: PacketBuilder::udp()
                .src(Ipv4Addr::new(10, 0, 0, 9), 53)
                .dst(Ipv4Addr::new(10, 0, 0, 8), 5353)
                .payload_len(77)
                .uniq(11)
                .build(),
            ..record()
        };
        for r in [tcp, udp] {
            let row = r.to_row();
            for (i, f) in HeaderField::ALL.iter().enumerate() {
                assert_eq!(
                    row[i],
                    Value::Int(f.extract(&r.packet) as i64),
                    "column {} ({})",
                    i,
                    f.name()
                );
            }
        }
    }

    #[test]
    fn masked_rows_match_full_rows_on_masked_columns() {
        let tcp = record();
        let udp = QueueRecord {
            packet: PacketBuilder::udp()
                .src(Ipv4Addr::new(10, 0, 0, 9), 53)
                .dst(Ipv4Addr::new(10, 0, 0, 8), 5353)
                .payload_len(77)
                .uniq(11)
                .build(),
            ..record()
        };
        let width = QueueRecord::row_width();
        for r in [tcp, udp] {
            let full = r.to_row();
            assert_eq!(full.len(), width);
            // Every single-column mask agrees with the full row.
            for i in 0..width {
                let mut row = Vec::new();
                r.write_row_masked(&mut row, 1u64 << i);
                assert_eq!(row[i], full[i], "column {i}");
            }
            // A mixed mask over a dirty buffer only touches masked cells.
            let mask = (1 << 0) | (1 << 4) | (1 << 10) | (1 << 18);
            let mut row = vec![Value::Int(-7); width];
            r.write_row_masked(&mut row, mask);
            for i in 0..width {
                if mask & (1 << i) != 0 {
                    assert_eq!(row[i], full[i], "masked column {i}");
                } else {
                    assert_eq!(row[i], Value::Int(-7), "unmasked column {i} touched");
                }
            }
        }
    }

    #[test]
    fn drops_map_to_infinity() {
        let mut r = record();
        r.tout = Nanos::INFINITY;
        assert!(r.is_drop());
        assert!(r.delay().is_infinite());
        let schema = base_schema();
        let row = r.to_row();
        assert_eq!(row[schema.index_of("tout").unwrap()], Value::Int(INFINITY_NS));
    }

    #[test]
    fn delay_is_tout_minus_tin() {
        assert_eq!(record().delay(), Nanos(150));
    }

    #[test]
    fn path_extension_is_order_sensitive() {
        let a = QueueRecord::extend_path(QueueRecord::extend_path(0, 1), 2);
        let b = QueueRecord::extend_path(QueueRecord::extend_path(0, 2), 1);
        assert_ne!(a, b);
        assert_ne!(QueueRecord::extend_path(0, 0), 0, "qid 0 must still mark the path");
    }
}
