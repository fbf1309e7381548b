//! The performance-oriented schema (§2 of the paper).
//!
//! The base table `T` has one record per (packet, queue) observation:
//!
//! ```text
//! (pkt_hdr, qid, tin, tout, qsize, pkt_path)
//! ```
//!
//! expanded here into concrete columns: every parseable header field from
//! [`perfq_packet::HeaderField`], plus the queue metadata the switch attaches.
//! Fig. 1 of the paper also names `qin`/`qout` — the queue depths at enqueue
//! and dequeue — which we carry as their own columns (`qin` doubles as the
//! alias for `qsize`, which the schema prose uses for the enqueue-time depth).

use crate::types::ValueType;
use perfq_packet::HeaderField;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (canonical).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// An ordered set of columns; records are `Vec<Value>` aligned to it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns in order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    #[must_use]
    pub fn new(cols: Vec<(String, ValueType)>) -> Self {
        Schema {
            columns: cols
                .into_iter()
                .map(|(name, ty)| Column { name, ty })
                .collect(),
        }
    }

    /// Number of columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when there are no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by canonical name or alias.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let canonical = resolve_alias(name);
        self.columns.iter().position(|c| c.name == canonical)
    }

    /// Column type by index.
    #[must_use]
    pub fn type_of(&self, idx: usize) -> ValueType {
        self.columns[idx].ty
    }

    /// Column name by index.
    #[must_use]
    pub fn name_of(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }

    /// Append a column, returning its index. Panics on duplicate names —
    /// callers (the resolver) are responsible for disambiguating first.
    pub fn push(&mut self, name: impl Into<String>, ty: ValueType) -> usize {
        let name = name.into();
        assert!(
            self.index_of(&name).is_none(),
            "duplicate column `{name}` in schema"
        );
        self.columns.push(Column { name, ty });
        self.columns.len() - 1
    }

    /// True if a name (or alias) resolves in this schema.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }
}

/// Canonical name of the base packet-observation table.
pub const BASE_TABLE: &str = "T";

/// Metadata columns the switch attaches to every observation.
pub const META_COLUMNS: [&str; 6] = ["qid", "tin", "tout", "qsize", "qout", "pkt_path"];

/// Resolve field aliases to canonical column names.
///
/// * `qin` → `qsize` (Fig. 1 vs. §2 prose),
/// * `sport`/`dport` → `srcport`/`dstport`,
/// * `pkt_uniq` → `pkt_uid` in *expression* position (the u64 unique id; in
///   field-list position `pkt_uniq` expands to a field tuple instead).
#[must_use]
pub fn resolve_alias(name: &str) -> &str {
    match name {
        "qin" => "qsize",
        "sport" => "srcport",
        "dport" => "dstport",
        "pkt_uniq" => "pkt_uid",
        other => other,
    }
}

/// The base schema: all header fields, then the queue metadata.
#[must_use]
pub fn base_schema() -> Schema {
    let mut s = Schema::default();
    for f in HeaderField::ALL {
        let name = match f {
            HeaderField::PktUniq => "pkt_uid",
            other => other.name(),
        };
        s.push(name, ValueType::Int);
    }
    for m in META_COLUMNS {
        s.push(m, ValueType::Int);
    }
    s
}

/// Map a base-schema column index back to the packet header field it mirrors
/// (metadata columns return `None`).
#[must_use]
pub fn base_column_header_field(idx: usize) -> Option<HeaderField> {
    HeaderField::ALL.get(idx).copied()
}

/// Width in bits of base column `idx` when used as part of an aggregation
/// key — the §3.3/§4 hardware arithmetic's input. Header fields use their
/// wire width (so the transport 5-tuple sums to 104 bits, the paper's
/// running example); among the queue metadata, `qid`/`qsize`/`qout` are
/// 32-bit and the timestamps and path identifier 64-bit.
///
/// # Panics
///
/// Panics when `idx` is outside the base schema.
#[must_use]
pub fn base_column_key_bits(idx: usize) -> u32 {
    if let Some(f) = base_column_header_field(idx) {
        return f.bits();
    }
    match META_COLUMNS
        .get(idx - HeaderField::ALL.len())
        .unwrap_or_else(|| panic!("column {idx} outside the base schema"))
    {
        &"qid" | &"qsize" | &"qout" => 32,
        _ => 64,
    }
}

/// Expand a field-list abbreviation to canonical column names.
///
/// * `5tuple` → the transport five-tuple fields;
/// * `pkt_uniq` → the five-tuple plus the unique packet id, per §2: "pkt_uniq
///   is a tuple of packet fields that includes the 5tuple".
#[must_use]
pub fn expand_abbreviation(name: &str) -> Option<&'static [&'static str]> {
    match name {
        "5tuple" => Some(&["srcip", "dstip", "srcport", "dstport", "proto"]),
        "pkt_uniq" => Some(&["srcip", "dstip", "srcport", "dstport", "proto", "pkt_uid"]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_schema_has_header_and_meta_columns() {
        let s = base_schema();
        assert_eq!(s.len(), HeaderField::ALL.len() + META_COLUMNS.len());
        for f in [
            "srcip", "dstip", "tcpseq", "pkt_len", "qid", "tin", "tout", "qsize", "pkt_path",
        ] {
            assert!(s.contains(f), "missing column {f}");
        }
    }

    #[test]
    fn aliases_resolve() {
        let s = base_schema();
        assert_eq!(s.index_of("qin"), s.index_of("qsize"));
        assert_eq!(s.index_of("sport"), s.index_of("srcport"));
        assert_eq!(s.index_of("pkt_uniq"), s.index_of("pkt_uid"));
    }

    #[test]
    fn five_tuple_expansion() {
        let cols = expand_abbreviation("5tuple").unwrap();
        assert_eq!(cols, &["srcip", "dstip", "srcport", "dstport", "proto"]);
        let s = base_schema();
        for c in cols {
            assert!(s.contains(c));
        }
    }

    #[test]
    fn pkt_uniq_expansion_includes_five_tuple() {
        let cols = expand_abbreviation("pkt_uniq").unwrap();
        for c in expand_abbreviation("5tuple").unwrap() {
            assert!(cols.contains(c));
        }
        assert!(cols.contains(&"pkt_uid"));
    }

    #[test]
    fn header_columns_extractable() {
        // Every header column of the base schema maps back to a HeaderField.
        let s = base_schema();
        for i in 0..HeaderField::ALL.len() {
            let f = base_column_header_field(i).unwrap();
            let expected = match f {
                HeaderField::PktUniq => "pkt_uid",
                other => other.name(),
            };
            assert_eq!(s.name_of(i), expected);
        }
        assert!(base_column_header_field(HeaderField::ALL.len()).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        let mut s = Schema::default();
        s.push("x", ValueType::Int);
        s.push("x", ValueType::Int);
    }

    #[test]
    fn key_bits_match_wire_widths() {
        let s = base_schema();
        // §4's running example: the transport 5-tuple sums to 104 bits.
        let five_tuple: u32 = ["srcip", "dstip", "srcport", "dstport", "proto"]
            .iter()
            .map(|n| base_column_key_bits(s.index_of(n).unwrap()))
            .sum();
        assert_eq!(five_tuple, 104);
        // Queue metadata: depths/ids are 32-bit, times and path 64-bit.
        assert_eq!(base_column_key_bits(s.index_of("qid").unwrap()), 32);
        assert_eq!(base_column_key_bits(s.index_of("qsize").unwrap()), 32);
        assert_eq!(base_column_key_bits(s.index_of("qout").unwrap()), 32);
        assert_eq!(base_column_key_bits(s.index_of("tin").unwrap()), 64);
        assert_eq!(base_column_key_bits(s.index_of("tout").unwrap()), 64);
        assert_eq!(base_column_key_bits(s.index_of("pkt_path").unwrap()), 64);
    }
}
