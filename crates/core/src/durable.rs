//! Deployment-level durability: the [`Durability`] configuration handed to
//! the runtime layers, and the retired-result codec.
//!
//! Durability is **off by default** — a runtime built without
//! [`crate::Runtime::enable_durability`] behaves exactly as before, with no
//! spill tier, no I/O, and no codec bounds on any hot path. Enabling it
//! attaches one [`SpillTier`](perfq_kvstore::SpillTier) per aggregation
//! store under a shared [`IoBackend`](perfq_kvstore::IoBackend), all file
//! names derived from one deployment prefix:
//!
//! ```text
//!   <prefix>q<i>_wal / _seg               one store of a plain Runtime
//!   <prefix>p<id>_q<j>_wal / _seg         program <install id> of a MultiRuntime
//!   <prefix>p0_s<i>_q<j>_wal / _seg       shard i of a ShardedRuntime's one program
//!   <prefix>MANIFEST                      the deployment's committed checkpoint
//!   <prefix>retired_<id>                  an uninstalled program's final results
//! ```
//!
//! The checkpoint/resume protocol lives here, once, for every plane (the
//! mechanics are in `perfq-kvstore`): `persist` flushes and spills every
//! store of every worker runtime the plane hands it, writes per-store
//! checkpoint frames, *then* atomically advances the single manifest — so
//! the manifest always names a record index every store has durably
//! folded. After a crash, `recover` repairs each store's files against
//! the manifest and returns the resume index; the caller re-ingests the
//! stream from that record on, and the deployment's reads are
//! byte-identical to a never-crashed deployment that persisted at the same
//! indices (`tests/durability_crash.rs`). Exactly three callers name the
//! workers and keep the record index: [`crate::Runtime`] (its one worker,
//! `""`), [`crate::ShardedRuntime`] (`p0_s<i>_` per shard) and
//! [`crate::Deployment`] (`p<id>_` per installed program).

use crate::result::{ResultRow, ResultSet, ResultTable};
use crate::runtime::Runtime;
use crate::Error;
use perfq_kvstore::wal::{ByteReader, ByteWriter as _};
use perfq_kvstore::{read_manifest, write_manifest, SharedBackend, SpillConfig};
use perfq_lang::{Schema, Value, ValueType};
use std::io;

/// Durable-tier configuration for a deployment: the I/O backend, the spill
/// tuning, and the deployment's file-name prefix.
#[derive(Debug, Clone)]
pub struct Durability {
    backend: SharedBackend,
    spill: SpillConfig,
    prefix: String,
}

impl Durability {
    /// Durability on `backend` with default [`SpillConfig`] and an empty
    /// prefix.
    #[must_use]
    pub fn new(backend: SharedBackend) -> Self {
        Durability {
            backend,
            spill: SpillConfig::default(),
            prefix: String::new(),
        }
    }

    /// Override the spill tuning (high-water mark, group-commit threshold).
    #[must_use]
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// Prefix every file name (several deployments can share one backend).
    #[must_use]
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// The shared I/O backend.
    #[must_use]
    pub fn backend(&self) -> &SharedBackend {
        &self.backend
    }

    /// The spill tuning.
    #[must_use]
    pub fn spill(&self) -> SpillConfig {
        self.spill
    }

    /// The deployment file-name prefix.
    #[must_use]
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The deployment's manifest file name.
    #[must_use]
    pub fn manifest_name(&self) -> String {
        format!("{}MANIFEST", self.prefix)
    }

    /// The durable file name of an uninstalled program's final results.
    #[must_use]
    pub fn retired_name(&self, id: u64) -> String {
        format!("{}retired_{id}", self.prefix)
    }
}

/// Durably checkpoint a deployment at record index `at` — the one routine
/// behind every plane's `persist`. `workers` lists the plane's runtimes
/// with their file-name components: every worker's stores checkpoint,
/// *then* the single manifest advances atomically, then every WAL that has
/// outgrown its segment folds into it (the others keep their frames) and
/// the capture files of the previous checkpoint (`persisted_at`) drop.
/// `persisted_at` advances as soon as the manifest lands, so a failed
/// compaction does not orphan the capture files the next checkpoint cleans.
pub(crate) fn persist(
    d: &Durability,
    at: u64,
    persisted_at: &mut Option<u64>,
    workers: &mut [(String, &mut Runtime)],
) -> Result<(), Error> {
    for (sub, rt) in workers.iter_mut() {
        rt.persist_stores(at, d, sub)?;
    }
    write_manifest(d.backend(), &d.manifest_name(), at)?;
    let stale = persisted_at.filter(|&old| old != at);
    *persisted_at = Some(at);
    for (sub, rt) in workers.iter_mut() {
        rt.compact_stores(d, sub, stale)?;
    }
    Ok(())
}

/// [`persist`]'s twin: read the deployment manifest and repair every
/// worker's durable files against it. Returns the manifested record index
/// (`None` when no checkpoint was ever manifested — resume from 0). A
/// corrupt manifest, or a manifested capture file that is missing or
/// corrupt, is an `InvalidData` error.
pub(crate) fn recover(
    d: &Durability,
    workers: &mut [(String, &mut Runtime)],
) -> Result<Option<u64>, Error> {
    let resume = read_manifest(d.backend(), &d.manifest_name())?;
    for (sub, rt) in workers.iter_mut() {
        rt.recover_stores(d, sub, resume)?;
    }
    Ok(resume)
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut ByteReader<'_>) -> Option<String> {
    let n = r.u32()? as usize;
    let mut bytes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        bytes.push(r.u8()?);
    }
    String::from_utf8(bytes).ok()
}

fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.put_u8(0);
            out.put_i64(*i);
        }
        Value::Float(f) => {
            out.put_u8(1);
            out.put_f64(*f);
        }
        Value::Bool(b) => {
            out.put_u8(2);
            out.put_u8(u8::from(*b));
        }
    }
}

pub(crate) fn get_value(r: &mut ByteReader<'_>) -> Option<Value> {
    match r.u8()? {
        0 => Some(Value::Int(r.i64()?)),
        1 => Some(Value::Float(r.f64()?)),
        2 => Some(Value::Bool(r.u8()? != 0)),
        _ => None,
    }
}

/// The one `[len u32][value]*` row codec: result rows, capture rows and the
/// `FoldState` spill frames all go through it.
pub(crate) fn put_values(vals: &[Value], out: &mut Vec<u8>) {
    out.put_u32(vals.len() as u32);
    for v in vals {
        put_value(v, out);
    }
}

pub(crate) fn get_values(r: &mut ByteReader<'_>) -> Option<Vec<Value>> {
    let n = r.u32()? as usize;
    let mut vals = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        vals.push(get_value(r)?);
    }
    Some(vals)
}

/// Serialize a [`ResultSet`] for the durable tier (float columns persist
/// as bit patterns, so a read-back compares byte-identical).
#[must_use]
pub fn encode_results(rs: &ResultSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u32(rs.tables.len() as u32);
    for t in &rs.tables {
        put_str(&t.name, &mut out);
        out.put_u32(t.schema.columns.len() as u32);
        for c in &t.schema.columns {
            put_str(&c.name, &mut out);
            out.put_u8(match c.ty {
                ValueType::Int => 0,
                ValueType::Float => 1,
                ValueType::Bool => 2,
            });
        }
        out.put_u64(t.total_matched);
        out.put_u32(t.rows.len() as u32);
        for row in &t.rows {
            out.put_u8(u8::from(row.valid));
            put_values(&row.values, &mut out);
        }
    }
    out
}

/// Decode a [`ResultSet`] serialized by [`encode_results`]. `None` on any
/// malformed input.
#[must_use]
pub fn decode_results(bytes: &[u8]) -> Option<ResultSet> {
    let mut r = ByteReader::new(bytes);
    let n_tables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let name = get_str(&mut r)?;
        let n_cols = r.u32()? as usize;
        let mut cols = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            let cname = get_str(&mut r)?;
            let ty = match r.u8()? {
                0 => ValueType::Int,
                1 => ValueType::Float,
                2 => ValueType::Bool,
                _ => return None,
            };
            cols.push((cname, ty));
        }
        let total_matched = r.u64()?;
        let n_rows = r.u32()? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(4096));
        for _ in 0..n_rows {
            let valid = r.u8()? != 0;
            let values = get_values(&mut r)?;
            rows.push(ResultRow { values, valid });
        }
        tables.push(ResultTable {
            name,
            schema: Schema::new(cols),
            rows,
            total_matched,
        });
    }
    Some(ResultSet { tables })
}

/// Serialize a bounded capture buffer — the selected rows plus the
/// running matched count — so base-table selections survive a crash
/// alongside the aggregation stores they were checkpointed with.
pub(crate) fn encode_capture(rows: &[Vec<Value>], total: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u64(total);
    out.put_u32(rows.len() as u32);
    for row in rows {
        put_values(row, &mut out);
    }
    out
}

/// Decode a capture buffer serialized by [`encode_capture`]. `None` on
/// any malformed input.
pub(crate) fn decode_capture(bytes: &[u8]) -> Option<(Vec<Vec<Value>>, u64)> {
    let mut r = ByteReader::new(bytes);
    let total = r.u64()?;
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rows.push(get_values(&mut r)?);
    }
    Some((rows, total))
}

/// Atomically publish an uninstalled program's final results under the
/// deployment's retired-file name.
///
/// # Errors
///
/// [`Error::Io`] when the write or its sync fails.
pub fn write_retired(d: &Durability, id: u64, rs: &ResultSet) -> Result<(), Error> {
    let bytes = encode_results(rs);
    let name = d.retired_name(id);
    let mut be = d.backend().lock().expect("backend mutex");
    be.write_atomic(&name, &bytes)?;
    Ok(be.sync(&name)?)
}

/// Read back a retired program's persisted results. `Ok(None)` when the
/// file is absent.
///
/// # Errors
///
/// [`Error::Io`] when the read fails, of kind
/// [`io::ErrorKind::InvalidData`] when the file is present but does not
/// decode.
pub fn read_retired(d: &Durability, id: u64) -> Result<Option<ResultSet>, Error> {
    let name = d.retired_name(id);
    let mut be = d.backend().lock().expect("backend mutex");
    let Some(bytes) = be.read(&name)? else {
        return Ok(None);
    };
    drop(be);
    let malformed = || {
        let msg = format!("{name}: malformed results");
        Error::Io(io::Error::new(io::ErrorKind::InvalidData, msg))
    };
    decode_results(&bytes).map(Some).ok_or_else(malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_round_trips_byte_exactly() {
        let rs = ResultSet {
            tables: vec![ResultTable {
                name: "loss_rate".into(),
                schema: Schema::new(vec![
                    ("flow".into(), ValueType::Int),
                    ("rate".into(), ValueType::Float),
                    ("flag".into(), ValueType::Bool),
                ]),
                rows: vec![
                    ResultRow {
                        values: vec![Value::Int(-7), Value::Float(0.1 + 0.2), Value::Bool(true)],
                        valid: true,
                    },
                    ResultRow {
                        values: vec![Value::Int(9), Value::Float(-0.0), Value::Bool(false)],
                        valid: false,
                    },
                ],
                total_matched: 42,
            }],
        };
        let bytes = encode_results(&rs);
        let back = decode_results(&bytes).unwrap();
        assert_eq!(back.tables.len(), 1);
        let (a, b) = (&rs.tables[0], &back.tables[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.total_matched, b.total_matched);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.valid, y.valid);
            assert_eq!(x.values.len(), y.values.len());
            for (vx, vy) in x.values.iter().zip(&y.values) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert_eq!(fx.to_bits(), fy.to_bits());
                    }
                    _ => assert_eq!(vx, vy),
                }
            }
        }
        assert!(decode_results(&bytes[..bytes.len() - 1]).is_none());
    }
}
