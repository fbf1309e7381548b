//! Query results as collected from the backing stores.
//!
//! §3.2: "monitoring applications can pull results from the backing store" —
//! a [`ResultSet`] is one such pull: every query's final table, with per-key
//! validity for non-linear aggregations (the paper's invalid-key marking).

use perfq_lang::{Schema, Value};
use std::collections::HashMap;
use std::fmt;

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Column values, aligned with the table's schema.
    pub values: Vec<Value>,
    /// False when the key was evicted more than once under a non-linear
    /// fold — no single correct value exists (§3.2); `values` then holds the
    /// latest epoch, which is correct over its own interval.
    pub valid: bool,
}

/// One query's final table.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Query name (`R1`, `__q0`, …).
    pub name: String,
    /// Output schema.
    pub schema: Schema,
    /// Rows (one per key for aggregations; matched records for selections).
    pub rows: Vec<ResultRow>,
    /// For selections over the packet table: total matches, including rows
    /// beyond the capture limit.
    pub total_matched: u64,
}

impl ResultTable {
    /// Fraction of valid rows — the paper's Fig. 6 accuracy metric.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.rows.is_empty() {
            1.0
        } else {
            self.rows.iter().filter(|r| r.valid).count() as f64 / self.rows.len() as f64
        }
    }

    /// Sort rows canonically (for deterministic output and comparisons).
    pub fn sort(&mut self) {
        self.rows
            .sort_by(|a, b| cmp_values(&a.values, &b.values));
    }

    /// Index rows by the values of `key_cols` (integer-keyed tables).
    #[must_use]
    pub fn key_map(&self, key_cols: &[usize]) -> HashMap<Vec<i64>, &ResultRow> {
        self.rows
            .iter()
            .map(|r| {
                (
                    key_cols.iter().map(|c| value_key(&r.values[*c])).collect(),
                    r,
                )
            })
            .collect()
    }

    /// Indices of the named columns.
    pub fn col_indices(&self, names: &[&str]) -> Option<Vec<usize>> {
        names.iter().map(|n| self.schema.index_of(n)).collect()
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== {} ({} rows{}) ==",
            self.name,
            self.rows.len(),
            if self.total_matched > self.rows.len() as u64 {
                format!(", {} matched", self.total_matched)
            } else {
                String::new()
            }
        )?;
        let names: Vec<&str> = self.schema.columns.iter().map(|c| c.name.as_str()).collect();
        writeln!(f, "  {}", names.join(" | "))?;
        for row in self.rows.iter().take(20) {
            let cells: Vec<String> = row.values.iter().map(Value::to_string).collect();
            writeln!(
                f,
                "  {}{}",
                cells.join(" | "),
                if row.valid { "" } else { "  [invalid]" }
            )?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … {} more rows", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

/// Final tables of every query in a program, in definition order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// The tables.
    pub tables: Vec<ResultTable>,
}

impl ResultSet {
    /// Find a table by query name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&ResultTable> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Sort every table canonically.
    pub fn sort(&mut self) {
        for t in &mut self.tables {
            t.sort();
        }
    }
}

/// One row emitted on the incremental read path: a row of result table
/// `table` that is new or changed as of poll epoch `epoch`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRow<'a> {
    /// The poll epoch this delta belongs to (1 on the first poll; every row
    /// of the first frame is "new").
    pub epoch: u64,
    /// Name of the result table the row belongs to.
    pub table: &'a str,
    /// The row's current values and validity.
    pub row: &'a ResultRow,
}

/// Per-epoch delta bookkeeping for a polled deployment: remembers the
/// previous frame and streams only the rows that changed.
///
/// The incremental read path ([`crate::Runtime::poll_results`] and the
/// multi-query/sharded `poll` twins) returns full [`ResultSet`] frames; a
/// reader that wants *changes* holds one cursor per polled program and
/// [`DeltaCursor::advance`]s it over each frame. Deltas emit through the
/// same `FnMut` sink idiom the rest of the dataplane streams through.
/// [`crate::Runtime::poll_delta`] bundles the two steps for the
/// single-stream case.
#[derive(Debug, Clone, Default)]
pub struct DeltaCursor {
    epoch: u64,
    last: ResultSet,
}

impl DeltaCursor {
    /// Epoch of the most recent frame (0 before the first advance).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The most recent frame, canonically sorted (empty before the first
    /// advance).
    #[must_use]
    pub fn frame(&self) -> &ResultSet {
        &self.last
    }

    /// Advance the cursor to `frame`, streaming every row that is absent
    /// from — or differs (values or validity) from its match in — the
    /// previous frame. Rows that *disappeared* are not emitted: backing
    /// results only grow or update in place, so a vanished row only happens
    /// across a reinstall, where the whole next frame re-emits anyway.
    /// Returns the new epoch number.
    pub fn advance(&mut self, mut frame: ResultSet, mut sink: impl FnMut(DeltaRow<'_>)) -> u64 {
        frame.sort();
        self.epoch += 1;
        let epoch = self.epoch;
        for (t_idx, cur) in frame.tables.iter().enumerate() {
            let prev_rows: &[ResultRow] = self
                .last
                .tables
                .get(t_idx)
                .map_or(&[], |t| t.rows.as_slice());
            // Both sides are canonically sorted: one merge-walk finds, for
            // each current row, its candidate match in the previous frame.
            // Equal-valued duplicates pair off one-to-one.
            let mut i = 0;
            for row in &cur.rows {
                while i < prev_rows.len()
                    && cmp_values(&prev_rows[i].values, &row.values) == std::cmp::Ordering::Less
                {
                    i += 1;
                }
                let unchanged = i < prev_rows.len()
                    && cmp_values(&prev_rows[i].values, &row.values) == std::cmp::Ordering::Equal
                    && prev_rows[i].valid == row.valid;
                if unchanged {
                    i += 1;
                } else {
                    sink(DeltaRow {
                        epoch,
                        table: &cur.name,
                        row,
                    });
                }
            }
        }
        self.last = frame;
        epoch
    }
}

/// A stable integer key for grouping/joining on a value. Integers map to
/// themselves; floats to their bit pattern; booleans to 0/1.
#[must_use]
pub fn value_key(v: &Value) -> i64 {
    match v {
        Value::Int(x) => *x,
        Value::Float(x) => x.to_bits() as i64,
        Value::Bool(b) => i64::from(*b),
    }
}

/// Total order over rows for canonical sorting. Floats compare by
/// [`f64::total_cmp`] (−NaN < −∞ < … < −0.0 < +0.0 < … < +∞ < NaN), so a
/// frame holding a NaN — a dropped packet's `∞` latency times an underflowed
/// `Aⁿ` is one — still sorts, and equal means bit-identical.
#[must_use]
pub fn cmp_values(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = match (x, y) {
            (Value::Int(p), Value::Int(q)) => p.cmp(q),
            _ => x.as_f64().total_cmp(&y.as_f64()),
        };
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Compare two result tables row-by-row with float tolerance, returning the
/// first discrepancy (used by oracle-vs-hardware tests and the fig2 bench).
#[must_use]
pub fn diff_tables(a: &ResultTable, b: &ResultTable, tol: f64) -> Option<String> {
    if a.rows.len() != b.rows.len() {
        return Some(format!(
            "{}: row count {} vs {}",
            a.name,
            a.rows.len(),
            b.rows.len()
        ));
    }
    let mut ra: Vec<&ResultRow> = a.rows.iter().collect();
    let mut rb: Vec<&ResultRow> = b.rows.iter().collect();
    ra.sort_by(|x, y| cmp_values(&x.values, &y.values));
    rb.sort_by(|x, y| cmp_values(&x.values, &y.values));
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        if x.values.len() != y.values.len() {
            return Some(format!("{}: row {i} arity differs", a.name));
        }
        for (cx, cy) in x.values.iter().zip(&y.values) {
            let close = match (cx, cy) {
                (Value::Int(p), Value::Int(q)) => p == q,
                _ => {
                    let (p, q) = (cx.as_f64(), cy.as_f64());
                    // Bit-identical first: `∞ − ∞` and `NaN − NaN` are NaN.
                    p.total_cmp(&q).is_eq() || (p - q).abs() <= tol * (1.0 + p.abs().max(q.abs()))
                }
            };
            if !close {
                return Some(format!(
                    "{}: row {i} differs: {:?} vs {:?}",
                    a.name, x.values, y.values
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_lang::ValueType;

    fn table(rows: Vec<(Vec<Value>, bool)>) -> ResultTable {
        ResultTable {
            name: "t".into(),
            schema: Schema::new(vec![
                ("k".into(), ValueType::Int),
                ("v".into(), ValueType::Int),
            ]),
            rows: rows
                .into_iter()
                .map(|(values, valid)| ResultRow { values, valid })
                .collect(),
            total_matched: 0,
        }
    }

    #[test]
    fn accuracy_counts_valid_rows() {
        let t = table(vec![
            (vec![Value::Int(1), Value::Int(10)], true),
            (vec![Value::Int(2), Value::Int(20)], false),
            (vec![Value::Int(3), Value::Int(30)], true),
            (vec![Value::Int(4), Value::Int(40)], true),
        ]);
        assert!((t.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(table(vec![]).accuracy(), 1.0);
    }

    #[test]
    fn key_map_indexes_rows() {
        let t = table(vec![
            (vec![Value::Int(1), Value::Int(10)], true),
            (vec![Value::Int(2), Value::Int(20)], true),
        ]);
        let m = t.key_map(&[0]);
        assert_eq!(m[&vec![1]].values[1], Value::Int(10));
        assert_eq!(m[&vec![2]].values[1], Value::Int(20));
    }

    #[test]
    fn sort_is_canonical() {
        let mut t = table(vec![
            (vec![Value::Int(3), Value::Int(1)], true),
            (vec![Value::Int(1), Value::Int(2)], true),
            (vec![Value::Int(2), Value::Int(3)], true),
        ]);
        t.sort();
        let keys: Vec<i64> = t.rows.iter().map(|r| r.values[0].as_i64()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn diff_detects_mismatch_and_tolerates_float_noise() {
        let a = table(vec![(vec![Value::Int(1), Value::Int(10)], true)]);
        let b = table(vec![(vec![Value::Int(1), Value::Int(11)], true)]);
        assert!(diff_tables(&a, &b, 1e-9).is_some());
        assert!(diff_tables(&a, &a, 1e-9).is_none());

        let fa = ResultTable {
            rows: vec![ResultRow {
                values: vec![Value::Float(1.0)],
                valid: true,
            }],
            ..table(vec![])
        };
        let fb = ResultTable {
            rows: vec![ResultRow {
                values: vec![Value::Float(1.0 + 1e-13)],
                valid: true,
            }],
            ..table(vec![])
        };
        assert!(diff_tables(&fa, &fb, 1e-9).is_none());
    }

    #[test]
    fn display_marks_invalid_rows() {
        let t = table(vec![(vec![Value::Int(1), Value::Int(2)], false)]);
        assert!(t.to_string().contains("[invalid]"));
    }

    fn frame(rows: Vec<(Vec<Value>, bool)>) -> ResultSet {
        ResultSet {
            tables: vec![table(rows)],
        }
    }

    #[test]
    fn delta_cursor_emits_first_frame_whole_then_only_changes() {
        let mut cur = DeltaCursor::default();
        let mut got: Vec<(u64, Vec<Value>)> = Vec::new();
        let epoch = cur.advance(
            frame(vec![
                (vec![Value::Int(1), Value::Int(10)], true),
                (vec![Value::Int(2), Value::Int(20)], true),
            ]),
            |d| got.push((d.epoch, d.row.values.clone())),
        );
        assert_eq!(epoch, 1);
        assert_eq!(got.len(), 2, "first poll emits every row");

        got.clear();
        // Key 1 unchanged, key 2 updated, key 3 new.
        let epoch = cur.advance(
            frame(vec![
                (vec![Value::Int(1), Value::Int(10)], true),
                (vec![Value::Int(2), Value::Int(25)], true),
                (vec![Value::Int(3), Value::Int(30)], true),
            ]),
            |d| got.push((d.epoch, d.row.values.clone())),
        );
        assert_eq!(epoch, 2);
        assert_eq!(
            got,
            vec![
                (2, vec![Value::Int(2), Value::Int(25)]),
                (2, vec![Value::Int(3), Value::Int(30)]),
            ]
        );

        got.clear();
        // Identical frame → empty delta.
        let epoch = cur.advance(
            frame(vec![
                (vec![Value::Int(1), Value::Int(10)], true),
                (vec![Value::Int(2), Value::Int(25)], true),
                (vec![Value::Int(3), Value::Int(30)], true),
            ]),
            |d| got.push((d.epoch, d.row.values.clone())),
        );
        assert_eq!(epoch, 3);
        assert!(got.is_empty(), "unchanged frame emits nothing");
    }

    /// The reproduction from the field: 5 000 rows, every third key a NaN
    /// (both signs), the rest salted with ±∞ and ±0.0 between finite keys.
    /// Under the old `partial_cmp(..).unwrap_or(Equal)` this is not a total
    /// order and the standard sorts panic on it.
    fn nan_rows() -> Vec<(Vec<Value>, bool)> {
        let awkward = [f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        (0..5_000i64)
            .map(|i| {
                let k = match i % 3 {
                    0 if i % 2 == 0 => f64::NAN,
                    0 => -f64::NAN,
                    _ if i % 50 < 4 => awkward[(i % 50) as usize],
                    _ => ((i * 7_919) % 10_007) as f64 - 5_000.5,
                };
                (vec![Value::Float(k), Value::Int(i)], i % 7 != 0)
            })
            .collect()
    }

    fn is_sorted(t: &ResultTable) -> bool {
        (t.rows.windows(2)).all(|w| cmp_values(&w[0].values, &w[1].values).is_le())
    }

    #[test]
    fn sort_survives_nan_infinities_and_signed_zero() {
        let mut t = table(nan_rows());
        t.sort();
        assert!(is_sorted(&t));
        let first = t.rows.first().unwrap().values[0].as_f64();
        let last = t.rows.last().unwrap().values[0].as_f64();
        assert!(first.is_nan() && first.is_sign_negative(), "−NaN first");
        assert!(last.is_nan() && last.is_sign_positive(), "+NaN last");
        let zeros: Vec<f64> = (t.rows.iter().map(|r| r.values[0].as_f64()))
            .filter(|k| *k == 0.0)
            .collect();
        let negatives = zeros.iter().take_while(|z| z.is_sign_negative()).count();
        assert!(negatives > 0 && negatives < zeros.len());
        let positives = &zeros[negatives..];
        assert!(positives.iter().all(|z| z.is_sign_positive()), "−0.0 first");

        let mut set = frame(nan_rows());
        set.sort();
        assert!(is_sorted(&set.tables[0]));
    }

    #[test]
    fn delta_cursor_advances_over_nan_frames() {
        let mut cur = DeltaCursor::default();
        let mut emitted = 0;
        cur.advance(frame(nan_rows()), |_| emitted += 1);
        assert_eq!(emitted, 5_000, "the first frame emits whole");
        assert!(is_sorted(&cur.frame().tables[0]));

        // A NaN key equals itself: the same frame again changes nothing.
        emitted = 0;
        cur.advance(frame(nan_rows()), |_| emitted += 1);
        assert_eq!(emitted, 0, "an unchanged NaN frame emits nothing");

        // One NaN-keyed row flips validity, one ∞-keyed row changes value.
        let mut rows = nan_rows();
        assert!(rows[0].0[0].as_f64().is_nan() && rows[1].0[0].as_f64().is_infinite());
        rows[0].1 = !rows[0].1;
        rows[1].0[1] = Value::Int(-1);
        let mut got = Vec::new();
        cur.advance(frame(rows), |d| got.push(d.row.values[1].as_i64()));
        got.sort_unstable();
        assert_eq!(got, vec![-1, 0]);
    }

    #[test]
    fn diff_tables_matches_nan_frames_in_any_row_order() {
        let a = table(nan_rows());
        let mut reversed = nan_rows();
        reversed.reverse();
        assert_eq!(diff_tables(&a, &table(reversed.clone()), 1e-9), None);
        // The same key, another value: still a difference.
        reversed[17].0[1] = Value::Int(-1);
        assert!(diff_tables(&a, &table(reversed), 1e-9).is_some());
    }

    #[test]
    fn delta_cursor_flags_validity_flips() {
        let mut cur = DeltaCursor::default();
        cur.advance(
            frame(vec![(vec![Value::Int(1), Value::Int(10)], true)]),
            |_| {},
        );
        let mut got = Vec::new();
        cur.advance(
            frame(vec![(vec![Value::Int(1), Value::Int(10)], false)]),
            |d| got.push(d.row.valid),
        );
        assert_eq!(got, vec![false], "a validity flip alone is a change");
    }
}
