//! The correctness gate: count result rows that differ from the reference.

use perfq_core::result::cmp_values;
use perfq_core::{ResultRow, ResultSet, ResultTable};
use perfq_lang::Value;

/// Relative float tolerance, the one every differential suite in the repo
/// uses with `diff_tables`: linear-fold merges reassociate float adds.
pub const TOLERANCE: f64 = 1e-9;

/// Rows compared and rows found wrong so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Rows compared (`attempted`).
    pub rows_checked: u64,
    /// Rows missing, extra or different (`failed`).
    pub rows_wrong: u64,
}

impl Verdict {
    /// Compare `got` with `want`, table by table.
    pub fn check(&mut self, got: &ResultSet, want: &ResultSet) {
        let tables = got.tables.len().max(want.tables.len());
        for i in 0..tables {
            match (got.tables.get(i), want.tables.get(i)) {
                (Some(g), Some(w)) => self.check_table(g, w),
                (Some(t), None) | (None, Some(t)) => {
                    self.rows_checked += t.rows.len() as u64;
                    self.rows_wrong += t.rows.len().max(1) as u64;
                }
                (None, None) => unreachable!("index below the longer length"),
            }
        }
    }

    /// Both tables are sorted canonically and compared position by
    /// position; a length difference counts every unmatched row. A row
    /// missing from the middle therefore shifts its successors and
    /// over-counts — the gate only needs zero to mean equal.
    fn check_table(&mut self, got: &ResultTable, want: &ResultTable) {
        fn sorted(t: &ResultTable) -> Vec<&ResultRow> {
            let mut rows: Vec<&ResultRow> = t.rows.iter().collect();
            rows.sort_by(|a, b| cmp_values(&a.values, &b.values));
            rows
        }
        let (g, w) = (sorted(got), sorted(want));
        self.rows_checked += g.len().max(w.len()) as u64;
        self.rows_wrong += g.len().abs_diff(w.len()) as u64;
        self.rows_wrong += g.iter().zip(&w).filter(|(a, b)| !rows_equal(a, b)).count() as u64;
        if got.total_matched != want.total_matched {
            self.rows_wrong += 1;
        }
    }

    /// Count an `Err` from `persist`/`recover` as one failed operation.
    pub fn io_failed(&mut self) {
        self.rows_checked += 1;
        self.rows_wrong += 1;
    }
}

fn rows_equal(a: &ResultRow, b: &ResultRow) -> bool {
    a.valid == b.valid
        && a.values.len() == b.values.len()
        && a.values.iter().zip(&b.values).all(|(x, y)| match (x, y) {
            (Value::Int(p), Value::Int(q)) => p == q,
            _ => {
                let (p, q) = (x.as_f64(), y.as_f64());
                (p - q).abs() <= TOLERANCE * (1.0 + p.abs().max(q.abs()))
            }
        })
}
