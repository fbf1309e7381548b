//! Count-min sketch baseline.
//!
//! §5 of the paper claims the key-value store "sidesteps the accuracy-memory
//! tradeoff of sketches" for linear-in-state queries. To measure that claim
//! (the sketch ablation; see `ARCHITECTURE.md`) we implement the standard count-min sketch
//! [Cormode & Muthukrishnan 2005]: `depth` rows of `width` counters, each row
//! indexed by an independent hash; a key's estimate is the minimum of its
//! counters, which upper-bounds the true count with error ε·N (ε = e/width)
//! at probability 1−δ (δ = e^−depth).

use crate::hash::hash_key;
use std::hash::Hash;

/// A count-min sketch over `u64` increments.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    rows: Vec<Vec<u64>>,
    seeds: Vec<u64>,
    items: u64,
}

impl CountMinSketch {
    /// Create a sketch with explicit dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        CountMinSketch {
            width,
            depth,
            rows: vec![vec![0u64; width]; depth],
            seeds: (0..depth as u64)
                .map(|i| seed.wrapping_add(i * 0x9e37))
                .collect(),
            items: 0,
        }
    }

    /// Create a sketch meeting error bound `epsilon` (relative to total
    /// count) with failure probability `delta`.
    #[must_use]
    pub fn with_error_bound(epsilon: f64, delta: f64, seed: u64) -> Self {
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(width.max(1), depth.max(1), seed)
    }

    /// Add `count` occurrences of `key`.
    pub fn add<K: Hash>(&mut self, key: &K, count: u64) {
        self.items += count;
        for (row, seed) in self.rows.iter_mut().zip(&self.seeds) {
            let idx = (hash_key(*seed, key) % row.len() as u64) as usize;
            row[idx] += count;
        }
    }

    /// Point-query estimate for `key` (never underestimates).
    #[must_use]
    pub fn estimate<K: Hash>(&self, key: &K) -> u64 {
        self.rows
            .iter()
            .zip(&self.seeds)
            .map(|(row, seed)| row[(hash_key(*seed, key) % row.len() as u64) as usize])
            .min()
            .unwrap_or(0)
    }

    /// Total increments observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.items
    }

    /// Memory footprint in bits, assuming `counter_bits` per counter — the
    /// quantity to compare against the key-value store's SRAM budget.
    #[must_use]
    pub fn memory_bits(&self, counter_bits: u32) -> u64 {
        (self.width as u64) * (self.depth as u64) * u64::from(counter_bits)
    }

    /// Sketch dimensions `(width, depth)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_oversized() {
        let mut s = CountMinSketch::new(1 << 14, 4, 7);
        for k in 0u64..100 {
            s.add(&k, k + 1);
        }
        for k in 0u64..100 {
            assert_eq!(s.estimate(&k), k + 1);
        }
    }

    #[test]
    fn never_underestimates() {
        let mut s = CountMinSketch::new(64, 3, 9);
        let mut truth = std::collections::HashMap::new();
        for k in 0u64..1000 {
            let c = 1 + (k % 7);
            s.add(&k, c);
            *truth.entry(k).or_insert(0u64) += c;
        }
        for (k, want) in truth {
            assert!(s.estimate(&k) >= want, "key {k}");
        }
    }

    #[test]
    fn error_bound_holds_in_aggregate() {
        // ε = e/width; estimate ≤ true + ε·N with probability 1−δ per key.
        let mut s = CountMinSketch::with_error_bound(0.01, 0.01, 3);
        let n_keys = 2000u64;
        for k in 0..n_keys {
            s.add(&k, 10);
        }
        let n = s.total() as f64;
        let eps = std::f64::consts::E / s.dims().0 as f64;
        let bound = 10.0 + eps * n;
        let violations = (0..n_keys).filter(|k| s.estimate(k) as f64 > bound).count();
        // δ = 1%: expect ≤ ~20 violations; allow generous slack.
        assert!(violations < 100, "{violations} violations of the CM bound");
    }

    #[test]
    fn unseen_keys_can_collide_but_stay_bounded() {
        let mut s = CountMinSketch::new(256, 4, 5);
        for k in 0u64..100 {
            s.add(&k, 1);
        }
        let ghost = s.estimate(&999_999u64);
        assert!(ghost <= 100);
    }

    #[test]
    fn memory_accounting() {
        let s = CountMinSketch::new(1024, 4, 1);
        assert_eq!(s.memory_bits(32), 1024 * 4 * 32);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_width_rejected() {
        let _ = CountMinSketch::new(0, 4, 1);
    }
}
