//! In-bucket eviction policies.
//!
//! The paper uses LRU within each bucket ("order by descending time",
//! Fig. 4). FIFO and random-victim are provided for the ablation study: they
//! are cheaper in hardware (no access-time update path) and the `ablation`
//! bench quantifies what that cheapness costs in eviction rate.

/// Which slot to evict when a bucket is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least recently *used* entry (the paper's choice).
    Lru,
    /// Evict the least recently *inserted* entry.
    Fifo,
    /// Evict a slot chosen by a deterministic xorshift stream (seeded).
    Random {
        /// Seed for the victim-selection stream.
        seed: u64,
    },
}

impl EvictionPolicy {
    /// Short display name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "LRU",
            EvictionPolicy::Fifo => "FIFO",
            EvictionPolicy::Random { .. } => "random",
        }
    }
}

/// Deterministic victim-selection stream for [`EvictionPolicy::Random`].
#[derive(Debug, Clone)]
pub struct VictimRng {
    state: u64,
}

impl VictimRng {
    /// Create from a seed (zero is remapped: xorshift needs nonzero state).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        VictimRng {
            state: if seed == 0 {
                0x1234_5678_9abc_def1
            } else {
                seed
            },
        }
    }

    /// Next victim index in `0..len`.
    pub fn pick(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(EvictionPolicy::Lru.name(), "LRU");
        assert_eq!(EvictionPolicy::Fifo.name(), "FIFO");
        assert_eq!(EvictionPolicy::Random { seed: 1 }.name(), "random");
    }

    #[test]
    fn victim_rng_is_deterministic() {
        let mut a = VictimRng::new(99);
        let mut b = VictimRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.pick(8), b.pick(8));
        }
    }

    #[test]
    fn victim_rng_in_range_and_covers_slots() {
        let mut rng = VictimRng::new(7);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.pick(8);
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|s| *s),
            "all slots should be picked eventually"
        );
    }

    #[test]
    fn zero_seed_works() {
        let mut rng = VictimRng::new(0);
        let _ = rng.pick(4);
    }
}
