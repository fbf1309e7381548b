//! Sampling primitives for workload synthesis.
//!
//! The trace generator needs heavy-tailed flow sizes (the defining property
//! of Internet traffic that drives the paper's cache-eviction results),
//! Poisson arrivals, and an empirical packet-size mix. All are implemented by
//! inverse-transform sampling over `rand`'s uniform source so the substrate
//! has no opaque statistical dependencies.

use rand::Rng;

/// Exponential distribution (inter-arrival gaps of a Poisson process).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Create with the given mean (must be positive).
    #[must_use]
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Exponential { mean }
    }

    /// Draw a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform: −mean·ln(U), U ∈ (0,1].
        let u: f64 = 1.0 - rng.gen::<f64>(); // avoid ln(0)
        -self.mean * u.ln()
    }
}

/// Discrete bounded Pareto distribution for flow sizes in packets.
///
/// `P(X ≥ x) ∝ x^(−α)` for `x ∈ [min, cap]`. Small `α` (1.0–1.4) produces
/// the mice-and-elephants mix measured in WAN traces: the median flow is a
/// handful of packets while a tiny fraction of flows carries most packets.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    alpha: f64,
    min: f64,
    cap: f64,
}

impl BoundedPareto {
    /// Create with tail index `alpha`, minimum `min` and cap `cap`.
    #[must_use]
    pub fn new(alpha: f64, min: u64, cap: u64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(min >= 1 && cap > min, "need 1 <= min < cap");
        BoundedPareto {
            alpha,
            min: min as f64,
            cap: cap as f64,
        }
    }

    /// Draw an integer sample in `[min, cap]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Inverse CDF of the bounded Pareto.
        let u: f64 = rng.gen();
        let (l, h, a) = (self.min, self.cap, self.alpha);
        let la = l.powf(-a);
        let ha = h.powf(-a);
        let x = (la - u * (la - ha)).powf(-1.0 / a);
        (x as u64).clamp(self.min as u64, self.cap as u64)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s` — used for
/// popularity skew (destination hot spots).
///
/// Sampling is by binary search over the precomputed CDF: O(log n) per draw,
/// exact, and deterministic given the RNG.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create over `n` ranks with exponent `s ≥ 0` (s = 0 is uniform).
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// An empirical packet-size mix: weighted size buckets with uniform draw
/// inside each bucket.
///
/// The default approximates the long-measured Internet bimodal mix: ~45 %
/// minimum-size packets (ACKs), ~35 % MTU-size, the rest spread between.
#[derive(Debug, Clone)]
pub struct PacketSizeMix {
    buckets: Vec<(f64, u16, u16)>, // (cumulative weight, lo, hi)
}

impl PacketSizeMix {
    /// Build from `(weight, lo, hi)` buckets (weights need not sum to 1).
    #[must_use]
    pub fn new(spec: &[(f64, u16, u16)]) -> Self {
        assert!(!spec.is_empty(), "need at least one bucket");
        let total: f64 = spec.iter().map(|(w, _, _)| w).sum();
        let mut acc = 0.0;
        let buckets = spec
            .iter()
            .map(|(w, lo, hi)| {
                assert!(lo <= hi, "bucket range inverted");
                acc += w / total;
                (acc, *lo, *hi)
            })
            .collect();
        PacketSizeMix { buckets }
    }

    /// The classic WAN bimodal mix (payload bytes on top of 54 B of headers).
    #[must_use]
    pub fn internet() -> Self {
        Self::new(&[
            (0.45, 0, 12),      // ACK-size
            (0.18, 100, 500),   // small transactions
            (0.37, 1300, 1446), // MTU-size
        ])
    }

    /// Datacenter mix tuned so the mean wire size is ≈850 B, the average the
    /// paper adopts from Benson et al.
    #[must_use]
    pub fn datacenter() -> Self {
        Self::new(&[(0.35, 0, 12), (0.12, 200, 1000), (0.53, 1380, 1446)])
    }

    /// Draw a payload size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        let u: f64 = rng.gen();
        for (acc, lo, hi) in &self.buckets {
            if u <= *acc {
                return rng.gen_range(*lo..=*hi);
            }
        }
        let (_, lo, hi) = self.buckets[self.buckets.len() - 1];
        rng.gen_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xabcd)
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(5.0);
        let mut r = rng();
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = BoundedPareto::new(1.2, 1, 100_000);
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let ones = samples.iter().filter(|s| **s == 1).count() as f64 / n as f64;
        // P(X = 1) is large under α=1.2 (mice dominate)…
        assert!(ones > 0.4, "P(X=1) = {ones}");
        // …but elephants exist and carry a disproportionate share.
        let max = *samples.iter().max().unwrap();
        assert!(max > 1_000, "max = {max}");
        let total: u64 = samples.iter().sum();
        let mut sorted = samples.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: u64 = sorted.iter().take(n / 100).sum();
        assert!(
            top1pct as f64 / total as f64 > 0.25,
            "top 1% of flows carry {}% of packets",
            100.0 * top1pct as f64 / total as f64
        );
    }

    #[test]
    fn pareto_respects_bounds() {
        let d = BoundedPareto::new(0.8, 2, 50);
        let mut r = rng();
        for _ in 0..10_000 {
            let s = d.sample(&mut r);
            assert!((2..=50).contains(&s));
        }
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
        // Rank 0 frequency ≈ 1/H_100 ≈ 0.192.
        let f0 = counts[0] as f64 / 50_000.0;
        assert!((f0 - 0.192).abs() < 0.02, "f0 = {f0}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for c in counts {
            let f = c as f64 / 50_000.0;
            assert!((f - 0.1).abs() < 0.02, "f = {f}");
        }
    }

    #[test]
    fn packet_mix_within_ranges() {
        let m = PacketSizeMix::internet();
        let mut r = rng();
        for _ in 0..10_000 {
            let s = m.sample(&mut r);
            assert!(s <= 1446);
        }
    }

    #[test]
    fn datacenter_mix_mean_near_850_wire_bytes() {
        let m = PacketSizeMix::datacenter();
        let mut r = rng();
        let n = 200_000;
        // Wire size = Ethernet(14) + IP(20) + TCP(20) + payload.
        let sum: f64 = (0..n).map(|_| 54.0 + f64::from(m.sample(&mut r))).sum();
        let mean = sum / f64::from(n);
        assert!(
            (mean - 850.0).abs() < 40.0,
            "mean wire size = {mean} (want ≈ 850)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = BoundedPareto::new(1.1, 1, 1000);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
