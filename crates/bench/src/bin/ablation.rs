//! Ablations of the hardware design choices (ablations A–C; see `ARCHITECTURE.md`).
//!
//! * **A — eviction policy**: the paper picks LRU within buckets; FIFO and
//!   random-victim are cheaper in silicon. How much eviction rate do they
//!   cost?
//! * **B — sketches**: §5 claims the key-value store "sidesteps the
//!   accuracy-memory tradeoff of sketches" for linear queries. We give a
//!   count-min sketch the *same* SRAM budget as the cache and measure its
//!   per-flow count error; the split store is exact at every size.
//! * **C — associativity**: Fig. 5 shows m=8 within 2% of full LRU; the
//!   sweep here fills in m ∈ {1,2,4,8,16}.

use perfq_bench::{si_fmt, KeyTrace, Table};
use perfq_kvstore::area::{sram_bits_for_pairs, PAIR_BITS};
use perfq_kvstore::{CacheGeometry, CountMinSketch, CounterOps, EvictionPolicy, SplitStore};
use perfq_packet::Nanos;
use std::collections::HashMap;

fn eviction_fraction(trace: &KeyTrace, geometry: CacheGeometry, policy: EvictionPolicy) -> f64 {
    let mut store: SplitStore<u128, CounterOps> =
        SplitStore::new(geometry, policy, 0xab1a, CounterOps);
    for (k, t) in trace.keys.iter().zip(&trace.times) {
        store.observe(*k, &(), Nanos(*t));
    }
    store.stats().eviction_fraction()
}

fn main() {
    println!("Ablations of the key-value store design\n");
    let trace = KeyTrace::generate();
    println!("workload: {} packets, {} flows\n", trace.len(), trace.flows);

    let paper_ratio = (1u64 << 18) as f64 / 3.8e6; // the 32-Mbit point
    let target = ((trace.flows as f64 * paper_ratio) as usize).next_power_of_two();

    // ---- A: eviction policy ----
    println!("A. eviction policy at the target size ({target} pairs, 8-way):");
    let ta = Table::new(&[10, 14]);
    ta.row(&["policy".into(), "evictions %".into()]);
    ta.sep();
    let mut csv_a = Vec::new();
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::Random { seed: 7 },
    ] {
        let frac = eviction_fraction(&trace, CacheGeometry::set_associative(target, 8), policy);
        ta.row(&[policy.name().into(), format!("{:.3}", frac * 100.0)]);
        csv_a.push(format!("{},{:.6}", policy.name(), frac));
    }
    ta.sep();
    perfq_bench::write_csv("ablation_policy.csv", "policy,eviction_frac", &csv_a);

    // ---- C: associativity sweep ----
    println!("\nC. associativity at the target size ({target} pairs, LRU):");
    let tc = Table::new(&[10, 14]);
    tc.row(&["ways".into(), "evictions %".into()]);
    tc.sep();
    let mut csv_c = Vec::new();
    for ways in [1usize, 2, 4, 8, 16] {
        let frac = eviction_fraction(
            &trace,
            CacheGeometry::set_associative(target, ways),
            EvictionPolicy::Lru,
        );
        tc.row(&[format!("{ways}"), format!("{:.3}", frac * 100.0)]);
        csv_c.push(format!("{ways},{frac:.6}"));
    }
    let full = eviction_fraction(
        &trace,
        CacheGeometry::fully_associative(target),
        EvictionPolicy::Lru,
    );
    tc.row(&["full".into(), format!("{:.3}", full * 100.0)]);
    csv_c.push(format!("full,{full:.6}"));
    tc.sep();
    perfq_bench::write_csv("ablation_ways.csv", "ways,eviction_frac", &csv_c);

    // ---- B: count-min sketch at equal memory ----
    println!("\nB. per-flow counts: count-min sketch at the cache's SRAM budget");
    println!("   (split KV store is exact at every size; sketch error below)\n");
    let mut truth: HashMap<u128, u64> = HashMap::new();
    for k in &trace.keys {
        *truth.entry(*k).or_insert(0) += 1;
    }
    let tb = Table::new(&[10, 10, 14, 14, 16]);
    tb.row(&[
        "pairs".into(),
        "Mbit".into(),
        "mean rel err".into(),
        "p99 rel err".into(),
        "kv-store err".into(),
    ]);
    tb.sep();
    let mut csv_b = Vec::new();
    for shift in 0..4 {
        let pairs = target >> shift;
        if pairs == 0 {
            continue;
        }
        let budget_bits = sram_bits_for_pairs(pairs as u64, PAIR_BITS);
        // Standard depth-4 sketch with 32-bit counters at the same budget.
        let depth = 4usize;
        let width = (budget_bits / (depth as u64 * 32)).max(1) as usize;
        let mut sketch = CountMinSketch::new(width, depth, 0xcafe);
        for k in &trace.keys {
            sketch.add(k, 1);
        }
        let mut errs: Vec<f64> = truth
            .iter()
            .map(|(k, want)| {
                let got = sketch.estimate(k);
                (got.saturating_sub(*want)) as f64 / *want as f64
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let p99 = errs[(errs.len() as f64 * 0.99) as usize];
        let mbit = budget_bits as f64 / (1024.0 * 1024.0);
        tb.row(&[
            format!("{pairs}"),
            format!("{mbit:.1}"),
            format!("{:.2}x", mean),
            format!("{:.2}x", p99),
            "exact (0)".into(),
        ]);
        csv_b.push(format!("{pairs},{mbit:.2},{mean:.4},{p99:.4}"));
    }
    tb.sep();
    println!(
        "\n   note: sketch error is *over*-estimation (count-min never\n   \
         under-counts); the split store pays instead with {} backing-store\n   \
         writes/s at the target size — the paper's trade.",
        si_fmt(0.0355 * 22.6e6)
    );
    perfq_bench::write_csv(
        "ablation_sketch.csv",
        "pairs,mbit,mean_rel_err,p99_rel_err",
        &csv_b,
    );
}
