//! Micro-benchmarks of the programmable key-value store: per-packet update
//! cost across geometries and hit/miss regimes. The paper's line-rate budget
//! is one operation per clock (1 ns); these numbers show where the software
//! model spends time (the silicon argument is §3.3's, not ours).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfq_kvstore::{CacheGeometry, CounterOps, EvictionPolicy, SplitStore};
use perfq_packet::Nanos;

/// Deterministic key stream with a hot working set and a heavy tail.
fn key_stream(n: usize) -> Vec<u128> {
    let mut keys = Vec::with_capacity(n);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 80% of references hit a small hot set, 20% are cold tail keys.
        let k = if x % 10 < 8 {
            u128::from(x % 1024)
        } else {
            u128::from(x % 4_000_000) | (1u128 << 80)
        };
        keys.push(k);
    }
    keys
}

fn bench_observe(c: &mut Criterion) {
    let keys = key_stream(100_000);
    let mut group = c.benchmark_group("kvstore_observe");
    group.throughput(Throughput::Elements(keys.len() as u64));
    for (name, geometry) in [
        ("hash_64k", CacheGeometry::hash_table(1 << 16)),
        ("8way_64k", CacheGeometry::set_associative(1 << 16, 8)),
        ("full_64k", CacheGeometry::fully_associative(1 << 16)),
        ("8way_4k", CacheGeometry::set_associative(1 << 12, 8)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &geometry, |b, geom| {
            b.iter(|| {
                let mut store: SplitStore<u128, CounterOps> =
                    SplitStore::new(*geom, EvictionPolicy::Lru, 1, CounterOps);
                for (i, k) in keys.iter().enumerate() {
                    store.observe(black_box(*k), &(), Nanos(i as u64));
                }
                black_box(store.stats().evictions)
            });
        });
    }
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    let keys = key_stream(100_000);
    let mut group = c.benchmark_group("kvstore_policy");
    group.throughput(Throughput::Elements(keys.len() as u64));
    for (name, policy) in [
        ("lru", EvictionPolicy::Lru),
        ("fifo", EvictionPolicy::Fifo),
        ("random", EvictionPolicy::Random { seed: 3 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, pol| {
            b.iter(|| {
                let mut store: SplitStore<u128, CounterOps> = SplitStore::new(
                    CacheGeometry::set_associative(1 << 12, 8),
                    *pol,
                    1,
                    CounterOps,
                );
                for (i, k) in keys.iter().enumerate() {
                    store.observe(black_box(*k), &(), Nanos(i as u64));
                }
                black_box(store.stats().evictions)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_observe, bench_policies);
criterion_main!(benches);
