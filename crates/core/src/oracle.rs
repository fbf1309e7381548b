//! The ground-truth oracle: exact query evaluation with unbounded state, and
//! a prediction of what the hardware reports.
//!
//! The oracle executes the same resolved program as the hardware runtime
//! with the tree-walking interpreter (`perfq_lang::ir`) and keeps every
//! aggregation's state in an ordinary hash map — no cache, no evictions, no
//! merging. [`Oracle::new`] gives the **exact truth**, for two purposes:
//!
//! * **validation** — for linear-in-state folds the split store must match
//!   the oracle *exactly* (the merge-correctness guarantee of §3.2); the
//!   integration tests assert this on every Fig. 2 query;
//! * **accuracy measurement** — for non-linear folds, comparing runtime
//!   output against the oracle quantifies the invalid-key degradation that
//!   Fig. 6 plots.
//!
//! The exact truth is not what the hardware reports once keys are evicted:
//! a non-linear key re-inserted after an eviction is *invalid* (§3.2), a
//! packet-window fold keeps only its latest residency, and a composed query
//! streams the upstream cache's residency-local running value. All three
//! depend on the cache's residency schedule, so [`Oracle::predict`] adds a
//! **hardware prediction**: each GROUPBY store's cache becomes a
//! set-associative residency model of the store's [`StorePlan`] — a key
//! lives in set `hash_key(hash_seed, key) % buckets` (one set is the
//! fully-associative cache), a miss fills the set's next free slot or
//! replaces the policy's victim in place (LRU: oldest access, FIFO: oldest
//! insert, Random: `VictimRng::pick` over the slots) — and each residency is
//! folded from the fold's initial state. The placement hash and the victim
//! stream are all it shares with `perfq-kvstore`; it shares no code with the
//! runtime's executor, store or fold bytecode. Per key it predicts the
//! exact unbounded state for linear folds, and otherwise the latest
//! residency's state — valid, for a non-linear fold, iff the key had
//! exactly one residency — plus every store's [`StoreStats`].

use crate::compiler::{CompiledProgram, StorePlan};
use crate::result::{value_key, ResultSet};
use crate::runtime::{collect_results, Capture};
use perfq_kvstore::hash::hash_key;
use perfq_kvstore::policy::VictimRng;
use perfq_kvstore::{EvictionPolicy, InlineKey, StoreStats};
use perfq_lang::ir::{eval, FoldClass, FoldIr};
use perfq_lang::resolve::GroupOutput;
use perfq_lang::{QueryInput, ResolvedKind, Value};
use perfq_switch::QueueRecord;
use std::collections::HashMap;

/// Exact executor over the same dataflow as [`crate::Runtime`].
#[derive(Debug)]
pub struct Oracle {
    compiled: CompiledProgram,
    params: Vec<Value>,
    states: Vec<Option<HashMap<Vec<i64>, Vec<Value>>>>,
    captures: Vec<Option<Capture>>,
    roots: Vec<usize>,
    /// Base-row buffer reused across records.
    row: Vec<Value>,
    /// Group-key buffer reused across records: a key reaches the heap only
    /// on its first sighting.
    key: Vec<i64>,
    /// Per query, its store's residency model — empty unless the oracle
    /// predicts ([`Oracle::predict`]).
    residency: Vec<Option<Residency>>,
}

/// What the hardware reports for a record stream: [`crate::Runtime`]'s
/// `finish()` + `collect()` and its per-store counters, as
/// [`Oracle::predict`] models them.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Every table, validity bits included.
    pub results: ResultSet,
    /// Per query, its store's counters after `finish()` (`None` for
    /// projections) — what [`crate::Runtime::store_stats`] reads.
    pub stats: Vec<Option<StoreStats>>,
}

/// One GROUPBY store's SRAM cache as a set-associative residency model.
#[derive(Debug)]
struct Residency {
    class: FoldClass,
    seed: u64,
    ways: usize,
    policy: EvictionPolicy,
    rng: VictimRng,
    /// Per set, its resident keys slot by slot.
    sets: Vec<Vec<Vec<i64>>>,
    /// Advances once per access; the keys' stamps read it.
    clock: u64,
    /// Every key the store has seen.
    keys: HashMap<Vec<i64>, KeyResidency>,
    stats: StoreStats,
}

#[derive(Debug, Default)]
struct KeyResidency {
    /// The running state of the key's current residency — of its last one
    /// once evicted.
    vars: Vec<Value>,
    residencies: u32,
    resident: bool,
    /// Clock at the last access (LRU's victim is the minimum) and at the
    /// insertion (FIFO's victim is the minimum).
    accessed: u64,
    inserted: u64,
}

impl Residency {
    fn new(plan: &StorePlan, class: FoldClass) -> Self {
        let rng_seed = match plan.policy {
            EvictionPolicy::Random { seed } => seed,
            _ => 1,
        };
        Residency {
            class,
            seed: plan.hash_seed,
            ways: plan.geometry.ways,
            policy: plan.policy,
            rng: VictimRng::new(rng_seed),
            sets: (0..plan.geometry.buckets).map(|_| Vec::new()).collect(),
            clock: 0,
            keys: HashMap::new(),
            stats: StoreStats::default(),
        }
    }

    /// One packet for `key`: a hit, or a miss that starts a residency from
    /// the fold's initial state; then the fold. Returns the residency-local
    /// state — what a downstream query is streamed.
    fn observe(&mut self, key: &[i64], fold: &FoldIr, row: &[Value], params: &[Value]) -> &[Value] {
        self.clock += 1;
        self.stats.packets += 1;
        if self.keys.get(key).is_some_and(|k| k.resident) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.seat(key);
            let k = self.keys.entry(key.to_vec()).or_default();
            (k.vars, k.inserted, k.resident) = (fold.init_state(), self.clock, true);
            k.residencies += 1;
        }
        let k = self.keys.get_mut(key).expect("seated above");
        if self.policy != EvictionPolicy::Fifo {
            k.accessed = self.clock;
        }
        fold.update(&mut k.vars, row, params)
            .expect("type-checked fold cannot fail");
        &k.vars
    }

    /// Seat `key` in its set `hash_key(seed, key) % buckets`: the next free
    /// slot, else the policy's victim's, replaced in place.
    fn seat(&mut self, key: &[i64]) {
        let set = hash_key(self.seed, &InlineKey::from_slice(key)) % self.sets.len() as u64;
        let slots = &mut self.sets[set as usize];
        if slots.len() < self.ways {
            return slots.push(key.to_vec());
        }
        let keys = &self.keys;
        let oldest = |stamp: fn(&KeyResidency) -> u64| {
            (0..slots.len())
                .min_by_key(|&i| stamp(&keys[&slots[i]]))
                .unwrap_or(0)
        };
        let victim = match self.policy {
            EvictionPolicy::Lru => oldest(|k| k.accessed),
            EvictionPolicy::Fifo => oldest(|k| k.inserted),
            EvictionPolicy::Random { .. } => self.rng.pick(slots.len()),
        };
        let evicted = std::mem::replace(&mut slots[victim], key.to_vec());
        if let Some(k) = self.keys.get_mut(&evicted) {
            k.resident = false;
        }
        self.stats.evictions += 1;
    }

    /// The counters after `finish()` flushes every resident key.
    fn finished_stats(&self) -> StoreStats {
        let flushed = self.sets.iter().map(|s| s.len() as u64).sum::<u64>();
        StoreStats {
            flush_writes: flushed,
            backing_writes: self.stats.evictions + flushed,
            ..self.stats
        }
    }

    /// The predicted `(key, vars, valid)` rows; `exact` is the store's
    /// unbounded state over the same inputs.
    fn rows<'a>(
        &'a self,
        exact: &'a HashMap<Vec<i64>, Vec<Value>>,
    ) -> impl Iterator<Item = (&'a [i64], &'a [Value], bool)> + Clone {
        let class = self.class;
        self.keys.iter().map(move |(key, k)| match class {
            FoldClass::Linear { .. } => (key.as_slice(), exact[key].as_slice(), true),
            FoldClass::PureWindow { .. } => (key.as_slice(), k.vars.as_slice(), true),
            FoldClass::NonLinear => (key.as_slice(), k.vars.as_slice(), k.residencies == 1),
        })
    }
}

impl Oracle {
    /// Create an oracle for a compiled program (hardware options are ignored
    /// except for the capture limit, kept equal for fair comparison).
    #[must_use]
    pub fn new(compiled: CompiledProgram) -> Self {
        let params = compiled.program.param_values();
        let mut states = Vec::new();
        let mut captures = Vec::new();
        let mut roots = Vec::new();
        for (idx, q) in compiled.program.queries.iter().enumerate() {
            states.push(match &q.kind {
                ResolvedKind::GroupBy(_) => Some(HashMap::new()),
                ResolvedKind::Project(_) => None,
            });
            captures.push(
                matches!(
                    (&q.kind, &q.input),
                    (ResolvedKind::Project(_), QueryInput::Base)
                )
                .then(|| Capture {
                    limit: compiled.options.capture_limit,
                    ..Default::default()
                }),
            );
            if matches!(q.input, QueryInput::Base) {
                roots.push(idx);
            }
        }
        Oracle {
            compiled,
            params,
            states,
            captures,
            roots,
            row: Vec::new(),
            key: Vec::new(),
            residency: Vec::new(),
        }
    }

    /// Process one queue record.
    pub fn process_record(&mut self, rec: &QueueRecord) {
        let mut row = std::mem::take(&mut self.row);
        rec.write_row(&mut row);
        for r in 0..self.roots.len() {
            self.feed(self.roots[r], &row);
        }
        self.row = row;
    }

    fn feed(&mut self, idx: usize, row: &[Value]) {
        let q = &self.compiled.program.queries[idx];
        if let Some(f) = &q.pre_filter {
            let pass = eval(f, &[], row, &self.params)
                .expect("type-checked filter cannot fail")
                .truthy();
            if !pass {
                return;
            }
        }
        let out: Vec<Value> = match &q.kind {
            ResolvedKind::Project(cols) => {
                let out: Vec<Value> = cols
                    .iter()
                    .map(|c| {
                        eval(&c.expr, &[], row, &self.params)
                            .expect("type-checked projection cannot fail")
                    })
                    .collect();
                if let Some(cap) = self.captures[idx].as_mut() {
                    cap.push(&out);
                }
                out
            }
            ResolvedKind::GroupBy(g) => {
                let key = &mut self.key;
                key.clear();
                key.extend(g.key_cols.iter().map(|c| value_key(&row[*c])));
                // A predicting oracle streams what the cache holds.
                let local = match self.residency.get_mut(idx) {
                    Some(Some(model)) => Some(model.observe(key, &g.fold, row, &self.params)),
                    _ => None,
                };
                let map = self.states[idx].as_mut().expect("groupby has state");
                let state = match map.get_mut(key.as_slice()) {
                    Some(state) => state,
                    None => map
                        .entry(key.clone())
                        .or_insert_with(|| g.fold.init_state()),
                };
                g.fold
                    .update(state, row, &self.params)
                    .expect("type-checked fold cannot fail");
                // Only children read the output row.
                if self.compiled.children[idx].is_empty() {
                    return;
                }
                let vars = local.unwrap_or(state);
                g.output
                    .iter()
                    .map(|o| match o {
                        GroupOutput::Key(i) => row[g.key_cols[*i]],
                        GroupOutput::StateVar(j) => vars[*j],
                    })
                    .collect()
            }
        };
        for c in 0..self.compiled.children[idx].len() {
            self.feed(self.compiled.children[idx][c], &out);
        }
    }

    /// Exact final tables.
    #[must_use]
    pub fn collect(&self) -> ResultSet {
        collect_results(
            &self.compiled.program,
            |idx| {
                let state = self.states[idx].as_ref().expect("groupby has state");
                (state.iter()).map(|(k, v)| (k.as_slice(), v.as_slice(), true))
            },
            &self.captures,
            &self.params,
        )
    }

    /// Number of distinct keys an aggregation saw (for reports).
    #[must_use]
    pub fn distinct_keys(&self, idx: usize) -> Option<usize> {
        self.states.get(idx)?.as_ref().map(HashMap::len)
    }

    /// Feed a full record stream then collect (convenience).
    pub fn run(compiled: CompiledProgram, records: impl Iterator<Item = QueueRecord>) -> ResultSet {
        let mut o = Oracle::new(compiled);
        for r in records {
            o.process_record(&r);
        }
        o.collect()
    }

    /// Predict what a [`crate::Runtime`] over `compiled` reports for
    /// `records` after `finish()`: every table, validity bits included, and
    /// every store's counters — the residency model of the module docs, the
    /// reference the runtime is checked against under eviction pressure.
    pub fn predict<'r>(
        compiled: CompiledProgram,
        records: impl IntoIterator<Item = &'r QueueRecord>,
    ) -> Prediction {
        let residency = (compiled.stores.iter().zip(&compiled.program.queries))
            .map(|(plan, q)| Some(Residency::new(plan.as_ref()?, q.fold()?.class)))
            .collect();
        let mut o = Oracle {
            residency,
            ..Oracle::new(compiled)
        };
        for r in records {
            o.process_record(r);
        }
        let results = collect_results(
            &o.compiled.program,
            |idx| {
                let exact = o.states[idx].as_ref().expect("groupby has state");
                let model = o.residency[idx].as_ref().expect("groupby has a store");
                model.rows(exact)
            },
            &o.captures,
            &o.params,
        );
        let stats = (o.residency.iter())
            .map(|m| m.as_ref().map(Residency::finished_stats))
            .collect();
        Prediction { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_program, CompileOptions};
    use crate::result::diff_tables;
    use crate::runtime::Runtime;
    use perfq_lang::{compile as lang_compile, fig2};
    use perfq_packet::{Nanos, PacketBuilder};
    use std::net::Ipv4Addr;

    fn compiled(src: &str, opts: CompileOptions) -> CompiledProgram {
        let prog = lang_compile(src, &fig2::default_params()).unwrap();
        compile_program(prog, opts).unwrap()
    }

    fn records(n: u32) -> Vec<QueueRecord> {
        (0..n)
            .map(|i| QueueRecord {
                packet: PacketBuilder::tcp()
                    .src(
                        Ipv4Addr::new(10, 0, 0, (i % 5) as u8),
                        1000 + (i % 3) as u16,
                    )
                    .dst(Ipv4Addr::new(172, 16, 0, 1), 80)
                    .seq(i * 100)
                    .payload_len(100)
                    .uniq(u64::from(i))
                    .build(),
                qid: 1,
                tin: Nanos(u64::from(i) * 1000),
                tout: if i % 11 == 10 {
                    Nanos::INFINITY
                } else {
                    Nanos(u64::from(i) * 1000 + 300 + u64::from(i % 7) * 40)
                },
                qsize: i % 13,
                qout: 0,
                path: 1,
            })
            .collect()
    }

    /// With a cache big enough to avoid evictions, runtime == oracle on every
    /// table, bit for bit (modulo float tolerance).
    #[test]
    fn runtime_matches_oracle_without_eviction_pressure() {
        for q in fig2::ALL {
            let c = compiled(q.source, CompileOptions::default());
            let mut rt = Runtime::new(c.clone());
            let mut oracle = Oracle::new(c);
            for r in records(500) {
                rt.process_record(&r);
                oracle.process_record(&r);
            }
            rt.finish();
            let got = rt.collect();
            let want = oracle.collect();
            for (a, b) in got.tables.iter().zip(&want.tables) {
                if let Some(d) = diff_tables(a, b, 1e-9) {
                    panic!("{}: {}", q.name, d);
                }
            }
        }
    }

    /// Under heavy eviction pressure, *linear* queries still match exactly.
    #[test]
    fn linear_queries_match_oracle_under_eviction() {
        for q in fig2::ALL {
            if !q.paper_linear {
                continue;
            }
            let opts = CompileOptions {
                cache_pairs: 4,
                ways: 0,
                ..Default::default()
            };
            let c = compiled(q.source, opts);
            let mut rt = Runtime::new(c.clone());
            let mut oracle = Oracle::new(c);
            for r in records(800) {
                rt.process_record(&r);
                oracle.process_record(&r);
            }
            rt.finish();
            let got = rt.collect();
            let want = oracle.collect();
            // Compare aggregation tables only: composed/downstream queries
            // legitimately diverge under eviction because downstream stages
            // observe cache-local running values (§3.2).
            let (name, got_t, want_t) = (
                q.verdict_query,
                got.table(q.verdict_query).unwrap(),
                want.table(q.verdict_query).unwrap(),
            );
            // …except when the verdict query is itself downstream (R2 of the
            // high-latency pipeline); skip that one here — covered by the
            // no-eviction test above.
            if matches!(
                rt.compiled().program.query(name).unwrap().input,
                QueryInput::Base
            ) {
                if let Some(d) = diff_tables(got_t, want_t, 1e-9) {
                    panic!("{}: {}", q.name, d);
                }
            }
        }
    }

    /// The non-linear query's invalid marking: invalid keys appear only under
    /// eviction pressure, and accuracy equals the valid fraction.
    #[test]
    fn nonlinear_invalidity_under_pressure() {
        let opts = CompileOptions {
            cache_pairs: 2,
            ways: 0,
            ..Default::default()
        };
        let c = compiled(fig2::TCP_NON_MONOTONIC.source, opts);
        let mut rt = Runtime::new(c);
        for r in records(600) {
            rt.process_record(&r);
        }
        rt.finish();
        let rs = rt.collect();
        let t = &rs.tables[0];
        let invalid = t.rows.iter().filter(|r| !r.valid).count();
        assert!(invalid > 0, "tiny cache must invalidate some keys");
        // Under this extreme pressure (2-entry cache, 15 hot keys) every key
        // is evicted and re-inserted, so accuracy may legitimately reach 0.
        assert!(t.accuracy() < 1.0);
    }

    /// `Oracle::collect` walks a hash map in whatever order it iterates;
    /// the table must still come out exactly as "gather, then sort by key
    /// words" gives it — for one-word, inline and spilled (7-word) keys, with
    /// negative words and heavy leading ties no packet would produce mixed in.
    #[test]
    fn collect_orders_the_map_by_key_words() {
        use crate::runtime::reference_group_rows;
        for src in [
            "SELECT COUNT GROUPBY srcip",
            "SELECT COUNT GROUPBY 5tuple",
            "SELECT COUNT GROUPBY srcip, dstip, srcport, dstport, proto, pkt_len, qid",
        ] {
            let mut o = Oracle::new(compiled(src, CompileOptions::default()));
            for r in records(500) {
                o.process_record(&r);
            }
            let q = o.compiled.program.queries[0].clone();
            let ResolvedKind::GroupBy(g) = &q.kind else {
                unreachable!("an aggregation")
            };
            let map = o.states[0].as_mut().unwrap();
            for i in 0..300i64 {
                let width = g.key_cols.len() as i64;
                let key: Vec<i64> = (0..width)
                    .map(|w| if w + 1 < width { (i >> w) % 2 } else { i - 150 })
                    .collect();
                map.insert(key, g.fold.init_state());
            }
            let got = o.collect();
            let map = o.states[0].as_ref().unwrap();
            let want = reference_group_rows(
                g,
                &q.schema,
                map.iter().map(|(k, v)| (k.as_slice(), v.as_slice(), true)),
            );
            assert!(want.len() > 300, "{src}: {} rows", want.len());
            assert_eq!(got.tables[0].rows, want, "{src}");
        }
    }

    #[test]
    fn oracle_distinct_keys() {
        let c = compiled("SELECT COUNT GROUPBY srcip", CompileOptions::default());
        let mut o = Oracle::new(c);
        for r in records(100) {
            o.process_record(&r);
        }
        assert_eq!(o.distinct_keys(0), Some(5));
    }
}
