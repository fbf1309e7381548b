//! The query compiler: resolved programs → switch configurations.
//!
//! The paper stops short of this component ("We have not yet built such a
//! compiler", §1) and instead maps constructs to primitives by hand in
//! §3.1–3.2. This module performs that mapping mechanically:
//!
//! * every `GROUPBY` becomes one programmable key-value store, sized from
//!   the compile options, with its merge strategy chosen by the fold's
//!   derived linearity class;
//! * every fold is audited against the Banzai stateful-ALU budget (§3.3,
//!   [`AluSpec::banzai`]); the audit is recorded per query and never
//!   rejects a program;
//! * `SELECT`/`WHERE` stages become the match-action filters/projections the
//!   runtime evaluates per record;
//! * streaming dataflow edges (query composition) are wired up.

use crate::foldops::FoldOps;
use perfq_kvstore::{CacheGeometry, EvictionPolicy, InlineKey, KeyLayout, SplitStore};
use perfq_lang::{QueryInput, ResolvedKind, ResolvedProgram};
use perfq_switch::{AluReport, AluSpec, AluViolation};

/// Compiler options: the hardware configuration to target.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Key-value pairs per on-chip cache (per GROUPBY).
    pub cache_pairs: usize,
    /// Cache associativity; 0 selects the fully-associative geometry.
    pub ways: usize,
    /// In-bucket eviction policy.
    pub policy: EvictionPolicy,
    /// Seed for key-placement hashing.
    pub hash_seed: u64,
    /// Maximum records captured by selections over the base packet table.
    pub capture_limit: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            cache_pairs: 1 << 16,
            ways: 8,
            policy: EvictionPolicy::Lru,
            hash_seed: 0x7e7e_55aa,
            capture_limit: 100_000,
        }
    }
}

impl CompileOptions {
    /// The cache geometry implied by these options.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        if self.ways == 0 {
            CacheGeometry::fully_associative(self.cache_pairs)
        } else {
            CacheGeometry::set_associative(self.cache_pairs, self.ways)
        }
    }
}

/// The physical plan of one aggregation: a key-value store instance.
#[derive(Debug, Clone)]
pub struct StorePlan {
    /// Cache shape.
    pub geometry: CacheGeometry,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Hash seed (distinct per store).
    pub hash_seed: u64,
    /// Width of the aggregation key on the wire, in bits (the paper's §4
    /// running example: the 5-tuple is 104 bits).
    pub key_bits: u32,
    /// The key's column widths, by which the cache packs a key into its
    /// slot word (their sum is `key_bits`).
    pub key_layout: KeyLayout,
    /// Width of the value, in bits.
    pub value_bits: u32,
    /// The fold's value operations (update + merge semantics).
    pub ops: FoldOps,
}

impl StorePlan {
    /// Bits per key-value pair.
    #[must_use]
    pub fn pair_bits(&self) -> u32 {
        self.key_bits + self.value_bits
    }

    /// An empty store of this shape, its cache packing keys by the plan's
    /// key layout.
    pub(crate) fn build(&self) -> SplitStore<InlineKey, FoldOps> {
        SplitStore::with_key_layout(
            self.geometry,
            self.policy,
            self.hash_seed,
            self.key_layout,
            self.ops.clone(),
        )
    }
}

/// A compiled program: the resolved queries plus their physical plans.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The resolved program.
    pub program: ResolvedProgram,
    /// The options used.
    pub options: CompileOptions,
    /// Per-query store plan (`Some` for GROUPBYs).
    pub stores: Vec<Option<StorePlan>>,
    /// Per-query audit of the fold against [`AluSpec::banzai`] (`Some` for
    /// GROUPBYs). A fold over budget is recorded here as the violation;
    /// compilation never rejects it.
    pub alu: Vec<Option<Result<AluReport, AluViolation>>>,
    /// Streaming dataflow edges: `children[i]` lists queries consuming
    /// query i's output stream.
    pub children: Vec<Vec<usize>>,
}

/// Compile a resolved program against a hardware configuration.
#[must_use]
pub fn compile_program(program: ResolvedProgram, options: CompileOptions) -> CompiledProgram {
    let n = program.queries.len();
    let params = program.param_values();
    // The §3.3/§4 width arithmetic lives with the language resolver: the
    // front end reports every aggregation's key/state bit widths, and the
    // physical planner (and the SRAM area planner downstream) consume them.
    let widths = program.store_widths();
    let key_widths = program.key_widths();
    let mut stores = Vec::with_capacity(n);
    let mut alu = Vec::with_capacity(n);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];

    for (idx, q) in program.queries.iter().enumerate() {
        if let QueryInput::Table(src) = q.input {
            if !q.collect_only {
                children[src].push(idx);
            }
        }
        match &q.kind {
            ResolvedKind::GroupBy(g) => {
                let width = widths[idx].expect("groupby reports a store width");
                stores.push(Some(StorePlan {
                    geometry: options.geometry(),
                    policy: options.policy,
                    hash_seed: options.hash_seed ^ (idx as u64).wrapping_mul(0x9e37_79b9),
                    key_bits: width.key_bits,
                    key_layout: KeyLayout::new(key_widths[idx].as_deref().unwrap_or_default()),
                    value_bits: width.value_bits,
                    ops: FoldOps::new(g.fold.clone(), params.clone()),
                }));
                alu.push(Some(AluSpec::banzai().check(&g.fold)));
            }
            ResolvedKind::Project(_) => {
                stores.push(None);
                alu.push(None);
            }
        }
    }
    CompiledProgram {
        program,
        options,
        stores,
        alu,
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_lang::{compile as lang_compile, fig2};

    fn compiled(src: &str) -> CompiledProgram {
        let prog = lang_compile(src, &fig2::default_params()).unwrap();
        compile_program(prog, CompileOptions::default())
    }

    #[test]
    fn five_tuple_key_is_104_bits() {
        let c = compiled("SELECT COUNT GROUPBY 5tuple");
        let plan = c.stores[0].as_ref().unwrap();
        assert_eq!(plan.key_bits, 104, "paper §4: 5-tuple key = 104 bits");
        assert!(plan.value_bits >= 24);
    }

    #[test]
    fn per_query_stores_and_seeds_differ() {
        let c = compiled("R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY dstip\n");
        let s1 = c.stores[0].as_ref().unwrap();
        let s2 = c.stores[1].as_ref().unwrap();
        assert_ne!(s1.hash_seed, s2.hash_seed);
    }

    #[test]
    fn projections_have_no_store() {
        let c = compiled("SELECT srcip FROM T WHERE tout - tin > 1ms");
        assert!(c.stores[0].is_none());
        assert!(c.alu[0].is_none());
    }

    #[test]
    fn composition_wires_children() {
        let c = compiled(
            "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n",
        );
        assert_eq!(c.children[0], vec![1]);
        assert!(c.children[1].is_empty());
    }

    #[test]
    fn joins_are_not_streaming_children() {
        let c = compiled(
            "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\nR3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple\n",
        );
        assert!(c.children[0].is_empty());
        assert!(c.children[1].is_empty());
    }

    #[test]
    fn alu_reports_recorded_for_all_fig2_queries() {
        for q in fig2::ALL {
            let prog = fig2::compile(q).unwrap();
            let c = compile_program(prog, CompileOptions::default());
            for (store, report) in c.stores.iter().zip(&c.alu) {
                if store.is_some() {
                    assert!(report.as_ref().unwrap().is_ok(), "{}", q.name);
                }
            }
        }
    }

    /// A bucketed cache past the slot-word index is refused when the query
    /// compiles, not by a panic when its runtime is built; at the limit it
    /// compiles and builds. A fully-associative cache has no slot words.
    #[test]
    fn a_cache_past_the_slot_word_index_is_a_plan_error() {
        use crate::{compile_query, Error, Runtime};
        use perfq_kvstore::{PlanError, MAX_BUCKETED_PAIRS};
        let at = |cache_pairs, ways| {
            let options = CompileOptions {
                cache_pairs,
                ways,
                ..Default::default()
            };
            compile_query(
                "SELECT COUNT GROUPBY srcip",
                &fig2::default_params(),
                options,
            )
        };
        match at(MAX_BUCKETED_PAIRS + 1, 8) {
            Err(Error::Plan(PlanError::TooManyPairs { query, pairs })) => {
                assert_eq!((query.as_str(), pairs), ("__q0", MAX_BUCKETED_PAIRS + 8));
            }
            other => panic!("expected TooManyPairs, got {other:?}"),
        }
        let limit = at(MAX_BUCKETED_PAIRS, 8).expect("the limit itself compiles");
        let _ = Runtime::new(limit);
        assert!(at(MAX_BUCKETED_PAIRS + 1, 0).is_ok());
    }

    #[test]
    fn geometry_from_options() {
        let opts = CompileOptions {
            cache_pairs: 1024,
            ways: 0,
            ..Default::default()
        };
        assert_eq!(opts.geometry(), CacheGeometry::fully_associative(1024));
        let opts8 = CompileOptions {
            cache_pairs: 1024,
            ways: 8,
            ..Default::default()
        };
        assert_eq!(opts8.geometry().capacity(), 1024);
        assert_eq!(opts8.geometry().ways, 8);
    }
}
