//! Property suite + §4 pins for the SRAM area planner.
//!
//! The planner turns the paper's chip-area arithmetic into enforced
//! behavior, so two kinds of test pin it:
//!
//! * **exact §4 numbers** — 32 Mbit ⇒ < 2.5 % of a 200 mm² die, 128-bit
//!   pairs for the 5-tuple counter example, ~802 K evictions/s under
//!   `WorkloadModel::paper()`;
//! * **properties** (vendored proptest) — for random budgets and query
//!   mixes, allocations never exceed the budget, every provisioned geometry
//!   is hardware-shaped (power-of-two rows, ways ≥ 1), and per-shard
//!   splits sum to no more than the query's slice (constant total area).

use perfq::prelude::*;
use perfq_kvstore::area::{self, WorkloadModel};
use perfq_kvstore::{CachePlanner, PlanError, QueryDemand, StoreDemand, MAX_BUCKETED_PAIRS};
use proptest::prelude::*;

const MBIT: u64 = 1024 * 1024;

/// What makes two stores one dedup group: (token, pair bits, ways).
type GroupKey = (u64, u32, usize);

/// A planner rejection inside the property suite must be the geometric one —
/// a slice genuinely under one pair width (the degenerate-input variants are
/// unreachable from `build_demands`' well-formed mixes).
fn slice_too_small(e: &PlanError) -> (u64, u32) {
    match e {
        PlanError::SliceTooSmall {
            slice_bits,
            pair_bits,
            ..
        } => (*slice_bits, *pair_bits),
        other => panic!("expected SliceTooSmall, got {other:?}"),
    }
}

/// A rejected plan must be a genuine one: a slice under one pair width, or
/// a bucketed store fitted past the pairs its slot words can index.
fn rejection_is_genuine(e: &PlanError) -> bool {
    match e {
        PlanError::TooManyPairs { pairs, .. } => *pairs > MAX_BUCKETED_PAIRS,
        _ => {
            let (slice_bits, pair_bits) = slice_too_small(e);
            slice_bits < u64::from(pair_bits)
        }
    }
}

// ---------------------------------------------------------------- §4 pins --

#[test]
fn paper_numbers_pin_the_planner() {
    // The running example: one query of 128-bit pairs on the 32 Mbit budget.
    let plan = CachePlanner::new(32 * MBIT)
        .plan(&[QueryDemand::new(
            "per-flow counters",
            vec![StoreDemand::new(area::PAIR_BITS, 8)],
        )])
        .unwrap();
    // 104-bit key + 24-bit counter = 128-bit pairs…
    assert_eq!(area::PAIR_BITS, 128);
    // …so 32 Mbit holds exactly 2^18 pairs, with zero rounding slack.
    assert_eq!(plan.queries[0].stores[0].geometry.capacity(), 1 << 18);
    assert_eq!(plan.allocated_bits(), 32 * MBIT);
    // §4: "a 32-Mbit cache in SRAM costs under 2.5% additional area".
    let frac = plan.area_fraction(area::MIN_CHIP_AREA_MM2);
    assert!(frac < 0.025, "fraction = {frac}");
    assert!(
        frac > 0.02,
        "fraction = {frac} (sanity: close to the bound)"
    );
    // §4: 3.55 % evictions at 32 Mbit ⇒ ~802 K backing-store writes/s.
    let writes = WorkloadModel::paper().evictions_per_sec(0.0355);
    assert!((writes - 802e3).abs() < 2e3, "writes/s = {writes}");
}

#[test]
fn compiled_five_tuple_counter_reports_paper_key_width() {
    // The language front end reports the widths the planner consumes: the
    // 5-tuple key is §4's 104 bits (value state is a 32-bit counter; the
    // paper's 128-bit pair figure uses its 24-bit minimum counter width).
    let c = compile_query(
        "SELECT COUNT GROUPBY 5tuple",
        &fig2::default_params(),
        CompileOptions::default(),
    )
    .unwrap();
    let widths = c.program.store_widths();
    let w = widths[0].expect("groupby reports widths");
    assert_eq!(w.key_bits, 104);
    assert_eq!(w.value_bits, 32);
    assert_eq!(w.pair_bits(), c.stores[0].as_ref().unwrap().pair_bits());
}

#[test]
fn provisioning_all_fig2_queries_fits_one_budget() {
    // Every Fig. 2 program installed concurrently under the §4 budget.
    let programs: Vec<CompiledProgram> = fig2::ALL
        .iter()
        .map(|q| {
            compile_query(q.source, &fig2::default_params(), CompileOptions::default()).unwrap()
        })
        .collect();
    let (multi, plan) = MultiRuntime::provisioned(programs, 32 * MBIT).unwrap();
    assert!(plan.allocated_bits() <= 32 * MBIT);
    assert!(plan.area_fraction(area::MIN_CHIP_AREA_MM2) < 0.025);
    // Every store-bearing program now runs the provisioned geometry.
    let mut allocs = plan.queries.iter();
    for p in multi.runtimes().iter().map(Runtime::compiled) {
        if p.stores.iter().all(Option::is_none) {
            continue;
        }
        let alloc = allocs.next().unwrap();
        for (plan_store, store) in alloc.stores.iter().zip(p.stores.iter().flatten()) {
            assert_eq!(store.geometry, plan_store.geometry);
            assert!(store.geometry.buckets.is_power_of_two());
        }
    }
}

// ------------------------------------------------------------------- dedup --

#[test]
fn dedup_demand_charges_once_and_strictly_grows_geometry() {
    // Two 128-bit-pair queries where one aliases the other (the loss-rate
    // R1 / running-example overlap, as `MultiRuntime::provisioned` tags it):
    // unshared, each store gets half the budget (2^17 pairs at 32 Mbit);
    // deduped, the one physical store absorbs the reclaimed half and its
    // geometry strictly grows to the full 2^18.
    let tagged = |g| vec![StoreDemand::new(area::PAIR_BITS, 8).with_dedup(g)];
    let plan = CachePlanner::new(32 * MBIT)
        .plan(&[
            QueryDemand::new("counter", tagged(9)),
            QueryDemand::new("loss-r1", tagged(9)),
        ])
        .unwrap();
    assert_eq!(plan.deduped_stores(), 1);
    assert_eq!(plan.reclaimed_bits(), 16 * MBIT);
    assert!(plan.allocated_bits() <= 32 * MBIT);
    let physical = plan.queries[0].stores[0];
    let alias = plan.queries[1].stores[0];
    assert!(!physical.deduped && alias.deduped);
    assert_eq!(physical.geometry.capacity(), 1 << 18, "strictly grown");
    assert_eq!(alias.geometry, physical.geometry, "alias mirrors canonical");
    assert_eq!(alias.bits(), 0, "alias charged nothing");
    // Shard splits of the alias agree with the canonical store, so a
    // sharded deployment still provisions one consistent physical store.
    for shards in [1usize, 2, 4, 8] {
        assert_eq!(
            alias.shard_geometry(shards).unwrap(),
            physical.shard_geometry(shards).unwrap()
        );
    }
}

#[test]
fn provisioning_real_overlapping_programs_dedups() {
    // End to end through `MultiRuntime::provisioned`: the §4 running example
    // installed beside the loss-rate program dedups R1 under the default
    // 32 Mbit budget and never over-allocates.
    let compile =
        |src: &str| compile_query(src, &fig2::default_params(), CompileOptions::default()).unwrap();
    let programs = vec![
        compile("SELECT COUNT GROUPBY 5tuple"),
        compile(fig2::PER_FLOW_LOSS_RATE.source),
    ];
    let (multi, plan) = MultiRuntime::provisioned(programs, 32 * MBIT).unwrap();
    assert_eq!(plan.deduped_stores(), 1);
    assert!(plan.reclaimed_bits() > 0);
    assert!(plan.allocated_bits() <= 32 * MBIT);
    // Both programs carry the SAME physical geometry for the shared store.
    let geometry = |p: usize| {
        multi.runtimes()[p].compiled().stores[0]
            .as_ref()
            .unwrap()
            .geometry
    };
    assert_eq!(geometry(0), geometry(1));
}

// -------------------------------------------------------------- properties --

/// A random demand mix: 1–5 queries, each 1–3 stores of 32–512-bit pairs at
/// an associativity from the hardware-plausible set.
fn demand_strategy() -> impl Strategy<Value = Vec<Vec<(u32, usize)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                32u32..512,
                prop_oneof![Just(0usize), Just(1), Just(2), Just(4), Just(8)],
            ),
            1..4,
        ),
        1..6,
    )
}

fn build_demands(mix: &[Vec<(u32, usize)>]) -> Vec<QueryDemand> {
    mix.iter()
        .enumerate()
        .map(|(i, stores)| {
            QueryDemand::new(
                format!("q{i}"),
                stores
                    .iter()
                    .map(|(pair_bits, ways)| StoreDemand::new(*pair_bits, *ways))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The planner never over-allocates, and every geometry it emits is
    /// hardware-shaped. When it errors, the slice genuinely cannot hold one
    /// pair.
    #[test]
    fn plans_never_exceed_the_budget(
        budget in 1u64 << 10..1u64 << 34,
        mix in demand_strategy(),
    ) {
        let demands = build_demands(&mix);
        match CachePlanner::new(budget).plan(&demands) {
            Ok(plan) => {
                prop_assert_eq!(plan.budget_bits, budget);
                prop_assert!(plan.allocated_bits() <= budget,
                    "allocated {} of {budget}", plan.allocated_bits());
                let mut slice_sum = 0u64;
                for (q, d) in plan.queries.iter().zip(&demands) {
                    slice_sum += q.slice_bits;
                    prop_assert!(q.bits() <= q.slice_bits,
                        "{} uses {} of its {}-bit slice", q.name, q.bits(), q.slice_bits);
                    prop_assert_eq!(q.stores.len(), d.stores.len());
                    for s in &q.stores {
                        prop_assert!(s.geometry.buckets.is_power_of_two());
                        prop_assert!(s.geometry.ways >= 1);
                        prop_assert!(s.bits() <= s.slice_bits);
                    }
                }
                prop_assert!(slice_sum <= budget, "slices sum to {slice_sum}");
            }
            Err(e) => {
                // An error must mean some slice is under one pair width, or
                // some store would outgrow its slot-word index.
                prop_assert!(rejection_is_genuine(&e), "rejected a feasible plan: {e}");
            }
        }
    }

    /// Dedup tags never break the budget invariant: for any demand mix and
    /// any tag sprinkling, the plan stays within budget, aliases mirror
    /// their canonical store at zero cost, and every physical store's slice
    /// is at least what the untagged plan would have granted — strictly
    /// more whenever enough bits were reclaimed to redistribute.
    #[test]
    fn dedup_plans_never_exceed_the_budget(
        budget in 1u64 << 12..1u64 << 34,
        mix in demand_strategy(),
        tags in prop::collection::vec(0u64..4, 18),
    ) {
        // Tag value 0 means "untagged"; 1–3 name a dedup group.
        let mut demands = build_demands(&mix);
        let mut ti = 0usize;
        for d in &mut demands {
            for s in &mut d.stores {
                match tags.get(ti) {
                    Some(g) if *g > 0 => s.dedup = Some(*g),
                    _ => {}
                }
                ti += 1;
            }
        }
        let untagged: Vec<QueryDemand> = demands
            .iter()
            .map(|d| {
                let mut d = d.clone();
                for s in &mut d.stores {
                    s.dedup = None;
                }
                d
            })
            .collect();
        let plan = match CachePlanner::new(budget).plan(&demands) {
            Ok(plan) => plan,
            Err(e) => {
                prop_assert!(rejection_is_genuine(&e), "rejected a feasible plan: {e}");
                return Ok(());
            }
        };
        prop_assert!(plan.allocated_bits() <= budget,
            "allocated {} of {budget}", plan.allocated_bits());
        // Aliases mirror the first matching member of their group.
        let mut canon: Vec<(GroupKey, (usize, usize))> = Vec::new();
        for (qi, (q, d)) in plan.queries.iter().zip(&demands).enumerate() {
            for (si, (s, sd)) in q.stores.iter().zip(&d.stores).enumerate() {
                let key = sd.dedup.map(|g| (g, sd.pair_bits, sd.ways));
                if s.deduped {
                    prop_assert_eq!(s.bits(), 0);
                    let (cq, cs) = canon
                        .iter()
                        .find(|(k, _)| Some(*k) == key)
                        .map(|(_, at)| *at)
                        .expect("alias has a canonical member");
                    let c = &plan.queries[cq].stores[cs];
                    prop_assert_eq!(s.geometry, c.geometry);
                    prop_assert_eq!(s.slice_bits, c.slice_bits);
                } else {
                    prop_assert!(s.geometry.buckets.is_power_of_two());
                    prop_assert!(s.bits() <= s.slice_bits);
                    if let Some(k) = key {
                        if !canon.iter().any(|(ck, _)| *ck == k) {
                            canon.push((k, (qi, si)));
                        }
                    }
                }
            }
        }
        // Physical stores never shrink vs the untagged plan.
        if let Ok(base) = CachePlanner::new(budget).plan(&untagged) {
            let n_stores: usize = plan.queries.iter().map(|q| q.stores.len()).sum();
            let n_phys = (n_stores - plan.deduped_stores()) as u64;
            let strictly = plan.reclaimed_bits() >= n_phys && plan.reclaimed_bits() > 0;
            for (q, qb) in plan.queries.iter().zip(&base.queries) {
                for (s, sb) in q.stores.iter().zip(&qb.stores) {
                    if s.deduped {
                        continue;
                    }
                    prop_assert!(s.slice_bits >= sb.slice_bits);
                    if strictly {
                        prop_assert!(s.slice_bits > sb.slice_bits,
                            "reclaimed bits must grow every physical slice");
                    }
                    prop_assert!(s.geometry.capacity() >= sb.geometry.capacity());
                }
            }
        }
    }

    /// Constant total area under sharding: the per-shard geometries of any
    /// store sum to no more than the store's slice (hence the query's).
    #[test]
    fn shard_splits_preserve_the_area_budget(
        budget in 1u64 << 16..1u64 << 34,
        mix in demand_strategy(),
        shards in 1usize..9,
    ) {
        let demands = build_demands(&mix);
        let Ok(plan) = CachePlanner::new(budget).plan(&demands) else {
            return Ok(()); // rejected budgets covered by the other property
        };
        for q in &plan.queries {
            let mut store_total = 0u64;
            for s in &q.stores {
                match s.shard_geometry(shards) {
                    Ok(g) => {
                        prop_assert!(g.buckets.is_power_of_two());
                        prop_assert!(g.ways >= 1);
                        let total = g.sram_bits(s.pair_bits) * shards as u64;
                        prop_assert!(total <= s.slice_bits,
                            "{} shards of {g} = {total} bits > slice {}", shards, s.slice_bits);
                        store_total += total;
                    }
                    Err(e) => {
                        let (slice_bits, pair_bits) = slice_too_small(&e);
                        prop_assert!(slice_bits < u64::from(pair_bits),
                            "rejected a feasible shard slice: {e}");
                    }
                }
            }
            prop_assert!(store_total <= q.slice_bits,
                "{}: shard totals {store_total} exceed the query slice {}", q.name, q.slice_bits);
        }
    }
}
