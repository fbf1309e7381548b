//! Chip-area and workload feasibility model (§3.3 and §4 of the paper),
//! and the **SRAM area planner** that turns it into enforced behavior.
//!
//! The paper's hardware argument is back-of-the-envelope arithmetic over
//! published numbers; this module encodes that arithmetic so the `area`
//! bench binary can regenerate every in-text figure:
//!
//! * SRAM density ≈ 7000 Kbit/mm² (§4, citing ARM embedded SRAM);
//! * smallest switching chips ≈ 200 mm² (§4, citing Gibb et al.);
//! * a 32 Mbit cache ⇒ < 2.5 % extra area;
//! * 104-bit 5-tuple key + 24-bit counter ⇒ 128-bit pairs;
//! * Benson et al. datacenter conditions (850 B average packets, 30 %
//!   utilization) on a 1 GHz pipeline that can forward 10⁹ 64 B packets/s
//!   ⇒ 22.6 M average-sized packets/s;
//! * 3.55 % eviction rate at 32 Mbit ⇒ ~802 K backing-store writes/s.
//!
//! # Area-budgeted provisioning
//!
//! §3.3's premise is that one *fixed* slice of die SRAM (the 32 Mbit of the
//! running example) is shared by **every concurrently-installed query** — the
//! cache is a provisioned resource, not a per-query constant. The
//! [`CachePlanner`] makes that arithmetic executable: given a total budget in
//! bits and the per-query pair widths (key bits + state bits, as each
//! compiled program reports them), [`CachePlanner::plan`] emits an
//! [`AreaPlan`] of concrete [`CacheGeometry`] allocations.
//!
//! The planner arithmetic, top down:
//!
//! 1. the budget divides equally across queries: `slice_q = budget / n_queries`;
//! 2. a query's slice divides equally across its aggregation stores (one
//!    per `GROUPBY`): `slice_s = slice_q / n_stores`;
//! 3. a store's slice becomes a geometry by fitting the largest
//!    hardware-shaped cache under it: `pairs = slice_s / pair_bits`, then
//!    the bucket count is rounded *down* to a power of two (SRAM rows are
//!    decoded by address bits) at the store's associativity, so
//!    `geometry.sram_bits(pair_bits) ≤ slice_s` always;
//! 4. sharded execution splits a store's slice a further `1/N` per shard
//!    ([`StoreAllocation::shard_geometry`]), keeping **total** area constant
//!    as the dataplane scales across cores — the shard geometries sum to no
//!    more than the single-stream allocation;
//! 5. stores that several installed queries **share** (cross-query dedup,
//!    tagged via [`StoreDemand::dedup`] by `perfq-core`'s sharing analysis)
//!    are charged once: alias members mirror the canonical member's
//!    geometry at zero cost, and the aliases' baseline slices are
//!    redistributed equally across the physical stores — under the same
//!    budget, overlapping queries buy every cache strictly more SRAM, hence
//!    fewer evictions (the §4 eviction-rate curve shifts left).
//!
//! Rounding means a plan may under-use the budget (that slack is the same
//! slack a hardware floorplan has), but a plan can never over-allocate:
//! `tests/area_plan.rs` property-fuzzes exactly that invariant, plus the §4
//! pins above.

use crate::geometry::CacheGeometry;
use std::fmt;

/// SRAM density in kilobits per mm² (§4: "SRAM densities are now around
/// 7000 Kb/mm²").
pub const SRAM_KBIT_PER_MM2: f64 = 7000.0;

/// Die area of the smallest switching chips in mm² (§4, citing Gibb et al.).
pub const MIN_CHIP_AREA_MM2: f64 = 200.0;

/// Bits in the running example's key (transport 5-tuple).
pub const FIVE_TUPLE_KEY_BITS: u32 = 104;

/// Bits in the running example's value (packet counter).
pub const COUNTER_VALUE_BITS: u32 = 24;

/// Bits per key-value pair in the running example (104 + 24 = 128).
pub const PAIR_BITS: u32 = FIVE_TUPLE_KEY_BITS + COUNTER_VALUE_BITS;

/// mm² of SRAM needed for `bits` of storage.
#[must_use]
pub fn sram_area_mm2(bits: u64) -> f64 {
    bits as f64 / (SRAM_KBIT_PER_MM2 * 1000.0)
}

/// Cache SRAM as a fraction of a chip die.
#[must_use]
pub fn chip_area_fraction(bits: u64, chip_mm2: f64) -> f64 {
    sram_area_mm2(bits) / chip_mm2
}

/// Key-value pairs that fit in an SRAM budget.
#[must_use]
pub fn pairs_in_sram(sram_bits: u64, pair_bits: u32) -> u64 {
    sram_bits / u64::from(pair_bits)
}

/// SRAM bits needed to hold `pairs` key-value pairs.
#[must_use]
pub fn sram_bits_for_pairs(pairs: u64, pair_bits: u32) -> u64 {
    pairs * u64::from(pair_bits)
}

/// Mbit (2^20-bit) helper for display.
#[must_use]
pub fn bits_to_mbit(bits: u64) -> f64 {
    bits as f64 / (1024.0 * 1024.0)
}

/// The workload model behind §4's "typical conditions".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModel {
    /// Peak packet rate at minimum packet size, packets/s (1 GHz pipeline).
    pub peak_pps: f64,
    /// Minimum packet size used to size the line rate, bytes.
    pub min_pkt_bytes: f64,
    /// Average packet size under the datacenter mix (Benson et al.), bytes.
    pub avg_pkt_bytes: f64,
    /// Average link utilization.
    pub utilization: f64,
}

impl Default for WorkloadModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl WorkloadModel {
    /// The paper's numbers: 10⁹ pkt/s at 64 B, 850 B average, 30 % load.
    #[must_use]
    pub fn paper() -> Self {
        WorkloadModel {
            peak_pps: 1e9,
            min_pkt_bytes: 64.0,
            avg_pkt_bytes: 850.0,
            utilization: 0.30,
        }
    }

    /// The implied line rate in bits/s (10⁹ × 64 B ⇒ 512 Gbit/s).
    #[must_use]
    pub fn line_rate_bps(&self) -> f64 {
        self.peak_pps * self.min_pkt_bytes * 8.0
    }

    /// Average-sized packets per second under this load — §4's 22.6 M/s.
    #[must_use]
    pub fn avg_pps(&self) -> f64 {
        self.line_rate_bps() * self.utilization / (self.avg_pkt_bytes * 8.0)
    }

    /// Backing-store write rate implied by an eviction fraction — §4 derives
    /// ~802 K/s from the 3.55 % eviction rate at 32 Mbit.
    #[must_use]
    pub fn evictions_per_sec(&self, eviction_fraction: f64) -> f64 {
        self.avg_pps() * eviction_fraction
    }
}

/// Planning failure. With online install/uninstall every variant is a
/// reachable *operator input* (an empty deployment, a retired last query, a
/// name collision), so the planner reports them instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Some slice of the budget is too small to hold even a single
    /// key-value pair of the demanded width.
    SliceTooSmall {
        /// Name of the query whose store could not be provisioned (empty
        /// when the error comes from a bare [`StoreAllocation`] call that
        /// does not know its owner; callers back-fill it).
        query: String,
        /// The slice that was available for the store, in bits.
        slice_bits: u64,
        /// The store's pair width, in bits.
        pair_bits: u32,
    },
    /// The demand list is empty — nothing to plan.
    EmptyDemands,
    /// A query demanded planning with no aggregation stores (a program
    /// without `GROUPBY` has no cache demand and must not be planned).
    NoStores {
        /// The offending query's name.
        query: String,
    },
    /// Two demands carry the same name, which would make [`AreaPlan::query`]
    /// lookups silently ambiguous.
    DuplicateName {
        /// The colliding name.
        name: String,
    },
    /// A bucketed store's cache holds more pairs than its slot words can
    /// index ([`crate::geometry::MAX_BUCKETED_PAIRS`]).
    TooManyPairs {
        /// Name of the query whose store was provisioned too large.
        query: String,
        /// The pairs the cache would hold.
        pairs: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::SliceTooSmall {
                query,
                slice_bits,
                pair_bits,
            } => {
                if !query.is_empty() {
                    write!(f, "query `{query}`: ")?;
                }
                write!(
                    f,
                    "a {slice_bits}-bit slice cannot hold a single {pair_bits}-bit pair"
                )
            }
            PlanError::EmptyDemands => write!(f, "plan() needs at least one query"),
            PlanError::NoStores { query } => {
                write!(f, "query `{query}` has no aggregation stores to provision")
            }
            PlanError::DuplicateName { name } => {
                write!(f, "duplicate query name `{name}` in the demand list")
            }
            PlanError::TooManyPairs { query, pairs } => write!(
                f,
                "query `{query}`: a bucketed cache of {pairs} pairs exceeds the {} its \
                 slot words can index",
                crate::geometry::MAX_BUCKETED_PAIRS
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One aggregation store's demand on the SRAM budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreDemand {
    /// Bits per key-value pair (key width + state width).
    pub pair_bits: u32,
    /// Requested associativity; 0 selects a fully-associative geometry.
    pub ways: usize,
    /// Cross-query store deduplication group. Stores tagged with the same
    /// token across the demand list are **one physical store** (the caller
    /// — `perfq_core`'s sharing analysis — has proven them structurally
    /// identical): the planner charges the group's SRAM once, every later
    /// member becomes a zero-cost alias mirroring the first member's
    /// geometry, and the reclaimed bits are redistributed across all
    /// physical stores (bigger caches ⇒ fewer evictions under the same
    /// budget). `None` (the default) opts out. Members whose `pair_bits` or
    /// `ways` disagree with the group's first member are planned as
    /// independent stores — a mismatched tag is a caller bug, not a reason
    /// to mis-provision.
    pub dedup: Option<u64>,
}

impl StoreDemand {
    /// A plain (non-deduplicated) store demand.
    #[must_use]
    pub fn new(pair_bits: u32, ways: usize) -> Self {
        StoreDemand {
            pair_bits,
            ways,
            dedup: None,
        }
    }

    /// Tag this store as a member of a dedup group (see [`StoreDemand::dedup`]).
    #[must_use]
    pub fn with_dedup(mut self, group: u64) -> Self {
        self.dedup = Some(group);
        self
    }
}

/// One query's demand: a name (for diagnostics) and its stores. Every
/// query gets an equal share of the budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDemand {
    /// Query name (diagnostics and plan lookup).
    pub name: String,
    /// One entry per aggregation store (per `GROUPBY`).
    pub stores: Vec<StoreDemand>,
}

impl QueryDemand {
    /// A query's demand.
    #[must_use]
    pub fn new(name: impl Into<String>, stores: Vec<StoreDemand>) -> Self {
        QueryDemand {
            name: name.into(),
            stores,
        }
    }
}

/// A concrete SRAM allocation for one aggregation store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreAllocation {
    /// Bits per key-value pair.
    pub pair_bits: u32,
    /// The slice of the budget this store may use, in bits.
    pub slice_bits: u64,
    /// The provisioned cache shape (`sram_bits(pair_bits) ≤ slice_bits`).
    pub geometry: CacheGeometry,
    /// True when this store is a **dedup alias**: another store in the plan
    /// (the first member of its [`StoreDemand::dedup`] group) physically
    /// holds its contents. The alias mirrors the canonical member's
    /// `slice_bits` and `geometry` — so per-shard splits agree — but
    /// occupies zero SRAM ([`StoreAllocation::bits`] = 0).
    pub deduped: bool,
}

impl StoreAllocation {
    /// SRAM bits the provisioned geometry actually occupies (zero for a
    /// dedup alias — the canonical member is charged instead).
    #[must_use]
    pub fn bits(&self) -> u64 {
        if self.deduped {
            0
        } else {
            self.geometry.sram_bits(self.pair_bits)
        }
    }

    /// The geometry of one shard when this store's slice is split `1/N`
    /// across `shards` workers (constant total area): each shard fits under
    /// `slice_bits / shards`, so the shard geometries sum to no more than
    /// the single-stream slice.
    pub fn shard_geometry(&self, shards: usize) -> Result<CacheGeometry, PlanError> {
        assert!(shards > 0, "need at least one shard");
        fit_geometry(
            self.slice_bits / shards as u64,
            self.pair_bits,
            self.geometry_ways_hint(),
        )
        .ok_or(PlanError::SliceTooSmall {
            query: String::new(),
            slice_bits: self.slice_bits / shards as u64,
            pair_bits: self.pair_bits,
        })
    }

    /// The associativity to preserve when re-fitting (1-bucket geometries
    /// were fully associative by construction).
    fn geometry_ways_hint(&self) -> usize {
        if self.geometry.buckets == 1 {
            0
        } else {
            self.geometry.ways
        }
    }
}

/// A concrete SRAM allocation for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAllocation {
    /// Query name (from the demand).
    pub name: String,
    /// The query's slice of the total budget, in bits.
    pub slice_bits: u64,
    /// Per-store allocations, in demand order.
    pub stores: Vec<StoreAllocation>,
}

impl QueryAllocation {
    /// SRAM bits this query's provisioned geometries actually occupy.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.stores.iter().map(StoreAllocation::bits).sum()
    }
}

/// The planner's output: every query's share of one SRAM budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaPlan {
    /// The total budget planned against, in bits.
    pub budget_bits: u64,
    /// Per-query allocations, in demand order.
    pub queries: Vec<QueryAllocation>,
    /// Bits freed by store dedup and folded back into the physical stores'
    /// slices (see [`AreaPlan::reclaimed_bits`]).
    reclaimed_bits: u64,
}

impl AreaPlan {
    /// SRAM bits the provisioned geometries actually occupy
    /// (≤ [`AreaPlan::budget_bits`], always).
    #[must_use]
    pub fn allocated_bits(&self) -> u64 {
        self.queries.iter().map(QueryAllocation::bits).sum()
    }

    /// Die-area fraction of the *budget* (the provisioned envelope, what the
    /// floorplan reserves), per the §4 density constants.
    #[must_use]
    pub fn area_fraction(&self, chip_mm2: f64) -> f64 {
        chip_area_fraction(self.budget_bits, chip_mm2)
    }

    /// Look up a query's allocation by name.
    #[must_use]
    pub fn query(&self, name: &str) -> Option<&QueryAllocation> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// Number of dedup-alias stores in the plan (stores whose contents live
    /// in another query's physical store — charged zero SRAM).
    #[must_use]
    pub fn deduped_stores(&self) -> usize {
        self.queries
            .iter()
            .flat_map(|q| &q.stores)
            .filter(|s| s.deduped)
            .count()
    }

    /// SRAM bits reclaimed by deduplication and redistributed: what the
    /// alias stores would have occupied had each been charged its own
    /// baseline slice.
    #[must_use]
    pub fn reclaimed_bits(&self) -> u64 {
        self.reclaimed_bits
    }
}

/// Fit the largest hardware-shaped geometry under `slice_bits`:
/// `pairs = slice / pair_bits` rounded down to a power-of-two row count at
/// the requested associativity (0 = fully associative, one bucket whose way
/// count is the power-of-two pair budget). `None` when not even one pair
/// fits.
fn fit_geometry(slice_bits: u64, pair_bits: u32, ways: usize) -> Option<CacheGeometry> {
    assert!(pair_bits > 0, "pair width must be positive");
    let pairs = usize::try_from(slice_bits / u64::from(pair_bits)).ok()?;
    if pairs == 0 {
        return None;
    }
    let floor_pow2 = |n: usize| 1usize << (usize::BITS - 1 - n.leading_zeros());
    Some(if ways == 0 {
        CacheGeometry::fully_associative(floor_pow2(pairs))
    } else {
        // Clamp associativity to the pair budget, then round the row count
        // down to a power of two (SRAM rows decode from address bits).
        let ways_eff = ways.min(pairs);
        CacheGeometry::new(floor_pow2(pairs / ways_eff), ways_eff)
    })
}

/// The SRAM area planner: one fixed budget, shared by every installed query.
/// See the module docs for the provisioning arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePlanner {
    budget_bits: u64,
}

impl CachePlanner {
    /// A planner over `budget_bits` of cache SRAM (§4's running example:
    /// `32 * 1024 * 1024`).
    #[must_use]
    pub fn new(budget_bits: u64) -> Self {
        CachePlanner { budget_bits }
    }

    /// Divide the budget across `demands` and provision every store.
    ///
    /// **Dedup arithmetic** (see [`StoreDemand::dedup`]): the budget first
    /// divides into per-store *baseline* slices exactly as for independent
    /// stores (equal query shares, equal per-store split). Every store
    /// tagged into an already-seen dedup group then surrenders its baseline
    /// slice — those reclaimed bits are redistributed **equally across all
    /// physical stores** — and instead mirrors the group's canonical
    /// geometry at zero cost. The total physically allocated SRAM therefore
    /// never exceeds the budget, dedup or not, while every physical cache
    /// strictly gains slice bits whenever anything was reclaimed.
    ///
    /// Errors when some physical store's slice cannot hold a single pair —
    /// the multi-query analogue of "this query does not fit the chip" — and
    /// on the degenerate operator inputs online replanning makes reachable:
    /// an empty demand list ([`PlanError::EmptyDemands`]), a query without stores
    /// ([`PlanError::NoStores`]), and colliding query names
    /// ([`PlanError::DuplicateName`], which would make by-name plan lookups
    /// silently ambiguous).
    pub fn plan(&self, demands: &[QueryDemand]) -> Result<AreaPlan, PlanError> {
        if demands.is_empty() {
            return Err(PlanError::EmptyDemands);
        }
        for (i, d) in demands.iter().enumerate() {
            if demands[..i].iter().any(|e| e.name == d.name) {
                return Err(PlanError::DuplicateName {
                    name: d.name.clone(),
                });
            }
        }

        // Pass 1: baseline slices, and the dedup roll call. A group's first
        // member (matching widths) is canonical/physical; later members are
        // aliases whose baseline slices are reclaimed.
        struct Tmp {
            demand: StoreDemand,
            baseline: u64,
            /// `Some((query, store))` canonical coordinates when aliased.
            alias_of: Option<(usize, usize)>,
        }
        let mut tmp: Vec<Vec<Tmp>> = Vec::with_capacity(demands.len());
        let mut canon: Vec<(u64, StoreDemand, (usize, usize))> = Vec::new();
        let mut reclaimed = 0u64;
        let mut physical = 0u64;
        for (qi, d) in demands.iter().enumerate() {
            if d.stores.is_empty() {
                return Err(PlanError::NoStores {
                    query: d.name.clone(),
                });
            }
            let slice_bits = self.budget_bits / demands.len() as u64;
            let store_slice = slice_bits / d.stores.len() as u64;
            let mut row = Vec::with_capacity(d.stores.len());
            for (si, s) in d.stores.iter().enumerate() {
                let alias_of = s.dedup.and_then(|g| {
                    canon
                        .iter()
                        .find(|(cg, cd, _)| {
                            *cg == g && cd.pair_bits == s.pair_bits && cd.ways == s.ways
                        })
                        .map(|(_, _, at)| *at)
                });
                match alias_of {
                    Some(_) => reclaimed += store_slice,
                    None => {
                        physical += 1;
                        if let Some(g) = s.dedup {
                            canon.push((g, *s, (qi, si)));
                        }
                    }
                }
                row.push(Tmp {
                    demand: *s,
                    baseline: store_slice,
                    alias_of,
                });
            }
            tmp.push(row);
        }

        // Pass 2: fit geometries on the effective slices (baseline + an
        // equal share of the reclaimed bits for physical stores; the
        // canonical member's effective slice for aliases).
        let extra = reclaimed / physical.max(1);
        let mut queries: Vec<QueryAllocation> = Vec::with_capacity(demands.len());
        for (qi, d) in demands.iter().enumerate() {
            let mut stores = Vec::with_capacity(d.stores.len());
            for t in &tmp[qi] {
                let alloc = match t.alias_of {
                    Some((cq, cs)) => {
                        // Canonical coordinates always precede the alias in
                        // demand order, so its allocation is final.
                        let canonical: &StoreAllocation = if cq == qi {
                            &stores[cs]
                        } else {
                            &queries[cq].stores[cs]
                        };
                        StoreAllocation {
                            deduped: true,
                            ..*canonical
                        }
                    }
                    None => {
                        let slice = t.baseline + extra;
                        let geometry = fit_geometry(slice, t.demand.pair_bits, t.demand.ways)
                            .ok_or_else(|| PlanError::SliceTooSmall {
                                query: d.name.clone(),
                                slice_bits: slice,
                                pair_bits: t.demand.pair_bits,
                            })?;
                        if !geometry.is_buildable() {
                            return Err(PlanError::TooManyPairs {
                                query: d.name.clone(),
                                pairs: geometry.capacity(),
                            });
                        }
                        StoreAllocation {
                            pair_bits: t.demand.pair_bits,
                            slice_bits: slice,
                            geometry,
                            deduped: false,
                        }
                    }
                };
                stores.push(alloc);
            }
            // A query's slice is what its stores may physically use:
            // aliases contribute nothing.
            let slice_bits = stores
                .iter()
                .map(|s| if s.deduped { 0 } else { s.slice_bits })
                .sum();
            queries.push(QueryAllocation {
                name: d.name.clone(),
                slice_bits,
                stores,
            });
        }
        Ok(AreaPlan {
            budget_bits: self.budget_bits,
            queries,
            reclaimed_bits: reclaimed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBIT: u64 = 1024 * 1024;

    /// The planner refuses to provision a bucketed store past the slot-word
    /// index and provisions one at it. Power-of-two rows make every
    /// bucketed capacity `rows × ways` with `rows ≥ 2` even, so the
    /// smallest one past the limit is two pairs over: two rows of
    /// `2^22 + 1` ways. A fully-associative store has no such limit.
    #[test]
    fn a_store_past_the_slot_word_index_is_a_plan_error() {
        use crate::geometry::MAX_BUCKETED_PAIRS as MAX;
        let plan = |pairs: usize, ways: usize| {
            let demand = QueryDemand::new("q", vec![StoreDemand::new(128, ways)]);
            CachePlanner::new(pairs as u64 * 128).plan(&[demand])
        };
        let capacity = |p: AreaPlan| p.queries[0].stores[0].geometry.capacity();
        assert_eq!(plan(MAX, 8).map(capacity), Ok(MAX));
        assert_eq!(plan(MAX + 2, 1 << 22).map(capacity), Ok(MAX));
        let too_many = |pairs| {
            Err(PlanError::TooManyPairs {
                query: "q".into(),
                pairs,
            })
        };
        assert_eq!(plan(MAX + 2, (1 << 22) + 1), too_many(MAX + 2));
        assert_eq!(plan(2 * MAX, 8), too_many(2 * MAX));
        assert_eq!(plan(2 * MAX, 0).map(capacity), Ok(2 * MAX));
    }

    #[test]
    fn pair_bits_match_paper() {
        assert_eq!(PAIR_BITS, 128);
    }

    #[test]
    fn thirty_two_mbit_is_under_2_5_percent() {
        // §4: "a 32-Mbit cache in SRAM costs under 2.5% additional area".
        let frac = chip_area_fraction(32 * MBIT, MIN_CHIP_AREA_MM2);
        assert!(frac < 0.025, "fraction = {frac}");
        assert!(
            frac > 0.02,
            "fraction = {frac} (sanity: close to the bound)"
        );
    }

    #[test]
    fn thirty_two_mbit_holds_2_to_18_pairs() {
        // §4's sweep: 8 Mbit = 2^16 pairs … 256 Mbit = 2^21 pairs.
        assert_eq!(pairs_in_sram(32 * MBIT, PAIR_BITS), 1 << 18);
        assert_eq!(pairs_in_sram(8 * MBIT, PAIR_BITS), 1 << 16);
        assert_eq!(pairs_in_sram(256 * MBIT, PAIR_BITS), 1 << 21);
        assert_eq!(sram_bits_for_pairs(1 << 18, PAIR_BITS), 32 * MBIT);
    }

    #[test]
    fn storing_all_flows_is_prohibitive() {
        // §4: 3.8 M flows × 128 bit ≈ 486 Mbit ⇒ tens of percent of the die
        // (the paper quotes 38 %; the arithmetic with its cited density
        // constants gives ~35 % — same conclusion: prohibitive).
        let bits = sram_bits_for_pairs(3_800_000, PAIR_BITS);
        assert!((bits_to_mbit(bits) - 463.9).abs() < 1.0); // 486.4e6 raw bits
        let frac = chip_area_fraction(bits, MIN_CHIP_AREA_MM2);
        assert!(frac > 0.30, "fraction = {frac}");
    }

    #[test]
    fn line_rate_is_512_gbps() {
        let m = WorkloadModel::paper();
        assert!((m.line_rate_bps() - 512e9).abs() < 1.0);
    }

    #[test]
    fn average_pps_matches_papers_22_6m() {
        let m = WorkloadModel::paper();
        let pps = m.avg_pps();
        assert!(
            (pps - 22.6e6).abs() < 0.1e6,
            "avg pps = {pps} (paper: 22.6M)"
        );
    }

    #[test]
    fn eviction_rate_matches_papers_802k() {
        let m = WorkloadModel::paper();
        let writes = m.evictions_per_sec(0.0355);
        assert!(
            (writes - 802e3).abs() < 2e3,
            "writes/s = {writes} (paper: 802K)"
        );
    }

    #[test]
    fn sram_area_is_linear_in_bits() {
        assert!((sram_area_mm2(7_000_000) - 1.0).abs() < 1e-9);
        assert!((sram_area_mm2(14_000_000) - 2.0).abs() < 1e-9);
    }

    fn demand(name: &str, pair_bits: u32, ways: usize) -> QueryDemand {
        QueryDemand::new(name, vec![StoreDemand::new(pair_bits, ways)])
    }

    #[test]
    fn planner_gives_the_whole_budget_to_a_single_query() {
        // §4's running example: one 128-bit-pair query on 32 Mbit lands the
        // full 2^18-pair 8-way geometry with zero slack.
        let plan = CachePlanner::new(32 * MBIT)
            .plan(&[demand("counters", PAIR_BITS, 8)])
            .unwrap();
        let g = plan.queries[0].stores[0].geometry;
        assert_eq!(g.capacity(), 1 << 18);
        assert_eq!(g.ways, 8);
        assert_eq!(plan.allocated_bits(), 32 * MBIT);
        assert!(plan.area_fraction(MIN_CHIP_AREA_MM2) < 0.025);
    }

    #[test]
    fn planner_splits_equal_shares_and_never_overallocates() {
        let plan = CachePlanner::new(32 * MBIT)
            .plan(&[
                demand("a", 128, 8),
                demand("b", 160, 8),
                demand("c", 128, 0),
            ])
            .unwrap();
        assert!(plan.allocated_bits() <= 32 * MBIT);
        for q in &plan.queries {
            assert!(q.bits() <= q.slice_bits, "{} over its slice", q.name);
            for s in &q.stores {
                assert!(s.geometry.buckets.is_power_of_two());
                assert!(s.geometry.ways >= 1);
            }
        }
        // Equal shares: slices match exactly.
        assert_eq!(plan.queries[0].slice_bits, plan.queries[1].slice_bits);
    }

    #[test]
    fn multi_store_queries_split_their_slice_per_store() {
        // Loss rate's two 5-tuple counters: each store gets half the slice.
        let plan = CachePlanner::new(32 * MBIT)
            .plan(&[QueryDemand::new(
                "loss",
                vec![StoreDemand::new(128, 8), StoreDemand::new(128, 8)],
            )])
            .unwrap();
        let q = &plan.queries[0];
        assert_eq!(q.stores.len(), 2);
        assert_eq!(q.stores[0].slice_bits, 16 * MBIT);
        assert_eq!(q.stores[0].geometry.capacity(), 1 << 17);
        assert!(q.bits() <= 32 * MBIT);
    }

    #[test]
    fn shard_geometries_keep_total_area_constant() {
        let plan = CachePlanner::new(32 * MBIT)
            .plan(&[demand("counters", PAIR_BITS, 8)])
            .unwrap();
        let store = plan.queries[0].stores[0];
        for shards in [1usize, 2, 4, 8] {
            let g = store.shard_geometry(shards).unwrap();
            let total: u64 = g.sram_bits(store.pair_bits) * shards as u64;
            assert!(total <= store.slice_bits, "{shards} shards: {total} bits");
            assert_eq!(g.capacity(), (1 << 18) / shards);
            assert!(g.buckets.is_power_of_two());
        }
    }

    #[test]
    fn too_small_slices_are_rejected() {
        // 100 bits cannot hold a single 128-bit pair.
        let err = CachePlanner::new(100)
            .plan(&[demand("tiny", 128, 8)])
            .unwrap_err();
        let PlanError::SliceTooSmall {
            slice_bits,
            pair_bits,
            ..
        } = err.clone()
        else {
            panic!("expected SliceTooSmall, got {err:?}");
        };
        assert_eq!(pair_bits, 128);
        assert!(slice_bits < 128);
        assert!(err.to_string().contains("tiny"));
        // And a budget that feeds one query can starve four.
        assert!(CachePlanner::new(400)
            .plan(&[demand("one", 128, 8)])
            .is_ok());
        let starved: Vec<QueryDemand> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| demand(n, 128, 8))
            .collect();
        assert!(CachePlanner::new(400).plan(&starved).is_err());
    }

    #[test]
    fn degenerate_operator_inputs_are_errors_not_panics() {
        // Online install/uninstall makes each of these a reachable operator
        // input: an emptied deployment, a store-less program and a name
        // collision.
        let planner = CachePlanner::new(32 * MBIT);
        assert_eq!(planner.plan(&[]).unwrap_err(), PlanError::EmptyDemands);
        assert_eq!(
            planner
                .plan(&[QueryDemand::new("no-stores", vec![])])
                .unwrap_err(),
            PlanError::NoStores {
                query: "no-stores".into()
            },
        );
        assert_eq!(
            planner
                .plan(&[demand("dup", 128, 8), demand("dup", 160, 4)])
                .unwrap_err(),
            PlanError::DuplicateName { name: "dup".into() },
        );
    }

    #[test]
    fn dedup_charges_once_and_redistributes() {
        // Two identical 128-bit counters (the loss-rate-R1 / per-flow-counter
        // overlap): unshared, each gets half the budget; deduped, ONE
        // physical store gets the whole budget and the alias rides along.
        let unshared = CachePlanner::new(32 * MBIT)
            .plan(&[
                demand("counters", PAIR_BITS, 8),
                demand("loss", PAIR_BITS, 8),
            ])
            .unwrap();
        let shared = CachePlanner::new(32 * MBIT)
            .plan(&[
                QueryDemand::new(
                    "counters",
                    vec![StoreDemand::new(PAIR_BITS, 8).with_dedup(1)],
                ),
                QueryDemand::new("loss", vec![StoreDemand::new(PAIR_BITS, 8).with_dedup(1)]),
            ])
            .unwrap();
        assert_eq!(shared.deduped_stores(), 1);
        assert_eq!(shared.reclaimed_bits(), 16 * MBIT);
        let physical = shared.queries[0].stores[0];
        let alias = shared.queries[1].stores[0];
        assert!(!physical.deduped);
        assert!(alias.deduped);
        // The physical cache strictly grew: 2^17 pairs → 2^18 pairs.
        assert_eq!(unshared.queries[0].stores[0].geometry.capacity(), 1 << 17);
        assert_eq!(physical.geometry.capacity(), 1 << 18);
        // The alias mirrors the canonical geometry (and shard splits agree)
        // but is charged nothing.
        assert_eq!(alias.geometry, physical.geometry);
        assert_eq!(alias.slice_bits, physical.slice_bits);
        assert_eq!(alias.bits(), 0);
        assert_eq!(
            alias.shard_geometry(4).unwrap(),
            physical.shard_geometry(4).unwrap()
        );
        // Never over budget, and the whole budget went to the one store.
        assert!(shared.allocated_bits() <= 32 * MBIT);
        assert_eq!(shared.allocated_bits(), 32 * MBIT);
    }

    #[test]
    fn dedup_reclaim_grows_unrelated_physical_stores_too() {
        // Three queries: two dedup, one unrelated. The unrelated store also
        // gains a share of the reclaimed bits (equal redistribution).
        let base = CachePlanner::new(30 * MBIT)
            .plan(&[
                demand("a", 128, 8),
                demand("b", 128, 8),
                demand("c", 160, 8),
            ])
            .unwrap();
        let shared = CachePlanner::new(30 * MBIT)
            .plan(&[
                QueryDemand::new("a", vec![StoreDemand::new(128, 8).with_dedup(7)]),
                QueryDemand::new("b", vec![StoreDemand::new(128, 8).with_dedup(7)]),
                demand("c", 160, 8),
            ])
            .unwrap();
        assert!(shared.allocated_bits() <= 30 * MBIT);
        assert!(
            shared.queries[2].stores[0].slice_bits > base.queries[2].stores[0].slice_bits,
            "the unrelated store's slice must strictly grow"
        );
        assert!(
            shared.queries[2].stores[0].geometry.capacity()
                >= base.queries[2].stores[0].geometry.capacity()
        );
    }

    #[test]
    fn mismatched_dedup_tags_fall_back_to_independent_stores() {
        // Same tag, different widths: a caller bug — planned independently.
        let plan = CachePlanner::new(32 * MBIT)
            .plan(&[
                QueryDemand::new("a", vec![StoreDemand::new(128, 8).with_dedup(3)]),
                QueryDemand::new("b", vec![StoreDemand::new(256, 8).with_dedup(3)]),
            ])
            .unwrap();
        assert_eq!(plan.deduped_stores(), 0);
        assert_eq!(plan.reclaimed_bits(), 0);
        assert!(plan.allocated_bits() <= 32 * MBIT);
    }

    #[test]
    fn fully_associative_demand_provisions_one_bucket() {
        let plan = CachePlanner::new(1 << 20)
            .plan(&[demand("fa", 128, 0)])
            .unwrap();
        let g = plan.queries[0].stores[0].geometry;
        assert_eq!(g.buckets, 1);
        assert!(g.ways.is_power_of_two());
        // Shard re-fit preserves full associativity.
        let sg = plan.queries[0].stores[0].shard_geometry(4).unwrap();
        assert_eq!(sg.buckets, 1);
    }
}
