//! Multi-query: every Fig. 2 query installed at once, under one SRAM budget,
//! with cross-query store sharing.
//!
//! ```sh
//! cargo run --release --example multi_query
//! ```
//!
//! §3.3's premise is that a *fixed* slice of switch SRAM (~32 Mbit, under
//! 2.5 % of the die) is shared by every concurrently-installed query. This
//! example makes that concrete: the area planner divides the budget across
//! all seven Fig. 2 programs **plus the §4 running-example counter**
//! (resizing each cache to its slice), and one shared replay pass answers
//! all of them — the network event loop runs once, each record's row
//! materializes once, and structurally-identical stores collapse into one
//! (the running example is
//! verbatim the loss-rate program's `R1`, so its store is charged to the
//! budget once and executed once).

use perfq::prelude::*;
use perfq_kvstore::area;

const MBIT: u64 = 1024 * 1024;

/// The §4 running example — also the loss-rate program's `R1`, verbatim.
const FIVE_TUPLE_COUNTER: &str = "SELECT COUNT GROUPBY 5tuple\n";

fn main() {
    // ------------------------------------------------------------------
    // 1. Install the §4 counter + all seven Fig. 2 queries under the
    //    §4 budget.
    // ------------------------------------------------------------------
    let mut names = vec!["Per-flow (5-tuple) counters [§4]"];
    names.extend(fig2::ALL.iter().map(|q| q.name));
    let sources: Vec<&str> = std::iter::once(FIVE_TUPLE_COUNTER)
        .chain(fig2::ALL.iter().map(|q| q.source))
        .collect();
    let programs: Vec<CompiledProgram> = sources
        .iter()
        .map(|src| {
            compile_query(src, &fig2::default_params(), CompileOptions::default())
                .expect("the paper's queries compile")
        })
        .collect();

    let budget = 32 * MBIT;
    let (mut multi, plan) =
        MultiRuntime::provisioned(programs, budget).expect("the budget fits all queries");

    println!(
        "SRAM budget: {} Mbit → {:.2}% of a {} mm² die ({} queries installed)\n",
        area::bits_to_mbit(budget),
        plan.area_fraction(area::MIN_CHIP_AREA_MM2) * 100.0,
        area::MIN_CHIP_AREA_MM2,
        names.len(),
    );
    println!("{:<34} {:>10} {:>22}", "query", "slice", "store geometries");
    let mut allocs = plan.queries.iter();
    for (name, compiled) in names.iter().zip(multi.runtimes()) {
        let geoms: Vec<String> = compiled
            .compiled()
            .stores
            .iter()
            .flatten()
            .map(|s| format!("{} ({}b pairs)", s.geometry, s.pair_bits()))
            .collect();
        if geoms.is_empty() {
            println!("{:<34} {:>10} {:>22}", name, "—", "no aggregation state");
            continue;
        }
        let alloc = allocs.next().expect("plan covers store-bearing programs");
        let dedup: usize = alloc.stores.iter().filter(|s| s.deduped).count();
        println!(
            "{:<34} {:>7.2} Mbit {}{}",
            name,
            area::bits_to_mbit(alloc.slice_bits),
            geoms.join(", "),
            if dedup > 0 {
                format!("  [{dedup} store(s) shared, charged once]")
            } else {
                String::new()
            },
        );
    }
    println!(
        "\nallocated {:.2} of {:.0} Mbit — {} store deduplicated, {:.2} Mbit reclaimed \
         and folded back into every physical cache\n",
        area::bits_to_mbit(plan.allocated_bits()),
        area::bits_to_mbit(budget),
        plan.deduped_stores(),
        area::bits_to_mbit(plan.reclaimed_bits()),
    );

    // ------------------------------------------------------------------
    // 2. What the install-time sharing pass decided.
    // ------------------------------------------------------------------
    println!("cross-query sharing under this install:");
    for s in &multi.sharing().stores {
        println!(
            "  store  {}/{} ← shares the physical store of {}/{}",
            names[s.alias.0], s.alias.1, names[s.owner.0], s.owner.1,
        );
    }
    println!();

    // ------------------------------------------------------------------
    // 3. One shared replay pass answers every query.
    // ------------------------------------------------------------------
    let trace = SyntheticTrace::new(TraceConfig::test_small(7)).take(40_000);
    // One slow port with a deep queue: the workload overloads it, so the
    // congestion-sensitive queries (loss rate, high latency, p99 queue
    // size) have something to report.
    let mut network = Network::new(NetworkConfig {
        switch: SwitchConfig {
            ports: 1,
            port_rate_bps: 1e8,
            queue_capacity: 64,
            ..Default::default()
        },
        ..Default::default()
    });
    multi.process_network(&mut network, trace, 256);
    multi.finish();
    println!(
        "one ingest pass: {} records through the event loop, {} plans executed per record\n",
        multi.records(),
        multi.len(),
    );

    // ------------------------------------------------------------------
    // 4. Every query's results, from its own slice of the budget.
    // ------------------------------------------------------------------
    for (name, rs) in names.iter().zip(multi.collect()) {
        let t = rs.tables.last().expect("every program yields a table");
        println!(
            "{:<34} {:>6} result rows (of {} matched)",
            name,
            t.rows.len(),
            t.total_matched
        );
    }
}
