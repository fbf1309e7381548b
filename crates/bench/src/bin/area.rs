//! §3.3 / §4 feasibility arithmetic — the paper's in-text numbers.
//!
//! Regenerates every back-of-the-envelope quantity the paper derives:
//! line rate, average packet rate under datacenter conditions, cache sizes
//! in pairs and die-area fractions, the infeasibility of storing all flows
//! on-chip, and the implied backing-store write rate.

use perfq_bench::{si_fmt, Table};
use perfq_kvstore::area::{
    bits_to_mbit, chip_area_fraction, pairs_in_sram, sram_area_mm2, sram_bits_for_pairs,
    WorkloadModel, MIN_CHIP_AREA_MM2, PAIR_BITS, SRAM_KBIT_PER_MM2,
};

fn main() {
    println!("§3.3/§4 reproduction: hardware feasibility arithmetic\n");

    println!("constants (paper's citations):");
    println!("  SRAM density          : {SRAM_KBIT_PER_MM2:.0} Kbit/mm²   [ARM, ref 13]");
    println!("  smallest switch die   : {MIN_CHIP_AREA_MM2:.0} mm²          [Gibb et al., ref 20]");
    println!("  key-value pair        : {PAIR_BITS} bits (104-bit 5-tuple + 24-bit counter)\n");

    let m = WorkloadModel::paper();
    println!("workload model (Benson et al. datacenter conditions):");
    println!(
        "  line rate             : {} bit/s ({}B packets at 1 GHz)",
        si_fmt(m.line_rate_bps()),
        m.min_pkt_bytes
    );
    println!(
        "  avg-size packet rate  : {} pkt/s at {:.0}% utilization, {:.0} B packets",
        si_fmt(m.avg_pps()),
        m.utilization * 100.0,
        m.avg_pkt_bytes
    );
    println!("  (paper: 22.6M average-sized packets per second)\n");

    println!("cache sizing sweep (paper: 8 Mbit = 2^16 pairs … 256 Mbit = 2^21 pairs):");
    let table = Table::new(&[10, 12, 12, 12]);
    table.row(&[
        "Mbit".into(),
        "pairs".into(),
        "mm²".into(),
        "% of die".into(),
    ]);
    table.sep();
    for mbit in [8u64, 16, 32, 64, 128, 256] {
        let bits = mbit * 1024 * 1024;
        table.row(&[
            format!("{mbit}"),
            format!("2^{}", pairs_in_sram(bits, PAIR_BITS).ilog2()),
            format!("{:.2}", sram_area_mm2(bits)),
            format!(
                "{:.2}%",
                chip_area_fraction(bits, MIN_CHIP_AREA_MM2) * 100.0
            ),
        ]);
    }
    table.sep();

    let target = 32 * 1024 * 1024u64;
    println!(
        "\ntarget size: 32 Mbit = {:.2}% of a {MIN_CHIP_AREA_MM2:.0} mm² die \
         (paper: \"under 2.5% additional area\")",
        chip_area_fraction(target, MIN_CHIP_AREA_MM2) * 100.0
    );

    let all_flows = sram_bits_for_pairs(3_800_000, PAIR_BITS);
    println!(
        "\nstoring all 3.8M trace flows on-chip would need {:.0} Mbit \
         ({:.1}% of the die) — the split design is essential\n  (paper: \"a 486-Mbit cache for a prohibitive 38% chip area overhead\";\n   the arithmetic with the paper's own density constants gives {:.1}%)",
        bits_to_mbit(all_flows),
        chip_area_fraction(all_flows, MIN_CHIP_AREA_MM2) * 100.0,
        chip_area_fraction(all_flows, MIN_CHIP_AREA_MM2) * 100.0,
    );

    println!(
        "\nbacking-store write rate at the paper's measured 3.55% eviction rate:\n  {} writes/s (paper: ~802K/s — within reach of scale-out KV stores\n  at a few hundred thousand ops/s per core)",
        si_fmt(m.evictions_per_sec(0.0355))
    );
}
