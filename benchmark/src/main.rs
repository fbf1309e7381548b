//! `perfq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric of the mode by name with its unit, then one JSON
//! object as the last line. Exits non-zero when a result row is wrong or
//! the traced spans do not sum to the pass.

use perfq_benchmark::run::{run, Options};
use perfq_benchmark::workload::{Sizing, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfq-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let trace_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/trace")
            .join(format!("{}.json", workload.name()))
    });
    Ok(Options {
        workload,
        sizing: Sizing::full(workload),
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    println!("{}", outcome.header);
    for m in &outcome.metrics {
        println!("{}", m.line());
    }
    println!(
        "rows_wrong {} of rows_checked {}",
        outcome.verdict.rows_wrong, outcome.verdict.rows_checked
    );
    if let Some(path) = &opts.trace_out {
        println!("spans written to {}", path.display());
    }
    println!("{}", outcome.json_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
