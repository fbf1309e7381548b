//! `BENCHMARK.json` and the program must name the same metrics, with the
//! same units, and the same workloads.

use perfq_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfq_benchmark::workload::Workload;

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

/// The text of the top-level array under `key`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\": [")).expect("key present");
    let rest = &json[start..];
    &rest[..rest.find("\n  ]").expect("array closes")]
}

fn assert_lists(json: &str, key: &str, catalogue: &[MetricDef]) {
    let text = section(json, key);
    assert_eq!(
        text.matches("{\"name\":").count(),
        catalogue.len(),
        "{key}: BENCHMARK.json and the catalogue differ in length"
    );
    for d in catalogue {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", d.name, d.unit);
        assert!(text.contains(&entry), "{key} lacks {entry}");
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = manifest();
    assert_lists(&json, "end_to_end", END_TO_END);
    assert_lists(&json, "per_layer", PER_LAYER);
    let workloads = section(&json, "workloads");
    assert_eq!(workloads.matches("{\"name\":").count(), Workload::ALL.len());
    for w in Workload::ALL {
        assert!(workloads.contains(&format!("{{\"name\": \"{}\",", w.name())));
    }
}
