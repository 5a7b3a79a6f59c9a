//! `BENCHMARK.json` at the repository root declares the metrics this
//! benchmark prints; the two must name the same metrics with the same
//! units and directions.

use dylect_e2e_bench::measure::{end_to_end_catalog, per_layer_catalog, MetricSpec};

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("section {key}"));
    let end = start + json[start..].find(']').expect("section end");
    &json[start..end]
}

fn check(json: &str, key: &str, catalog: &[MetricSpec]) {
    let declared = section(json, key);
    assert_eq!(
        declared.matches("\"name\": ").count(),
        catalog.len(),
        "{key}: declared vs reported metric count"
    );
    for (name, unit, better) in catalog {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            better.as_str()
        );
        assert!(declared.contains(&entry), "{key} lacks {entry}");
    }
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside e2e_bench");
    check(&json, "end_to_end", &end_to_end_catalog());
    check(&json, "per_layer", &per_layer_catalog());
}
