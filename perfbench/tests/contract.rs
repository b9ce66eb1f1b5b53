//! `BENCHMARK.json` at the repository root names workloads the benchmark
//! runs and exactly the metrics, with the units, that it prints.

use webcache_perfbench::report::{END_TO_END, PER_LAYER, WORKLOADS};

/// Every `"key": "value"` string pair in `text`, in order.
fn pairs<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            &rest[..rest.find('"').expect("unterminated string")]
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = pairs(&text, "name");
    let units = pairs(&text, "unit");
    let listed = names.iter().take_while(|n| WORKLOADS.contains(n)).count();
    assert!(listed >= 2, "at least two workloads the benchmark runs");
    let metrics: Vec<(&str, &str)> = names[listed..]
        .iter()
        .copied()
        .zip(units.iter().copied())
        .collect();
    let printed: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    assert_eq!(metrics, printed);
}
