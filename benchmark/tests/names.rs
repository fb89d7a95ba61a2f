//! `BENCHMARK.json` and the program agree on every name and unit.

use metabench::names::{END_TO_END, PER_LAYER};
use metabench::report::result_line;
use metabench::run::{repo_root, run_timed};
use metabench::trace::run_traced;
use metabench::workloads::{Size, Workload};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object().and_then(|map| map.get(key)).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn text(v: &Value) -> &str {
    v.as_str().unwrap_or_else(|| panic!("expected a string, found {v:?}"))
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

/// `(name, unit)` of every entry of a metric list.
fn listed(doc: &Value, list: &str) -> Vec<(String, String)> {
    items(field(doc, list))
        .iter()
        .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
        .collect()
}

fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(name), "metric name {name:?}");
        assert!(is_unit(unit), "unit {unit:?} of {name}");
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "a metric name is used twice");
    assert!(END_TO_END.contains(&("setup_s", "s")), "the contract requires setup_s in s");
}

#[test]
fn workloads_match_benchmark_json() {
    let doc = benchmark_json();
    let listed: Vec<&str> =
        items(field(&doc, "workloads")).iter().map(|w| text(field(w, "name"))).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
    assert!(ours.iter().all(|n| is_name(n)));
    for w in items(field(&doc, "workloads")) {
        let why = text(field(w, "why"));
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }
}

/// The names on a result line, in order.
fn printed(line: &str) -> (Value, Vec<String>) {
    let result: Value = serde_json::from_str(line).expect("the result line is JSON");
    let names = field(&result, "metrics")
        .as_object()
        .expect("metrics is an object")
        .keys()
        .cloned()
        .collect();
    (result, names)
}

#[test]
fn every_printed_name_is_listed_and_every_listed_name_is_printed() {
    for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let outcome = if traced {
            run_traced(Workload::PlanetPool, 1, Size::Smoke).0
        } else {
            run_timed(Workload::PlanetPool, 1, 0.05, Size::Smoke)
        };
        // Nothing the run produced is missing from the table.
        for name in outcome.metrics.keys() {
            assert!(table.iter().any(|(n, _)| n == name), "{name} is printed but not listed");
        }
        let (result, mut names) = printed(&result_line(&outcome, table));
        let mut expected: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
        names.sort();
        expected.sort();
        assert_eq!(names, expected);
        let mut keys: Vec<&str> =
            result.as_object().expect("result is an object").keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(field(&result, "correct"), &Value::Bool(true));
    }
}
