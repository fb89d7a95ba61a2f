//! `bench verify`: the one gate over the committed BENCH baselines.
//!
//! Every given document is regenerated at quick scale over seeds
//! `1..=SEEDS`, once per engine in [`ENGINES`], and its bytes are compared
//! in memory against `<baselines>/BENCH_<id>.json`. A mismatch is reported
//! per scalar — document, engine, scalar name, baseline value, new value.
//! [`bless`] rewrites the baselines from the serial run and refuses when any
//! engine's bytes differ from serial's, so a baseline can never record what
//! only one engine produces.

use std::collections::BTreeSet;
use std::path::Path;

use serde_json::Value;

use crate::sweep::{bench_path, run_sweep, SweepConfig};
use crate::{default_jobs, Experiment, Scale};

/// The engines every document is regenerated under; serial, the reference,
/// comes first.
pub const ENGINES: [&str; 3] = ["serial", "sharded:2", "sharded:4"];

/// Seeds per document.
const SEEDS: u64 = 4;

/// The document of `exp` under each of [`ENGINES`], in that order.
fn regenerate(exp: &dyn Experiment) -> Vec<String> {
    ENGINES
        .iter()
        .map(|engine| {
            let engine = metaclass_netsim::parse_engine(engine).expect("ENGINES entries parse");
            let cfg = SweepConfig::first_n(SEEDS, default_jobs(), Scale::Quick).with_engine(engine);
            run_sweep(exp, &cfg).doc.to_json_string()
        })
        .collect()
}

fn render(v: Option<&Value>) -> String {
    v.map_or_else(|| "<absent>".into(), |v| serde_json::to_string(v).expect("a Value renders"))
}

/// Appends `(scalar, old, new)` for every leaf in which the trees differ.
fn diff_values(path: &str, old: &Value, new: &Value, out: &mut Vec<(String, String, String)>) {
    match (old, new) {
        (Value::Object(a), Value::Object(b)) => {
            for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                match (a.get(key), b.get(key)) {
                    (Some(x), Some(y)) => diff_values(&child, x, y, out),
                    (x, y) => out.push((child, render(x), render(y))),
                }
            }
        }
        _ if old != new => out.push((path.into(), render(Some(old)), render(Some(new)))),
        _ => {}
    }
}

/// One line per scalar in which an engine's document (`docs`, in
/// [`ENGINES`] order) differs from `reference`; empty when every engine
/// reproduced the reference bytes.
fn differences(id: &str, reference: &str, docs: &[String]) -> Vec<String> {
    let mut lines = Vec::new();
    for (engine, doc) in ENGINES.iter().zip(docs) {
        if doc == reference {
            continue;
        }
        let before = lines.len();
        match (serde_json::from_str::<Value>(reference), serde_json::from_str::<Value>(doc)) {
            (Ok(old), Ok(new)) => {
                let mut scalars = Vec::new();
                diff_values("", &old, &new, &mut scalars);
                for (scalar, old, new) in scalars {
                    lines.push(format!("{id} [{engine}] {scalar}: baseline {old}, new {new}"));
                }
            }
            (Err(e), _) => lines.push(format!("{id} [{engine}]: baseline is not JSON: {e}")),
            (_, Err(e)) => lines.push(format!("{id} [{engine}]: new document is not JSON: {e}")),
        }
        if lines.len() == before {
            lines.push(format!("{id} [{engine}]: bytes differ, every parsed scalar is equal"));
        }
    }
    lines
}

/// Regenerates every target under every engine and compares the bytes with
/// `<baselines>/BENCH_<id>.json`. Returns the number of documents compared,
/// or one line per difference. A missing baseline is a failure, never a
/// skip.
pub fn verify(targets: &[&dyn Experiment], baselines: &Path) -> Result<usize, Vec<String>> {
    let mut failures = Vec::new();
    for exp in targets {
        let path = bench_path(baselines, exp.id());
        match std::fs::read_to_string(&path) {
            Ok(baseline) => failures.extend(differences(exp.id(), &baseline, &regenerate(*exp))),
            Err(e) => {
                failures.push(format!("{}: no baseline {}: {e}", exp.id(), path.display()));
            }
        }
    }
    if failures.is_empty() {
        Ok(targets.len())
    } else {
        Err(failures)
    }
}

/// Regenerates every target under every engine and writes the serial bytes
/// to `<baselines>/BENCH_<id>.json` — or writes nothing and returns the
/// differences when any engine disagrees with serial on any document.
pub fn bless(targets: &[&dyn Experiment], baselines: &Path) -> Result<usize, Vec<String>> {
    let docs: Vec<(&str, Vec<String>)> =
        targets.iter().map(|exp| (exp.id(), regenerate(*exp))).collect();
    write_agreed(&docs, baselines)
}

fn write_agreed(docs: &[(&str, Vec<String>)], baselines: &Path) -> Result<usize, Vec<String>> {
    let failures: Vec<String> =
        docs.iter().flat_map(|(id, by_engine)| differences(id, &by_engine[0], by_engine)).collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    let io = |e: std::io::Error| vec![format!("{}: {e}", baselines.display())];
    std::fs::create_dir_all(baselines).map_err(io)?;
    for (id, by_engine) in docs {
        std::fs::write(bench_path(baselines, id), &by_engine[0]).map_err(io)?;
    }
    Ok(docs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{"metrics": {"p99_ms": {"mean": 52.5, "count": 4}}, "seeds": [1, 2]}"#;
    const NEW: &str = r#"{"metrics": {"p99_ms": {"mean": 53.0, "count": 4}}, "seeds": [1, 2]}"#;

    #[test]
    fn differences_name_document_engine_scalar_and_both_values() {
        let docs = [OLD.to_string(), OLD.to_string(), NEW.to_string()];
        assert_eq!(
            differences("e3", OLD, &docs),
            ["e3 [sharded:4] metrics.p99_ms.mean: baseline 52.5, new 53.0"]
        );
        assert!(differences("e3", OLD, &[OLD.to_string(), OLD.to_string()]).is_empty());
    }

    #[test]
    fn differences_report_absent_scalars_and_unparsable_baselines() {
        let grown =
            r#"{"metrics": {"p99_ms": {"mean": 52.5, "count": 4}}, "seeds": [1, 2], "x": 1}"#;
        assert_eq!(
            differences("e3", OLD, &[grown.to_string()]),
            ["e3 [serial] x: baseline <absent>, new 1"]
        );
        let lines = differences("e3", "not json", &[OLD.to_string()]);
        assert!(lines[0].starts_with("e3 [serial]: baseline is not JSON"), "{lines:?}");
    }

    #[test]
    fn nothing_is_written_when_an_engine_disagrees_with_serial() {
        let dir = std::env::temp_dir().join(format!("verify_agree_{}", std::process::id()));
        let split = [("e3", vec![OLD.to_string(), NEW.to_string(), OLD.to_string()])];
        let lines = write_agreed(&split, &dir).unwrap_err();
        assert_eq!(lines, ["e3 [sharded:2] metrics.p99_ms.mean: baseline 52.5, new 53.0"]);
        assert!(!dir.exists(), "a refused bless must not touch the baseline dir");

        let agreed = [("e3", vec![OLD.to_string(); 3])];
        assert_eq!(write_agreed(&agreed, &dir), Ok(1));
        assert_eq!(std::fs::read_to_string(bench_path(&dir, "e3")).unwrap(), OLD);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
