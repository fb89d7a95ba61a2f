//! `bench verify`: the one gate over every committed contract byte.
//!
//! A [`Contract`] is a committed file plus the renderer of its bytes under
//! an engine; [`contracts`] derives the list from the repository: a BENCH
//! document per experiment and per `scenarios/*.toml`, a `.fp` fingerprint
//! per spec, and the [`TRANSCRIPTS`]. [`verify`] regenerates each under
//! every engine in [`ENGINES`] and reports a document per scalar
//! (`id [engine] scalar: baseline X, new Y`), a text at its first differing
//! line (`path [engine] line N: baseline "…", new "…"`), and a missing file
//! as a failure, never a skip. [`bless`] writes the serial bytes only when
//! every engine agrees on every contract.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use metaclass_core::{ScenarioError, ScenarioSpec};
use serde_json::Value;

use crate::experiments::{self, scenario::scenarios_in};
use crate::sweep::{bench_path, run_sweep, SweepConfig};
use crate::{default_jobs, Experiment, Scale};

/// The engines every contract is regenerated under; serial, the reference,
/// comes first.
pub const ENGINES: [&str; 3] = ["serial", "sharded:2", "sharded:4"];

/// Seeds per document.
const SEEDS: u64 = 4;

/// The seed every scenario fingerprint is pinned to.
pub const GOLDEN_SEED: u64 = 2022;

/// The committed simcheck transcripts: `tests/simcheck/<name>.txt` holds
/// what `bench simcheck <args>` prints. A `.toml` path is relative to the
/// repository root.
pub const TRANSCRIPTS: [(&str, &str); 3] = [
    ("standard", "--seed 7 --cases 200"),
    ("pooled", "--seed 11 --cases 25 --pooled 12"),
    ("scenario", "--seed 7 --cases 50 --scenario scenarios/stress.toml"),
];

/// How a contract's bytes are regenerated.
enum Source {
    /// A BENCH document, compared per scalar.
    Document(&'static dyn Experiment),
    /// `"<fingerprint> <events>\n"` of one run at [`GOLDEN_SEED`].
    Fingerprint(ScenarioSpec),
    /// `bench simcheck` arguments, without `--engine`.
    Transcript(Vec<String>),
}

/// A committed file and how to regenerate it.
pub struct Contract {
    path: PathBuf,
    source: Source,
}

impl Contract {
    /// `results/baselines/BENCH_<id>.json`.
    pub fn document(exp: &'static dyn Experiment) -> Self {
        let path = bench_path(Path::new("results/baselines"), exp.id());
        Contract { path, source: Source::Document(exp) }
    }

    /// `tests/scenarios/<name>.fp`.
    pub fn fingerprint(spec: ScenarioSpec) -> Self {
        let path = PathBuf::from(format!("tests/scenarios/{}.fp", spec.name));
        Contract { path, source: Source::Fingerprint(spec) }
    }

    /// `tests/simcheck/<name>.txt`: the transcript of `bench simcheck
    /// <args>`, with a `.toml` path taken relative to `root`.
    pub fn transcript(root: &Path, name: &str, args: &str) -> Self {
        let argv = args.split_whitespace().map(|arg| match arg.ends_with(".toml") {
            true => root.join(arg).display().to_string(),
            false => arg.to_string(),
        });
        let path = PathBuf::from(format!("tests/simcheck/{name}.txt"));
        Contract { path, source: Source::Transcript(argv.collect()) }
    }

    /// The committed file, relative to the repository root.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The experiment behind a document contract.
    pub fn experiment(&self) -> Option<&'static dyn Experiment> {
        match self.source {
            Source::Document(exp) => Some(exp),
            _ => None,
        }
    }

    /// The contract's bytes under `engine`, or why they could not be
    /// rendered.
    fn render(&self, engine: &str) -> Result<String, String> {
        let config = metaclass_netsim::parse_engine(engine).expect("ENGINES entries parse");
        match &self.source {
            Source::Document(exp) => {
                let cfg =
                    SweepConfig::first_n(SEEDS, default_jobs(), Scale::Quick).with_engine(config);
                Ok(run_sweep(*exp, &cfg).doc.to_json_string())
            }
            Source::Fingerprint(spec) => {
                let mut session = spec.build_session(GOLDEN_SEED, config);
                session.sim_mut().enable_fingerprint();
                session.run_for(spec.duration());
                let sim = session.sim();
                let fingerprint = sim.fingerprint().expect("fingerprint enabled");
                Ok(format!("{fingerprint:016x} {}\n", sim.events_processed()))
            }
            Source::Transcript(args) => {
                let mut argv = args.clone();
                argv.extend(["--engine".to_string(), engine.to_string()]);
                let mut out = Vec::new();
                match metaclass_simcheck::run_to(&argv, &mut out) {
                    Ok(0 | 1) => Ok(String::from_utf8(out).expect("simcheck prints UTF-8")),
                    _ => Err(format!(
                        "{} [{engine}]: bench simcheck {} failed (its error is on stderr)",
                        self.path.display(),
                        argv.join(" ")
                    )),
                }
            }
        }
    }

    /// The contract's bytes under each of [`ENGINES`], in that order; the
    /// engines render concurrently.
    fn regenerate(&self) -> Result<Vec<String>, String> {
        std::thread::scope(|s| {
            let runs: Vec<_> = ENGINES.iter().map(|e| s.spawn(move || self.render(e))).collect();
            runs.into_iter().map(|run| run.join().expect("a contract render panicked")).collect()
        })
    }

    /// One line per difference between `reference` and each engine's bytes
    /// (`outputs`, in [`ENGINES`] order); empty when every engine
    /// reproduced the reference.
    fn differences(&self, reference: &str, outputs: &[String]) -> Vec<String> {
        let mut lines = Vec::new();
        for (engine, new) in ENGINES.iter().zip(outputs).filter(|(_, new)| *new != reference) {
            match self.source {
                Source::Document(exp) => {
                    json_differences(exp.id(), engine, reference, new, &mut lines)
                }
                _ => {
                    let (n, old, new) = first_differing_line(reference, new);
                    let path = self.path.display();
                    lines.push(format!("{path} [{engine}] line {n}: baseline {old}, new {new}"));
                }
            }
        }
        lines
    }
}

/// Every contract of the repository at `root`: the BENCH documents of
/// e1..e15 and of each `scenarios/*.toml`, then each spec's fingerprint,
/// then the [`TRANSCRIPTS`].
///
/// # Errors
///
/// The first malformed spec, with its path and line.
pub fn contracts(root: &Path) -> Result<Vec<Contract>, ScenarioError> {
    let mut all: Vec<Contract> =
        experiments::all().iter().map(|e| Contract::document(*e)).collect();
    let mut fingerprints = Vec::new();
    for scenario in scenarios_in(&root.join("scenarios"))? {
        fingerprints.push(Contract::fingerprint(scenario.spec().clone()));
        all.push(Contract::document(Box::leak(Box::new(scenario))));
    }
    all.extend(fingerprints);
    all.extend(TRANSCRIPTS.iter().map(|(name, args)| Contract::transcript(root, name, args)));
    Ok(all)
}

/// `"20 documents, 5 fingerprints and 3 transcripts"` for `contracts`.
pub fn summary(contracts: &[Contract]) -> String {
    let count = |kind: fn(&Source) -> bool| contracts.iter().filter(|c| kind(&c.source)).count();
    format!(
        "{} documents, {} fingerprints and {} transcripts",
        count(|s| matches!(s, Source::Document(_))),
        count(|s| matches!(s, Source::Fingerprint(_))),
        count(|s| matches!(s, Source::Transcript(_))),
    )
}

fn render_value(v: Option<&Value>) -> String {
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
                    (x, y) => out.push((child, render_value(x), render_value(y))),
                }
            }
        }
        _ if old != new => {
            out.push((path.into(), render_value(Some(old)), render_value(Some(new))))
        }
        _ => {}
    }
}

/// Appends one line per scalar in which two unequal documents differ.
fn json_differences(id: &str, engine: &str, reference: &str, doc: &str, lines: &mut Vec<String>) {
    match (serde_json::from_str::<Value>(reference), serde_json::from_str::<Value>(doc)) {
        (Ok(old), Ok(new)) => {
            let mut scalars = Vec::new();
            diff_values("", &old, &new, &mut scalars);
            if scalars.is_empty() {
                lines.push(format!("{id} [{engine}]: bytes differ, every parsed scalar is equal"));
            }
            for (scalar, old, new) in scalars {
                lines.push(format!("{id} [{engine}] {scalar}: baseline {old}, new {new}"));
            }
        }
        (Err(e), _) => lines.push(format!("{id} [{engine}]: baseline is not JSON: {e}")),
        (_, Err(e)) => lines.push(format!("{id} [{engine}]: new document is not JSON: {e}")),
    }
}

/// The 1-based number of the first line in which two unequal texts differ,
/// with both lines quoted (`<absent>` past the end of the shorter one).
fn first_differing_line(old: &str, new: &str) -> (usize, String, String) {
    let quote = |line: Option<&str>| line.map_or_else(|| "<absent>".into(), |l| format!("{l:?}"));
    let (mut old, mut new) = (old.split('\n'), new.split('\n'));
    for n in 1.. {
        match (old.next(), new.next()) {
            (a, b) if a != b => return (n, quote(a), quote(b)),
            (None, None) => break,
            _ => {}
        }
    }
    unreachable!("first_differing_line is only called on unequal texts")
}

/// Regenerates every contract under every engine and compares the bytes
/// with the committed files under `root`. Returns the number of contracts
/// compared, or one line per difference.
pub fn verify(contracts: &[Contract], root: &Path) -> Result<usize, Vec<String>> {
    let mut failures = Vec::new();
    for contract in contracts {
        let path = root.join(&contract.path);
        match std::fs::read_to_string(&path) {
            Ok(committed) => match contract.regenerate() {
                Ok(outputs) => failures.extend(contract.differences(&committed, &outputs)),
                Err(e) => failures.push(e),
            },
            Err(e) => failures.push(format!("{}: missing: {e}", contract.path.display())),
        }
    }
    if failures.is_empty() {
        Ok(contracts.len())
    } else {
        Err(failures)
    }
}

/// Regenerates every contract under every engine and writes the serial
/// bytes under `root` — or writes nothing and returns the differences when
/// any contract fails to render or any engine disagrees with serial on any
/// contract.
pub fn bless(contracts: &[Contract], root: &Path) -> Result<usize, Vec<String>> {
    let mut failures = Vec::new();
    let mut outputs = Vec::new();
    for contract in contracts {
        match contract.regenerate() {
            Ok(by_engine) => outputs.push((contract, by_engine)),
            Err(e) => failures.push(e),
        }
    }
    write_agreed(&outputs, failures, root)
}

/// Writes each contract's serial bytes, unless there are `failures` or an
/// engine disagrees with serial.
fn write_agreed(
    outputs: &[(&Contract, Vec<String>)],
    mut failures: Vec<String>,
    root: &Path,
) -> Result<usize, Vec<String>> {
    failures
        .extend(outputs.iter().flat_map(|(c, by_engine)| c.differences(&by_engine[0], by_engine)));
    if !failures.is_empty() {
        return Err(failures);
    }
    for (contract, by_engine) in outputs {
        let path = root.join(&contract.path);
        let io = |e: std::io::Error| vec![format!("{}: {e}", path.display())];
        std::fs::create_dir_all(path.parent().expect("a contract path has a parent"))
            .map_err(io)?;
        std::fs::write(&path, &by_engine[0]).map_err(io)?;
    }
    Ok(outputs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::e3_scalability::E3Scalability;

    const OLD: &str = r#"{"metrics": {"p99_ms": {"mean": 52.5, "count": 4}}, "seeds": [1, 2]}"#;
    const NEW: &str = r#"{"metrics": {"p99_ms": {"mean": 53.0, "count": 4}}, "seeds": [1, 2]}"#;

    fn owned(docs: &[&str]) -> Vec<String> {
        docs.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn differences_name_document_engine_scalar_and_both_values() {
        let e3 = Contract::document(&E3Scalability);
        assert_eq!(
            e3.differences(OLD, &owned(&[OLD, OLD, NEW])),
            ["e3 [sharded:4] metrics.p99_ms.mean: baseline 52.5, new 53.0"]
        );
        assert!(e3.differences(OLD, &owned(&[OLD, OLD])).is_empty());
    }

    #[test]
    fn differences_report_absent_scalars_and_unparsable_baselines() {
        let e3 = Contract::document(&E3Scalability);
        let grown =
            r#"{"metrics": {"p99_ms": {"mean": 52.5, "count": 4}}, "seeds": [1, 2], "x": 1}"#;
        assert_eq!(
            e3.differences(OLD, &owned(&[grown])),
            ["e3 [serial] x: baseline <absent>, new 1"]
        );
        let lines = e3.differences("not json", &owned(&[OLD]));
        assert!(lines[0].starts_with("e3 [serial]: baseline is not JSON"), "{lines:?}");
    }

    #[test]
    fn text_differences_name_the_first_differing_line() {
        let quoted = |n, a: &str, b: &str| (n, a.to_string(), b.to_string());
        assert_eq!(first_differing_line("a\nb\n", "a\nB\n"), quoted(2, r#""b""#, r#""B""#));
        assert_eq!(first_differing_line("a", "a\n"), quoted(2, "<absent>", r#""""#));
    }

    #[test]
    fn nothing_is_written_when_an_engine_disagrees_with_serial() {
        let dir = std::env::temp_dir().join(format!("verify_agree_{}", std::process::id()));
        let e3 = Contract::document(&E3Scalability);
        let lines = write_agreed(&[(&e3, owned(&[OLD, NEW, OLD]))], Vec::new(), &dir).unwrap_err();
        assert_eq!(lines, ["e3 [sharded:2] metrics.p99_ms.mean: baseline 52.5, new 53.0"]);
        assert!(!dir.exists(), "a refused bless must not touch the committed files");

        assert_eq!(write_agreed(&[(&e3, owned(&[OLD; 3]))], Vec::new(), &dir), Ok(1));
        assert_eq!(std::fs::read_to_string(dir.join(e3.path())).unwrap(), OLD);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
