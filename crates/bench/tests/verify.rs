//! `bench verify` through the library functions the CLI calls, on a cheap
//! subset of the contracts (two analytic experiments, one scenario spec's
//! document and fingerprint, and a two-case simcheck transcript) against
//! temporary roots.

use std::path::{Path, PathBuf};

use metaclass_bench::experiments::scenario::ScenarioExperiment;
use metaclass_bench::experiments::{e5_split_rendering, e9_seat_allocation};
use metaclass_bench::verify::{bless, verify, Contract, ENGINES};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lab() -> &'static ScenarioExperiment {
    let lab = ScenarioExperiment::from_file(&repo().join("scenarios/lab.toml"));
    Box::leak(Box::new(lab.expect("lab spec loads")))
}

fn lab_fingerprint() -> Contract {
    Contract::fingerprint(lab().spec().clone())
}

/// A two-case pooled exploration: the cheapest transcript that runs every
/// engine.
fn tiny_transcript(root: &Path) -> Contract {
    Contract::transcript(root, "tiny", "--seed 11 --cases 2 --pooled 12")
}

/// A fresh, empty directory unique to one test.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_verify_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Replaces the first `from` in `root/path` with `to`.
fn mutate(root: &Path, path: &Path, from: &str, to: &str) {
    let path = root.join(path);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(from), "{} lost the text this test mutates", path.display());
    std::fs::write(&path, text.replacen(from, to, 1)).unwrap();
}

#[test]
fn committed_contracts_pass_on_every_engine() {
    let contracts = [
        Contract::document(&e5_split_rendering::E5SplitRendering),
        Contract::document(&e9_seat_allocation::E9SeatAllocation),
        Contract::document(lab()),
        lab_fingerprint(),
    ];
    assert_eq!(verify(&contracts, &repo()), Ok(4));
}

/// Bless into an empty root reproduces the committed bytes; then a document
/// with one changed scalar, a fingerprint with one changed event count and
/// a transcript with one changed line appear in one report, on every engine.
#[test]
fn every_mutation_is_named_on_every_engine_in_one_report() {
    let dir = temp_dir("mutated");
    let contracts = [
        Contract::document(&e5_split_rendering::E5SplitRendering),
        lab_fingerprint(),
        tiny_transcript(&dir),
    ];
    assert_eq!(bless(&contracts, &dir), Ok(3));
    let [e5, fp, transcript] = &contracts;
    for c in [e5, fp] {
        let committed = std::fs::read(repo().join(c.path())).unwrap();
        assert_eq!(std::fs::read(dir.join(c.path())).unwrap(), committed, "{:?}", c.path());
    }
    let scalar =
        "\"desktop_10_cloud_only_added_latency_ms\": {\n      \"count\": 4,\n      \"mean\": 42.0";
    mutate(&dir, e5.path(), scalar, &scalar.replace("42.0", "43.5"));
    let fp_line = std::fs::read_to_string(dir.join(fp.path())).unwrap().trim_end().to_string();
    let (hash, events) = fp_line.split_once(' ').unwrap();
    let wrong = format!("{hash} {}", events.parse::<u64>().unwrap() + 1);
    mutate(&dir, fp.path(), &fp_line, &wrong);
    let text = std::fs::read_to_string(dir.join(transcript.path())).unwrap();
    let line2 = text.lines().nth(1).unwrap();
    let changed = line2.replace("2 clean", "1 clean");
    mutate(&dir, transcript.path(), line2, &changed);

    let scalar = "metrics.desktop_10_cloud_only_added_latency_ms.mean";
    let mut expected = Vec::new();
    for (label, diff) in [
        ("e5", format!("{scalar}: baseline 43.5, new 42.0")),
        ("tests/scenarios/lab.fp", format!("line 1: baseline {wrong:?}, new {fp_line:?}")),
        ("tests/simcheck/tiny.txt", format!("line 2: baseline {changed:?}, new {line2:?}")),
    ] {
        expected.extend(ENGINES.map(|engine| format!("{label} [{engine}] {diff}")));
    }
    let lines = verify(&contracts, &dir).unwrap_err();
    assert_eq!(lines, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_missing_baseline_fails_and_is_never_skipped() {
    let dir = temp_dir("missing");
    // A transcript whose spec is gone cannot be rendered: one more failure
    // in the same report, from `verify` and from `bless` alike.
    let gone = Contract::transcript(&dir, "gone", "--cases 1 --scenario scenarios/gone.toml");
    std::fs::create_dir_all(dir.join("tests/simcheck")).unwrap();
    std::fs::write(dir.join(gone.path()), "committed\n").unwrap();
    let contracts =
        [Contract::document(&e9_seat_allocation::E9SeatAllocation), lab_fingerprint(), gone];
    let lines = verify(&contracts, &dir).unwrap_err();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines[0].starts_with("results/baselines/BENCH_e9.json: missing: "), "{lines:?}");
    assert!(lines[1].starts_with("tests/scenarios/lab.fp: missing: "), "{lines:?}");
    let spec = dir.join("scenarios/gone.toml");
    let unrendered = format!(
        "tests/simcheck/gone.txt [serial]: bench simcheck --cases 1 --scenario {} --engine \
         serial failed (its error is on stderr)",
        spec.display()
    );
    assert_eq!(lines[2], unrendered);
    assert_eq!(bless(&contracts[2..], &dir).unwrap_err(), lines[2..]);
    assert_eq!(std::fs::read_to_string(dir.join(contracts[2].path())).unwrap(), "committed\n");
    std::fs::remove_dir_all(&dir).unwrap();
}
