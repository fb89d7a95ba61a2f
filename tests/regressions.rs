//! Replays the committed fault-schedule regression corpus.
//!
//! Every `tests/regressions/*.json` is a [`RegressionCase`]: the workload a
//! failure was found on (scale, pooled audience, and the `--scenario` spec's
//! TOML text, if any), its session seed, a minimal fault schedule, and the
//! expected outcome. Each case replays on the serial engine and on
//! `sharded:4`. A case expecting a clean run keeps a once-fixed failure
//! fixed. A case expecting a violation is a canary for an open bug, and
//! flips to clean when that bug is fixed.
//!
//! The committed JSON is the only copy of the corpus. To add a case, let
//! the explorer write it here, then rename the file and reword its
//! description:
//!
//! ```text
//! bench simcheck --seed 3 --cases 5 --pooled 40 --write tests/regressions
//! ```

use std::path::PathBuf;

use metaclass_netsim::EngineConfig;
use metaclass_simcheck::{RegressionCase, SCHEMA_VERSION};

fn load_corpus() -> Vec<(String, RegressionCase)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(dir).expect("tests/regressions exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let json = std::fs::read_to_string(&path).expect("readable case");
            let case = RegressionCase::from_json(&json)
                .unwrap_or_else(|e| panic!("{name}: bad regression case: {e}"));
            assert_eq!(case.to_json() + "\n", json, "{name}: not in the form --write gives");
            cases.push((name, case));
        }
    }
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    cases
}

#[test]
fn corpus_is_present_and_loads() {
    let cases = load_corpus();
    assert!(
        cases.len() >= 3,
        "regression corpus must hold at least 3 cases, found {}",
        cases.len()
    );
    for (name, case) in &cases {
        assert_eq!(case.schema_version, SCHEMA_VERSION, "{name}");
        // A fault-free failure is pinned by its workload and seed alone.
        assert!(
            case.expect_violation.is_some() || !case.windows.is_empty(),
            "{name}: a clean case without faults pins nothing"
        );
    }
}

#[test]
fn every_regression_case_replays_with_its_expected_outcome() {
    for (name, case) in load_corpus() {
        for engine in [EngineConfig::serial(), EngineConfig::sharded(4)] {
            if let Err(divergence) = case.check(engine) {
                panic!("{name} on {engine:?}: {divergence}");
            }
        }
    }
}
