//! Replays the committed fault-schedule regression corpus.
//!
//! Every `tests/regressions/*.json` is a [`RegressionCase`]: a minimal fault
//! schedule (shrunk by the simcheck explorer, or synthesized as the smallest
//! schedule exercising one fault family) pinned to a session seed and an
//! expected outcome. Replaying them here keeps once-fixed failure modes fixed
//! and the on-disk schema stable.
//!
//! To regenerate the corpus after an intentional schema change:
//!
//! ```text
//! cargo test --test regressions regenerate_corpus -- --ignored
//! ```

use std::path::PathBuf;

use metaclass_netsim::FaultWindow;
use metaclass_simcheck::{RegressionCase, Scenario, SCHEMA_VERSION};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions")
}

fn load_corpus() -> Vec<(String, RegressionCase)> {
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/regressions exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let json = std::fs::read_to_string(&path).expect("readable case");
            let case = RegressionCase::from_json(&json)
                .unwrap_or_else(|e| panic!("{name}: bad regression case: {e}"));
            cases.push((name, case));
        }
    }
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    cases
}

/// The synthetic minimal corpus: one case per fault family the explorer
/// draws from, each the smallest schedule exercising that family against the
/// quick two-campus session. All are expected to replay clean — the session
/// must absorb each single fault without breaking any invariant.
fn corpus() -> Vec<(&'static str, RegressionCase)> {
    use metaclass_netsim::{NodeId, SimTime};
    // Quick-scenario layout: cloud=0; campus 0 is edge=1, array=2,
    // student=3, presenter=4; campus 1 is edge=5, array=6, student=7;
    // remote clients are 8-15.
    let cloud = NodeId::from_index(0);
    let edge0 = NodeId::from_index(1);
    let edge1 = NodeId::from_index(5);
    let ms = SimTime::from_millis;

    let case = |description: &str, session_seed, windows| RegressionCase {
        schema_version: SCHEMA_VERSION,
        description: description.to_string(),
        quick: true,
        session_seed,
        windows,
        expect_violation: None,
    };

    vec![
        (
            "backbone-flap.json",
            case(
                "minimal backbone outage: edge-edge link flaps for 400 ms; \
                 degradation must hold and resync must converge",
                11,
                vec![FaultWindow::LinkFlap { a: edge0, b: edge1, from: ms(900), until: ms(1300) }],
            ),
        ),
        (
            "campus-partition.json",
            case(
                "minimal full-coverage partition: campus 1 isolated from \
                 campus 0 + cloud for 600 ms; nothing may cross while active",
                23,
                vec![FaultWindow::Partition {
                    // Every node, so the isolation oracle arms: the remote
                    // clients sit on the cloud's side.
                    groups: Scenario::quick(23).build().0.campus_partition(1),
                    from: ms(1000),
                    until: ms(1600),
                }],
            ),
        ),
        (
            "edge-crash-restart.json",
            case(
                "minimal crash/restart: campus 1 edge server dies for 500 ms; \
                 crashed node must stay silent, then fully resync",
                37,
                vec![FaultWindow::CrashRestart { node: edge1, from: ms(1100), until: ms(1600) }],
            ),
        ),
        (
            "cloud-loss-burst.json",
            case(
                "minimal loss burst: 60% iid loss on the edge0-cloud uplink \
                 for 800 ms; retransmission must keep every invariant",
                53,
                vec![FaultWindow::LossBurst {
                    a: edge0,
                    b: cloud,
                    from: ms(800),
                    until: ms(1600),
                    loss: metaclass_netsim::LossModel::Iid { p: 0.6 },
                }],
            ),
        ),
        (
            "latency-spike-overlap.json",
            case(
                "two overlapping latency spikes (backbone + uplink, 250 ms \
                 extra): staleness must recover once both clear",
                71,
                vec![
                    FaultWindow::LatencySpike {
                        a: edge0,
                        b: edge1,
                        from: ms(900),
                        until: ms(1700),
                        extra: metaclass_netsim::SimDuration::from_millis(250),
                    },
                    FaultWindow::LatencySpike {
                        a: edge1,
                        b: cloud,
                        from: ms(1200),
                        until: ms(1900),
                        extra: metaclass_netsim::SimDuration::from_millis(250),
                    },
                ],
            ),
        ),
    ]
}

/// Writes the corpus files. Run explicitly after intentional changes:
/// `cargo test --test regressions regenerate_corpus -- --ignored`
#[test]
#[ignore = "writes tests/regressions/*.json; run only to regenerate"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, case) in corpus() {
        std::fs::write(dir.join(name), case.to_json() + "\n").expect("write case");
    }
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
        assert!(!case.windows.is_empty(), "{name}: a case without faults pins nothing");
    }
}

#[test]
fn committed_files_match_the_generator() {
    // Catches drift between the in-tree generator and the committed JSON
    // (e.g. a schema change without regeneration).
    let on_disk = load_corpus();
    let mut generated = corpus();
    generated.sort_by(|a, b| a.0.cmp(b.0));
    assert_eq!(on_disk.len(), generated.len(), "file count matches generator");
    for ((disk_name, disk_case), (gen_name, gen_case)) in on_disk.iter().zip(&generated) {
        assert_eq!(disk_name, gen_name);
        assert_eq!(
            disk_case.to_json(),
            gen_case.to_json(),
            "{disk_name} drifted; rerun: cargo test --test regressions regenerate_corpus -- --ignored"
        );
    }
}

#[test]
fn every_regression_case_replays_with_its_expected_outcome() {
    for (name, case) in load_corpus() {
        if let Err(divergence) = case.check() {
            panic!("{name}: {divergence}");
        }
    }
}
