//! `bench verify` through the library functions the CLI calls, on a cheap
//! subset of the registry (two analytic experiments and one scenario spec)
//! against temporary baseline directories.

use std::path::{Path, PathBuf};

use metaclass_bench::experiments::scenario::ScenarioExperiment;
use metaclass_bench::experiments::{e5_split_rendering, e9_seat_allocation};
use metaclass_bench::sweep::bench_path;
use metaclass_bench::verify::{bless, verify, ENGINES};
use metaclass_bench::Experiment;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lab() -> ScenarioExperiment {
    ScenarioExperiment::from_file(&repo().join("scenarios/lab.toml")).expect("lab spec loads")
}

/// A fresh, empty directory unique to one test.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_verify_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn committed_baselines_pass_on_every_engine() {
    let lab = lab();
    let targets: [&dyn Experiment; 3] =
        [&e5_split_rendering::E5SplitRendering, &e9_seat_allocation::E9SeatAllocation, &lab];
    assert_eq!(verify(&targets, &repo().join("results/baselines")), Ok(3));
}

#[test]
fn a_mutated_scalar_is_named_with_both_values_on_every_engine() {
    let dir = temp_dir("mutated");
    let committed =
        std::fs::read_to_string(bench_path(&repo().join("results/baselines"), "e5")).unwrap();
    let scalar =
        "\"desktop_10_cloud_only_added_latency_ms\": {\n      \"count\": 4,\n      \"mean\": 42.0";
    assert!(committed.contains(scalar), "e5 baseline lost the scalar this test mutates");
    let mutated = committed.replacen(scalar, &scalar.replace("42.0", "43.5"), 1);
    std::fs::write(bench_path(&dir, "e5"), mutated).unwrap();

    let lines = verify(&[&e5_split_rendering::E5SplitRendering], &dir).unwrap_err();
    let expected: Vec<String> = ENGINES
        .iter()
        .map(|engine| {
            format!(
                "e5 [{engine}] metrics.desktop_10_cloud_only_added_latency_ms.mean: \
                 baseline 43.5, new 42.0"
            )
        })
        .collect();
    assert_eq!(lines, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_missing_baseline_fails_and_is_never_skipped() {
    let dir = temp_dir("missing");
    let lines = verify(&[&e9_seat_allocation::E9SeatAllocation], &dir).unwrap_err();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("e9: no baseline ") && lines[0].contains("BENCH_e9.json"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bless_into_an_empty_dir_then_verify_passes() {
    let dir = temp_dir("bless").join("baselines");
    let lab = lab();
    let targets: [&dyn Experiment; 2] = [&e9_seat_allocation::E9SeatAllocation, &lab];
    assert_eq!(bless(&targets, &dir), Ok(2));
    assert_eq!(verify(&targets, &dir), Ok(2));
    std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
}
