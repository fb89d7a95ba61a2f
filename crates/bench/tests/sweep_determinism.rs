//! End-to-end determinism of the sweep harness: the merged JSON document is
//! a pure function of `(experiment, scale, seeds)` — worker count and
//! repetition never change a byte.

use metaclass_bench::experiments::scenario::ScenarioExperiment;
use metaclass_bench::experiments::{
    e14_fault_recovery, e2_latency_threshold, e4_regional_servers, e5_split_rendering,
};
use metaclass_bench::sweep::{run_sweep, validate_json, SweepConfig, SCHEMA_VERSION};
use metaclass_bench::{Experiment, RunCtx, Scale};
use proptest::prelude::*;

#[test]
fn sixteen_seed_sweep_is_byte_identical_across_job_counts() {
    let exp = e5_split_rendering::E5SplitRendering;
    let sweep = |jobs| {
        let cfg = SweepConfig::first_n(16, jobs, Scale::Quick);
        run_sweep(&exp, &cfg).doc.to_json_string()
    };
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial, parallel, "--jobs 1 and --jobs 8 must write identical JSON");
    // And re-running the serial sweep reproduces the exact bytes.
    assert_eq!(serial, sweep(1), "re-running must reproduce the document");
}

#[test]
fn simulation_backed_sweep_is_jobs_invariant_too() {
    // E2 runs real discrete-event simulations per seed; this catches any
    // nondeterminism that leaks in through the engine rather than the math.
    let exp = e2_latency_threshold::E2LatencyThreshold;
    let sweep = |jobs| {
        let cfg = SweepConfig::first_n(4, jobs, Scale::Quick);
        run_sweep(&exp, &cfg).doc.to_json_string()
    };
    assert_eq!(sweep(1), sweep(4));
}

#[test]
fn crash_restart_mid_sweep_preserves_jobs_invariance() {
    // Every E14 run injects a `CrashRestart` fault window against
    // an edge server mid-lecture. Crash epochs void pending timers and
    // restart replays node boot, so this is the sweep most likely to expose
    // scheduling nondeterminism — its merged document must still be a pure
    // function of (experiment, scale, seeds), never of worker count.
    let exp = e14_fault_recovery::E14FaultRecovery;
    let sweep = |jobs| {
        let cfg = SweepConfig::first_n(4, jobs, Scale::Quick);
        run_sweep(&exp, &cfg).doc.to_json_string()
    };
    let serial = sweep(1);
    assert_eq!(serial, sweep(4), "--jobs 1 and --jobs 4 must write identical JSON");
    assert_eq!(serial, sweep(1), "re-running must reproduce the document");
}

#[test]
fn scenario_sweeps_are_jobs_invariant() {
    // The file-registered canonical lab scenario (mobility script, mixed
    // cohorts) must hold the same bar as E1..E15: its merged document is a
    // pure function of (experiment, scale, seeds), never of worker count.
    // Engine invariance is `bench verify`'s: every BENCH_scenario_*.json
    // under serial, sharded:2 and sharded:4.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/lab.toml");
    let exp = ScenarioExperiment::from_file(&path).expect("canonical lab spec loads");
    assert_eq!(exp.id(), "scenario_lab");
    let sweep = |jobs| {
        let cfg = SweepConfig::first_n(4, jobs, Scale::Quick);
        run_sweep(&exp, &cfg).doc.to_json_string()
    };
    let serial = sweep(1);
    assert_eq!(serial, sweep(4), "--jobs must not change a byte");
    let doc = validate_json(&serial).expect("scenario sweep document validates");
    assert_eq!(doc.experiment, "scenario_lab");
}

#[test]
fn sweep_document_round_trips_through_the_validator() {
    let exp = e5_split_rendering::E5SplitRendering;
    let cfg = SweepConfig::first_n(3, 2, Scale::Quick);
    let doc = run_sweep(&exp, &cfg).doc;
    let json = doc.to_json_string();
    let parsed = validate_json(&json).expect("canonical JSON validates");
    assert_eq!(parsed, doc, "parse(serialize(doc)) == doc");
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
    assert_eq!(parsed.experiment, "e5");
    assert_eq!(parsed.seeds, vec![1, 2, 3]);
}

#[test]
fn validator_rejects_schema_drift() {
    let exp = e5_split_rendering::E5SplitRendering;
    let cfg = SweepConfig::first_n(2, 1, Scale::Quick);
    let json = run_sweep(&exp, &cfg).doc.to_json_string();
    // Unknown field → rejected (deny_unknown_fields).
    let extra = json.replacen("\"schema_version\"", "\"bogus\": 1,\n  \"schema_version\"", 1);
    assert!(validate_json(&extra).is_err(), "unknown fields must fail validation");
    // Wrong version → rejected.
    let wrong = json.replacen("\"schema_version\": 1", "\"schema_version\": 999", 1);
    assert!(validate_json(&wrong).is_err(), "future schema versions must fail validation");
    // Missing field → rejected.
    let start = json.find("\"fingerprint\"").expect("field present");
    let end = json[start..].find('\n').expect("line ends") + start + 1;
    let missing = format!("{}{}", &json[..start], &json[end..]);
    assert!(validate_json(&missing).is_err(), "missing fields must fail validation");
}

/// A committed baseline, the raw material of the hostile documents below.
fn committed_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines/BENCH_e10.json");
    std::fs::read_to_string(path).expect("committed baseline present")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `bench --validate` reads files it did not write: a truncated,
    /// byte-flipped or absurdly nested document must come back as `Err`,
    /// never as a panic or a stack overflow.
    #[test]
    fn validator_never_panics_on_hostile_documents(
        cut in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..8),
        depth in 129usize..20_000,
        open_objects in any::<bool>(),
    ) {
        let doc = committed_doc();
        prop_assert!(doc.is_ascii() && validate_json(&doc).is_ok());
        let body = doc.trim_end().len();
        prop_assert!(validate_json(&doc[..cut as usize % body]).is_err(), "truncation at {}", cut);
        let mut bytes = doc.clone().into_bytes();
        for &(at, mask) in &flips {
            let i = at as usize % bytes.len();
            bytes[i] ^= mask;
        }
        // A flip may leave the document valid (a digit for a digit); it
        // just must not panic.
        let _ = validate_json(&String::from_utf8_lossy(&bytes));
        let (open, close) = if open_objects { (r#"{"a":"#, "}") } else { ("[", "]") };
        let nested = open.repeat(depth) + &doc + &close.repeat(depth);
        prop_assert!(validate_json(&nested).is_err(), "nesting depth {}", depth);
    }
}

#[test]
fn merged_metrics_pool_histograms_across_runs() {
    // E4 exports its per-learner RTT histograms; merging across N runs must
    // pool exactly N runs' worth of samples.
    let exp = e4_regional_servers::E4RegionalServers;
    let seeds = 2;
    let cfg = SweepConfig::first_n(seeds, 2, Scale::Quick);
    let out = run_sweep(&exp, &cfg);
    let single = exp.run(&RunCtx::new(Scale::Quick, 1));
    let single_count = single.metrics.histogram_if_present("central_rtt_ns").expect("hist").count();
    let merged = &out.doc.merged.histograms["central_rtt_ns"];
    assert_eq!(merged.count, single_count * seeds, "merged count pools all runs");
    assert_eq!(out.doc.merged.counters["central_learners"], 200 * seeds);
}
