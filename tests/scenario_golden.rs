//! Golden transcripts and end-to-end guarantees for the canonical
//! scenario specs under `scenarios/`.
//!
//! Every committed spec is expanded at a pinned seed and its event-trace
//! fingerprint compared against `tests/scenarios/<name>.fp` — on the
//! serial *and* the sharded engine, so a byte of drift in the expander,
//! the DSL, or either engine fails loudly. The lab scenario's mobility
//! script is additionally checked for exact membership accounting (each
//! mover holds exactly one seat, the room census balances, no move is
//! lost), and the composed-stress scenario must pass every simcheck
//! invariant oracle with its scripted faults active.
//!
//! To regenerate the fingerprints after an intentional behavior change:
//!
//! ```text
//! cargo test --test scenario_golden regenerate_fingerprints -- --ignored
//! ```

use std::path::PathBuf;

use metaclass_avatar::AvatarId;
use metaclass_core::ScenarioSpec;
use metaclass_edge::CloudServerNode;
use metaclass_netsim::EngineConfig;
use metaclass_simcheck::{run_plan, standard_oracles, Scenario};

/// The seed every golden transcript is pinned to.
const GOLDEN_SEED: u64 = 2022;
/// Trace capacity: quick-scale canonical runs fit comfortably.
const TRACE_CAP: usize = 1 << 18;

fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn fp_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

fn canonical_specs() -> Vec<ScenarioSpec> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(spec_dir())
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "at least the four canonical specs are committed");
    paths.iter().map(|p| ScenarioSpec::load(p).expect("canonical spec loads")).collect()
}

/// `"<trace-fingerprint-hex> <events-processed>"` for one expansion.
fn transcript(spec: &ScenarioSpec, engine: EngineConfig) -> String {
    let mut session = spec.build_session(GOLDEN_SEED, engine);
    session.sim_mut().enable_trace(TRACE_CAP);
    session.run_for(spec.duration());
    let trace = session.sim().trace().expect("trace enabled");
    format!("{} {}", trace.fingerprint_hex(), session.sim().events_processed())
}

/// Writes `tests/scenarios/<name>.fp`. Run explicitly after intentional
/// changes: `cargo test --test scenario_golden regenerate_fingerprints -- --ignored`
#[test]
#[ignore = "writes tests/scenarios/*.fp; run only to regenerate"]
fn regenerate_fingerprints() {
    let dir = fp_dir();
    std::fs::create_dir_all(&dir).expect("create fingerprint dir");
    for spec in canonical_specs() {
        let line = transcript(&spec, EngineConfig::serial());
        std::fs::write(dir.join(format!("{}.fp", spec.name)), line + "\n").expect("write fp");
    }
}

#[test]
fn canonical_specs_replay_their_committed_fingerprints_on_both_engines() {
    for spec in canonical_specs() {
        let path = fp_dir().join(format!("{}.fp", spec.name));
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden fingerprint ({e}); run: cargo test --test \
                 scenario_golden regenerate_fingerprints -- --ignored",
                path.display()
            )
        });
        let serial = transcript(&spec, EngineConfig::serial());
        let sharded = transcript(&spec, EngineConfig::sharded(4));
        assert_eq!(serial, sharded, "{}: serial and sharded transcripts diverged", spec.name);
        assert_eq!(
            committed.trim(),
            serial,
            "{}: transcript drifted from tests/scenarios/{}.fp; if intentional, regenerate",
            spec.name,
            spec.name
        );
    }
}

#[test]
fn golden_transcripts_are_stable_across_reruns() {
    let spec = ScenarioSpec::load(&spec_dir().join("lecture.toml")).expect("lecture spec");
    let a = transcript(&spec, EngineConfig::serial());
    let b = transcript(&spec, EngineConfig::serial());
    assert_eq!(a, b, "rerunning the same expansion must reproduce the transcript");
}

/// The lab scenario's mobility script, checked end to end: every scripted
/// move is applied exactly once, movers end up in their scripted rooms
/// holding exactly one seat each, and the cloud's room census balances.
#[test]
fn lab_mobility_is_accounted_exactly() {
    let spec = ScenarioSpec::load(&spec_dir().join("lab.toml")).expect("lab spec");
    let moves = spec.mobility.as_ref().expect("lab scripts mobility");
    let mut session = spec.build_session(GOLDEN_SEED, EngineConfig::serial());
    session.run_for(spec.duration());

    let metrics = session.sim().metrics();
    assert_eq!(
        metrics.counter_value("cloud.room_moves"),
        moves.len() as u64,
        "every scripted move is applied exactly once"
    );
    assert_eq!(metrics.counter_value("cloud.room_moves_ignored"), 0);
    assert_eq!(metrics.counter_value("cloud.seat_rejects"), 0, "every mover is reseated");

    let cloud = session.sim().node_as::<CloudServerNode>(session.cloud()).expect("cloud node");
    assert!(cloud.rooms_are_consistent(), "room census must balance the seat map");
    // Final rooms follow the script: learner 0 moved to room 1 and back,
    // learner 1 stayed in room 1, learner 4 moved to room 2.
    assert_eq!(cloud.room_of(AvatarId(10_000)), Some(0));
    assert_eq!(cloud.room_of(AvatarId(10_001)), Some(1));
    assert_eq!(cloud.room_of(AvatarId(10_004)), Some(2));
    assert_eq!(cloud.room_of(AvatarId(10_002)), Some(0), "unscripted learners stay put");
    let census = cloud.room_census();
    assert_eq!(census.get(&1).copied(), Some(1));
    assert_eq!(census.get(&2).copied(), Some(1));
}

/// The composed-stress scenario (flash crowd + scripted loss burst and
/// link flap + mobility on mixed platforms) passes every simcheck
/// invariant oracle — packet conservation, partition isolation, staleness
/// bounds, resync convergence — on both engines, with its scripted faults
/// lowered by `ScenarioSpec::fault_windows`.
#[test]
fn stress_spec_passes_every_simcheck_oracle_on_both_engines() {
    let spec = ScenarioSpec::load(&spec_dir().join("stress.toml")).expect("stress spec");
    assert!(
        spec.stress.as_ref().is_some_and(|s| s.flash_crowd.is_some())
            && spec.stress.as_ref().is_some_and(|s| s.faults.is_some()),
        "the stress spec must compose a flash crowd with scripted faults"
    );
    for engine in [EngineConfig::serial(), EngineConfig::sharded(4)] {
        let mut scn = Scenario::quick(GOLDEN_SEED);
        scn.engine = engine;
        scn.spec = Some(spec.clone());
        let (session, _) = scn.build();
        let windows = spec.fault_windows(&session);
        assert_eq!(windows.len(), 2, "both scripted faults lower to fault windows");
        let out = run_plan(&scn, &windows, standard_oracles(&scn));
        assert!(
            out.violation.is_none(),
            "stress scenario violated an oracle on {engine:?}: {:?}",
            out.violation
        );
        assert!(out.events > 1000, "the stressed session actually ran");
    }
}
