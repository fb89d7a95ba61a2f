//! End-to-end guarantees for the canonical scenario specs under
//! `scenarios/`.
//!
//! The committed fingerprints (`tests/scenarios/<name>.fp`) and the pooled
//! simcheck transcript are regenerated by `bench verify`'s own contract
//! runner under every engine it checks, so tier-1 runs that code on its
//! cheapest contracts. The lab scenario's mobility script is additionally
//! checked for exact membership accounting (each mover holds exactly one
//! seat, the room census balances, no move is lost), and the
//! composed-stress scenario must pass every simcheck invariant oracle with
//! its scripted faults active.
//!
//! After an intended behaviour change, `bench verify --bless` rewrites
//! every contract at once.

use std::path::{Path, PathBuf};

use metaclass_avatar::AvatarId;
use metaclass_bench::verify::{contracts, verify, GOLDEN_SEED};
use metaclass_core::ScenarioSpec;
use metaclass_edge::CloudServerNode;
use metaclass_netsim::EngineConfig;
use metaclass_simcheck::{run_plan, standard_oracles, Scenario};

fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

#[test]
fn fingerprints_and_pooled_transcript_verify_on_every_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cheap: Vec<_> = contracts(root)
        .expect("every spec loads")
        .into_iter()
        .filter(|c| {
            c.path().extension().is_some_and(|e| e == "fp") || c.path().ends_with("pooled.txt")
        })
        .collect();
    assert_eq!(cheap.len(), 6, "five scenario fingerprints and the pooled transcript");
    if let Err(lines) = verify(&cheap, root) {
        panic!("contracts drifted (bench verify --bless if intended):\n{}", lines.join("\n"));
    }
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
        scn.spec = spec.clone();
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
