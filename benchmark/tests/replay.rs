//! The stepped replay and its node classifier.

use metabench::run::{model_fingerprint, session_pass};
use metabench::trace::{stepped_replay, NodeKind};
use metabench::workloads::{Size, Workload};
use metaclass_core::SessionBuilder;
use metaclass_netsim::{LinkClass, NodeId, PopulationProfile, Region, SimDuration, SimTime};

#[test]
fn classifier_maps_every_name_the_session_builder_emits() {
    let session = SessionBuilder::new()
        .campus("HKUST-CWB", Region::EastAsia, 2, true)
        .remote_cohort(Region::Europe, 2, LinkClass::ResidentialAccess)
        .population(
            Region::SouthAsia,
            500,
            2,
            LinkClass::ResidentialAccess,
            PopulationProfile::flash_crowd(
                SimTime::from_millis(200),
                SimDuration::from_millis(300),
            ),
        )
        .build();
    let sim = session.sim();
    let mut seen = Vec::new();
    for i in 0..sim.node_count() {
        let kind = NodeKind::of_node(sim.node_name(NodeId::from_index(i)));
        if !seen.contains(&kind) {
            seen.push(kind);
        }
    }
    // Everything but Forward, which is a step without a node.
    for kind in &NodeKind::ALL[..5] {
        assert!(seen.contains(kind), "the builder emitted no {kind:?} node");
    }
    assert_eq!(NodeKind::of_node("cloud"), NodeKind::Cloud);
    assert_eq!(NodeKind::of_node("edge-HKUST-CWB"), NodeKind::EdgeServer);
    assert_eq!(NodeKind::of_node("array-GZ"), NodeKind::Devices);
    assert_eq!(NodeKind::of_node("headset-1003"), NodeKind::Devices);
    assert_eq!(NodeKind::of_node("client-10007"), NodeKind::Client);
    assert_eq!(NodeKind::of_node("pool-3"), NodeKind::Pool);
}

#[test]
#[should_panic(expected = "no layer")]
fn classifier_rejects_a_node_it_does_not_know() {
    NodeKind::of_node("relay-7");
}

#[test]
fn stepped_replay_of_a_tiny_session_equals_run_for() {
    for workload in [Workload::RemoteCohort, Workload::BlendedCampus, Workload::PlanetPool] {
        let w = workload.session(Size::Smoke).expect("a session workload");
        let untraced = session_pass(&w, w.engine, 5, Size::Smoke, false);
        assert!(untraced.events > 0);

        let mut session = (w.build)(5, Size::Smoke).build();
        let trace = stepped_replay(&mut session, untraced.events);
        assert_eq!(trace.steps, untraced.events, "{}", workload.name());
        assert_eq!(session.sim().events_processed(), untraced.events);
        assert_eq!(model_fingerprint(&session), untraced.fingerprint, "{}", workload.name());
        assert!(!session.sim().has_observer(), "the replay removes its observer");

        let steps: u64 = trace.kinds.iter().map(|k| k.steps).sum();
        let busy: u64 = trace.kinds.iter().map(|k| k.busy_ns).sum();
        assert_eq!(steps, untraced.events, "every step is charged to exactly one kind");
        assert!(busy <= trace.wall_ns, "busy {busy} ns exceeds the loop's {} ns", trace.wall_ns);
    }
}

#[test]
fn replay_takes_no_more_steps_than_asked() {
    let w = Workload::RemoteCohort.session(Size::Smoke).expect("a session workload");
    let mut session = (w.build)(1, Size::Smoke).build();
    assert_eq!(stepped_replay(&mut session, 0).steps, 0);
    assert_eq!(stepped_replay(&mut session, 7).steps, 7);
    assert_eq!(session.sim().events_processed(), 7);
}
