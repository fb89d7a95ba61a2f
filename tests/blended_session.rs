//! Workspace integration tests: the full blended classroom across crates.

use metaclassroom::core::{Activity, Role, SessionBuilder};
use metaclassroom::edge::{CloudServerNode, EdgeServerNode, HeadsetNode, RemoteClientNode};
use metaclassroom::netsim::{FaultWindow, LinkClass, Region, SimDuration, SimTime};

fn unit_case(seed: u64) -> metaclassroom::core::ClassroomSession {
    SessionBuilder::new()
        .seed(seed)
        .activity(Activity::Lecture)
        .campus("CWB", Region::EastAsia, 6, true)
        .campus("GZ", Region::EastAsia, 5, false)
        .remote_cohort(Region::Europe, 2, LinkClass::ResidentialAccess)
        .remote_cohort(Region::EastAsia, 2, LinkClass::ResidentialAccess)
        .build()
}

#[test]
fn every_room_sees_every_participant() {
    let mut s = unit_case(1);
    s.run_for(SimDuration::from_secs(5));
    let total = s.participants().len(); // 12 physical + 4 remote

    // Cloud: everyone.
    let cloud_pop = s.sim().node_as::<CloudServerNode>(s.cloud()).unwrap().population();
    assert_eq!(cloud_pop, total);

    // Each edge: everyone not local to it.
    let edges = s.edges().to_vec();
    let locals = [7usize, 5usize];
    for (edge, local) in edges.iter().zip(locals) {
        let rc = s.sim().node_as::<EdgeServerNode>(*edge).unwrap().remote_count();
        assert_eq!(rc, total - local, "edge with {local} locals shows {rc}");
    }

    // Each remote client displays at least the physical participants.
    let clients: Vec<_> = s
        .participants()
        .iter()
        .filter(|p| matches!(p.role, Role::RemoteLearner { .. }))
        .map(|p| p.node)
        .collect();
    for c in clients {
        let shown = s.sim().node_as::<RemoteClientNode>(c).unwrap().displayed_count();
        assert!(shown >= 12, "client displays {shown}");
    }
}

#[test]
fn displayed_avatars_track_their_sources() {
    let mut s = unit_case(2);
    s.run_for(SimDuration::from_secs(5));
    let now = s.time();

    // Pick a CWB student; their headset knows ground truth.
    let student = s
        .participants()
        .iter()
        .find(|p| matches!(p.role, Role::Student { campus: 0 }))
        .copied()
        .unwrap();
    let truth = s.sim().node_as::<HeadsetNode>(student.node).unwrap().truth_at(now);

    // The GZ edge holds a retargeted copy. Retargeting moves the avatar to a
    // local seat, but local offsets (head height, posture) survive — compare
    // height above the seat, which retargeting preserves.
    let gz_edge = s.edges()[1];
    let server = s.sim().node_as::<EdgeServerNode>(gz_edge).unwrap();
    let copy = server.remote_state(student.avatar).expect("replicated");
    assert!(
        (copy.head.position.y - truth.head.position.y).abs() < 0.15,
        "head height diverged: {} vs {}",
        copy.head.position.y,
        truth.head.position.y
    );
    // Expression replicates verbatim (blendshape weights).
    assert!(copy.expression.max_abs_diff(&truth.expression) < 0.6);
}

#[test]
fn seeds_reproduce_and_differ() {
    let fingerprint = |seed| {
        let mut s = unit_case(seed);
        s.sim_mut().enable_fingerprint();
        s.run_for(SimDuration::from_secs(2));
        s.sim().fingerprint().unwrap()
    };
    assert_eq!(fingerprint(9), fingerprint(9), "same seed must replay identically");
    assert_ne!(fingerprint(9), fingerprint(10));
}

#[test]
fn inter_campus_outage_recovers() {
    let mut s = unit_case(3);
    s.run_for(SimDuration::from_secs(2));
    let edges = s.edges().to_vec();

    // Sever CWB ↔ GZ for 3 s; CWB ↔ cloud stays up.
    let (from, until) = (s.time(), s.time() + SimDuration::from_secs(3));
    let flap = FaultWindow::LinkFlap { a: edges[0], b: edges[1], from, until };
    s.sim_mut().apply_fault_plan(&[flap]);
    s.run_for(SimDuration::from_secs(3));
    assert!(s.sim().metrics().counter_value("net.dropped.down") > 0);

    // Healed: verify the GZ room still converges on fresh CWB state.
    s.run_for(SimDuration::from_secs(3));
    let student = s
        .participants()
        .iter()
        .find(|p| matches!(p.role, Role::Student { campus: 0 }))
        .copied()
        .unwrap();
    let now = s.time();
    let truth_y =
        s.sim().node_as::<HeadsetNode>(student.node).unwrap().truth_at(now).head.position.y;
    let copy = s
        .sim()
        .node_as::<EdgeServerNode>(edges[1])
        .unwrap()
        .remote_state(student.avatar)
        .expect("still replicated");
    assert!((copy.head.position.y - truth_y).abs() < 0.2);
}

#[test]
fn lossy_cellular_learners_still_converge() {
    let mut s = SessionBuilder::new()
        .seed(4)
        .campus("CWB", Region::EastAsia, 4, true)
        .remote_cohort(Region::SouthAsia, 2, LinkClass::CellularAccess)
        .build();
    s.run_for(SimDuration::from_secs(8));
    let r = s.report();
    // Bursty cellular loss drops packets...
    assert!(r.net_dropped > 0, "expected loss on cellular access");
    // ...but ack-referenced deltas + keyframes keep clients converged.
    let client = s
        .participants()
        .iter()
        .find(|p| matches!(p.role, Role::RemoteLearner { .. }))
        .copied()
        .unwrap();
    let t = s.time();
    let first_avatar = s.participants()[0].avatar;
    let node = s.sim_mut().node_as_mut::<RemoteClientNode>(client.node).unwrap();
    assert!(node.displayed_count() >= 4);
    assert!(node.displayed_state(first_avatar, t).is_some());
}

#[test]
fn reports_round_trip_through_serde() {
    let mut s = unit_case(5);
    s.run_for(SimDuration::from_secs(1));
    let report = s.report();
    let json = serde_json::to_string(&report).expect("serializes");
    let back: metaclassroom::core::SessionReport =
        serde_json::from_str(&json).expect("deserializes");
    assert_eq!(report, back);
    // A report is a snapshot: the session keeps counting past it.
    s.run_for(SimDuration::from_secs(1));
    assert!(s.report().updates_sent > report.updates_sent);
}

#[test]
fn long_session_stays_bounded() {
    // A 60-second session must not leak unbounded state: history maps are
    // pruned by acks, jitter buffers are capped.
    let mut s = SessionBuilder::new()
        .seed(6)
        .campus("CWB", Region::EastAsia, 3, false)
        .remote_cohort(Region::EastAsia, 1, LinkClass::ResidentialAccess)
        .build();
    s.run_for(SimDuration::from_secs(60));
    let r = s.report();
    assert!(r.delivery_ratio() > 0.95);
    assert!(s.time() == SimTime::from_secs(60));
    // Suppression keeps working over the long haul.
    assert!(r.suppression_ratio() > 0.2, "suppression {:.2}", r.suppression_ratio());
}
