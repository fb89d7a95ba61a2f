//! Integration test: a miniature Figure-3 deployment.
//!
//! One MR classroom (headsets + room array + edge server), the cloud VR
//! classroom, and remote clients, wired over calibrated links. Verifies the
//! full pipeline: sensing → fusion → delta replication → seat retargeting →
//! display, plus clock sync, under loss and jitter.

use std::collections::BTreeMap;

use metaclass_avatar::{AvatarId, Vec3};
use metaclass_edge::{
    ClassMsg, ClassroomLayout, ClientConfig, CloudServerNode, EdgeServerNode, FanoutConfig,
    HeadsetNode, RemoteClientNode, RoomArrayNode, ServerConfig,
};
use metaclass_netsim::{FaultWindow, LinkClass, NodeId, Region, SimDuration, SimTime, Simulation};
use metaclass_sensors::MotionScript;

struct Deployment {
    sim: Simulation<ClassMsg>,
    edge: NodeId,
    cloud: NodeId,
    headsets: Vec<(AvatarId, NodeId)>,
    clients: Vec<(AvatarId, NodeId)>,
}

/// Builds: `n_local` physical participants in one classroom, `n_remote` VR
/// clients in East Asia, an edge server, and the cloud.
fn build(seed: u64, n_local: u32, n_remote: u32) -> Deployment {
    let mut sim: Simulation<ClassMsg> = Simulation::new(seed);
    let layout = ClassroomLayout::lecture(4, 5);

    // Ids are fixed before nodes exist; NodeId is assigned in add order, so
    // reserve servers first by adding placeholder-free ordering: edge and
    // cloud are created last, but headsets need the edge id. Instead, create
    // the servers first with participant lists filled afterwards — the
    // constructor needs them, so we precompute ids by add order:
    //   0: edge, 1: cloud, 2: room array, 3..3+n_local: headsets, then clients.
    let edge_id = NodeId::from_index(0);
    let cloud_id = NodeId::from_index(1);
    let array_id = NodeId::from_index(2);
    let first_headset = 3usize;
    let first_client = first_headset + n_local as usize;

    let mut participants = Vec::new();
    let mut scripts = Vec::new();
    for i in 0..n_local {
        let avatar = AvatarId(i);
        let seat_anchor = layout.seats[i as usize];
        let script = MotionScript::SeatedLecture {
            seat: Vec3::new(seat_anchor.pose.position.x, 0.0, seat_anchor.pose.position.z),
        };
        let headset_id = NodeId::from_index(first_headset + i as usize);
        participants.push((avatar, headset_id, seat_anchor));
        scripts.push((avatar, script, seed + 100 + i as u64));
    }

    let mut client_map = BTreeMap::new();
    for i in 0..n_remote {
        let avatar = AvatarId(1000 + i);
        client_map.insert(avatar, NodeId::from_index(first_client + i as usize));
    }

    let edge = sim.add_node(
        "edge-cwb",
        EdgeServerNode::new(
            ServerConfig::default(),
            layout.clone(),
            participants.clone(),
            vec![cloud_id],
        ),
    );
    assert_eq!(edge, edge_id);
    let cloud = sim.add_node(
        "cloud",
        CloudServerNode::new(
            ServerConfig::default(),
            FanoutConfig::default(),
            client_map.clone(),
            vec![edge_id],
            512,
        ),
    );
    assert_eq!(cloud, cloud_id);
    let array = sim.add_node("room-array", RoomArrayNode::new(edge_id, scripts.clone()));
    assert_eq!(array, array_id);
    sim.connect(array, edge, LinkClass::WiredLan.config());

    let mut headsets = Vec::new();
    for (avatar, script, s) in scripts {
        let hs = sim.add_node(
            format!("headset-{avatar}"),
            HeadsetNode::new(avatar, edge_id, ServerConfig::default().codec, script, s),
        );
        sim.connect(hs, edge, LinkClass::Wifi.config());
        headsets.push((avatar, hs));
    }

    let mut clients = Vec::new();
    for (i, (&avatar, &expected_id)) in client_map.iter().enumerate() {
        let script =
            MotionScript::SeatedLecture { seat: Vec3::new(5.0 + i as f64 * 0.8, 0.0, 10.0) };
        let c = sim.add_node(
            format!("client-{avatar}"),
            RemoteClientNode::new(
                avatar,
                cloud_id,
                ClientConfig::default(),
                script,
                seed + 500 + i as u64,
            ),
        );
        assert_eq!(c, expected_id);
        sim.connect(c, cloud, LinkClass::ResidentialAccess.config());
        clients.push((avatar, c));
    }

    // Edge ↔ cloud over the regional backbone.
    sim.connect(edge, cloud, Region::EastAsia.backbone_to(Region::EastAsia));

    Deployment { sim, edge, cloud, headsets, clients }
}

#[test]
fn physical_avatars_reach_the_cloud_and_remote_clients() {
    let mut d = build(42, 6, 3);
    d.sim.run_until(SimTime::from_secs(5));

    // The cloud knows every physical participant and every client.
    let cloud = d.sim.node_as::<CloudServerNode>(d.cloud).unwrap();
    assert_eq!(cloud.population(), 9, "6 physical + 3 remote");

    // Every remote client displays the physical participants.
    for &(avatar, node) in &d.clients {
        let client = d.sim.node_as_mut::<RemoteClientNode>(node).unwrap();
        assert!(
            client.displayed_count() >= 6,
            "client {avatar} displays {}",
            client.displayed_count()
        );
        let shown = client.displayed_state(AvatarId(0), SimTime::from_secs(5));
        assert!(shown.is_some(), "client {avatar} cannot sample avatar 0");
    }
}

#[test]
fn remote_clients_appear_in_the_physical_classroom() {
    let mut d = build(43, 4, 2);
    d.sim.run_until(SimTime::from_secs(5));

    let edge = d.sim.node_as::<EdgeServerNode>(d.edge).unwrap();
    assert!(
        edge.remote_count() >= 2,
        "edge shows {} remote avatars (want the 2 clients)",
        edge.remote_count()
    );
    // The remote avatars were seated in the physical room.
    assert!(edge.seats().occupancy() >= 2);

    // Headsets received display updates for remote avatars.
    if let Some(&(_, hs)) = d.headsets.first() {
        // One is enough; all share the same broadcast.
        let headset = d.sim.node_as::<HeadsetNode>(hs).unwrap();
        assert!(headset.displayed_count() >= 2);
    }
    let latency = d.sim.metrics().histogram_if_present("display.latency_ns").unwrap();
    assert!(latency.count() > 0);
}

#[test]
fn end_to_end_latency_is_within_the_interactivity_budget() {
    let mut d = build(44, 6, 3);
    d.sim.run_until(SimTime::from_secs(10));

    // Client-side display latency: capture at the edge → display at a
    // worldwide client. The blueprint's bar is 100 ms (§3.3).
    let h = d.sim.metrics().histogram_if_present("client.display_latency_ns").unwrap();
    assert!(h.count() > 100, "only {} samples", h.count());
    let p99_ms = h.percentile(99.0) as f64 / 1e6;
    assert!(p99_ms < 100.0, "p99 display latency {p99_ms:.1} ms");

    // Sensor → edge ingestion latency is a few ms (WiFi hop).
    let s = d.sim.metrics().histogram_if_present("edge.sensor_latency_ns").unwrap();
    assert!((s.percentile(50.0) as f64) / 1e6 < 10.0);
}

#[test]
fn fused_estimates_track_ground_truth() {
    let mut d = build(45, 4, 0);
    d.sim.run_until(SimTime::from_secs(5));
    let now = d.sim.time();

    // Compare each participant's fused estimate at the edge with the
    // headset's ground truth.
    let truths: Vec<_> = d
        .headsets
        .iter()
        .map(|&(avatar, hs)| (avatar, d.sim.node_as::<HeadsetNode>(hs).unwrap().truth_at(now)))
        .collect();
    let edge = d.sim.node_as::<EdgeServerNode>(d.edge).unwrap();
    for (avatar, truth) in truths {
        let est = edge.local_estimate(avatar).expect("fusion initialized");
        let err = est.position_error(&truth);
        assert!(err < 0.1, "{avatar}: fused estimate off by {err:.3} m");
    }
}

#[test]
fn clock_sync_converges_under_jitter() {
    let mut d = build(46, 2, 2);
    d.sim.run_until(SimTime::from_secs(10));
    for &(_, node) in &d.clients {
        let client = d.sim.node_as::<RemoteClientNode>(node).unwrap();
        let clock = client.clock();
        assert!(clock.sample_count() > 10);
        // Nodes share the true simulation clock, so the estimated offset
        // must be within the uncertainty bound of zero.
        let offset = clock.offset_ns().unwrap().unsigned_abs();
        let bound = clock.uncertainty().unwrap().as_nanos();
        assert!(offset <= bound, "offset {offset} ns > bound {bound} ns");
    }
}

#[test]
fn deterministic_across_runs() {
    let run = |seed| {
        let mut d = build(seed, 3, 2);
        d.sim.enable_fingerprint();
        d.sim.run_until(SimTime::from_secs(2));
        d.sim.fingerprint().unwrap()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn backbone_outage_heals_after_recovery() {
    let mut d = build(47, 3, 1);
    d.sim.run_until(SimTime::from_secs(2));
    let before = d.sim.metrics().counter_value("cloud.fanout_updates");
    assert!(before > 0);

    // Cut the edge ↔ cloud backbone for 3 seconds.
    let (from, until) = (SimTime::from_secs(2), SimTime::from_secs(5));
    d.sim.apply_fault_plan(&[FaultWindow::LinkFlap { a: d.edge, b: d.cloud, from, until }]);
    d.sim.run_until(until);
    let dropped = d.sim.metrics().counter_value("net.dropped.down");
    assert!(dropped > 0, "outage must drop traffic");

    // Restored: replication resumes and clients keep getting updates.
    d.sim.run_until(SimTime::from_secs(8));
    let (_, client_node) = d.clients[0];
    let client = d.sim.node_as_mut::<RemoteClientNode>(client_node).unwrap();
    assert!(client.displayed_state(AvatarId(0), SimTime::from_secs(8)).is_some());
    let after = d.sim.metrics().counter_value("cloud.fanout_updates");
    assert!(after > before, "fan-out stalled after recovery");
}

#[test]
fn a_frozen_avatar_stands_still_on_the_headsets() {
    let mut d = build(50, 2, 1);
    let remote = d.clients[0].0;
    let (_, hs) = d.headsets[0];
    let shown = |d: &Deployment| {
        d.sim.node_as::<HeadsetNode>(hs).unwrap().displayed_state(remote, d.sim.time())
    };
    d.sim.run_until(SimTime::from_secs(3));
    assert!(shown(&d).is_some(), "the remote avatar is on display before the outage");

    // The client's avatar reaches the classroom through the cloud: cut the
    // backbone for good and wait out the edge's heartbeat timeout and hold
    // window.
    let (from, until) = (d.sim.time(), SimTime::MAX);
    d.sim.apply_fault_plan(&[FaultWindow::LinkFlap { a: d.edge, b: d.cloud, from, until }]);
    while d.sim.metrics().counter_value("edge.avatars_frozen") == 0 {
        assert!(d.sim.time() < SimTime::from_secs(6), "the avatar never froze");
        d.sim.run_until(d.sim.time() + SimDuration::from_millis(5));
    }
    let frozen_at = d.sim.time();
    d.sim.run_until(frozen_at + SimDuration::from_secs(1));
    let early = shown(&d).unwrap();
    d.sim.run_until(frozen_at + SimDuration::from_secs(10));
    let late = shown(&d).unwrap();
    assert_eq!(early.velocity, Vec3::ZERO);
    assert_eq!(late, early, "a frozen avatar drifted");
}

#[test]
fn dead_reckoning_suppresses_most_seated_updates() {
    let mut d = build(48, 6, 0);
    d.sim.run_until(SimTime::from_secs(10));
    let sent = d.sim.metrics().counter_value("edge.updates_sent");
    let suppressed = d.sim.metrics().counter_value("edge.updates_suppressed");
    assert!(sent > 0);
    // Seated students barely move: the 60 Hz tick should mostly suppress.
    let ratio = suppressed as f64 / (sent + suppressed) as f64;
    assert!(ratio > 0.5, "suppression ratio {ratio:.2}");
}

#[test]
fn interaction_traces_replicate_exactly_once_in_order() {
    use metaclass_sync::InteractionEvent;
    let mut d = build(49, 5, 3);
    d.sim.run_until(SimTime::from_secs(90));

    let edge_log: Vec<(AvatarId, InteractionEvent)> =
        d.sim.node_as::<EdgeServerNode>(d.edge).unwrap().interaction_log().to_vec();
    let cloud_log: Vec<(AvatarId, InteractionEvent)> =
        d.sim.node_as::<CloudServerNode>(d.cloud).unwrap().interaction_log().to_vec();

    // Both rooms observed interactions from locals and remotes alike.
    assert!(!edge_log.is_empty() && !cloud_log.is_empty());
    let edge_sources: std::collections::BTreeSet<AvatarId> =
        edge_log.iter().map(|(a, _)| *a).collect();
    assert!(
        edge_sources.iter().any(|a| a.0 >= 1000),
        "edge must see client interactions: {edge_sources:?}"
    );
    assert!(edge_sources.iter().any(|a| a.0 < 1000), "edge must see local interactions");

    // Per-avatar streams are exactly-once and strictly alternating
    // (raise, lower, raise, ...) — duplicates or reordering would break the
    // alternation.
    for log in [&edge_log, &cloud_log] {
        let mut last_state: std::collections::BTreeMap<AvatarId, bool> = Default::default();
        for (avatar, ev) in log {
            let InteractionEvent::RaiseHand { raised } = ev else {
                continue;
            };
            if let Some(prev) = last_state.insert(*avatar, *raised) {
                assert_ne!(prev, *raised, "{avatar}: duplicate or out-of-order hand event");
            } else {
                assert!(*raised, "{avatar}: first event must be a raise");
            }
        }
    }

    // Every participant's events reach both server logs in equal number
    // (modulo the last event still in flight at cutoff).
    for avatar in &edge_sources {
        let at_edge = edge_log.iter().filter(|(a, _)| a == avatar).count() as i64;
        let at_cloud = cloud_log.iter().filter(|(a, _)| a == avatar).count() as i64;
        assert!(
            (at_edge - at_cloud).abs() <= 1,
            "{avatar}: edge saw {at_edge}, cloud saw {at_cloud}"
        );
    }
}
