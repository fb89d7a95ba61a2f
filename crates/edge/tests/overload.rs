//! Integration tests for flash-crowd overload control.
//!
//! A cloud classroom plus remote VR clients, joined through the token-bucket
//! admission gate. Covers deferral + waiting-room drain, waiting-room
//! overflow rejection, the load-shedding ladder under a starved egress
//! budget, and — the nasty one — a client join racing a cloud
//! crash/restart, which must converge to an admitted, streaming client
//! rather than wedging.

use metaclass_avatar::{AvatarId, Vec3};
use metaclass_edge::{
    ClassMsg, ClientConfig, CloudServerNode, FanoutConfig, LoadShedder, RemoteClientNode,
    ServerConfig, ShedLevel,
};
use metaclass_netsim::{FaultWindow, LinkClass, NodeId, SimDuration, SimTime, Simulation};
use metaclass_sensors::MotionScript;

struct Deployment {
    sim: Simulation<ClassMsg>,
    cloud: NodeId,
    clients: Vec<(AvatarId, NodeId)>,
}

/// Builds a cloud (node 0) serving `n_clients` remote clients (nodes 1..)
/// over residential access links. No physical campus — these tests exercise
/// the join/admission path and the fan-out between remote peers.
fn build(seed: u64, n_clients: u32, server: ServerConfig, client: ClientConfig) -> Deployment {
    let mut sim: Simulation<ClassMsg> = Simulation::new(seed);
    let cloud_id = NodeId::from_index(0);

    let mut client_map = std::collections::BTreeMap::new();
    for i in 0..n_clients {
        client_map.insert(AvatarId(1000 + i), NodeId::from_index(1 + i as usize));
    }

    let cloud = sim.add_node(
        "cloud",
        CloudServerNode::new(server, FanoutConfig::default(), client_map.clone(), Vec::new(), 256),
    );
    assert_eq!(cloud, cloud_id);

    let mut clients = Vec::new();
    for (i, (&avatar, &expected)) in client_map.iter().enumerate() {
        let script =
            MotionScript::SeatedLecture { seat: Vec3::new(2.0 + i as f64 * 0.9, 0.0, 8.0) };
        let node = sim.add_node(
            format!("client-{avatar}"),
            RemoteClientNode::new(avatar, cloud_id, client, script, seed + 700 + i as u64),
        );
        assert_eq!(node, expected);
        sim.connect(node, cloud, LinkClass::ResidentialAccess.config());
        clients.push((avatar, node));
    }

    Deployment { sim, cloud, clients }
}

/// A client heartbeat tuned so server death is detected within ~1s instead
/// of the production-default 5s, keeping the crash-race test fast.
fn fast_heartbeat_client() -> ClientConfig {
    let mut cfg = ClientConfig::default();
    cfg.heartbeat.interval = SimDuration::from_millis(100);
    cfg.heartbeat.degraded_after = SimDuration::from_millis(400);
    cfg.heartbeat.timeout = SimDuration::from_millis(900);
    cfg.heartbeat.hold = SimDuration::from_millis(300);
    cfg.clock_probe_interval = SimDuration::from_millis(100);
    cfg
}

fn assert_queues_bounded(cloud: &CloudServerNode) {
    for (name, max_depth, capacity) in cloud.overload_queues() {
        assert!(
            max_depth <= capacity,
            "queue {name} exceeded its bound: max depth {max_depth} > capacity {capacity}"
        );
    }
}

#[test]
fn tight_admission_defers_then_drains_the_waiting_room() {
    let mut server = ServerConfig::default();
    server.overload.admission.burst = 2;
    server.overload.admission.refill_every = SimDuration::from_millis(100);
    server.overload.admission.waiting_room = 16;

    let mut d = build(7, 6, server, ClientConfig::default());
    d.sim.run_until(SimTime::from_secs(5));

    let cloud = d.sim.node_as::<CloudServerNode>(d.cloud).unwrap();
    let (admitted, deferred, rejected) = cloud.admission().totals();
    assert_eq!(cloud.admission().admitted_count(), 6, "every client ends admitted");
    assert_eq!(admitted, 6);
    assert!(deferred > 0, "a 6-way burst against burst=2 must defer someone");
    assert_eq!(rejected, 0, "waiting room of 16 never overflows here");
    assert!(cloud.admission().waiting_max_depth() <= cloud.admission().waiting_capacity());
    assert_queues_bounded(cloud);

    let mut clients_deferred = 0u64;
    for &(avatar, node) in &d.clients {
        let client = d.sim.node_as::<RemoteClientNode>(node).unwrap();
        assert!(client.is_admitted(), "client {avatar} should be admitted");
        let (sent, deferrals, _rejections) = client.join_stats();
        assert!(sent >= 1);
        clients_deferred += deferrals;
    }
    assert!(clients_deferred > 0, "some client observed a JoinDeferred reply");
}

#[test]
fn waiting_room_overflow_rejects_but_never_exceeds_capacity() {
    let mut server = ServerConfig::default();
    server.overload.admission.burst = 1;
    server.overload.admission.refill_every = SimDuration::from_secs(2);
    server.overload.admission.waiting_room = 2;

    let mut d = build(11, 6, server, ClientConfig::default());
    d.sim.run_until(SimTime::from_secs(3));

    let cloud = d.sim.node_as::<CloudServerNode>(d.cloud).unwrap();
    let (_admitted, _deferred, rejected) = cloud.admission().totals();
    assert!(rejected > 0, "a 6-way burst into a 2-slot waiting room must reject");
    assert!(cloud.admission().admitted_count() >= 1, "the burst token admits at least one");
    assert_eq!(cloud.admission().waiting_capacity(), 2);
    assert!(cloud.admission().waiting_max_depth() <= 2, "waiting room bound holds");
    assert_queues_bounded(cloud);

    let rejections: u64 = d
        .clients
        .iter()
        .map(|&(_, n)| d.sim.node_as::<RemoteClientNode>(n).unwrap().join_stats().2)
        .sum();
    assert!(rejections > 0, "some client observed a JoinRejected reply");
}

#[test]
fn join_racing_cloud_crash_restart_recovers() {
    // First crash lands ~20ms in, while the initial JoinRequests are still
    // in flight on ~25ms residential links; the restart wipes admission
    // state. A second crash hits after everyone is admitted and streaming,
    // exercising the rejoin-hint path (the restarted cloud sees unadmitted
    // poses from roster clients and answers JoinRejected so they re-join
    // without waiting out a heartbeat timeout).
    let mut d = build(23, 2, ServerConfig::default(), fast_heartbeat_client());
    let crash = |from, until| FaultWindow::CrashRestart { node: d.cloud, from, until };
    let plan = [
        crash(SimTime::from_millis(20), SimTime::from_millis(500)),
        crash(SimTime::from_secs(4), SimTime::from_millis(4200)),
    ];
    d.sim.apply_fault_plan(&plan);
    d.sim.run_until(SimTime::from_secs(10));

    let cloud = d.sim.node_as::<CloudServerNode>(d.cloud).unwrap();
    assert_eq!(
        cloud.admission().admitted_count(),
        2,
        "both clients re-admitted after the second restart"
    );
    assert_queues_bounded(cloud);

    for &(avatar, node) in &d.clients {
        let client = d.sim.node_as::<RemoteClientNode>(node).unwrap();
        assert!(client.is_admitted(), "client {avatar} wedged instead of re-joining");
        assert!(
            client.updates_received() > 0,
            "client {avatar} admitted but never received fan-out"
        );
        let (sent, _deferred, _rejected) = client.join_stats();
        assert!(sent >= 2, "client {avatar} must have re-joined at least once");
    }
}

#[test]
fn starved_egress_budget_climbs_the_shed_ladder_one_rung_at_a_time() {
    let mut server = ServerConfig::default();
    server.overload.egress_budget_per_tick = 2;
    server.overload.backlog_capacity = 8;

    let mut d = build(31, 8, server, ClientConfig::default());
    d.sim.run_until(SimTime::from_secs(4));

    let cloud = d.sim.node_as::<CloudServerNode>(d.cloud).unwrap();
    assert!(
        cloud.shedder().level().rung() > ShedLevel::Full.rung(),
        "8 streaming clients against a 2-update budget must shed"
    );
    let transitions: Vec<_> = cloud.shedder().transitions().cloned().collect();
    assert!(!transitions.is_empty());
    for pair in transitions.windows(2) {
        let gap = pair[1].at.duration_since(pair[0].at);
        assert!(
            gap >= LoadShedder::HYSTERESIS,
            "ladder moved twice inside one hysteresis window: {gap:?}"
        );
    }
    for t in &transitions {
        let diff = (t.to.rung() as i16 - t.from.rung() as i16).abs();
        assert_eq!(diff, 1, "ladder must move exactly one rung per transition");
    }
    assert_queues_bounded(cloud);
}
