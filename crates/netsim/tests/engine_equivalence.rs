//! Property test: the serial and sharded executors are byte-identical on
//! random topologies, fault plans, and seeds.
//!
//! Each case builds a random multi-campus topology (stars of varying size
//! joined by a ring of slow WAN links — the shape the partitioner is meant
//! to cut), loads it with chatty timer-driven nodes, overlays a random fault
//! plan (link flaps, loss bursts, latency spikes, partitions, crash/restart),
//! and runs it to a deadline under the serial engine and under sharded
//! engines at 2 and 4 shards. Fingerprints, the full metrics snapshot (minus the
//! `engine.` namespace, which describes the executor itself), the event
//! count, and the final clock must all agree exactly.
//!
//! The fingerprint is a digest of the observer's event stream, so the sharded
//! runs also install an observer: its own digest of every event must agree
//! across engines, and installing it must not move the fingerprint.
//!
//! A second property cuts one run into up to twelve run calls, switching
//! engines and adding a node and a link between calls, and checks that the
//! result equals one uninterrupted serial run: the sharded engine's lanes,
//! kept from one call to the next, must carry nothing over.
//!
//! A third property gives one gateway a multicast group spanning its own
//! star, the neighbouring campuses across the WAN and an unlinked node, and
//! checks that `Context::send_all` is indistinguishable from a loop of
//! `send`s on every engine, under loss, full queues and crashes.

use std::sync::{Arc, Mutex};

use metaclass_netsim::{
    Context, EngineConfig, FaultWindow, Fnv1a, LinkConfig, LossModel, MetricsSnapshot, Node,
    NodeId, SimDuration, SimEvent, SimTime, SimView, Simulation, Timer,
};
use proptest::prelude::*;

/// A timer-driven node: every period it sends a burst toward its peer (and,
/// with a `group`, one more to every member of it), and echoes shrinking
/// replies to whatever it hears. Exercises sends, multicasts, timers, RNG
/// draws, and crash resets.
struct Chatter {
    peer: NodeId,
    period: SimDuration,
    rounds: u32,
    fired: u32,
    received: u64,
    group: Vec<NodeId>,
    /// Whether the group is sent with one `send_all` or a loop of `send`s.
    multicast: bool,
}

impl Chatter {
    fn new(peer: NodeId, period: SimDuration) -> Self {
        Chatter {
            peer,
            period,
            rounds: 10,
            fired: 0,
            received: 0,
            group: Vec::new(),
            multicast: false,
        }
    }
}

impl Node<u64> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.fired = 0;
        ctx.set_timer(self.period, 1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
        self.received = self.received.wrapping_add(msg);
        if msg > 1 {
            ctx.send(from, msg - 1, 150);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _t: Timer) {
        self.fired += 1;
        let burst = ctx.rng().range_u64(1, 4);
        ctx.send(self.peer, burst, 300);
        if !self.group.is_empty() {
            let burst = ctx.rng().range_u64(2, 5);
            if self.multicast {
                ctx.send_all(self.group.iter().copied(), burst, 250);
            } else {
                for &member in &self.group {
                    ctx.send(member, burst, 250);
                }
            }
        }
        if self.fired < self.rounds {
            ctx.set_timer(self.period, 1);
        }
    }
    fn on_crash(&mut self) {
        self.received = 0;
    }
}

#[derive(Debug, Clone)]
struct Topo {
    /// Nodes per campus; length = campus count.
    campuses: Vec<u8>,
    /// Intra-campus one-way delay in microseconds.
    lan_us: u64,
    /// Inter-campus one-way delay in milliseconds (the lookahead source).
    wan_ms: u64,
    /// Per-link i.i.d. loss probability.
    loss: f64,
    /// Jitter as a fraction of the WAN delay.
    jitter_us: u64,
    /// With `Some(bytes)`, LAN links run at 250 kbit/s behind a drop-tail
    /// queue of `bytes`.
    lan_queue_bytes: Option<u64>,
}

#[derive(Debug, Clone)]
struct Faults {
    flap_wan: bool,
    loss_wan: bool,
    spike_wan: bool,
    partition: bool,
    crash_node: bool,
}

fn build(seed: u64, topo: &Topo) -> (Simulation<u64>, Vec<NodeId>, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    let mut gateways = Vec::new();
    let mut all = Vec::new();
    for (c, &size) in topo.campuses.iter().enumerate() {
        let first = all.len();
        for i in 0..size as usize {
            // Every node initially points at its campus gateway; gateways
            // are re-pointed at the next campus below.
            let peer = first;
            let period = SimDuration::from_millis(2 + (i as u64 % 5));
            let id =
                sim.add_node(format!("c{c}n{i}"), Chatter::new(NodeId::from_index(peer), period));
            all.push(id);
        }
        gateways.push(all[first]);
    }
    // Point each gateway at the next gateway around the WAN ring so traffic
    // actually crosses the cut.
    for c in 0..gateways.len() {
        let peer = gateways[(c + 1) % gateways.len()];
        let gw = gateways[c];
        sim.node_as_mut::<Chatter>(gw).unwrap().peer = peer;
    }
    let mut lan = LinkConfig::new(SimDuration::from_micros(topo.lan_us))
        .with_jitter(SimDuration::from_micros(topo.lan_us / 4))
        .with_loss(LossModel::Iid { p: topo.loss });
    if let Some(bytes) = topo.lan_queue_bytes {
        lan = lan.with_bandwidth_bps(250_000).with_queue_capacity_bytes(bytes);
    }
    let mut idx = 0;
    for &size in &topo.campuses {
        let gw = all[idx];
        for i in 1..size as usize {
            sim.connect(gw, all[idx + i], lan);
        }
        idx += size as usize;
    }
    let wan = LinkConfig::new(SimDuration::from_millis(topo.wan_ms))
        .with_jitter(SimDuration::from_micros(topo.jitter_us))
        .with_loss(LossModel::Iid { p: topo.loss * 2.0 });
    for c in 0..gateways.len() - 1 {
        sim.connect(gateways[c], gateways[c + 1], wan);
    }
    // The closing link makes every gateway's peer a neighbour (two campuses
    // already are).
    if gateways.len() > 2 {
        sim.connect(gateways[gateways.len() - 1], gateways[0], wan);
    }
    (sim, gateways, all)
}

fn fault_plan(
    f: &Faults,
    gateways: &[NodeId],
    all: &[NodeId],
    campuses: &[u8],
) -> Vec<FaultWindow> {
    let ms = SimTime::from_millis;
    let mut plan = Vec::new();
    let (a, b) = (gateways[0], gateways[1]);
    if f.flap_wan {
        plan.push(FaultWindow::LinkFlap { a, b, from: ms(40), until: ms(90) });
    }
    if f.loss_wan {
        let loss = LossModel::Iid { p: 0.5 };
        plan.push(FaultWindow::LossBurst { a, b, from: ms(20), until: ms(130), loss });
    }
    if f.spike_wan {
        let extra = SimDuration::from_millis(7);
        plan.push(FaultWindow::LatencySpike { a, b, from: ms(100), until: ms(160), extra });
    }
    if f.partition {
        let (first, rest) = all.split_at(campuses[0] as usize);
        let groups = vec![first.to_vec(), rest.to_vec()];
        plan.push(FaultWindow::Partition { groups, from: ms(170), until: ms(220) });
    }
    if f.crash_node {
        // Crash the second campus's gateway: mid-run restart re-arms timers.
        plan.push(FaultWindow::CrashRestart { node: gateways[1], from: ms(60), until: ms(140) });
    }
    plan
}

/// Installs an observer folding every event, with the view's clock and
/// crash count, into one digest. Link state is left out: under the sharded
/// engine the view shows it at barrier granularity.
fn observe(sim: &mut Simulation<u64>) -> Arc<Mutex<Fnv1a>> {
    let digest = Arc::new(Mutex::new(Fnv1a::new()));
    let sink = Arc::clone(&digest);
    sim.set_observer(move |view: &SimView<'_>, event: &SimEvent<'_>| {
        let crashed =
            (0..view.node_count()).filter(|&i| view.is_crashed(NodeId::from_index(i))).count();
        let mut h = sink.lock().unwrap();
        h.write_u64(view.time().as_nanos());
        h.write_u64(crashed as u64);
        h.write(format!("{event:?}").as_bytes());
    });
    digest
}

/// Runs one case; with `observed`, the last field is the observer's digest.
fn run(
    seed: u64,
    topo: &Topo,
    faults: &Faults,
    engine: EngineConfig,
    observed: bool,
) -> (u64, MetricsSnapshot, u64, SimTime, u64, Option<u64>) {
    let (mut sim, gateways, all) = build(seed, topo);
    sim.set_engine_config(engine);
    sim.enable_fingerprint();
    let digest = observed.then(|| observe(&mut sim));
    sim.apply_fault_plan(&fault_plan(faults, &gateways, &all, &topo.campuses));
    sim.run_until(SimTime::from_millis(260));
    (
        sim.fingerprint().unwrap(),
        sim.metrics().snapshot().without_prefix("engine."),
        sim.events_processed(),
        sim.time(),
        sim.metrics().counter_value("engine.fallback_serial"),
        digest.map(|d| d.lock().unwrap().finish()),
    )
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    (
        (proptest::collection::vec(2u8..5, 2..4), 50u64..2_000),
        (10u64..60, 0.0f64..0.08, 0u64..3_000),
    )
        .prop_map(|((campuses, lan_us), (wan_ms, loss, jitter_us))| Topo {
            campuses,
            lan_us,
            wan_ms,
            loss,
            jitter_us,
            lan_queue_bytes: None,
        })
}

fn faults_strategy() -> impl Strategy<Value = Faults> {
    ((any::<bool>(), any::<bool>()), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |((flap_wan, loss_wan), spike_wan, partition, crash_node)| Faults {
            flap_wan,
            loss_wan,
            spike_wan,
            partition,
            crash_node,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_equals_serial(
        seed in 0u64..1_000_000,
        topo in topo_strategy(),
        faults in faults_strategy(),
    ) {
        let serial = run(seed, &topo, &faults, EngineConfig::serial(), true);
        prop_assert_eq!(serial.4, 0, "serial runs never count a fallback");
        let unobserved = run(seed, &topo, &faults, EngineConfig::serial(), false);
        prop_assert_eq!(serial.0, unobserved.0, "observer moved the trace fingerprint");
        for shards in [2usize, 4] {
            let sharded = run(seed, &topo, &faults, EngineConfig::sharded(shards), true);
            prop_assert_eq!(serial.5, sharded.5, "observer digest ({} shards)", shards);
            prop_assert_eq!(serial.0, sharded.0, "trace fingerprint ({} shards)", shards);
            prop_assert_eq!(&serial.1, &sharded.1, "metrics ({} shards)", shards);
            prop_assert_eq!(serial.2, sharded.2, "event count ({} shards)", shards);
            prop_assert_eq!(serial.3, sharded.3, "final clock ({} shards)", shards);
            // Identity must come from genuinely sharded execution, not from
            // a silent serial fallback masquerading as agreement.
            prop_assert_eq!(sharded.4, 0, "unexpected serial fallback ({} shards)", shards);
        }
    }
}

/// A node that never sends: added between run calls, it changes the
/// topology (so the shard plan and every lane's vectors must follow) without
/// changing what the rest of the world does.
struct Quiet;

impl Node<u64> for Quiet {
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {}
}

/// One run call of a split run: its deadline in ms and the engine it runs
/// under. Before every call but the first, a [`Quiet`] node joins, linked
/// to the existing node `attach` (taken modulo the node count).
#[derive(Debug, Clone)]
struct Stop {
    at_ms: u64,
    engine: EngineConfig,
    attach: usize,
}

fn stops_strategy() -> impl Strategy<Value = Vec<Stop>> {
    let engines = [EngineConfig::serial(), EngineConfig::sharded(2), EngineConfig::sharded(4)];
    proptest::collection::vec((1u64..260, 0..engines.len(), any::<usize>()), 1..=12).prop_map(
        move |mut v| {
            v.sort_by_key(|s| s.0);
            // The last call always runs to the full horizon.
            v.last_mut().expect("at least one stop").0 = 260;
            v.into_iter()
                .map(|(at_ms, e, attach)| Stop { at_ms, engine: engines[e], attach })
                .collect()
        },
    )
}

/// Adds one [`Quiet`] node, linked both ways to node `attach` at LAN delay.
fn add_quiet_node(sim: &mut Simulation<u64>, topo: &Topo, attach: usize) {
    let peer = NodeId::from_index(attach % sim.node_count());
    let quiet = sim.add_node("quiet", Quiet);
    sim.connect(quiet, peer, LinkConfig::new(SimDuration::from_micros(topo.lan_us)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parked shard lanes carry nothing from one run call into the next:
    /// a run cut into several calls, switching engines and growing the
    /// topology between them, equals one uninterrupted serial run of the
    /// grown topology.
    #[test]
    fn split_runs_with_engine_switches_and_topology_edits_equal_one_serial_run(
        seed in 0u64..1_000_000,
        topo in topo_strategy(),
        faults in faults_strategy(),
        stops in stops_strategy(),
    ) {
        let start = |sim: &mut Simulation<u64>, gateways: &[NodeId], all: &[NodeId]| {
            sim.enable_fingerprint();
            let digest = observe(sim);
            sim.apply_fault_plan(&fault_plan(&faults, gateways, all, &topo.campuses));
            digest
        };
        let outcome = |sim: &Simulation<u64>, digest: &Arc<Mutex<Fnv1a>>| {
            (
                sim.fingerprint().unwrap(),
                sim.metrics().snapshot().without_prefix("engine."),
                sim.events_processed(),
                sim.time(),
                digest.lock().unwrap().finish(),
            )
        };

        let (mut whole, gateways, all) = build(seed, &topo);
        for stop in &stops[1..] {
            add_quiet_node(&mut whole, &topo, stop.attach);
        }
        let digest = start(&mut whole, &gateways, &all);
        whole.run_until(SimTime::from_millis(260));
        let reference = outcome(&whole, &digest);

        let (mut split, gateways, all) = build(seed, &topo);
        let digest = start(&mut split, &gateways, &all);
        for (i, stop) in stops.iter().enumerate() {
            if i > 0 {
                add_quiet_node(&mut split, &topo, stop.attach);
            }
            split.set_engine_config(stop.engine);
            split.run_until(SimTime::from_millis(stop.at_ms));
        }
        let got = outcome(&split, &digest);
        prop_assert_eq!(reference.0, got.0, "trace fingerprint");
        prop_assert_eq!(&reference.1, &got.1, "metrics");
        prop_assert_eq!(reference.2, got.2, "event count");
        prop_assert_eq!(reference.3, got.3, "final clock");
        prop_assert_eq!(reference.4, got.4, "observer digest");
        prop_assert_eq!(split.metrics().counter_value("engine.fallback_serial"), 0);
    }
}

/// A topology the partitioner cannot cut (one campus, zero-lookahead
/// links): the sharded engine must fall back to serial — *visibly*, in
/// `engine.fallback_serial` — and otherwise be the serial run.
#[test]
fn fallback_is_announced_and_otherwise_byte_identical() {
    let topo = Topo {
        campuses: vec![4],
        lan_us: 0,
        wan_ms: 0,
        loss: 0.0,
        jitter_us: 0,
        lan_queue_bytes: None,
    };
    let run_one = |engine: EngineConfig| {
        let (mut sim, _gw, _all) = build(7, &topo);
        sim.set_engine_config(engine);
        sim.enable_fingerprint();
        sim.run_until(SimTime::from_millis(260));
        let fallbacks = sim.metrics().counter_value("engine.fallback_serial");
        let outcome = (
            sim.fingerprint().unwrap(),
            sim.metrics().snapshot().without_prefix("engine."),
            sim.events_processed(),
            sim.time(),
        );
        (outcome, fallbacks)
    };
    let (serial, serial_fallbacks) = run_one(EngineConfig::serial());
    let (sharded, sharded_fallbacks) = run_one(EngineConfig::sharded(2));
    assert_eq!(serial_fallbacks, 0);
    assert!(sharded_fallbacks > 0, "the fallback is counted");
    assert_eq!(serial, sharded, "fingerprint, metrics, event count and clock agree");
}

#[derive(Debug, Clone)]
struct MulticastFaults {
    /// Crash start of a member of the hub's own star, in ms.
    member_at: u64,
    /// Crash start of the WAN neighbour the group reaches, in ms.
    gateway_at: u64,
    /// How long each crashed node stays down, in ms.
    down_ms: u64,
    /// Whether the hub itself crashes too (mid-run, its group sends stop and
    /// restart with it).
    crash_hub: bool,
}

/// `build`'s campuses with campus 0's gateway as a hub whose group spans
/// the WAN neighbours it links to, the members of its own star, and an
/// `island` node linked to nothing (every copy to it has no route). The
/// group is sent with `send_all` when `multicast`, else with one `send` per
/// member in the same order.
fn build_multicast(
    seed: u64,
    topo: &Topo,
    multicast: bool,
) -> (Simulation<u64>, Vec<NodeId>, Vec<NodeId>) {
    let (mut sim, gateways, mut all) = build(seed, topo);
    let hub = gateways[0];
    let island = sim.add_node("island", Chatter::new(hub, SimDuration::from_millis(3)));
    let mut group = vec![gateways[1]];
    group.extend_from_slice(&all[1..topo.campuses[0] as usize]);
    group.push(island);
    if gateways.len() > 2 {
        group.push(gateways[gateways.len() - 1]);
    }
    let chatter = sim.node_as_mut::<Chatter>(hub).unwrap();
    chatter.group = group;
    chatter.multicast = multicast;
    all.push(island);
    (sim, gateways, all)
}

fn multicast_fault_plan(
    f: &MulticastFaults,
    gateways: &[NodeId],
    all: &[NodeId],
) -> Vec<FaultWindow> {
    let ms = SimTime::from_millis;
    let down = |node: NodeId, at: u64| FaultWindow::CrashRestart {
        node,
        from: ms(at),
        until: ms(at + f.down_ms),
    };
    let mut plan = vec![down(all[1], f.member_at), down(gateways[1], f.gateway_at)];
    if f.crash_hub {
        plan.push(down(gateways[0], (f.member_at + f.gateway_at) / 2));
    }
    plan
}

/// Everything a multicast run must reproduce: trace fingerprint, metrics
/// outside `engine.`, event count, final clock and each node's received sum.
type MulticastOutcome = (u64, MetricsSnapshot, u64, SimTime, Vec<u64>);

/// Runs one multicast case to `until` (`None`: to idle); returns its
/// outcome and the raw metrics snapshot, `engine.` counters included.
fn run_multicast(
    seed: u64,
    topo: &Topo,
    faults: &MulticastFaults,
    multicast: bool,
    engine: EngineConfig,
    until: Option<SimTime>,
) -> (MulticastOutcome, MetricsSnapshot) {
    let (mut sim, gateways, all) = build_multicast(seed, topo, multicast);
    sim.set_engine_config(engine);
    sim.enable_fingerprint();
    sim.apply_fault_plan(&multicast_fault_plan(faults, &gateways, &all));
    match until {
        Some(t) => sim.run_until(t),
        None => sim.run_until_idle(),
    }
    let received = all.iter().map(|&id| sim.node_as::<Chatter>(id).unwrap().received).collect();
    let outcome = (
        sim.fingerprint().unwrap(),
        sim.metrics().snapshot().without_prefix("engine."),
        sim.events_processed(),
        sim.time(),
        received,
    );
    (outcome, sim.metrics().snapshot())
}

/// Runs the loop-of-sends twin serially as the reference, then the
/// multicast on every engine and the twin sharded, and requires all of them
/// to agree exactly and the sharded runs to be genuinely sharded. Returns
/// the serial snapshots of the multicast and the twin.
fn assert_multicast_matches_send_loop(
    seed: u64,
    topo: &Topo,
    faults: &MulticastFaults,
    until: Option<SimTime>,
) -> (MetricsSnapshot, MetricsSnapshot) {
    let engines = [EngineConfig::serial(), EngineConfig::sharded(2), EngineConfig::sharded(4)];
    let (reference, twin_metrics) =
        run_multicast(seed, topo, faults, false, EngineConfig::serial(), until);
    let mut multicast_metrics = None;
    for engine in engines {
        for multicast in [true, false] {
            let (got, metrics) = run_multicast(seed, topo, faults, multicast, engine, until);
            let label = format!("multicast={multicast}, {engine:?}");
            assert_eq!(reference.0, got.0, "trace fingerprint ({})", &label);
            assert_eq!(&reference.1, &got.1, "metrics ({})", &label);
            assert_eq!(reference.2, got.2, "event count ({})", &label);
            assert_eq!(reference.3, got.3, "final clock ({})", &label);
            assert_eq!(&reference.4, &got.4, "received sums ({})", &label);
            let fallbacks = metrics.counters.get("engine.fallback_serial").copied().unwrap_or(0);
            assert_eq!(fallbacks, 0, "unexpected serial fallback ({})", &label);
            if multicast && engine == EngineConfig::serial() {
                multicast_metrics = Some(metrics);
            }
        }
    }
    (multicast_metrics.expect("serial multicast ran"), twin_metrics)
}

fn multicast_topo_strategy() -> impl Strategy<Value = Topo> {
    (topo_strategy(), 400u64..3_000, 0.01f64..0.08).prop_map(|(topo, queue, loss)| Topo {
        lan_queue_bytes: Some(queue),
        loss,
        ..topo
    })
}

fn multicast_faults_strategy() -> impl Strategy<Value = MulticastFaults> {
    (20u64..150, 20u64..150, 10u64..80, any::<bool>()).prop_map(
        |(member_at, gateway_at, down_ms, crash_hub)| MulticastFaults {
            member_at,
            gateway_at,
            down_ms,
            crash_hub,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn send_all_equals_a_send_loop_on_every_engine(
        seed in 0u64..1_000_000,
        topo in multicast_topo_strategy(),
        faults in multicast_faults_strategy(),
    ) {
        assert_multicast_matches_send_loop(seed, &topo, &faults, Some(SimTime::from_millis(260)));
    }
}

/// One multicast case run to idle on every engine: the engine's debug
/// assertion that an idle queue leaves no envelope in the slab would fire
/// on a leaked reference. The case reaches every way a shared envelope can
/// be dropped, and sharing keeps the serial slab's high water below the
/// twin's.
#[test]
fn multicast_runs_to_idle_without_leaking_an_envelope() {
    let topo = Topo {
        campuses: vec![4, 3, 3],
        lan_us: 400,
        wan_ms: 15,
        loss: 0.05,
        jitter_us: 1_500,
        lan_queue_bytes: Some(500),
    };
    let faults = MulticastFaults { member_at: 30, gateway_at: 45, down_ms: 40, crash_hub: true };
    let (multicast, twin) = assert_multicast_matches_send_loop(11, &topo, &faults, None);
    for drop in ["loss", "queue", "no_route", "node_down"] {
        let n = multicast.counters.get(&format!("net.dropped.{drop}")).copied().unwrap_or(0);
        assert!(n > 0, "the case never exercised net.dropped.{drop}");
    }
    let high_water = |m: &MetricsSnapshot| m.counters["engine.env_slab.high_water"];
    assert!(
        high_water(&multicast) < high_water(&twin),
        "send_all stored {} envelopes at once, the send loop {}",
        high_water(&multicast),
        high_water(&twin)
    );
}
