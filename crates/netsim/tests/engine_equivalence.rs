//! Property test: the serial and sharded executors are byte-identical on
//! random topologies, fault plans, and seeds.
//!
//! Each case builds a random multi-campus topology (stars of varying size
//! joined by a ring of slow WAN links — the shape the partitioner is meant
//! to cut), loads it with chatty timer-driven nodes, overlays a random fault
//! plan (link flaps, latency spikes, partitions, crash/restart), and runs it
//! to a deadline under the serial engine and under sharded engines at 2 and
//! 4 shards. Trace fingerprints, the full metrics snapshot (minus the
//! `engine.` namespace, which describes the executor itself), the event
//! count, and the final clock must all agree exactly.
//!
//! The trace is a digest of the observer's event stream, so the sharded runs
//! also install an observer: its own digest of every event must agree across
//! engines, and installing it must not move the trace fingerprint.

use std::sync::{Arc, Mutex};

use metaclass_netsim::{
    Context, EngineConfig, FaultWindow, Fnv1a, LinkConfig, LossModel, MetricsSnapshot, Node,
    NodeId, SimDuration, SimEvent, SimTime, SimView, Simulation, Timer,
};
use proptest::prelude::*;

/// A timer-driven node: every period it sends a burst toward its peer, and
/// echoes shrinking replies to whatever it hears. Exercises sends, timers,
/// RNG draws, and crash resets.
struct Chatter {
    peer: NodeId,
    period: SimDuration,
    rounds: u32,
    fired: u32,
    received: u64,
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
}

#[derive(Debug, Clone)]
struct Faults {
    flap_wan: bool,
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
            let id = sim.add_node(
                format!("c{c}n{i}"),
                Chatter {
                    peer: NodeId::from_index(peer),
                    period: SimDuration::from_millis(2 + (i as u64 % 5)),
                    rounds: 10,
                    fired: 0,
                    received: 0,
                },
            );
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
    let lan = LinkConfig::new(SimDuration::from_micros(topo.lan_us))
        .with_jitter(SimDuration::from_micros(topo.lan_us / 4))
        .with_loss(LossModel::Iid { p: topo.loss });
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
    sim.enable_trace(1 << 20);
    let digest = observed.then(|| observe(&mut sim));
    sim.apply_fault_plan(&fault_plan(faults, &gateways, &all, &topo.campuses));
    sim.run_until(SimTime::from_millis(260));
    (
        sim.trace().unwrap().fingerprint(),
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
        })
}

fn faults_strategy() -> impl Strategy<Value = Faults> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(flap_wan, spike_wan, partition, crash_node)| Faults {
            flap_wan,
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

/// A topology the partitioner cannot cut (one campus, zero-lookahead
/// links): the sharded engine must fall back to serial — *visibly* — and
/// still agree with the serial engine on everything except the fallback
/// record itself.
#[test]
fn fallback_is_announced_and_otherwise_byte_identical() {
    let topo = Topo { campuses: vec![4], lan_us: 0, wan_ms: 0, loss: 0.0, jitter_us: 0 };

    let build_one = |engine: EngineConfig| {
        let (mut sim, _gw, _all) = build(7, &topo);
        sim.set_engine_config(engine);
        sim.enable_trace(1 << 16);
        sim.run_until(SimTime::from_millis(260));
        sim
    };
    let serial = build_one(EngineConfig::serial());
    let sharded = build_one(EngineConfig::sharded(2));

    // The fallback is signalled in both the metric and the trace.
    assert_eq!(serial.metrics().counter_value("engine.fallback_serial"), 0);
    assert!(sharded.metrics().counter_value("engine.fallback_serial") > 0);
    let fallback_records = |sim: &Simulation<u64>| {
        sim.trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.kind == metaclass_netsim::TraceKind::EngineFallback)
            .count()
    };
    assert_eq!(fallback_records(&serial), 0);
    assert_eq!(
        fallback_records(&sharded) as u64,
        sharded.metrics().counter_value("engine.fallback_serial"),
        "every counted fallback leaves a trace record"
    );

    // Everything but the executor's own namespace and trace records agrees.
    assert_eq!(
        serial.metrics().snapshot().without_prefix("engine."),
        sharded.metrics().snapshot().without_prefix("engine."),
    );
    assert_eq!(serial.events_processed(), sharded.events_processed());
    assert_eq!(serial.time(), sharded.time());
    let world_events = |sim: &Simulation<u64>| {
        sim.trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.kind != metaclass_netsim::TraceKind::EngineFallback)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(world_events(&serial), world_events(&sharded));
}
