//! The traced run: per-layer host time from outside the program.
//!
//! Nothing here reaches into the simulator. The stepped pass rebuilds the
//! session, installs a `SimObserver` that notes which node each step
//! delivered to (the observer fires before the handler, inside the same
//! `step()`), and replays exactly as many events as the untraced pass
//! processed — `step()` has no "until" form, so the event count, not a time
//! bound, is what makes the end state identical. Each step's wall time is
//! charged to the kind of node it ran. In-program spans are a later change.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use metaclass_core::ClassroomSession;
use metaclass_netsim::{EngineConfig, MetricsSnapshot, NodeId, SimEvent, SimView};

use crate::kernels;
use crate::report::failed_share;
use crate::run::{
    docs_fingerprint, load_scenarios, model_fingerprint, pass, peak_rss_mb, session_pass,
    sharded_checks, sweep_jobs, sweep_sample, Check, Outcome, Pass, SweepShape,
};
use crate::workloads::{SessionWorkload, Size, Workload};

/// The layer a simulation step is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The cloud VR classroom server.
    Cloud,
    /// A campus edge server.
    EdgeServer,
    /// Room sensor arrays and MR headsets.
    Devices,
    /// An individually simulated remote client.
    Client,
    /// A flyweight client pool.
    Pool,
    /// A step that reached no handler: multi-hop forwarding, swallowed
    /// timers.
    Forward,
}

impl NodeKind {
    /// Every kind, in reporting order.
    pub const ALL: [NodeKind; 6] = [
        NodeKind::Cloud,
        NodeKind::EdgeServer,
        NodeKind::Devices,
        NodeKind::Client,
        NodeKind::Pool,
        NodeKind::Forward,
    ];

    /// The `crate.module` prefix of this kind's metrics.
    pub fn layer(self) -> &'static str {
        match self {
            NodeKind::Cloud => "edge.cloud",
            NodeKind::EdgeServer => "edge.edge_server",
            NodeKind::Devices => "edge.devices",
            NodeKind::Client => "edge.client",
            NodeKind::Pool => "edge.pool",
            NodeKind::Forward => "netsim.forward",
        }
    }

    /// Classifies a node by the name `SessionBuilder::build` gave it.
    ///
    /// # Panics
    ///
    /// Panics on a name the builder does not emit: a new node type must be
    /// given a layer here before its time can be attributed.
    pub fn of_node(name: &str) -> NodeKind {
        let prefix = name.split('-').next().unwrap_or(name);
        match prefix {
            "cloud" => NodeKind::Cloud,
            "edge" => NodeKind::EdgeServer,
            "array" | "headset" => NodeKind::Devices,
            "client" => NodeKind::Client,
            "pool" => NodeKind::Pool,
            _ => panic!("node {name:?} has no layer in the benchmark's classifier"),
        }
    }
}

/// Steps and busy time of one [`NodeKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotal {
    /// Steps charged to the kind.
    pub steps: u64,
    /// Host nanoseconds those steps took.
    pub busy_ns: u64,
}

/// The result of a stepped replay.
#[derive(Debug, Clone)]
pub struct Stepped {
    /// Totals in [`NodeKind::ALL`] order.
    pub kinds: [KindTotal; 6],
    /// Wall nanoseconds of the whole replay loop.
    pub wall_ns: u64,
    /// Steps actually taken (fewer than asked if the queue ran dry).
    pub steps: u64,
}

const NO_NODE: u32 = u32::MAX;

/// Replays `events` single steps on a freshly built `session`, charging
/// each step's wall time to the kind of node it dispatched to.
pub fn stepped_replay(session: &mut ClassroomSession, events: u64) -> Stepped {
    let sim = session.sim_mut();
    // Discriminants follow `NodeKind::ALL`, so a kind indexes the totals.
    let kind_of: Vec<usize> = (0..sim.node_count())
        .map(|i| NodeKind::of_node(sim.node_name(NodeId::from_index(i))) as usize)
        .collect();

    // The observer and the loop share one word: the node of the step in
    // flight. Both run on this thread; the atomic only satisfies `Send`.
    let hit = Arc::new(AtomicU32::new(NO_NODE));
    let seen = Arc::clone(&hit);
    sim.set_observer(move |_: &SimView<'_>, event: &SimEvent<'_>| match *event {
        SimEvent::Delivered { dst: node, .. } | SimEvent::TimerFired { node, .. } => {
            seen.store(node.index() as u32, Ordering::Relaxed)
        }
        _ => {}
    });

    let mut kinds = [KindTotal::default(); 6];
    let mut steps = 0;
    let start = Instant::now();
    // One clock read per step: each reading ends one step and starts the
    // next, which halves the probe cost on sub-microsecond steps.
    let mut last = start;
    while steps < events && sim.step().is_some() {
        let now = Instant::now();
        let node = hit.swap(NO_NODE, Ordering::Relaxed);
        let k = if node == NO_NODE { NodeKind::Forward as usize } else { kind_of[node as usize] };
        kinds[k].steps += 1;
        kinds[k].busy_ns += (now - last).as_nanos() as u64;
        last = now;
        steps += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    sim.take_observer();
    Stepped { kinds, wall_ns, steps }
}

/// One coarse span: who caused it and when it ran, in microseconds since
/// the run started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Start, µs since the run began.
    pub start_us: u64,
    /// End, µs since the run began.
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span log, written out once when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let at = self.now_us();
        self.spans.push(Span { name: name.into(), start_us: at, end_us: at, parent });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an aggregate as a child of `parent`, starting where the
    /// parent starts and lasting `busy_us`.
    pub fn aggregate(&mut self, name: impl Into<String>, parent: usize, busy_us: u64) {
        let start_us = self.spans[parent].start_us;
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us: start_us + busy_us,
            parent: Some(parent),
        });
    }

    /// Records the set-up and the samples of pass `p`, which ran inside
    /// span `parent`, from the durations the pass measured itself.
    pub fn pass(&mut self, parent: usize, p: &Pass) {
        let per_sample_s = p.sim_seconds / p.samples.len().max(1) as f64;
        let durations_us = std::iter::once(("setup".to_string(), p.setup_s * 1e6)).chain(
            p.samples.iter().enumerate().map(|(i, ms_per_sim_s)| {
                (format!("sample[{i}]"), ms_per_sim_s * per_sample_s * 1e3)
            }),
        );
        let mut at = self.spans[parent].start_us;
        for (name, us) in durations_us {
            let end = at + us as u64;
            self.spans.push(Span { name, start_us: at, end_us: end, parent: Some(parent) });
            at = end;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Engine counts and gauges of one untraced pass.
fn engine_metrics(out: &mut Outcome, p: &Pass) {
    let snap = p.snapshot.as_ref().expect("session passes carry their registry");
    out.set("netsim.sim.events", p.events as f64);
    out.set("netsim.sim.ns_per_event", ratio(p.run_s() * 1e9, p.events as f64));
    out.set("netsim.sim.sent", counter(snap, "net.sent"));
    out.set("netsim.sim.delivered", counter(snap, "net.delivered"));
    let (hit, miss) = (counter(snap, "engine.ops_pool.hit"), counter(snap, "engine.ops_pool.miss"));
    out.set("netsim.sim.ops_pool_hit_ratio", ratio(hit, hit + miss));
    out.set("netsim.sim.env_slab_high_water", counter(snap, "engine.env_slab.high_water"));
    out.set("netsim.sim.arena_bytes", counter(snap, "engine.ops_pool.arena_bytes"));
    out.set("netsim.link.dropped", p.sim.dropped as f64);
    out.set("netsim.link.drop_ratio", 1.0 - p.sim.delivery_ratio());
    for name in ["pool_joins_admitted", "pool_joins_deferred", "fanout_ticks_shed"] {
        out.set(format!("edge.overload.{name}"), counter(snap, &format!("overload.{name}")));
    }
    let admitted = counter(snap, "overload.pool_joins_admitted");
    out.set(
        "edge.overload.admit_ratio",
        ratio(admitted, admitted + counter(snap, "overload.pool_joins_deferred")),
    );
    out.set("netsim.shard.windows", counter(snap, "engine.shard.windows"));
    out.set(
        "netsim.shard.events_per_window",
        snap.histograms.get("engine.shard.events_per_window").map_or(0.0, |s| s.mean),
    );
    out.set("netsim.shard.barriers_elided", counter(snap, "engine.barriers_elided"));
    out.set("netsim.shard.fallback_serial", counter(snap, "engine.fallback_serial"));
}

/// The stepped pass of a serial session workload.
fn stepped_metrics(
    out: &mut Outcome,
    spans: &mut Spans,
    root: usize,
    w: &SessionWorkload,
    reference: &Pass,
    seed: u64,
    size: Size,
) {
    let stepped = spans.open("stepped", Some(root));
    // The warm-up is replayed step by step too, so set-up is the build alone.
    let mut session = spans.within("setup", Some(stepped), || (w.build)(seed, size).build());
    let replay = spans.open("replay", Some(stepped));
    let trace = stepped_replay(&mut session, reference.events);
    spans.close(replay);
    spans.close(stepped);

    out.checks.push(Check::equal(
        "stepped replay takes every event",
        trace.steps,
        reference.events,
    ));
    out.checks.push(Check::equal(
        "stepped replay reproduces the untraced fingerprint",
        model_fingerprint(&session),
        reference.fingerprint,
    ));

    let mut busy_ns = 0;
    for (kind, total) in NodeKind::ALL.iter().zip(trace.kinds) {
        busy_ns += total.busy_ns;
        spans.aggregate(kind.layer(), replay, total.busy_ns / 1000);
        let layer = kind.layer();
        out.set(format!("{layer}.steps"), total.steps as f64);
        out.set(format!("{layer}.busy_ms"), total.busy_ns as f64 / 1e6);
        out.set(format!("{layer}.ns_per_step"), ratio(total.busy_ns as f64, total.steps as f64));
    }
    // The untraced pass ran the same events in warm-up plus windows.
    let untraced_ns = reference.run_s() * 1e9;
    out.set("trace.overhead_ratio", ratio(trace.wall_ns as f64 - untraced_ns, untraced_ns));
    out.set("trace.coverage", ratio(busy_ns as f64, trace.wall_ns as f64));
}

/// The traced run: every per-layer metric of `workload`. Metrics that do
/// not apply to a workload (shard counters on a serial one, stepped layers
/// on the sweep) read 0.
pub fn run_traced(workload: Workload, seed: u64, size: Size) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let root = spans.open(workload.name(), None);

    // Untraced, counted pass: the event count and fingerprint the stepped
    // replay must reproduce, and the engine's own counters.
    let untraced = spans.open("untraced", Some(root));
    let reference = pass(workload, seed, size, true);
    spans.close(untraced);
    spans.pass(untraced, &reference);
    out.passes += 1;
    out.checks.extend(reference.checks.iter().cloned());
    out.fingerprint = reference.fingerprint;
    out.events = reference.events;
    out.set("sim_display_p99_ms", reference.sim.display_p99_ms);
    out.set(
        "netsim.sim.allocs_per_kevent",
        ratio(reference.allocs as f64 * 1e3, reference.sample_events as f64),
    );

    match workload.session(size) {
        Some(w) => {
            engine_metrics(&mut out, &reference);
            if workload == Workload::BlendedCampusSharded2 {
                // step() is serial by definition, so the sharded workload
                // gets the engine comparison in place of a stepped pass.
                let serial = spans.within("serial", Some(root), || {
                    session_pass(&w, EngineConfig::serial(), seed, size, false)
                });
                // The reference pass was counted and ran on cold threads;
                // the speed-up compares two uncounted, warmed passes.
                let sharded = spans.within("sharded", Some(root), || {
                    session_pass(&w, w.engine, seed, size, false)
                });
                out.passes += 2;
                out.checks.extend(sharded_checks(&sharded, &serial));
                out.set(
                    "netsim.shard.speedup",
                    serial.median_ms_per_sim_s() / sharded.median_ms_per_sim_s(),
                );
                out.set("netsim.shard.peak_rss_mb", peak_rss_mb());
            } else {
                stepped_metrics(&mut out, &mut spans, root, &w, &reference, seed, size);
                out.passes += 1;
            }
        }
        None => {
            // One sample at jobs=1 and one at the workload's own job count:
            // the bytes must not depend on --jobs, and the ratio of the two
            // times is what the parallelism buys.
            let shape = SweepShape::at(size);
            let (exps, seeds, jobs) = (load_scenarios(), shape.seeds_for(seed), sweep_jobs());
            let mut timed = |jobs: usize| {
                spans.within(format!("sweep jobs={jobs}"), Some(root), || {
                    let t = Instant::now();
                    let docs = sweep_sample(&exps, &seeds, jobs, shape.scale);
                    (t.elapsed().as_secs_f64() * 1e3, docs)
                })
            };
            let (jobs1_ms, docs1) = timed(1);
            let (jobsn_ms, docsn) = timed(jobs);
            out.passes += 2;
            out.checks.push(Check {
                name: format!("jobs=1 documents equal jobs={jobs} documents byte for byte"),
                ok: docs1 == docsn,
                detail: format!("{} documents", docs1.len()),
            });
            out.checks.push(Check::equal(
                "jobs=1 documents reproduce the reference fingerprint",
                docs_fingerprint(&docs1),
                reference.fingerprint,
            ));
            out.set("bench.sweep.jobs1_wall_ms", jobs1_ms);
            out.set("bench.sweep.parallel_efficiency", jobs1_ms / (jobs as f64 * jobsn_ms));
        }
    }

    let kernel_span = spans.open("kernels", Some(root));
    for (name, value) in kernels::run_all(size, &mut out.checks) {
        out.set(name, value);
    }
    spans.close(kernel_span);
    spans.close(root);
    out.set("failed_share", failed_share(&out));
    (out, spans)
}
