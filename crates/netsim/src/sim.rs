//! The discrete-event simulation engine.
//!
//! Two executors share one event-processing core: the serial reference
//! engine and the conservative shard-parallel engine in [`crate::shard`].
//! Event order is total — `(SimTime, causal stamp)` — and the stamp of every
//! event is computable from the state of the node that scheduled it, so both
//! executors produce byte-identical fingerprints, metrics, and node states.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::envelope::{EnvSlab, Envelope, Outbox, Remap};
use crate::fault::FaultAction;
use crate::link::{DropReason, Link, LinkConfig, LinkId, Transmit};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::node::{Context, Node, NodeId, Op, Timer};
use crate::observe::{SimEvent, SimObserver, SimView};
use crate::rng::DetRng;
use crate::sched::{EventQueue, TimerWheel};
use crate::time::SimTime;
use crate::trace::Trace;

/// Default shard count when the caller asks for `sharded` without a number.
pub const DEFAULT_SHARDS: usize = 4;

/// Most shard lanes an [`EngineConfig`] may ask for: each populated lane is
/// a worker thread, and no caller uses more than [`DEFAULT_SHARDS`].
pub const MAX_SHARDS: usize = 64;

/// Which executor a [`Simulation`] uses to process events.
///
/// Both executors are byte-identical: same [`Simulation::fingerprint`], same
/// metrics, same node states. The sharded one partitions the node graph and
/// runs lookahead-bounded event windows on worker threads (see the `shard`
/// module docs); when the topology cannot be partitioned with a positive
/// lookahead the run falls back to serial execution *loudly* — each fallback
/// bumps the `engine.fallback_serial` counter, and the fingerprint is the
/// serial one.
///
/// Every [`Simulation`] carries its own `EngineConfig` (see
/// [`Simulation::with_config`] and [`Simulation::set_engine_config`]); there
/// is no process-global engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker lanes of the sharded executor; `None` is the serial executor.
    pub(crate) shards: Option<usize>,
}

impl EngineConfig {
    /// The single-threaded reference executor: one global event loop.
    pub fn serial() -> Self {
        EngineConfig::default()
    }

    /// The conservative shard-parallel executor with `shards` worker lanes.
    ///
    /// # Panics
    ///
    /// Panics if `shards < 2` (one lane is the serial executor, so ask for
    /// [`EngineConfig::serial`]) or `shards > MAX_SHARDS`.
    pub fn sharded(shards: usize) -> Self {
        assert!(
            (2..=MAX_SHARDS).contains(&shards),
            "a sharded engine takes 2 to {MAX_SHARDS} shards, got {shards}"
        );
        EngineConfig { shards: Some(shards) }
    }
}

/// Parses an engine name: `serial`, `sharded`, or `sharded:<n>` with
/// `2 <= n <= MAX_SHARDS`.
pub fn parse_engine(s: &str) -> Option<EngineConfig> {
    match s {
        "serial" => Some(EngineConfig::serial()),
        "sharded" => Some(EngineConfig::sharded(DEFAULT_SHARDS)),
        _ => {
            let n: usize = s.strip_prefix("sharded:")?.parse().ok()?;
            (2..=MAX_SHARDS).contains(&n).then(|| EngineConfig::sharded(n))
        }
    }
}

// ---------------------------------------------------------------------------
// Causal event stamps.
//
// Events are keyed by `(SimTime, stamp)` where the 128-bit stamp packs
// `(depth: u16, origin: u32, counter: u64)`:
//
//   * `depth`   — same-instant causal depth: an event scheduled at the very
//     instant that is currently executing gets `current depth + 1`, an event
//     scheduled for a later instant gets 0. Within one instant, everything
//     already popped has a strictly smaller depth than anything a handler can
//     still push, so pop order equals stamp order — the property that lets
//     shard-local streams be merged back into the serial total order.
//   * `origin`  — the node whose handler scheduled the event; two reserved
//     origins order engine-scheduled events after all node-scheduled ones at
//     the same depth.
//   * `counter` — per-origin push counter.
//
// All three components are derivable from the scheduling node's own state,
// so a shard computes exactly the stamps the serial engine would.
// ---------------------------------------------------------------------------

pub(crate) const INJECT_ORIGIN: u32 = u32::MAX;
pub(crate) const FAULT_ORIGIN: u32 = u32::MAX - 1;

pub(crate) fn pack_stamp(depth: u16, origin: u32, counter: u64) -> u128 {
    ((depth as u128) << 96) | ((origin as u128) << 64) | counter as u128
}

pub(crate) fn stamp_depth(stamp: u128) -> u16 {
    (stamp >> 96) as u16
}

pub(crate) enum EventKind {
    /// Arrival of a message at its destination `dst`.
    Deliver {
        /// The receiving node.
        dst: NodeId,
        /// Slab index of the message in flight (see [`EnvSlab`]).
        env: u32,
    },
    /// A timer firing at `node`. Timers armed before a crash carry a stale
    /// `epoch` and are swallowed after restart.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Caller-chosen tag.
        tag: u64,
        /// Node incarnation the timer was armed in.
        epoch: u64,
    },
    /// Execution of a scripted fault action (index into `fault_actions`).
    Fault {
        /// Index into the simulation's fault-action table.
        index: usize,
    },
}

/// Outcome of [`Core::step_inner`]: fault events bubble up to the
/// [`Simulation`], which owns the fault-action table.
pub(crate) enum Stepped {
    Idle,
    Event,
    Fault { index: usize },
}

/// The event-processing core shared by the serial engine and every shard
/// lane. Holds exactly the state one event needs to execute; all vectors are
/// indexed by global node/link id in both modes (a lane simply leaves the
/// slots it does not own empty), so the processing code is the same bytes
/// for both executors.
pub(crate) struct Core<M> {
    pub(crate) time: SimTime,
    /// Depth component of the stamp of the event currently executing.
    pub(crate) cur_depth: u16,
    /// Full stamp of the event currently executing (buffer sort key).
    pub(crate) cur_stamp: u128,
    pub(crate) nodes: Vec<Option<Box<dyn Node<M> + Send>>>,
    pub(crate) rngs: Vec<DetRng>,
    /// Per-node event push counters (stamp `counter` component).
    pub(crate) push_counters: Vec<u64>,
    /// Whether each node is currently crashed (blackholed, timers voided).
    pub(crate) crashed: Vec<bool>,
    /// Incarnation counter per node; bumped at crash to void stale timers.
    pub(crate) epochs: Vec<u64>,
    pub(crate) links: Vec<Link>,
    /// Per-link RNG streams (loss draws, jitter), derived from the master
    /// seed by link id — independent of which executor runs the transmit.
    pub(crate) link_rngs: Vec<DetRng>,
    pub(crate) link_ends: Arc<Vec<(NodeId, NodeId)>>,
    /// adjacency[src] -> (dst -> link): a send takes the direct link to its
    /// destination or has no route.
    pub(crate) adjacency: Arc<Vec<BTreeMap<u32, LinkId>>>,
    /// Static propagation delay per link in ns, the source of the sharded
    /// engine's lookahead.
    pub(crate) static_delays: Arc<Vec<u64>>,
    pub(crate) queue: TimerWheel<EventKind, u128>,
    /// In-flight envelopes referenced by ops and queue entries (see
    /// [`EnvSlab`]).
    pub(crate) env_slab: EnvSlab<M>,
    /// The global world's recycled slab-index table for shard deal-out and
    /// reassembly (see [`Remap`]); inert in a lane.
    pub(crate) env_remap: Remap,
    /// The recycled op arena handed to [`Context`] during dispatch. Dispatch
    /// is never re-entrant, so one buffer serves every handler; it grows to
    /// the widest op burst and is then reused allocation-free.
    pub(crate) ops_arena: Vec<Op>,
    /// Widest op burst a single dispatch ever produced.
    pub(crate) ops_high_water: u64,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) events_processed: u64,
    /// Op-arena reuse counters, flushed to `engine.ops_pool.*` at run end.
    /// A hit is a dispatch served entirely from committed capacity; a miss
    /// is one that had to grow the arena.
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
    /// Sharded-mode runs that found no feasible plan and ran serially,
    /// flushed to `engine.fallback_serial` at run end.
    pub(crate) fallback_serial: u64,
    pub(crate) trace: Option<Trace>,
    /// Passive engine-boundary observer (see [`crate::observe`]).
    pub(crate) observer: Option<Box<dyn SimObserver>>,
    // --- shard-lane state; inert under the serial executor ---
    /// Lane mode with a fingerprint or an observer to feed: events are
    /// buffered with their stamps instead of being emitted, for the barrier
    /// merge.
    pub(crate) buffered: bool,
    /// Buffered events, struct-of-arrays: the `(time, stamp)` merge keys
    /// live apart from the payloads so the k-way barrier merge scans a dense
    /// key lane per shard.
    pub(crate) event_keys: Vec<(SimTime, u128)>,
    /// Payloads parallel to `event_keys`.
    pub(crate) event_items: Vec<SimEvent<'static>>,
    /// Shard owning each node (lane mode only).
    pub(crate) shard_of: Option<Arc<Vec<u32>>>,
    pub(crate) my_shard: u32,
    /// Cross-shard deliveries produced this window, per destination shard.
    pub(crate) outboxes: Vec<Outbox<M>>,
    /// Cross-shard deliveries received at a barrier, awaiting drain into the
    /// local queue on the lane's next dispatch (one buffer per exchange).
    pub(crate) inboxes: Vec<Outbox<M>>,
    /// Earliest arrival across `inboxes` in ns (`u64::MAX` when empty).
    pub(crate) inbox_min_ns: u64,
    /// Earliest arrival queued per destination outbox this window
    /// (`u64::MAX` where that outbox is empty).
    pub(crate) outbox_mins: Vec<u64>,
    /// Recycled cross-shard exchange buffers.
    pub(crate) spare_boxes: Vec<Outbox<M>>,
    /// `net.sent` kept as a plain field on the hot path, flushed to the
    /// metrics registry at run end.
    pub(crate) sent_count: u64,
    /// `net.delivered` kept as a plain field, flushed at run end.
    pub(crate) delivered_count: u64,
    /// `net.delivery_latency_ns` samples kept as a plain histogram, merged
    /// into the registry at run end.
    pub(crate) delivery_hist: Histogram,
}

impl<M> Core<M> {
    pub(crate) fn new_serial() -> Self {
        Core {
            time: SimTime::ZERO,
            cur_depth: 0,
            cur_stamp: 0,
            nodes: Vec::new(),
            rngs: Vec::new(),
            push_counters: Vec::new(),
            crashed: Vec::new(),
            epochs: Vec::new(),
            links: Vec::new(),
            link_rngs: Vec::new(),
            link_ends: Arc::new(Vec::new()),
            adjacency: Arc::new(Vec::new()),
            static_delays: Arc::new(Vec::new()),
            queue: TimerWheel::new(),
            env_slab: EnvSlab::new(),
            env_remap: Remap::default(),
            ops_arena: Vec::new(),
            ops_high_water: 0,
            metrics: MetricsRegistry::new(),
            events_processed: 0,
            pool_hits: 0,
            pool_misses: 0,
            fallback_serial: 0,
            trace: None,
            observer: None,
            buffered: false,
            event_keys: Vec::new(),
            event_items: Vec::new(),
            shard_of: None,
            my_shard: 0,
            outboxes: Vec::new(),
            inboxes: Vec::new(),
            inbox_min_ns: u64::MAX,
            outbox_mins: Vec::new(),
            spare_boxes: Vec::new(),
            sent_count: 0,
            delivered_count: 0,
            delivery_hist: Histogram::new(),
        }
    }

    /// Stamp for a child event scheduled at `at` by `origin`'s handler.
    fn child_stamp(&mut self, at: SimTime, origin: NodeId) -> u128 {
        let depth = if at == self.time { self.cur_depth.saturating_add(1) } else { 0 };
        let counter = &mut self.push_counters[origin.index()];
        *counter += 1;
        pack_stamp(depth, origin.0, *counter)
    }

    /// Earliest pending instant in this lane — local queue or an undrained
    /// inbox — in ns (`u64::MAX` when idle).
    pub(crate) fn earliest_pending_ns(&mut self) -> u64 {
        let q = self.queue.peek_key().map_or(u64::MAX, |(at, _)| at.as_nanos());
        q.min(self.inbox_min_ns)
    }

    /// Drains barrier-received cross-shard buffers into the local queue,
    /// recycling the buffers. Runs before any event of a lane window.
    pub(crate) fn drain_inboxes(&mut self) {
        if self.inboxes.is_empty() {
            return;
        }
        let mut bufs = std::mem::take(&mut self.inboxes);
        for buf in &mut bufs {
            for (at, stamp, dst, env) in buf.drain(..) {
                debug_assert!(at >= self.time, "cross-shard delivery in a lane's past");
                let env = self.env_slab.insert(env);
                self.queue.push(at, stamp, EventKind::Deliver { dst, env });
            }
        }
        self.spare_boxes.append(&mut bufs);
        self.inboxes = bufs;
        self.inbox_min_ns = u64::MAX;
    }

    /// The one emit call of the event loop: emits `event`, or in a buffering
    /// lane stores it with its `(time, stamp)` key for the barrier merge.
    fn notify(&mut self, event: SimEvent<'static>) {
        if self.buffered {
            self.event_keys.push((self.time, self.cur_stamp));
            self.event_items.push(event);
        } else {
            self.emit(&event);
        }
    }

    /// Every stored envelope is named by a pending send op or a queue entry
    /// (an outbox holds its own copy), so a core with an empty queue between
    /// dispatches holds none; one that does has leaked a reference.
    pub(crate) fn debug_assert_no_leaked_envelope(&self) {
        debug_assert!(
            !self.queue.is_empty() || self.env_slab.live() == 0,
            "{} envelopes left in the slab with no queue entry naming them",
            self.env_slab.live()
        );
    }

    /// Emits `event` with a post-event view of this core.
    pub(crate) fn emit(&mut self, event: &SimEvent<'_>) {
        let view = SimView { time: self.time, crashed: &self.crashed };
        emit_to(&mut self.trace, &mut self.observer, &view, event);
    }
}

/// Where every emitted event ends up: folded into the fingerprint (if
/// enabled) at the view's time, then handed to the observer (if any) with
/// `view`.
pub(crate) fn emit_to(
    trace: &mut Option<Trace>,
    observer: &mut Option<Box<dyn SimObserver>>,
    view: &SimView<'_>,
    event: &SimEvent<'_>,
) {
    if let Some(trace) = trace {
        trace.record(view.time, event);
    }
    if let Some(observer) = observer {
        observer.on_event(view, event);
    }
}

impl<M: Clone + 'static> Core<M> {
    /// Enqueues a delivery of slab envelope `env`, diverting it to the
    /// destination shard's outbox when it crosses a shard boundary (lane
    /// mode only): the outbox takes its own copy and the slab reference is
    /// released.
    fn push_deliver(&mut self, at: SimTime, stamp: u128, dst: NodeId, env: u32) {
        if let Some(map) = &self.shard_of {
            let dest = map[dst.index()];
            if dest != self.my_shard {
                let d = dest as usize;
                let ns = at.as_nanos();
                if ns < self.outbox_mins[d] {
                    self.outbox_mins[d] = ns;
                }
                let env = self.env_slab.take(env);
                self.outboxes[d].push((at, stamp, dst, env));
                return;
            }
        }
        self.queue.push(at, stamp, EventKind::Deliver { dst, env });
    }

    /// Processes the next event. Fault events advance the clock and bubble
    /// up for the owner of the fault table to execute.
    pub(crate) fn step_inner(&mut self) -> Stepped {
        let Some((at, stamp, kind)) = self.queue.pop() else {
            self.debug_assert_no_leaked_envelope();
            return Stepped::Idle;
        };
        debug_assert!(at >= self.time, "time went backwards");
        self.time = at;
        self.cur_depth = stamp_depth(stamp);
        self.cur_stamp = stamp;
        self.events_processed += 1;
        match kind {
            EventKind::Fault { index } => return Stepped::Fault { index },
            EventKind::Timer { node, tag, epoch } => {
                // Timers armed before a crash are voided: the stale epoch (or
                // the crashed flag, while down) swallows them.
                if !self.crashed[node.index()] && epoch == self.epochs[node.index()] {
                    self.notify(SimEvent::TimerFired { node, tag });
                    self.dispatch(node, Dispatch::Timer(Timer { tag }));
                }
            }
            EventKind::Deliver { dst, env } => {
                if self.crashed[dst.index()] {
                    // Crashed nodes blackhole traffic addressed to them.
                    let Envelope { src, size_bytes, .. } = *self.env_slab.get(env);
                    self.env_slab.release(env);
                    self.metrics.inc("net.dropped.node_down");
                    self.notify(SimEvent::Dropped {
                        src,
                        dst,
                        size_bytes,
                        reason: DropReason::NodeDown,
                    });
                } else {
                    let env = self.env_slab.take(env);
                    self.record_delivery(dst, &env);
                    self.dispatch(dst, Dispatch::Message(env.src, env.payload));
                }
            }
        }
        Stepped::Event
    }

    /// Counters, latency histogram, and emitted event for one delivery.
    fn record_delivery(&mut self, dst: NodeId, env: &Envelope<M>) {
        self.delivered_count += 1;
        self.delivery_hist.record(self.time.duration_since(env.sent_at).as_nanos());
        self.notify(SimEvent::Delivered {
            src: env.src,
            dst,
            size_bytes: env.size_bytes,
            sent_at: env.sent_at,
        });
    }

    /// Runs one handler of `node_id` and applies its ops.
    pub(crate) fn dispatch(&mut self, node_id: NodeId, what: Dispatch<M>) {
        let idx = node_id.index();
        let mut node = self.nodes[idx].take().expect("re-entrant dispatch");
        // Dispatch is never nested (handlers cannot dispatch), so the single
        // recycled arena buffer serves every call; a nested call would merely
        // see an empty buffer and count a miss.
        let mut ops: Vec<Op> = std::mem::take(&mut self.ops_arena);
        let cap_before = ops.capacity();
        {
            let mut ctx = Context {
                now: self.time,
                id: node_id,
                ops: &mut ops,
                slab: &mut self.env_slab,
                rng: &mut self.rngs[idx],
                metrics: &mut self.metrics,
            };
            match what {
                Dispatch::Start => node.on_start(&mut ctx),
                Dispatch::Message(from, msg) => node.on_message(&mut ctx, from, msg),
                Dispatch::Timer(t) => node.on_timer(&mut ctx, t),
            }
        }
        self.nodes[idx] = Some(node);
        if ops.capacity() > cap_before {
            self.pool_misses += 1;
        } else {
            self.pool_hits += 1;
        }
        if ops.len() as u64 > self.ops_high_water {
            self.ops_high_water = ops.len() as u64;
        }
        for op in ops.drain(..) {
            match op {
                Op::Send { dst, env } => {
                    self.sent_count += 1;
                    let size_bytes = self.env_slab.get(env).size_bytes;
                    self.notify(SimEvent::Sent { src: node_id, dst, size_bytes });
                    if dst == node_id {
                        // Loopback: deliver immediately (next event).
                        let stamp = self.child_stamp(self.time, node_id);
                        self.queue.push(self.time, stamp, EventKind::Deliver { dst, env });
                    } else {
                        self.transmit(node_id, dst, env, size_bytes);
                    }
                }
                Op::SetTimer { after, tag } => {
                    let at = self.time.saturating_add(after);
                    let epoch = self.epochs[node_id.index()];
                    let stamp = self.child_stamp(at, node_id);
                    self.queue.push(at, stamp, EventKind::Timer { node: node_id, tag, epoch });
                }
            }
        }
        self.ops_arena = ops;
    }

    /// Offers slab envelope `env` (`size_bytes` on the wire) to the direct
    /// link from `src` to `dst`; with no such link it is counted as
    /// `net.dropped.no_route`. A drop releases the envelope's reference.
    fn transmit(&mut self, src: NodeId, dst: NodeId, env: u32, size_bytes: u32) {
        let Some(&link_id) = self.adjacency[src.index()].get(&dst.0) else {
            self.env_slab.release(env);
            self.metrics.inc("net.dropped.no_route");
            self.notify(SimEvent::NoRoute { src, dst, size_bytes });
            return;
        };
        let li = link_id.index();
        match self.links[li].transmit(self.time, size_bytes, &mut self.link_rngs[li]) {
            Transmit::Deliver { at } => {
                let stamp = self.child_stamp(at, src);
                self.push_deliver(at, stamp, dst, env);
            }
            Transmit::Drop(reason) => {
                let metric = match reason {
                    DropReason::QueueFull => "net.dropped.queue",
                    DropReason::Loss => "net.dropped.loss",
                    DropReason::LinkDown => "net.dropped.down",
                    DropReason::NodeDown => "net.dropped.node_down",
                };
                self.env_slab.release(env);
                self.metrics.inc(metric);
                self.notify(SimEvent::Dropped { src, dst, size_bytes, reason });
            }
        }
    }
}

/// A deterministic discrete-event simulation of nodes connected by links.
///
/// The engine owns all nodes, links, the event queue, per-node RNG streams,
/// and a metrics registry. Event order is total — (time, causal stamp) —
/// so a run is a pure function of configuration and seed, regardless of the
/// selected [`EngineConfig`].
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{Context, LinkConfig, Node, NodeId, SimDuration, SimTime, Simulation};
///
/// struct Ping;
/// struct Pong(u32);
/// impl Node<u32> for Ping {
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.send(NodeId::from_index(1), 7, 64);
///     }
///     fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
/// }
/// impl Node<u32> for Pong {
///     fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, msg: u32) {
///         self.0 = msg;
///     }
/// }
///
/// let mut sim = Simulation::new(42);
/// let a = sim.add_node("ping", Ping);
/// let b = sim.add_node("pong", Pong(0));
/// sim.connect(a, b, LinkConfig::new(SimDuration::from_millis(1)));
/// sim.run_until_idle();
/// assert_eq!(sim.node_as::<Pong>(b).unwrap().0, 7);
/// assert_eq!(sim.time(), SimTime::from_millis(1));
/// ```
pub struct Simulation<M> {
    pub(crate) core: Core<M>,
    names: Vec<String>,
    /// Scripted fault actions, indexed by `EventKind::Fault` events.
    pub(crate) fault_actions: Vec<FaultAction>,
    master_rng: DetRng,
    pub(crate) started: bool,
    inject_counter: u64,
    pub(crate) engine: EngineConfig,
    /// Bumped on every topology change; invalidates the shard plan.
    pub(crate) topo_version: u64,
    pub(crate) shard_cache: Option<crate::shard::ShardCache>,
    /// Shard lanes parked between sharded runs, emptied but with their
    /// storage kept (see [`crate::shard`]).
    pub(crate) lanes: crate::shard::Lanes<M>,
}

impl<M: Clone + 'static> Simulation<M> {
    /// Creates an empty simulation with the given master seed and the
    /// default [`EngineConfig`] (serial). Use [`Simulation::with_config`]
    /// to pick the engine per run.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, EngineConfig::default())
    }

    /// Creates an empty simulation with an explicit engine configuration.
    pub fn with_config(seed: u64, config: EngineConfig) -> Self {
        Simulation {
            core: Core::new_serial(),
            names: Vec::new(),
            fault_actions: Vec::new(),
            master_rng: DetRng::new(seed),
            started: false,
            inject_counter: 0,
            engine: config,
            topo_version: 0,
            shard_cache: None,
            lanes: Vec::new(),
        }
    }

    /// Selects the executor for subsequent runs. Safe to change between
    /// runs; the produced fingerprints, metrics, and node states are identical
    /// either way.
    pub fn set_engine_config(&mut self, config: EngineConfig) {
        self.engine = config;
        self.shard_cache = None;
    }

    /// The engine configuration in effect.
    pub fn engine_config(&self) -> EngineConfig {
        self.engine
    }

    /// Registers a node and returns its id. Nodes receive `on_start` in id
    /// order when the simulation first runs.
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node<M> + Send) -> NodeId {
        let id = NodeId(self.core.nodes.len() as u32);
        self.core.nodes.push(Some(Box::new(node)));
        self.names.push(name.into());
        self.core.rngs.push(self.master_rng.derive(id.0 as u64));
        self.core.push_counters.push(0);
        self.core.crashed.push(false);
        self.core.epochs.push(0);
        self.unpin_topology();
        Arc::make_mut(&mut self.core.adjacency).push(BTreeMap::new());
        self.topo_version += 1;
        id
    }

    /// Connects `a` and `b` with symmetric directed links of configuration
    /// `cfg`, returning `(a→b, b→a)` link ids.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        (self.connect_directed(a, b, cfg), self.connect_directed(b, a, cfg))
    }

    /// Adds a single directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either node id is unknown or a `from → to` link already exists.
    pub fn connect_directed(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(from.index() < self.core.nodes.len(), "unknown source node");
        assert!(to.index() < self.core.nodes.len(), "unknown destination node");
        assert!(
            !self.core.adjacency[from.index()].contains_key(&to.0),
            "link {from} -> {to} already exists"
        );
        let id = LinkId(self.core.links.len() as u32);
        self.core.links.push(Link::new(cfg));
        // Link RNG streams live in a namespace disjoint from node streams
        // (node ids are < 2^32).
        const LINK_STREAM: u64 = 0x4C49_4E4B_0000_0000; // "LINK"
        self.core.link_rngs.push(self.master_rng.derive(LINK_STREAM | id.0 as u64));
        self.unpin_topology();
        Arc::make_mut(&mut self.core.link_ends).push((from, to));
        Arc::make_mut(&mut self.core.static_delays).push(cfg.delay().as_nanos());
        Arc::make_mut(&mut self.core.adjacency)[from.index()].insert(to.0, id);
        self.topo_version += 1;
        id
    }

    /// Lets parked shard lanes drop their shares of the topology tables, so
    /// the `Arc::make_mut` of an edit changes them in place instead of
    /// copying them. Deal-out hands the lanes fresh shares.
    fn unpin_topology(&mut self) {
        for lane in self.lanes.iter_mut().flatten() {
            if Arc::ptr_eq(&lane.adjacency, &self.core.adjacency) {
                lane.link_ends = Arc::default();
                lane.adjacency = Arc::default();
                lane.static_delays = Arc::default();
            }
        }
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// Name given to `id` at registration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Borrows a node, downcast to its concrete type; `None` if the type does
    /// not match.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the node is currently being dispatched.
    pub fn node_as<T: Node<M>>(&self, id: NodeId) -> Option<&T> {
        let node = self.core.nodes[id.index()].as_ref().expect("node is being dispatched");
        (node.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the node is currently being dispatched.
    pub fn node_as_mut<T: Node<M>>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.core.nodes[id.index()].as_mut().expect("node is being dispatched");
        (node.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Borrows a link's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.core.links[id.index()]
    }

    /// The directed link `from → to`, if one exists.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.core.adjacency.get(from.index())?.get(&to.0).copied()
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.core.time
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// The simulation-wide metrics registry.
    ///
    /// Engine self-observation counters (the `engine.` namespace: op-pool
    /// hit rates, shard window counts) are flushed here at the end of each
    /// `run_*` call; they describe the executor, not the simulated world,
    /// and are the one part of the registry allowed to differ between
    /// [`EngineConfig`]s.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// Installs a passive observer invoked at every engine boundary
    /// (send/inject/delivery/drop/no-route/timer/fault). Replaces any
    /// previously installed observer. Observation never perturbs the run:
    /// event order, metrics, and fingerprints are identical with or
    /// without one, under either engine.
    pub fn set_observer(&mut self, observer: impl SimObserver + 'static) {
        self.core.observer = Some(Box::new(observer));
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn SimObserver>> {
        self.core.observer.take()
    }

    /// Whether an observer is currently installed.
    pub fn has_observer(&self) -> bool {
        self.core.observer.is_some()
    }

    /// Starts the run fingerprint afresh: from now on every engine event is
    /// folded into [`Simulation::fingerprint`].
    pub fn enable_fingerprint(&mut self) {
        self.core.trace = Some(Trace::default());
    }

    /// An order-sensitive 64-bit digest of every event since
    /// [`Simulation::enable_fingerprint`], or `None` if it was never
    /// enabled: two runs of the same seed must produce equal fingerprints,
    /// on either engine. Nothing is stored; install a [`SimObserver`] to
    /// see the events themselves.
    pub fn fingerprint(&self) -> Option<u64> {
        self.core.trace.as_ref().map(Trace::fingerprint)
    }

    /// Schedules a message to arrive at `dst` at absolute time `at`,
    /// bypassing the network. Intended for tests and workload injection.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, at: SimTime, src: NodeId, dst: NodeId, payload: M, size_bytes: u32) {
        assert!(at >= self.core.time, "cannot inject into the past");
        let env = Envelope { src, size_bytes, sent_at: self.core.time, payload };
        self.inject_counter += 1;
        let stamp = pack_stamp(0, INJECT_ORIGIN, self.inject_counter);
        let env = self.core.env_slab.insert(env);
        self.core.queue.push(at, stamp, EventKind::Deliver { dst, env });
        self.core.notify(SimEvent::Injected { src, dst, size_bytes });
    }

    pub(crate) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.core.nodes.len() {
            if self.core.crashed[i] {
                continue;
            }
            self.core.dispatch(NodeId(i as u32), Dispatch::Start);
        }
    }

    /// One serial step: processes the next event (a fault action included),
    /// returning `false` when the queue is empty. Shared by the serial run
    /// loops and the sharded engine's serialized fault instants.
    pub(crate) fn step_event(&mut self) -> bool {
        match self.core.step_inner() {
            Stepped::Idle => false,
            Stepped::Event => true,
            Stepped::Fault { index } => {
                self.execute_fault(index);
                true
            }
        }
    }

    /// Moves counters accumulated as plain fields (kept off the hot path)
    /// into the metrics registry: the `engine.` self-observation counters
    /// plus the per-event `net.sent` / `net.delivered` / delivery-latency
    /// aggregates.
    pub(crate) fn flush_engine_metrics(&mut self) {
        if self.core.pool_hits > 0 {
            let v = std::mem::take(&mut self.core.pool_hits);
            self.core.metrics.add("engine.ops_pool.hit", v);
        }
        if self.core.pool_misses > 0 {
            let v = std::mem::take(&mut self.core.pool_misses);
            self.core.metrics.add("engine.ops_pool.miss", v);
        }
        if self.core.fallback_serial > 0 {
            let v = std::mem::take(&mut self.core.fallback_serial);
            self.core.metrics.add("engine.fallback_serial", v);
        }
        // Memory-pressure gauges (max semantics: the counter is raised to the
        // observed high-water, never lowered), so overload runs expose their
        // arena growth instead of hiding it.
        let ops_hw = self.core.ops_high_water;
        self.raise_engine_gauge("engine.ops_pool.high_water", ops_hw);
        let env_hw = self.core.env_slab.high_water() as u64;
        self.raise_engine_gauge("engine.env_slab.high_water", env_hw);
        let arena_bytes = (self.core.ops_arena.capacity() * std::mem::size_of::<Op>()) as u64
            + self.core.env_slab.arena_bytes()
            + self.core.env_remap.arena_bytes();
        self.raise_engine_gauge("engine.ops_pool.arena_bytes", arena_bytes);
        let sched_bytes = self.core.queue.arena_bytes();
        self.raise_engine_gauge("engine.sched.arena_bytes", sched_bytes);
        if self.core.sent_count > 0 {
            let v = std::mem::take(&mut self.core.sent_count);
            self.core.metrics.add("net.sent", v);
        }
        if self.core.delivered_count > 0 {
            let v = std::mem::take(&mut self.core.delivered_count);
            self.core.metrics.add("net.delivered", v);
        }
        if !self.core.delivery_hist.is_empty() {
            let core = &mut self.core;
            core.metrics.histogram("net.delivery_latency_ns").merge(&core.delivery_hist);
            core.delivery_hist.clear();
        }
    }

    /// Raises a gauge-like engine counter to `v` if it is below it.
    pub(crate) fn raise_engine_gauge(&mut self, name: &'static str, v: u64) {
        let cur = self.core.metrics.counter_value(name);
        if v > cur {
            self.core.metrics.add(name, v - cur);
        }
    }

    /// Processes a single event; returns its time, or `None` if idle.
    pub fn step(&mut self) -> Option<SimTime> {
        self.ensure_started();
        if self.step_event() {
            // Keep the registry view current for step-at-a-time callers.
            self.flush_engine_metrics();
            Some(self.core.time)
        } else {
            None
        }
    }
}

impl<M: Clone + Send + 'static> Simulation<M> {
    /// Runs until the event queue is empty or `limit` events were processed
    /// in this call. Returns the number of events processed.
    ///
    /// Under [`EngineConfig::sharded`] the cap is enforced at window
    /// granularity: the run stops at the first barrier at or past `limit`.
    pub fn run_until_idle_capped(&mut self, limit: u64) -> u64 {
        self.ensure_started();
        if let Some(n) = crate::shard::try_run_sharded(self, SimTime::MAX, limit) {
            self.flush_engine_metrics();
            return n;
        }
        let mut n = 0;
        while n < limit && self.step_event() {
            n += 1;
        }
        self.flush_engine_metrics();
        n
    }

    /// Runs until the event queue is empty.
    pub fn run_until_idle(&mut self) {
        self.run_until_idle_capped(u64::MAX);
    }

    /// Runs until simulated time reaches `until` (events at exactly `until`
    /// are processed) or the queue empties. The clock is left at `until` if
    /// the queue emptied earlier than that.
    pub fn run_until(&mut self, until: SimTime) {
        self.ensure_started();
        if crate::shard::try_run_sharded(self, until, u64::MAX).is_none() {
            while let Some((at, _)) = self.core.queue.peek_key() {
                if at > until {
                    break;
                }
                self.step_event();
            }
        }
        if self.core.time < until {
            self.core.time = until;
        }
        self.flush_engine_metrics();
    }
}

pub(crate) enum Dispatch<M> {
    Start,
    Message(NodeId, M),
    Timer(Timer),
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("time", &self.core.time)
            .field("nodes", &self.core.nodes.len())
            .field("links", &self.core.links.len())
            .field("pending_events", &self.core.queue.len())
            .field("events_processed", &self.core.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::fault::FaultWindow;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    struct Pinger {
        peer: Option<NodeId>,
        sent: u64,
        rtts: Vec<SimDuration>,
        last_sent: SimTime,
        max_pings: u64,
    }

    impl Pinger {
        fn new(max_pings: u64) -> Self {
            Pinger { peer: None, sent: 0, rtts: Vec::new(), last_sent: SimTime::ZERO, max_pings }
        }
    }

    impl Node<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some(peer) = self.peer {
                self.sent += 1;
                self.last_sent = ctx.now();
                ctx.send(peer, Msg::Ping(self.sent), 64);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(n) => ctx.send(from, Msg::Pong(n), 64),
                Msg::Pong(_) => {
                    self.rtts.push(ctx.now().duration_since(self.last_sent));
                    if self.sent < self.max_pings {
                        self.sent += 1;
                        self.last_sent = ctx.now();
                        ctx.send(from, Msg::Ping(self.sent), 64);
                    }
                }
            }
        }
    }

    fn two_node_sim(delay_ms: u64) -> (Simulation<Msg>, NodeId, NodeId) {
        let mut sim = Simulation::new(7);
        let a = sim.add_node("a", Pinger::new(10));
        let b = sim.add_node("b", Pinger::new(0));
        sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
        sim.connect(a, b, LinkConfig::new(SimDuration::from_millis(delay_ms)));
        (sim, a, b)
    }

    #[test]
    fn ping_pong_rtt_is_twice_one_way() {
        let (mut sim, a, _b) = two_node_sim(5);
        sim.run_until_idle();
        let pinger = sim.node_as::<Pinger>(a).unwrap();
        assert_eq!(pinger.rtts.len(), 10);
        for rtt in &pinger.rtts {
            assert_eq!(*rtt, SimDuration::from_millis(10));
        }
        assert_eq!(sim.metrics().counter_value("net.delivered"), 20);
    }

    #[test]
    fn run_until_respects_the_clock() {
        let (mut sim, _a, _b) = two_node_sim(5);
        sim.run_until(SimTime::from_millis(24));
        // RTT = 10 ms; pongs at 10 and 20 ms have been received.
        assert_eq!(sim.time(), SimTime::from_millis(24));
        sim.run_until_idle();
        assert_eq!(sim.time(), SimTime::from_millis(100));
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let a = sim.add_node("a", Pinger::new(20));
            let b = sim.add_node("b", Pinger::new(0));
            sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
            let cfg = LinkConfig::new(SimDuration::from_millis(3))
                .with_jitter(SimDuration::from_millis(1))
                .with_loss(crate::link::LossModel::Iid { p: 0.05 });
            sim.connect(a, b, cfg);
            sim.enable_fingerprint();
            sim.run_until_idle();
            sim.fingerprint().unwrap()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    struct Ticker {
        fired: Vec<(SimTime, u64)>,
    }

    impl Node<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(3), 3);
            ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.set_timer(SimDuration::from_millis(2), 2);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
            self.fired.push((ctx.now(), timer.tag));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let t = sim.add_node("t", Ticker { fired: vec![] });
        sim.run_until_idle();
        let fired = &sim.node_as::<Ticker>(t).unwrap().fired;
        let ms = SimTime::from_millis;
        assert_eq!(fired, &vec![(ms(1), 1), (ms(2), 2), (ms(3), 3)]);
    }

    /// A node that never sends and must never be handed a message.
    struct Bystander;
    impl Node<Msg> for Bystander {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            panic!("a message reached a node it was not addressed to");
        }
    }

    struct Sink {
        got: Vec<(SimTime, NodeId)>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _: Msg) {
            self.got.push((ctx.now(), from));
        }
    }

    struct Source {
        dst: NodeId,
    }
    impl Node<Msg> for Source {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.dst, Msg::Ping(1), 128);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
    }

    #[test]
    fn a_destination_behind_a_relay_has_no_route() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let relay = sim.add_node("relay", Bystander);
        let src = sim.add_node("src", Source { dst: sink });
        sim.connect(src, relay, LinkConfig::new(SimDuration::from_millis(2)));
        sim.connect(relay, sink, LinkConfig::new(SimDuration::from_millis(3)));
        sim.run_until_idle();
        assert_eq!(sim.metrics().counter_value("net.dropped.no_route"), 1);
        assert_eq!(sim.metrics().counter_value("net.delivered"), 0);
        assert!(sim.node_as::<Sink>(sink).unwrap().got.is_empty());
    }

    #[test]
    fn unroutable_messages_are_counted_not_fatal() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let _iso = sim.add_node("isolated", Source { dst: sink });
        sim.run_until_idle();
        assert_eq!(sim.metrics().counter_value("net.dropped.no_route"), 1);
        assert!(sim.node_as::<Sink>(sink).unwrap().got.is_empty());
    }

    #[test]
    fn inject_delivers_without_network() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let other = sim.add_node("other", Bystander);
        sim.inject(SimTime::from_millis(7), other, sink, Msg::Ping(9), 10);
        sim.run_until_idle();
        let got = &sim.node_as::<Sink>(sink).unwrap().got;
        assert_eq!(got, &vec![(SimTime::from_millis(7), other)]);
    }

    #[test]
    fn link_down_blackholes_traffic() {
        // The first ping and its pong cross at 1 and 2 ms; the link is down
        // when the second ping leaves at 2 ms, which ends the rally.
        let (mut sim, a, b) = two_node_sim(1);
        let counts = count_events(&mut sim);
        let (from, until) = (SimTime::from_micros(1_500), SimTime::from_millis(50));
        sim.apply_fault_plan(&[FaultWindow::LinkFlap { a, b, from, until }]);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<Pinger>(a).unwrap().rtts.len(), 1);
        assert_eq!(sim.metrics().counter_value("net.dropped.down"), 1);
        assert_eq!(sim.metrics().counter_value("net.link.flaps"), 2, "both directions");
        assert_faults(&sim, &counts, 2);
    }

    /// Counts messages and tick timers; resets its counters on crash.
    struct Counter {
        got: u64,
        ticks: u64,
        starts: u64,
        crashes: u64,
        /// Greeted with one message at every start, restarts included.
        hello: Option<NodeId>,
    }

    impl Counter {
        fn new() -> Self {
            Counter { got: 0, ticks: 0, starts: 0, crashes: 0, hello: None }
        }
    }

    impl Node<Msg> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.starts += 1;
            if let Some(peer) = self.hello {
                ctx.send(peer, Msg::Ping(self.starts), 8);
            }
            ctx.set_timer(SimDuration::from_millis(10), 77);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            self.got += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: Timer) {
            self.ticks += 1;
            ctx.set_timer(SimDuration::from_millis(10), 77);
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
            self.got = 0;
            self.ticks = 0;
        }
    }

    #[test]
    fn crashed_node_blackholes_and_stops_ticking() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let c = sim.add_node("counter", Counter::new());
        let src = sim.add_node("src", Bystander);
        sim.connect(src, c, LinkConfig::new(SimDuration::from_millis(1)));
        let counts = count_events(&mut sim);
        let (from, until) = (SimTime::from_millis(35), SimTime::from_millis(200));
        sim.apply_fault_plan(&[FaultWindow::CrashRestart { node: c, from, until }]);
        sim.run_until(from);
        assert_eq!(counts.lock().unwrap().timers, 3, "ticks at 10/20/30 ms");
        assert_eq!(sim.node_as::<Counter>(c).unwrap().crashes, 1);
        sim.inject(SimTime::from_millis(40), src, c, Msg::Ping(1), 8);
        sim.run_until(SimTime::from_millis(100));
        let counter = sim.node_as::<Counter>(c).unwrap();
        assert_eq!(counter.got, 0, "messages to a crashed node are blackholed");
        assert_eq!(counter.ticks, 0, "timers do not fire while crashed");
        assert_eq!(sim.metrics().counter_value("net.dropped.node_down"), 1);
        assert_faults(&sim, &counts, 1);
    }

    #[test]
    fn restart_rearms_timers_and_voids_stale_ones() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let c = sim.add_node("counter", Counter::new());
        let counts = count_events(&mut sim);
        let (from, until) = (SimTime::from_millis(5), SimTime::from_millis(50));
        sim.apply_fault_plan(&[FaultWindow::CrashRestart { node: c, from, until }]);
        sim.run_until(SimTime::from_millis(75)); // restarted ticks at 60/70 ms
        let counter = sim.node_as::<Counter>(c).unwrap();
        assert_eq!(counter.starts, 2, "on_start runs again at restart");
        assert_eq!(counter.ticks, 2, "only post-restart timers fire");
        assert_eq!(sim.metrics().counter_value("net.node.crashes"), 1);
        assert_eq!(sim.metrics().counter_value("net.node.restarts"), 1);
        assert_faults(&sim, &counts, 2);
    }

    #[test]
    fn partition_severs_cross_group_links_only() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let a = sim.add_node("a", Counter::new());
        let b = sim.add_node("b", Counter::new());
        let c = sim.add_node("c", Counter::new());
        sim.connect(a, b, LinkConfig::new(SimDuration::from_millis(1)));
        sim.connect(a, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.connect(b, c, LinkConfig::new(SimDuration::from_millis(1)));
        let counts = count_events(&mut sim);
        let (from, until) = (SimTime::from_millis(5), SimTime::from_millis(10));
        let groups = vec![vec![a], vec![b, c]];
        sim.apply_fault_plan(&[FaultWindow::Partition { groups, from, until }]);
        sim.run_until(from);
        assert!(!sim.link(sim.link_between(a, b).unwrap()).is_available());
        assert!(!sim.link(sim.link_between(a, c).unwrap()).is_available());
        assert!(sim.link(sim.link_between(b, c).unwrap()).is_available());
        assert_eq!(sim.metrics().counter_value("net.link.flaps"), 4);
        sim.run_until(until);
        assert!(sim.link(sim.link_between(a, b).unwrap()).is_available());
        assert!(sim.link(sim.link_between(a, c).unwrap()).is_available());
        assert_faults(&sim, &counts, 2);
    }

    #[test]
    fn fault_plan_executes_on_schedule() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let c = sim.add_node("counter", Counter { hello: Some(sink), ..Counter::new() });
        sim.connect(sink, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.enable_fingerprint();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        sim.set_observer(move |view: &crate::SimView<'_>, event: &crate::SimEvent<'_>| {
            let kind = match event {
                crate::SimEvent::Sent { .. } => "sent",
                crate::SimEvent::Fault { .. } => "fault",
                _ => "other",
            };
            log.lock().unwrap().push((view.time(), kind));
        });
        sim.apply_fault_plan(&[FaultWindow::CrashRestart {
            node: c,
            from: SimTime::from_millis(25),
            until: SimTime::from_millis(55),
        }]);
        sim.run_until(SimTime::from_millis(80));
        let counter = sim.node_as::<Counter>(c).unwrap();
        // Ticks at 10, 20 (then crash at 25, restart at 55), 65, 75.
        assert_eq!(counter.starts, 2);
        assert_eq!(counter.ticks, 2);
        assert_eq!(sim.metrics().counter_value("fault.injected"), 2);
        assert_eq!(sim.metrics().counter_value("fault.crash"), 1);
        assert_eq!(sim.metrics().counter_value("fault.restart"), 1);
        // At the restart instant the fingerprint folds the fault before the
        // restarted node's `on_start` send; the observer sees that send
        // first and the fault afterwards, with the post-fault view.
        let ms = SimTime::from_millis;
        let hello = SimEvent::Sent { src: c, dst: sink, size_bytes: 8 };
        let landed = SimEvent::Delivered { src: c, dst: sink, size_bytes: 8, sent_at: ms(0) };
        let tick = SimEvent::TimerFired { node: c, tag: 77 };
        let mut expected = Trace::default();
        for (at, event) in [(0, hello), (1, landed), (10, tick), (20, tick)] {
            expected.record(ms(at), &event);
        }
        expected.record_fault(ms(25), &FaultAction::CrashNode { node: c });
        expected.record_fault(ms(55), &FaultAction::RestartNode { node: c });
        for (at, event) in [(55, hello), (56, landed), (65, tick), (75, tick)] {
            expected.record(ms(at), &event);
        }
        assert_eq!(sim.fingerprint(), Some(expected.fingerprint()));
        let restart = ms(55);
        let observed: Vec<_> =
            seen.lock().unwrap().iter().filter(|(at, _)| *at == restart).map(|e| e.1).collect();
        assert_eq!(observed, ["sent", "fault"]);
        assert_eq!(sim.node_as::<Sink>(sink).unwrap().got.len(), 2, "one hello per start");
    }

    /// Counts engine-boundary events by kind.
    #[derive(Default)]
    struct CountingObserver {
        sent: u64,
        delivered: u64,
        dropped: u64,
        timers: u64,
        faults: u64,
        injected: u64,
        no_route: u64,
    }

    impl crate::observe::SimObserver for Arc<Mutex<CountingObserver>> {
        fn on_event(&mut self, _view: &crate::SimView<'_>, event: &crate::SimEvent<'_>) {
            let mut c = self.lock().unwrap();
            match event {
                crate::SimEvent::Sent { .. } => c.sent += 1,
                crate::SimEvent::Delivered { .. } => c.delivered += 1,
                crate::SimEvent::Dropped { .. } => c.dropped += 1,
                crate::SimEvent::TimerFired { .. } => c.timers += 1,
                crate::SimEvent::Fault { .. } => c.faults += 1,
                crate::SimEvent::Injected { .. } => c.injected += 1,
                crate::SimEvent::NoRoute { .. } => c.no_route += 1,
            }
        }
    }

    /// Installs a [`CountingObserver`] on `sim` and returns its counts.
    fn count_events(sim: &mut Simulation<Msg>) -> Arc<Mutex<CountingObserver>> {
        let counts = Arc::new(Mutex::new(CountingObserver::default()));
        sim.set_observer(Arc::clone(&counts));
        counts
    }

    /// Asserts that `actions` fault actions ran, each counted once in
    /// `fault.injected` and observed once as a [`SimEvent::Fault`].
    fn assert_faults(sim: &Simulation<Msg>, counts: &Mutex<CountingObserver>, actions: u64) {
        assert_eq!(sim.metrics().counter_value("fault.injected"), actions);
        assert_eq!(counts.lock().unwrap().faults, actions);
    }

    #[test]
    fn observer_sees_every_boundary_and_counts_match_metrics() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let c = sim.add_node("counter", Counter::new());
        sim.connect(sink, c, LinkConfig::new(SimDuration::from_millis(1)));
        let counts = count_events(&mut sim);
        assert!(sim.has_observer());
        sim.apply_fault_plan(&[FaultWindow::CrashRestart {
            node: c,
            from: SimTime::from_millis(25),
            until: SimTime::from_millis(55),
        }]);
        sim.inject(SimTime::from_millis(5), sink, c, Msg::Ping(1), 8);
        sim.run_until(SimTime::from_millis(80));
        let got = counts.lock().unwrap();
        assert_eq!(got.faults, 2, "crash + restart both observed");
        assert_eq!(got.injected, 1);
        assert_eq!(got.delivered, sim.metrics().counter_value("net.delivered"));
        assert_eq!(got.timers, 4, "ticks at 10/20 then 65/75 after restart");
        assert_eq!(got.sent, sim.metrics().counter_value("net.sent"));
    }

    #[test]
    fn observer_does_not_perturb_the_run() {
        let run = |observe: bool| {
            let mut sim = Simulation::new(99);
            let a = sim.add_node("a", Pinger::new(20));
            let b = sim.add_node("b", Pinger::new(0));
            sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
            let cfg = LinkConfig::new(SimDuration::from_millis(3))
                .with_jitter(SimDuration::from_millis(1))
                .with_loss(crate::link::LossModel::Iid { p: 0.05 });
            sim.connect(a, b, cfg);
            sim.enable_fingerprint();
            if observe {
                sim.set_observer(|_: &crate::SimView<'_>, _: &crate::SimEvent<'_>| {});
            }
            sim.run_until_idle();
            sim.fingerprint().unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crashed_node_receives_no_observed_deliveries_or_timers() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let c = sim.add_node("counter", Counter::new());
        let src = sim.add_node("src", Bystander);
        sim.connect(src, c, LinkConfig::new(SimDuration::from_millis(1)));
        let counts = count_events(&mut sim);
        // One tick at 10 ms, then down from 15 ms to past the run's end.
        let (from, until) = (SimTime::from_millis(15), SimTime::from_millis(200));
        sim.apply_fault_plan(&[FaultWindow::CrashRestart { node: c, from, until }]);
        sim.inject(SimTime::from_millis(40), src, c, Msg::Ping(1), 8);
        sim.run_until(SimTime::from_millis(100));
        assert_faults(&sim, &counts, 1);
        let got = counts.lock().unwrap();
        assert_eq!(got.timers, 1, "no timer fires while crashed");
        assert_eq!(got.delivered, 0);
        assert_eq!(got.dropped, 1, "the injected message blackholes");
    }

    #[test]
    fn loopback_send_is_delivered() {
        struct SelfSender {
            got: u32,
        }
        impl Node<Msg> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let id = ctx.id();
                ctx.send(id, Msg::Ping(0), 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.got += 1;
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let n = sim.add_node("self", SelfSender { got: 0 });
        sim.run_until_idle();
        assert_eq!(sim.node_as::<SelfSender>(n).unwrap().got, 1);
    }

    /// Sends one `Ping` to each of `to` with `send_all` at start.
    struct Broadcaster {
        to: Vec<NodeId>,
    }
    impl Node<Msg> for Broadcaster {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_all(self.to.iter().copied(), Msg::Ping(3), 64);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
    }

    #[test]
    fn send_all_stores_one_envelope_for_every_destination() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sinks: Vec<NodeId> =
            (0..3).map(|i| sim.add_node(format!("sink{i}"), Sink { got: vec![] })).collect();
        let src = sim.add_node("src", Broadcaster { to: sinks.clone() });
        sim.add_node("quiet", Broadcaster { to: vec![] });
        for (i, &sink) in sinks.iter().enumerate() {
            sim.connect(src, sink, LinkConfig::new(SimDuration::from_millis(1 + i as u64)));
        }
        sim.run_until_idle();
        for (i, &sink) in sinks.iter().enumerate() {
            let got = &sim.node_as::<Sink>(sink).unwrap().got;
            assert_eq!(got, &vec![(SimTime::from_millis(1 + i as u64), src)]);
        }
        assert_eq!(sim.metrics().counter_value("net.sent"), 3, "no destinations, no send");
        assert_eq!(sim.metrics().counter_value("engine.env_slab.high_water"), 1);
    }

    #[test]
    fn engine_names_parse() {
        assert_eq!(parse_engine("serial"), Some(EngineConfig::serial()));
        assert_eq!(parse_engine("sharded"), Some(EngineConfig::sharded(DEFAULT_SHARDS)));
        assert_eq!(parse_engine("sharded:2"), Some(EngineConfig::sharded(2)));
        assert_eq!(parse_engine("sharded:0"), None);
        assert_eq!(parse_engine("sharded:1"), None, "one lane is the serial engine");
        let most = format!("sharded:{MAX_SHARDS}");
        assert_eq!(parse_engine(&most), Some(EngineConfig::sharded(MAX_SHARDS)));
        // A hostile count is refused before anything is sized by it.
        assert_eq!(parse_engine(&format!("sharded:{}", MAX_SHARDS + 1)), None);
        assert_eq!(parse_engine(&format!("sharded:{}", u64::MAX)), None);
        assert_eq!(parse_engine("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "takes 2 to 64 shards, got 65")]
    fn a_sharded_engine_is_bounded() {
        EngineConfig::sharded(MAX_SHARDS + 1);
    }

    #[test]
    fn a_queued_event_is_24_bytes() {
        // A field added back to timer or delivery events grows every wheel
        // entry; make that a visible decision.
        assert_eq!(std::mem::size_of::<EventKind>(), 24);
    }

    #[test]
    fn a_buffered_op_is_24_bytes() {
        // Ops name their payload by slab index, so the arena's entries stay
        // this size whatever the message type.
        assert_eq!(std::mem::size_of::<Op>(), 24);
    }

    #[test]
    fn stamps_pack_and_unpack() {
        let s = pack_stamp(3, 7, 42);
        assert_eq!(stamp_depth(s), 3);
        assert!(pack_stamp(0, u32::MAX, 0) < pack_stamp(1, 0, 0), "depth dominates origin");
        assert!(pack_stamp(0, 1, u64::MAX) < pack_stamp(0, 2, 0), "origin dominates counter");
        assert!(pack_stamp(0, FAULT_ORIGIN, 9) < pack_stamp(0, INJECT_ORIGIN, 0));
    }

    #[test]
    fn engine_config_is_carried_per_simulation() {
        let sim: Simulation<Msg> = Simulation::with_config(11, EngineConfig::sharded(4));
        assert_eq!(sim.engine_config(), EngineConfig::sharded(4));
        // A second simulation is unaffected: nothing process-global moved.
        let other: Simulation<Msg> = Simulation::new(12);
        assert_eq!(other.engine_config(), EngineConfig::serial());
    }
}
