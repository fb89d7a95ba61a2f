//! Conservative shard-parallel executor.
//!
//! The node graph is partitioned into shards by
//! [`min_cut_partition`](crate::topology::min_cut_partition); each shard's
//! *lookahead* is the minimum static latency of any cross-shard link. Because
//! a message crossing a shard boundary cannot arrive earlier than `now +
//! lookahead`, every shard may safely execute all events in the window
//! `[t, t + lookahead)` without hearing from its peers — the classic
//! Chandy–Misra conservative argument, with the lookahead large enough that
//! no null messages are needed.
//!
//! Execution alternates between parallel windows and barriers:
//!
//! 1. the coordinator picks the next window start `t` (the global minimum
//!    pending event time) and a window end bounded by the lookahead, the next
//!    scripted fault, and the caller's deadline;
//! 2. each shard *lane* — a [`Core`] owning just that shard's nodes and
//!    links — runs its local events to the window end on a worker thread,
//!    diverting cross-shard sends into per-destination outboxes;
//! 3. at the barrier the coordinator drains outboxes into the destination
//!    lanes (every such delivery lands at or past the window end, so no lane
//!    ever sees its past change), then merges the lanes' buffered event
//!    streams — one per lane, kept only when the simulation has a
//!    fingerprint or an observer — back into the global `(time, stamp)`
//!    total order in one k-way merge that feeds both.
//!
//! Two shortcuts keep this schedule bit-for-bit while cutting its cost.
//! *Batched outbox exchange* moves each nonempty outbox across the barrier as
//! one buffer handoff per shard pair — buffers are pooled and recycled —
//! instead of pushing entries one by one. A window in which only one lane has
//! work runs *inline* on the coordinator thread, with no channel round-trip.
//!
//! Scripted faults mutate global state (links, crash flags), so an instant
//! containing a fault is executed serially: the lanes are recomposed into the
//! full simulation, the instant is stepped through the ordinary serial path,
//! and the lanes are dealt out again.
//!
//! Byte-identity with the serial engine is structural rather than aspirational:
//! a lane *is* the serial [`Core`] with the slots it does not own left empty,
//! so both executors run the same dispatch/transmit code, draw from the
//! same per-node and per-link RNG streams, and mint the same causal stamps.
//! The total event order `(SimTime, stamp)` is executor-independent, and
//! within one lane events pop in exactly that order, so the barrier merge is
//! a k-way merge of pre-sorted streams.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};

use crate::link::{Link, LinkConfig};
use crate::observe::SimView;
use crate::rng::DetRng;
use crate::sched::EventQueue;
use crate::sim::{emit_to, Core, EventKind, Simulation, Stepped};
use crate::time::{SimDuration, SimTime};

/// A shard plan: node → shard assignment plus the global lookahead.
#[derive(Clone)]
pub(crate) struct Plan {
    /// Shard index per node; all values `< shards`.
    shard_of: Arc<Vec<u32>>,
    /// Number of (populated) shards — also the worker-thread count.
    shards: usize,
    /// Minimum static delay of any cross-shard link, in ns. `u64::MAX`
    /// means no link crosses a boundary: windows are unbounded.
    lookahead_ns: u64,
}

/// Cached outcome of shard planning for one `(topology, shard count)`.
/// `plan: None` records that the topology is not profitably shardable, so
/// repeated runs do not re-derive the partition.
pub(crate) struct ShardCache {
    topo_version: u64,
    shards_requested: usize,
    plan: Option<Plan>,
}

fn compute_plan<M: 'static>(sim: &Simulation<M>, shards: usize) -> Option<Plan> {
    let n = sim.core.nodes.len();
    if n < 2 {
        return None;
    }
    let edges: Vec<(u32, u32, u64)> = sim
        .core
        .link_ends
        .iter()
        .zip(sim.core.static_delays.iter())
        .map(|(&(a, b), &d)| (a.0, b.0, d))
        .collect();
    let part = crate::topology::min_cut_partition(n, &edges, shards);
    // A zero-latency cross-shard link would make windows empty; a single
    // populated shard would make them pointless. Both fall back to serial.
    if part.shards < 2 || part.lookahead_ns == 0 {
        return None;
    }
    Some(Plan {
        shard_of: Arc::new(part.shard_of),
        shards: part.shards,
        lookahead_ns: part.lookahead_ns,
    })
}

fn plan_for<M: 'static>(sim: &mut Simulation<M>, shards: usize) -> Option<Plan> {
    if let Some(cache) = &sim.shard_cache {
        if cache.topo_version == sim.topo_version && cache.shards_requested == shards {
            return cache.plan.clone();
        }
    }
    let plan = compute_plan(sim, shards);
    sim.shard_cache = Some(ShardCache {
        topo_version: sim.topo_version,
        shards_requested: shards,
        plan: plan.clone(),
    });
    plan
}

fn dummy_link() -> Link {
    Link::new(LinkConfig::new(SimDuration::ZERO))
}

/// Pending scripted faults, held by the coordinator in `(time, stamp)` order.
type FaultQueue = VecDeque<(SimTime, u128, usize)>;

/// One slot per shard lane, `None` while a worker thread holds the lane.
/// Lanes are boxed, so one crosses the worker channels as a pointer rather
/// than as a 2 KB [`Core`].
pub(crate) type Lanes<M> = Vec<Option<Box<Core<M>>>>;

/// Splits the simulation into per-shard lanes. Each lane is a full-width
/// [`Core`] (vectors indexed by global id) holding only the nodes, links,
/// and pending events its shard owns; everything else is an empty slot.
/// Fault events stay with the coordinator.
///
/// Lanes parked by the previous [`reassemble`] are reused, with their
/// wheels, slabs, registries and buffers, so only the first deal-out of a
/// simulation builds lanes from scratch.
fn deal_out<M: Clone + 'static>(sim: &mut Simulation<M>, plan: &Plan) -> (Lanes<M>, FaultQueue) {
    let k = plan.shards;
    let n = sim.core.nodes.len();
    let nl = sim.core.links.len();
    let buffered = sim.core.trace.is_some() || sim.core.observer.is_some();
    let mut lanes = std::mem::take(&mut sim.lanes);
    lanes.truncate(k);
    lanes.resize_with(k, || Some(Box::new(Core::new_serial())));
    for (i, lane) in lanes.iter_mut().flatten().enumerate() {
        lane.time = sim.core.time;
        lane.cur_depth = sim.core.cur_depth;
        lane.cur_stamp = sim.core.cur_stamp;
        lane.queue.reanchor(sim.core.time);
        lane.nodes.resize_with(n, || None);
        lane.rngs.resize(n, DetRng::new(0));
        lane.push_counters.clone_from(&sim.core.push_counters);
        lane.crashed.clone_from(&sim.core.crashed);
        lane.epochs.clone_from(&sim.core.epochs);
        lane.links.resize_with(nl, dummy_link);
        lane.link_rngs.resize(nl, DetRng::new(0));
        lane.link_ends = Arc::clone(&sim.core.link_ends);
        lane.adjacency = Arc::clone(&sim.core.adjacency);
        lane.static_delays = Arc::clone(&sim.core.static_delays);
        lane.buffered = buffered;
        lane.shard_of = Some(Arc::clone(&plan.shard_of));
        lane.my_shard = i as u32;
        lane.outboxes.resize_with(k, Vec::new);
        lane.outbox_mins.clear();
        lane.outbox_mins.resize(k, u64::MAX);
    }
    for idx in 0..n {
        let s = plan.shard_of[idx] as usize;
        let lane = lane(&mut lanes, s);
        lane.nodes[idx] = sim.core.nodes[idx].take();
        lane.rngs[idx] = std::mem::replace(&mut sim.core.rngs[idx], DetRng::new(0));
    }
    for li in 0..nl {
        let s = plan.shard_of[sim.core.link_ends[li].0.index()] as usize;
        let lane = lane(&mut lanes, s);
        lane.links[li] = std::mem::replace(&mut sim.core.links[li], dummy_link());
        lane.link_rngs[li] = std::mem::replace(&mut sim.core.link_rngs[li], DetRng::new(0));
    }
    // The serial world's warm op arena goes to lane 0 in exchange for that
    // lane's own; the other lanes keep theirs, and reassembly hands the
    // widest one back.
    std::mem::swap(&mut lane(&mut lanes, 0).ops_arena, &mut sim.core.ops_arena);
    for (j, buf) in sim.core.spare_boxes.drain(..).enumerate() {
        lane(&mut lanes, j % k).spare_boxes.push(buf);
    }
    let mut faults = FaultQueue::new();
    let core = &mut sim.core;
    core.env_remap.reset(&core.env_slab, k);
    while let Some((at, stamp, kind)) = core.queue.pop() {
        let shard = match kind {
            EventKind::Fault { index } => {
                faults.push_back((at, stamp, index));
                continue;
            }
            EventKind::Deliver { dst, env } => {
                // Envelopes move from the global slab to the owning lane's
                // slab, one copy per lane for an envelope that deliveries
                // in several lanes share; the queue entry is re-indexed.
                let s = plan.shard_of[dst.index()] as usize;
                let lane = lane(&mut lanes, s);
                let env = core.env_remap.move_ref(&mut core.env_slab, env, s, &mut lane.env_slab);
                lane.queue.push(at, stamp, EventKind::Deliver { dst, env });
                continue;
            }
            EventKind::Timer { node, .. } => plan.shard_of[node.index()],
        };
        lane(&mut lanes, shard as usize).queue.push(at, stamp, kind);
    }
    debug_assert_eq!(core.env_slab.live(), 0, "a global envelope outlived its queue entries");
    // The drained wheel keeps its storage; its cursor sits at the last
    // event dealt out, so bring it back to the clock that reassembly
    // refills it from.
    core.queue.reanchor(core.time);
    (lanes, faults)
}

/// Inverse of [`deal_out`]: folds the lanes back into `sim.core`, restoring
/// the single serial world (nodes, links, pending events, metrics, and the
/// global clock — the latest `(time, stamp)` any lane reached).
///
/// Each emptied lane is then parked in `sim.lanes` for the next deal-out:
/// no node, link, event or envelope, every per-run counter and metric at
/// zero, but all storage kept.
fn reassemble<M: Clone + 'static>(
    sim: &mut Simulation<M>,
    mut lanes: Lanes<M>,
    faults: FaultQueue,
) {
    debug_assert!(lanes.iter().all(Option::is_some), "a lane is still out with a worker");
    let mut best = (sim.core.time, sim.core.cur_stamp, sim.core.cur_depth);
    for lane in lanes.iter().flatten() {
        if (lane.time, lane.cur_stamp) > (best.0, best.1) {
            best = (lane.time, lane.cur_stamp, lane.cur_depth);
        }
    }
    (sim.core.time, sim.core.cur_stamp, sim.core.cur_depth) = (best.0, best.1, best.2);
    for lane in lanes.iter_mut().flatten() {
        debug_assert!(lane.event_keys.is_empty());
        debug_assert!(lane.outboxes.iter().all(Vec::is_empty));
        for idx in 0..lane.nodes.len() {
            if let Some(node) = lane.nodes[idx].take() {
                sim.core.nodes[idx] = Some(node);
                sim.core.rngs[idx] = std::mem::replace(&mut lane.rngs[idx], DetRng::new(0));
                sim.core.push_counters[idx] = lane.push_counters[idx];
            }
        }
        for li in 0..lane.links.len() {
            if lane.shard_owner(li) == lane.my_shard {
                sim.core.links[li] = std::mem::replace(&mut lane.links[li], dummy_link());
                sim.core.link_rngs[li] = std::mem::replace(&mut lane.link_rngs[li], DetRng::new(0));
            }
        }
        // Keep the widest warm arena; fold memory-pressure high waters.
        if lane.ops_arena.capacity() > sim.core.ops_arena.capacity() {
            std::mem::swap(&mut sim.core.ops_arena, &mut lane.ops_arena);
        }
        if lane.ops_high_water > sim.core.ops_high_water {
            sim.core.ops_high_water = lane.ops_high_water;
        }
        sim.core.env_slab.raise_high_water(lane.env_slab.high_water());
        sim.raise_engine_gauge("engine.sched.arena_bytes", lane.queue.arena_bytes());
        // The lane's registry only ever holds names the world's registry
        // already has (it is merged here and never reset), so zeroing it
        // keeps the next merge exact.
        sim.core.metrics.merge(&lane.metrics);
        lane.metrics.zero();
        sim.core.events_processed += std::mem::take(&mut lane.events_processed);
        sim.core.pool_hits += std::mem::take(&mut lane.pool_hits);
        sim.core.pool_misses += std::mem::take(&mut lane.pool_misses);
        sim.core.sent_count += std::mem::take(&mut lane.sent_count);
        sim.core.delivered_count += std::mem::take(&mut lane.delivered_count);
        if !lane.delivery_hist.is_empty() {
            sim.core.delivery_hist.merge(&lane.delivery_hist);
            lane.delivery_hist.clear();
        }
        // Cross-shard deliveries exchanged at the last barrier but not yet
        // executed flow back into the global queue; their buffers are kept
        // for reuse.
        for mut buf in lane.inboxes.drain(..) {
            for (at, stamp, dst, env) in buf.drain(..) {
                let env = sim.core.env_slab.insert(env);
                sim.core.queue.push(at, stamp, EventKind::Deliver { dst, env });
            }
            sim.core.spare_boxes.push(buf);
        }
        lane.inbox_min_ns = u64::MAX;
        sim.core.spare_boxes.append(&mut lane.spare_boxes);
        let core = &mut sim.core;
        core.env_remap.reset(&lane.env_slab, 1);
        while let Some((at, stamp, kind)) = lane.queue.pop() {
            let kind = match kind {
                EventKind::Deliver { dst, env } => {
                    let env =
                        core.env_remap.move_ref(&mut lane.env_slab, env, 0, &mut core.env_slab);
                    EventKind::Deliver { dst, env }
                }
                other => other,
            };
            core.queue.push(at, stamp, kind);
        }
        debug_assert_eq!(lane.env_slab.live(), 0, "a lane envelope outlived its queue entries");
    }
    for (at, stamp, index) in faults {
        sim.core.queue.push(at, stamp, EventKind::Fault { index });
    }
    sim.core.debug_assert_no_leaked_envelope();
    sim.lanes = lanes;
}

impl<M> Core<M> {
    /// The shard owning link `li` under the current plan: a link is executed
    /// by the lane that owns its source endpoint.
    fn shard_owner(&self, li: usize) -> u32 {
        let map = self.shard_of.as_ref().expect("shard_owner outside lane mode");
        map[self.link_ends[li].0.index()]
    }
}

/// Runs one lane to the (exclusive) window end; `None` means unbounded.
/// Returns the number of events the lane consumed.
fn lane_window<M: Clone + 'static>(core: &mut Core<M>, w_end: Option<SimTime>) -> u64 {
    core.drain_inboxes();
    let mut n = 0;
    loop {
        match core.queue.peek_key() {
            Some((at, _)) if w_end.is_none_or(|e| at < e) => {}
            _ => break,
        }
        match core.step_inner() {
            Stepped::Idle => break,
            Stepped::Event => n += 1,
            Stepped::Fault { .. } => unreachable!("faults never reach a shard lane"),
        }
    }
    n
}

/// Window end for a window starting at `w_start`: `w_start + lookahead`,
/// exclusive, computed without overflow. `None` when every representable
/// time fits inside the window.
fn window_end(w_start: SimTime, lookahead_ns: u64) -> Option<SimTime> {
    let end = w_start.as_nanos() as u128 + lookahead_ns as u128;
    (end <= u64::MAX as u128).then(|| SimTime::from_nanos(end as u64))
}

fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn lane<M>(lanes: &mut [Option<Box<Core<M>>>], i: usize) -> &mut Core<M> {
    lanes[i].as_mut().expect("lane checked in")
}

/// Merges the lanes' buffered event streams back into the global
/// `(time, stamp)` order and replays each event into the fingerprint and
/// the observer, then clears the buffers. Called at every window barrier.
fn replay_barrier<M: 'static>(sim: &mut Simulation<M>, lanes: &mut [Option<Box<Core<M>>>]) {
    let k = lanes.len();
    if (0..k).all(|i| lane(lanes, i).event_keys.is_empty()) {
        return;
    }
    // The k-way merge touches only the dense key lanes; payloads are
    // fetched once per emitted event.
    let mut cursors = vec![0usize; k];
    loop {
        let mut min: Option<((SimTime, u128), usize)> = None;
        for (i, &cur) in cursors.iter().enumerate() {
            if let Some(&key) = lane(lanes, i).event_keys.get(cur) {
                if min.is_none_or(|(m, _)| key < m) {
                    min = Some((key, i));
                }
            }
        }
        let Some(((at, _), i)) = min else { break };
        let event = lane(lanes, i).event_items[cursors[i]];
        cursors[i] += 1;
        let core = &mut sim.core;
        let view = SimView { time: at, crashed: &core.crashed };
        emit_to(&mut core.trace, &mut core.observer, &view, &event);
    }
    for i in 0..k {
        let l = lane(lanes, i);
        l.event_keys.clear();
        l.event_items.clear();
    }
}

/// Exchanges cross-shard deliveries produced this window in one buffer
/// handoff per shard pair: each nonempty outbox is moved wholesale into the
/// destination lane's inbox list (drained at that lane's next dispatch) and
/// replaced by a recycled spare, so no per-event push crosses threads at the
/// barrier. Every entry lands at or past the window end — guaranteed by the
/// lookahead — so no lane ever sees its past change.
fn exchange_outboxes<M: 'static>(lanes: &mut [Option<Box<Core<M>>>], w_end: Option<SimTime>) {
    let k = lanes.len();
    for i in 0..k {
        let mut boxes = std::mem::take(&mut lane(lanes, i).outboxes);
        for (dst, slot) in boxes.iter_mut().enumerate() {
            if slot.is_empty() {
                continue;
            }
            let (min_ns, buf) = {
                let src = lane(lanes, i);
                let spare = src.spare_boxes.pop().unwrap_or_default();
                let min_ns = std::mem::replace(&mut src.outbox_mins[dst], u64::MAX);
                (min_ns, std::mem::replace(slot, spare))
            };
            debug_assert!(
                w_end.is_none_or(|e| min_ns >= e.as_nanos()),
                "cross-shard delivery inside its own window"
            );
            let target = lane(lanes, dst);
            if min_ns < target.inbox_min_ns {
                target.inbox_min_ns = min_ns;
            }
            target.inboxes.push(buf);
        }
        lane(lanes, i).outboxes = boxes;
    }
}

/// Attempts to run `sim` under the sharded executor until `until`
/// (inclusive) or the event queue drains, processing at most `limit` events
/// (enforced at window granularity). Returns `None` — run serially instead —
/// when the engine is serial or the topology cannot be sharded with a
/// positive lookahead.
pub(crate) fn try_run_sharded<M: Clone + Send + 'static>(
    sim: &mut Simulation<M>,
    until: SimTime,
    limit: u64,
) -> Option<u64> {
    let shards = sim.engine.shards?;
    let Some(plan) = plan_for(sim, shards) else {
        // Loud, not silent: flushed to `engine.fallback_serial`.
        sim.core.fallback_serial += 1;
        return None;
    };
    let k = plan.shards;

    let (mut slots, mut faults) = deal_out(sim, &plan);
    let mut total: u64 = 0;
    let mut windows: u64 = 0;
    let mut shard_events = vec![0u64; k];
    let mut window_hist = crate::metrics::Histogram::new();

    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Box<Core<M>>, u64)>();
        let mut work_txs = Vec::with_capacity(k);
        let mut workers = Vec::with_capacity(k);
        for _ in 0..k {
            let (tx, rx) = mpsc::channel::<(Box<Core<M>>, Option<SimTime>)>();
            work_txs.push(tx);
            let done = done_tx.clone();
            workers.push(scope.spawn(move || {
                let worker_rx = rx;
                let mut lane_index = None;
                while let Ok((mut core, w_end)) = worker_rx.recv() {
                    let i = *lane_index.get_or_insert(core.my_shard as usize);
                    let n = lane_window(&mut core, w_end);
                    if done.send((i, core, n)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(done_tx);

        let mut busy: Vec<usize> = Vec::with_capacity(k);
        loop {
            if total >= limit {
                break;
            }
            // Next pending instant across all lanes (local queues plus
            // undrained inboxes) and scripted faults.
            let min_ns = slots
                .iter_mut()
                .map(|slot| slot.as_mut().expect("lane checked in").earliest_pending_ns())
                .min()
                .unwrap_or(u64::MAX);
            let lane_min = (min_ns != u64::MAX).then(|| SimTime::from_nanos(min_ns));
            let w_start = min_opt(lane_min, faults.front().map(|f| f.0));
            let Some(w_start) = w_start else { break };
            if w_start > until {
                break;
            }
            if faults.front().is_some_and(|f| f.0 == w_start) {
                // A fault mutates global state (links, crash flags): fold the
                // lanes together and run this whole instant serially, then
                // deal the world back out.
                reassemble(sim, slots, std::mem::take(&mut faults));
                while sim.core.queue.peek_key().is_some_and(|(at, _)| at == w_start) {
                    sim.step_event();
                    total += 1;
                }
                (slots, faults) = deal_out(sim, &plan);
                continue;
            }
            let mut w_end = window_end(w_start, plan.lookahead_ns);
            w_end = min_opt(w_end, faults.front().map(|f| f.0));
            if until < SimTime::MAX {
                w_end = min_opt(w_end, Some(SimTime::from_nanos(until.as_nanos() + 1)));
            }
            // Dispatch only lanes with work inside the window.
            busy.clear();
            for (i, slot) in slots.iter_mut().enumerate() {
                let e = slot.as_mut().expect("lane checked in").earliest_pending_ns();
                if e != u64::MAX && w_end.is_none_or(|end| e < end.as_nanos()) {
                    busy.push(i);
                }
            }
            let mut window_events = 0;
            if let [i] = busy[..] {
                // A lone busy lane runs inline on the coordinator thread: no
                // channel round-trip, no worker wakeup.
                let core = slots[i].as_mut().expect("lane checked in");
                let n = lane_window(core, w_end);
                shard_events[i] += n;
                window_events += n;
            } else {
                for &i in &busy {
                    let core = slots[i].take().expect("lane checked in");
                    work_txs[i].send((core, w_end)).expect("worker alive");
                }
                for _ in 0..busy.len() {
                    let (i, core, n) = done_rx.recv().expect("worker alive");
                    shard_events[i] += n;
                    window_events += n;
                    slots[i] = Some(core);
                }
            }
            total += window_events;
            windows += 1;
            window_hist.record(window_events);
            exchange_outboxes(&mut slots, w_end);
            replay_barrier(sim, &mut slots);
        }
        reassemble(sim, slots, faults);
        // The scope only waits for the workers' closures; joining also
        // waits for their threads to exit, so glibc has put their malloc
        // arenas back on its free list before the next run call's workers
        // start and look for one. Closing the work channels lets them leave
        // `recv`.
        drop(work_txs);
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    if windows > 0 {
        sim.core.metrics.add("engine.shard.windows", windows);
        sim.core.metrics.histogram("engine.shard.events_per_window").merge(&window_hist);
        for (i, n) in shard_events.iter().enumerate() {
            if *n > 0 {
                sim.core.metrics.add(&format!("engine.shard.s{i}.events"), *n);
            }
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultWindow;
    use crate::link::{LinkConfig, LossModel};
    use crate::metrics::MetricsSnapshot;
    use crate::node::{Context, Node, NodeId, Timer};
    use crate::sim::{EngineConfig, Simulation};
    use crate::time::{SimDuration, SimTime};

    /// A chatty node: pings a peer on a timer, echoes whatever it receives.
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
            self.received += msg;
            if msg > 1 {
                ctx.send(from, msg - 1, 200);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _t: Timer) {
            self.fired += 1;
            let burst = ctx.rng().range_u64(1, 4);
            ctx.send(self.peer, burst, 400);
            if self.fired < self.rounds {
                ctx.set_timer(self.period, 1);
            }
        }
        fn on_crash(&mut self) {
            self.received = 0;
        }
    }

    /// Two 4-node campuses with fast intra-campus links, joined by one slow
    /// WAN pair — the blueprint's shape, shardable with a 40 ms lookahead.
    fn campus_sim(seed: u64) -> Simulation<u64> {
        let mut sim = Simulation::new(seed);
        let mut ids = Vec::new();
        for c in 0..2 {
            for i in 0..4 {
                // Cross-campus chatter goes through the gateway pair (0, 4).
                let peer_index = if i == 0 { (1 - c) * 4 } else { c * 4 };
                ids.push((c, i, peer_index));
            }
        }
        let nodes: Vec<NodeId> = ids
            .iter()
            .map(|&(c, i, peer)| {
                sim.add_node(
                    format!("c{c}n{i}"),
                    Chatter {
                        peer: NodeId::from_index(peer),
                        period: SimDuration::from_millis(3 + i as u64),
                        rounds: 12,
                        fired: 0,
                        received: 0,
                    },
                )
            })
            .collect();
        let lan = LinkConfig::new(SimDuration::from_millis(1))
            .with_jitter(SimDuration::from_micros(200))
            .with_loss(LossModel::Iid { p: 0.02 });
        for c in 0..2 {
            for i in 1..4 {
                sim.connect(nodes[c * 4], nodes[c * 4 + i], lan);
            }
        }
        let wan = LinkConfig::new(SimDuration::from_millis(40))
            .with_jitter(SimDuration::from_millis(2))
            .with_loss(LossModel::Iid { p: 0.05 });
        sim.connect(nodes[0], nodes[4], wan);
        sim
    }

    fn fingerprint_and_metrics(
        mut sim: Simulation<u64>,
        engine: EngineConfig,
    ) -> (u64, MetricsSnapshot) {
        sim.set_engine_config(engine);
        sim.enable_fingerprint();
        sim.run_until(SimTime::from_millis(500));
        let snap = sim.metrics().snapshot().without_prefix("engine.");
        (sim.fingerprint().unwrap(), snap)
    }

    #[test]
    fn sharded_matches_serial_on_the_campus_topology() {
        for seed in [1, 7, 42] {
            let serial = fingerprint_and_metrics(campus_sim(seed), EngineConfig::serial());
            for shards in [2, 4] {
                let sharded =
                    fingerprint_and_metrics(campus_sim(seed), EngineConfig::sharded(shards));
                assert_eq!(serial.0, sharded.0, "trace diverged (seed {seed}, {shards} shards)");
                assert_eq!(serial.1, sharded.1, "metrics diverged (seed {seed}, {shards} shards)");
            }
        }
    }

    #[test]
    fn sharded_matches_serial_under_faults() {
        let gateway_a = NodeId::from_index(0);
        let gateway_b = NodeId::from_index(4);
        let plan = [
            FaultWindow::LinkFlap {
                a: gateway_a,
                b: gateway_b,
                from: SimTime::from_millis(60),
                until: SimTime::from_millis(120),
            },
            FaultWindow::CrashRestart {
                node: gateway_b,
                from: SimTime::from_millis(150),
                until: SimTime::from_millis(230),
            },
            FaultWindow::LatencySpike {
                a: gateway_a,
                b: gateway_b,
                from: SimTime::from_millis(250),
                until: SimTime::from_millis(320),
                extra: SimDuration::from_millis(15),
            },
        ];
        let run = |engine: EngineConfig| {
            let mut sim = campus_sim(9);
            sim.set_engine_config(engine);
            sim.enable_fingerprint();
            sim.apply_fault_plan(&plan);
            sim.run_until(SimTime::from_millis(400));
            let snap = sim.metrics().snapshot().without_prefix("engine.");
            (sim.fingerprint().unwrap(), snap, sim.events_processed(), sim.time())
        };
        let serial = run(EngineConfig::serial());
        let sharded = run(EngineConfig::sharded(2));
        assert_eq!(serial, sharded);
        assert!(serial.1.counters.contains_key("fault.injected"));
    }

    #[test]
    fn unshardable_topologies_fall_back_to_serial() {
        // A single zero-latency star cannot be cut with positive lookahead.
        let run = |engine: EngineConfig| {
            let mut sim: Simulation<u64> = Simulation::new(1);
            sim.set_engine_config(engine);
            let chatter = |peer| Chatter {
                peer,
                period: SimDuration::from_millis(1),
                rounds: 3,
                fired: 0,
                received: 0,
            };
            let hub = sim.add_node("hub", chatter(NodeId::from_index(1)));
            let leaf = sim.add_node("leaf", chatter(hub));
            sim.connect(hub, leaf, LinkConfig::new(SimDuration::ZERO));
            sim.enable_fingerprint();
            sim.run_until_idle();
            sim
        };
        let (serial, sharded) = (run(EngineConfig::serial()), run(EngineConfig::sharded(4)));
        assert!(sharded.metrics().counter_value("net.delivered") > 0);
        assert_eq!(sharded.metrics().counter_value("engine.shard.windows"), 0);
        // The fallback is signalled, not silent: one counted fallback per
        // attempted sharded run, and otherwise the run is the serial one.
        assert_eq!(sharded.metrics().counter_value("engine.fallback_serial"), 1);
        assert_eq!(sharded.fingerprint(), serial.fingerprint());
    }

    #[test]
    fn feasible_plans_do_not_count_serial_fallbacks() {
        let mut sim = campus_sim(9);
        sim.set_engine_config(EngineConfig::sharded(2));
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.metrics().counter_value("engine.shard.windows") > 0);
        assert_eq!(sim.metrics().counter_value("engine.fallback_serial"), 0);
    }

    #[test]
    fn sharded_run_reports_window_metrics() {
        let mut sim = campus_sim(11);
        sim.set_engine_config(EngineConfig::sharded(2));
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.metrics().counter_value("engine.shard.windows") > 0);
        assert!(sim.metrics().counter_value("engine.shard.s0.events") > 0);
        assert!(sim.metrics().counter_value("engine.shard.s1.events") > 0);
        let hist = sim.metrics().snapshot().histograms;
        assert!(hist.contains_key("engine.shard.events_per_window"));
        assert!(sim.metrics().counter_value("engine.ops_pool.hit") > 0);
    }

    #[test]
    fn wheel_memory_gauge_is_raised_under_both_engines() {
        // Run to idle: the gauge must report wheel memory under both engines.
        for engine in [EngineConfig::serial(), EngineConfig::sharded(2)] {
            let mut sim = campus_sim(5);
            sim.set_engine_config(engine);
            sim.run_until_idle();
            let windows = sim.metrics().counter_value("engine.shard.windows");
            assert_eq!(windows > 0, engine != EngineConfig::serial());
            let bytes = sim.metrics().counter_value("engine.sched.arena_bytes");
            assert!(bytes > 0, "no wheel memory reported under {engine:?}");
        }
    }

    #[test]
    fn parked_lanes_do_not_make_a_topology_edit_copy_the_tables() {
        let mut sim = campus_sim(3);
        sim.set_engine_config(EngineConfig::sharded(2));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.lanes.len(), 2, "the lanes are parked after the run");
        let tables = |sim: &Simulation<u64>| {
            (
                std::sync::Arc::as_ptr(&sim.core.link_ends),
                std::sync::Arc::as_ptr(&sim.core.adjacency),
                std::sync::Arc::as_ptr(&sim.core.static_delays),
            )
        };
        let before = tables(&sim);
        let quiet = sim.add_node("quiet", Quiet);
        sim.connect(quiet, NodeId::from_index(1), LinkConfig::new(SimDuration::from_millis(1)));
        assert_eq!(tables(&sim), before, "an edit copied a table a parked lane still shared");
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sim.metrics().counter_value("engine.fallback_serial"), 0);
    }

    /// A node with no behavior at all: its campus generates zero traffic.
    struct Quiet;

    impl Node<u64> for Quiet {
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {}
    }

    /// All chatter confined to campus 0; campus 1 is silent. The WAN link
    /// still makes the topology shardable, so one lane carries every event
    /// inline on the coordinator while the other stays idle.
    fn sparse_sim(seed: u64) -> Simulation<u64> {
        let mut sim: Simulation<u64> = Simulation::new(seed);
        let mut nodes = Vec::new();
        for i in 0..4 {
            let peer_index = if i == 0 { 1 } else { 0 };
            nodes.push(sim.add_node(
                format!("c0n{i}"),
                Chatter {
                    peer: NodeId::from_index(peer_index),
                    period: SimDuration::from_millis(3 + i as u64),
                    rounds: 12,
                    fired: 0,
                    received: 0,
                },
            ));
        }
        for _ in 0..2 {
            nodes.push(sim.add_node("quiet", Quiet));
        }
        let lan = LinkConfig::new(SimDuration::from_millis(1))
            .with_jitter(SimDuration::from_micros(200))
            .with_loss(LossModel::Iid { p: 0.02 });
        for i in 1..4 {
            sim.connect(nodes[0], nodes[i], lan);
        }
        sim.connect(nodes[4], nodes[5], lan);
        let wan = LinkConfig::new(SimDuration::from_millis(40));
        sim.connect(nodes[0], nodes[4], wan);
        sim
    }

    #[test]
    fn solo_lane_with_an_idle_peer_stays_byte_identical() {
        let serial = fingerprint_and_metrics(sparse_sim(13), EngineConfig::serial());
        let sharded = fingerprint_and_metrics(sparse_sim(13), EngineConfig::sharded(2));
        assert_eq!(serial.0, sharded.0, "sharded trace diverged from serial");
        assert_eq!(serial.1, sharded.1, "world metrics diverged from serial");
    }

    #[test]
    fn capped_runs_and_stepping_work_across_engines() {
        let mut sim = campus_sim(5);
        sim.set_engine_config(EngineConfig::sharded(2));
        let n = sim.run_until_idle_capped(50);
        assert!(n >= 50, "cap is enforced at window granularity, but work must happen");
        // The world recomposes cleanly: serial stepping continues the run.
        sim.set_engine_config(EngineConfig::serial());
        assert!(sim.step().is_some());
        sim.run_until_idle();
    }
}
