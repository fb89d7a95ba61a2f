//! The cloud server hosting the fully virtual VR classroom.
//!
//! §3.2: "the cloud server arranges the avatars of all users within an
//! entirely virtual VR classroom and transmits the results back to the remote
//! users." It ingests avatar streams from both physical classrooms and from
//! every remote client, seats them in a virtual auditorium, and fans out
//! per-client updates under an interest-managed budget — the mechanism that
//! keeps "thousands of remote users" (§3.3) affordable.

use std::collections::{BTreeMap, BTreeSet};

use metaclass_avatar::{retarget, AnchorFrame, AvatarId, AvatarState, QuantizedState};
use metaclass_netsim::{Context, Node, NodeId, SimTime, Timer};
use metaclass_sync::{
    InteractionEvent, InterestConfig, InterestManager, PoseFrame, QuantizedSnapshot, SubscriberId,
    Viewpoint,
};

use crate::health::RemoteAvatarPresentation;
use crate::messages::ClassMsg;
use crate::overload::{AdmissionController, AdmissionOutcome, LoadShedder};
use crate::pool::pool_avatar;
use crate::seat::{ClassroomLayout, SeatAllocator};
use crate::server::{Inbound, LinkRole, ServerConfig, ServerLink};

static ROLE: LinkRole = LinkRole {
    tick_tag: 20,
    heartbeat_tag: 21,
    peer_returns: "cloud.edge_returns",
    peer_degraded: "cloud.edge_degraded",
    peer_down: "cloud.edge_down",
    interactions_delivered: "cloud.interactions_delivered",
    decode_errors: "cloud.decode_errors",
    ticks_shed: "overload.fanout_ticks_shed",
};

/// Seats per virtual room: each room's seating block starts this many seats
/// after the previous one, so reseating on a room change is observable in
/// the retargeted avatar stream.
const ROOM_SEAT_STRIDE: usize = 40;

/// Fan-out policy of the cloud classroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanoutConfig {
    /// Avatar updates each client may receive per fan-out tick.
    pub budget_per_client: usize,
    /// Interest-management tuning.
    pub interest: InterestConfig,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig { budget_per_client: 16, interest: InterestConfig::default() }
    }
}

/// The cloud VR classroom server.
pub struct CloudServerNode {
    /// The inter-server link toward the physical classrooms' edge servers;
    /// its egress backlog is keyed by client avatar.
    link: ServerLink<AvatarId>,
    fanout: FanoutConfig,
    /// Remote VR clients: avatar → client node.
    clients: BTreeMap<AvatarId, NodeId>,
    /// Latest state of every avatar in the virtual classroom, indexed by
    /// the avatar's interest slot (avatars are never removed, so every slot
    /// below the length is live).
    latest: Vec<Latest>,
    seats: SeatAllocator,
    interest: InterestManager,
    /// The avatar currently speaking (gets interest priority everywhere).
    speaker: Option<AvatarId>,
    /// Capture time of the newest state already sent, indexed by the
    /// viewer's slot and then the avatar's (`SimTime::ZERO`: none yet) —
    /// unchanged states are not re-sent.
    sent_marks: Vec<Vec<SimTime>>,
    /// Join admission gate for remote clients.
    admission: AdmissionController,
    /// Audiences already hinted to re-join this tick (rate-limits the hint).
    rejoin_hinted: BTreeSet<AvatarId>,
    /// Flyweight client pools served by this cloud: pool id → entry.
    pools: BTreeMap<u32, PoolEntry>,
    /// Virtual-room membership of every seated avatar (room 0 = auditorium).
    rooms: BTreeMap<AvatarId, u32>,
    /// Avatars per virtual room (exact census; empty rooms are dropped).
    room_counts: BTreeMap<u32, u64>,
    /// Working vectors of a fan-out tick, kept for their capacity.
    scratch: FanoutScratch,
}

/// The newest state of one avatar in the virtual classroom.
struct Latest {
    avatar: AvatarId,
    /// The VR-space state, read for the avatar's own viewpoint.
    state: AvatarState,
    /// `state` on the link codec's grid, quantized once on arrival: what
    /// every viewer's display update carries, and what the forward toward
    /// the physical classrooms encodes.
    grid: QuantizedState,
    /// When the state was captured at its origin.
    captured_at: SimTime,
}

/// The cloud's view of one flyweight client pool.
struct PoolEntry {
    /// The pool's node.
    node: NodeId,
    /// Pooled clients currently admitted (token-bucket accounted).
    active: u64,
}

/// One destination of a fan-out tick. A client is an audience of weight 1
/// served update by update; a pool is an audience of weight N served one
/// batch per tick, under its representative avatar's viewpoint.
#[derive(Clone, Copy)]
struct Audience {
    viewer: AvatarId,
    node: NodeId,
    weight: u64,
    pool: Option<u32>,
}

#[derive(Default)]
struct FanoutScratch {
    /// This tick's destinations, in service order.
    audiences: Vec<Audience>,
    /// One audience's deferred refreshes, served ahead of its selection, as
    /// slots.
    wanted: Vec<usize>,
    /// Slots already handled for one audience.
    considered: Vec<usize>,
    /// One pool's capture instants, sent as an exact-size copy.
    batch: Vec<SimTime>,
}

/// Home frame of streams uploaded in their own coordinates (clients, pools).
fn origin_anchor() -> AnchorFrame {
    AnchorFrame::seat(Default::default())
}

impl CloudServerNode {
    /// Creates the cloud server. `clients` maps each remote avatar to its
    /// client node; `edges` are the physical classrooms' edge servers;
    /// `capacity` sizes the virtual auditorium.
    pub fn new(
        cfg: ServerConfig,
        fanout: FanoutConfig,
        clients: BTreeMap<AvatarId, NodeId>,
        edges: Vec<NodeId>,
        capacity: u32,
    ) -> Self {
        CloudServerNode {
            link: ServerLink::new(cfg, &ROLE, edges),
            interest: InterestManager::new(fanout.interest),
            fanout,
            clients,
            latest: Vec::new(),
            seats: SeatAllocator::new(ClassroomLayout::auditorium(capacity)),
            speaker: None,
            sent_marks: Vec::new(),
            admission: AdmissionController::new(cfg.overload.admission, SimTime::ZERO),
            rejoin_hinted: BTreeSet::new(),
            pools: BTreeMap::new(),
            rooms: BTreeMap::new(),
            room_counts: BTreeMap::new(),
            scratch: FanoutScratch::default(),
        }
    }

    /// Registers the flyweight client pools this cloud serves, as
    /// `(pool id, pool node)` pairs. Call after `add_node`, like
    /// [`CloudServerNode::set_speaker`].
    pub fn set_pools(&mut self, pools: Vec<(u32, NodeId)>) {
        self.pools =
            pools.into_iter().map(|(id, node)| (id, PoolEntry { node, active: 0 })).collect();
    }

    /// Pooled clients currently admitted, summed over every pool.
    pub fn pooled_active(&self) -> u64 {
        self.pools.values().map(|p| p.active).sum()
    }

    /// The join admission gate (for tests and invariant oracles).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The seat allocator (for tests and invariant oracles).
    pub fn seats(&self) -> &SeatAllocator {
        &self.seats
    }

    /// The virtual room `avatar` currently occupies, if seated.
    pub fn room_of(&self, avatar: AvatarId) -> Option<u32> {
        self.rooms.get(&avatar).copied()
    }

    /// Exact per-room avatar census (empty rooms omitted).
    pub fn room_census(&self) -> &BTreeMap<u32, u64> {
        &self.room_counts
    }

    /// Checks the room-accounting invariant: per-room counts sum to the
    /// number of tracked avatars, every tracked avatar holds exactly one
    /// seat, and the allocator itself is consistent.
    pub fn rooms_are_consistent(&self) -> bool {
        let census_total: u64 = self.room_counts.values().sum();
        let counts_match = census_total == self.rooms.len() as u64;
        let all_seated = self.rooms.keys().all(|&a| self.seats.anchor_of(a).is_some());
        let no_empty_rooms = self.room_counts.values().all(|&c| c > 0);
        counts_match && all_seated && no_empty_rooms && self.seats.is_consistent()
    }

    /// The load-shedding ladder (for tests and invariant oracles).
    pub fn shedder(&self) -> &LoadShedder {
        &self.link.shedder
    }

    /// Every bounded queue this server owns, as `(name, max depth ever,
    /// capacity)` — invariant oracles assert depth never exceeds capacity.
    pub fn overload_queues(&self) -> Vec<(String, usize, usize)> {
        let log = self.link.interaction_log();
        let mut out = vec![
            ("cloud.interaction_log".to_string(), log.max_depth(), log.capacity()),
            (
                "cloud.admission_waiting".to_string(),
                self.admission.waiting_max_depth(),
                self.admission.waiting_capacity(),
            ),
        ];
        out.extend(self.link.backlogs().map(|(client, backlog)| {
            (format!("cloud.fanout_backlog[{}]", client.0), backlog.max_depth(), backlog.capacity())
        }));
        out
    }

    /// How `avatar` should currently be presented, given the health of the
    /// node its stream arrives from. Client-fed avatars are always `Live`
    /// (client loss is handled by the jitter buffers, not the detector).
    pub fn presentation_of(&self, avatar: AvatarId, now: SimTime) -> RemoteAvatarPresentation {
        self.link.presentation_of(avatar, now)
    }

    /// Declares `avatar` the active speaker (or clears with `None`).
    pub fn set_speaker(&mut self, avatar: Option<AvatarId>) {
        self.speaker = avatar;
    }

    /// Number of avatars present in the virtual classroom.
    pub fn population(&self) -> usize {
        self.latest.len()
    }

    /// Every interaction event observed in the VR classroom (the retained
    /// bounded window, oldest first).
    pub fn interaction_log(&self) -> Vec<(AvatarId, InteractionEvent)> {
        self.link.interaction_log().iter().cloned().collect()
    }

    /// Whether `avatar` is a roster client that is not (or no longer — e.g.
    /// after a crash-restart wiped the admission set) admitted.
    fn is_unadmitted_client(&self, avatar: AvatarId) -> bool {
        self.clients.contains_key(&avatar) && !self.admission.is_admitted(avatar.0 as u64)
    }

    /// Accounts one piece of traffic dropped because its audience is not
    /// admitted, and hints `to` to re-join — once per audience per fan-out
    /// tick.
    fn hint_rejoin(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        to: NodeId,
        audience: AvatarId,
        dropped: &'static str,
        hint: ClassMsg,
    ) {
        ctx.metrics().inc(dropped);
        if self.rejoin_hinted.insert(audience) {
            ctx.metrics().inc("overload.rejoin_hints");
            hint.send_to(ctx, to);
        }
    }

    /// Ingests one frame of `avatar`'s inbound stream: decoded through the
    /// link, latency-accounted for the `weight` participants it stands for
    /// (a pool's representative pose speaks for all its members), then
    /// seated and retargeted into the auditorium from its home `anchor`.
    #[allow(clippy::too_many_arguments)]
    fn handle_stream(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        frame: PoseFrame,
        captured_at: SimTime,
        anchor: AnchorFrame,
        weight: u64,
        forward_to_edges: bool,
    ) {
        let Inbound::State(state) = self.link.on_frame(ctx, from, avatar, &frame) else {
            return;
        };
        self.link.sources.insert(avatar, from);
        let inbound = ctx.now().duration_since(captured_at);
        ctx.metrics().histogram("cloud.inbound_latency_ns").record_n(inbound.as_nanos(), weight);
        let seat = match self.seats.assign(avatar) {
            Ok(_) => {
                // A freshly seated avatar starts in the auditorium (room 0)
                // until it announces a move.
                if let std::collections::btree_map::Entry::Vacant(e) = self.rooms.entry(avatar) {
                    e.insert(0);
                    *self.room_counts.entry(0).or_insert(0) += 1;
                }
                *self.seats.anchor_of(avatar).expect("just assigned")
            }
            Err(_) => {
                ctx.metrics().inc("cloud.seat_rejects");
                return;
            }
        };
        let (vr_state, _) = retarget(&state, &anchor, &seat);
        let importance = if self.speaker == Some(avatar) { 1.0 } else { 0.0 };
        let slot = self.interest.update_entity(avatar, vr_state.head.position, importance);
        let grid = self.link.codec().quantize(&vr_state);
        let latest = Latest { avatar, state: vr_state, grid, captured_at };
        if slot == self.latest.len() {
            self.latest.push(latest);
        } else {
            self.latest[slot] = latest;
        }

        // Client avatars are re-encoded toward each physical classroom so
        // their students see the remote participant; its home frame is now
        // the VR seat. Pools are not: classrooms render the crowd as one
        // token. Edge-fed avatars were already fanned out by their home edge.
        if forward_to_edges && self.link.should_replicate(ctx.now(), avatar, &vr_state) {
            let vr_state = QuantizedSnapshot::from_grid(self.link.codec(), grid);
            for &peer in self.link.peers().iter().filter(|&&peer| peer != from) {
                if self.link.skips(peer) {
                    ctx.metrics().inc("cloud.forwards_skipped_unhealthy_edge");
                    continue;
                }
                self.link.send_update(ctx, peer, avatar, &vr_state, captured_at, seat);
                ctx.metrics().inc("cloud.forwards_to_edges");
            }
        }
    }

    /// One budgeted, interest-managed fan-out pass; returns the number of
    /// fresh updates *demanded* this tick (sent or deferred), the shedder's
    /// pressure signal.
    fn fan_out(&mut self, ctx: &mut Context<'_, ClassMsg>) -> usize {
        if self.link.sheds_tick(ctx) {
            return 0;
        }
        let FanoutScratch { mut audiences, mut wanted, mut considered, mut batch } =
            std::mem::take(&mut self.scratch);
        audiences.clear();
        audiences.extend(
            self.clients
                .iter()
                .filter(|(a, _)| self.admission.is_admitted(a.0 as u64))
                .map(|(&viewer, &node)| Audience { viewer, node, weight: 1, pool: None }),
        );
        // Fairness under budget exhaustion: rotate the service order so the
        // budget does not starve the same tail of clients every tick.
        if !audiences.is_empty() {
            let offset = (self.link.tick_count as usize) % audiences.len();
            audiences.rotate_left(offset);
        }
        // Pooled audiences are served after the clients. Each representative
        // update counts once against the egress budget and the demand signal
        // — the replication to the pool's members happens at the regional
        // distribution layer, whose cost the batch's member-weighted wire
        // size charges to the pool's scaled link.
        audiences.extend(self.pools.iter().filter(|(_, entry)| entry.active > 0).map(
            |(&pool, entry)| Audience {
                viewer: pool_avatar(pool),
                node: entry.node,
                weight: entry.active,
                pool: Some(pool),
            },
        ));
        let min_importance =
            self.link.shedder.level().min_importance().unwrap_or(f64::NEG_INFINITY);
        let budget_total = self.link.egress_budget();
        let mut sent_this_tick = 0usize;
        let mut demand = 0usize;
        let (mut updates, mut bytes) = (0u64, 0u64);
        for &Audience { viewer, node, weight, pool } in &audiences {
            let Some(viewer_slot) = self.interest.slot_of(viewer) else {
                continue; // has not uploaded a pose yet
            };
            let st = &self.latest[viewer_slot].state;
            let viewpoint =
                Viewpoint { position: st.head.position, yaw: st.head.orientation.yaw() };
            // Refreshes deferred by an earlier budget crunch go first, then
            // this tick's interest selection.
            while let Some(avatar) = self.link.pop_deferred(viewer) {
                wanted.extend(self.interest.slot_of(avatar));
            }
            let budget = self.fanout.budget_per_client + 1; // self may be selected
            self.interest.select_with_min_importance(
                SubscriberId(viewer.0),
                viewpoint,
                budget,
                min_importance,
            );
            if self.sent_marks.len() <= viewer_slot {
                self.sent_marks.resize_with(viewer_slot + 1, Vec::new);
            }
            let marks = &mut self.sent_marks[viewer_slot];
            if marks.len() < self.latest.len() {
                marks.resize(self.latest.len(), SimTime::ZERO);
            }
            considered.clear();
            batch.clear();
            for slot in wanted.drain(..).chain(self.interest.selected_slots().iter().copied()) {
                if slot == viewer_slot || considered.contains(&slot) {
                    continue;
                }
                considered.push(slot);
                let Latest { avatar, grid, captured_at, .. } = &self.latest[slot];
                // Skip states the audience already has.
                let mark = &mut marks[slot];
                if *captured_at <= *mark {
                    continue;
                }
                demand += 1;
                if sent_this_tick >= budget_total {
                    // Egress budget exhausted: the mark stays stale, so
                    // interest selection re-picks the pair; a client's
                    // refresh is also queued to go first (pools carry no
                    // backlog).
                    if pool.is_none() {
                        self.link.defer(ctx, viewer, *avatar);
                    }
                    ctx.metrics().inc("overload.fanout_deferred");
                    continue;
                }
                *mark = *captured_at;
                sent_this_tick += 1;
                updates += weight;
                if pool.is_some() {
                    batch.push(*captured_at);
                } else {
                    let size = ClassMsg::DisplayUpdate {
                        avatar: *avatar,
                        state: *grid,
                        captured_at: *captured_at,
                        pinned: false,
                    }
                    .send_to(ctx, node);
                    bytes += size as u64;
                }
            }
            if let (Some(pool), false) = (pool, batch.is_empty()) {
                let size =
                    ClassMsg::PoolDisplay { pool, members: weight, captured: batch.to_vec() }
                        .send_to(ctx, node);
                bytes += size as u64;
            }
        }
        // A tick that sent nothing creates neither counter.
        if updates > 0 {
            ctx.metrics().add("cloud.fanout_updates", updates);
        }
        if bytes > 0 {
            ctx.metrics().add("cloud.fanout_bytes", bytes);
        }
        self.scratch = FanoutScratch { audiences, wanted, considered, batch };
        demand
    }
}

impl Node<ClassMsg> for CloudServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        self.link.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        if !self.link.on_timer(ctx, timer) {
            return;
        }
        self.rejoin_hinted.clear();
        // Admit parked joiners as admission tokens refill.
        for key in self.admission.poll(ctx.now()) {
            let avatar = AvatarId(key as u32);
            if let Some(&node) = self.clients.get(&avatar) {
                ctx.metrics().inc("overload.joins_admitted");
                ClassMsg::JoinAccepted { avatar }.send_to(ctx, node);
            }
        }
        let demand = self.fan_out(ctx);
        self.link.finish_tick(ctx, demand, self.link.egress_budget());
        self.link.arm_tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId, msg: ClassMsg) {
        self.link.heard(ctx, from);
        match msg {
            ClassMsg::JoinRequest { avatar, .. } => {
                let now = ctx.now();
                let reply = if self.clients.contains_key(&avatar) {
                    match self.admission.request(avatar.0 as u64, now) {
                        AdmissionOutcome::Admitted => {
                            ctx.metrics().inc("overload.joins_admitted");
                            ClassMsg::JoinAccepted { avatar }
                        }
                        AdmissionOutcome::Deferred { position, retry_after } => {
                            ctx.metrics().inc("overload.joins_deferred");
                            ClassMsg::JoinDeferred {
                                avatar,
                                retry_after,
                                position: position as u32,
                            }
                        }
                        AdmissionOutcome::Rejected => {
                            ctx.metrics().inc("overload.joins_rejected");
                            ClassMsg::JoinRejected { avatar }
                        }
                    }
                } else {
                    // Not in the deployment roster: never admissible.
                    ctx.metrics().inc("overload.joins_unknown");
                    ClassMsg::JoinRejected { avatar }
                };
                reply.send_to(ctx, from);
            }
            ClassMsg::ClientPose { avatar, frame, captured_at } => {
                if self.is_unadmitted_client(avatar) {
                    let hint = ClassMsg::JoinRejected { avatar };
                    self.hint_rejoin(ctx, from, avatar, "overload.unadmitted_poses_dropped", hint);
                    return;
                }
                // Clients stream in their own home frame.
                let anchor = origin_anchor();
                self.handle_stream(ctx, from, avatar, frame, captured_at, anchor, 1, true);
            }
            ClassMsg::AvatarUpdate { avatar, frame, captured_at, anchor } => {
                // Edges supply the avatar's classroom anchor.
                self.handle_stream(ctx, from, avatar, frame, captured_at, anchor, 1, false);
            }
            ClassMsg::Interaction { avatar, seq, event, captured_at } => {
                if self.is_unadmitted_client(avatar) {
                    let hint = ClassMsg::JoinRejected { avatar };
                    let dropped = "overload.unadmitted_interactions_dropped";
                    self.hint_rejoin(ctx, from, avatar, dropped, hint);
                    return;
                }
                // Client-originated events are relayed onward to the
                // physical classrooms; edge-originated ones were already
                // fanned out by their home edge.
                let relay = self.clients.contains_key(&avatar);
                self.link.on_interaction(ctx, from, avatar, seq, event, captured_at, relay);
            }
            ClassMsg::PoolJoin { pool, count, .. } => {
                let now = ctx.now();
                let Some(entry) = self.pools.get_mut(&pool) else {
                    ctx.metrics().inc("overload.pool_joins_unknown");
                    return;
                };
                // Exact aggregate admission: one real token per pooled
                // client, individually parked joiners keep priority, and the
                // un-admitted remainder stays the pool's problem (it is its
                // own regional waiting room).
                let (admitted, retry_after) = self.admission.admit_up_to(count, now);
                entry.active += admitted;
                ctx.metrics().add("overload.pool_joins_admitted", admitted);
                let waiting = count - admitted;
                if waiting > 0 {
                    ctx.metrics().add("overload.pool_joins_deferred", waiting);
                }
                ClassMsg::PoolJoinReply { pool, admitted, waiting, retry_after }.send_to(ctx, from);
            }
            ClassMsg::PoolPose { pool, count, frame, captured_at } => {
                let Some(entry) = self.pools.get_mut(&pool) else {
                    return;
                };
                let rep = pool_avatar(pool);
                if entry.active == 0 {
                    // The pool believes its members are admitted; we do not
                    // (crash-restart wiped the counts): hint a full re-join.
                    let (to, hint) = (entry.node, ClassMsg::PoolEvict { pool });
                    let dropped = "overload.unadmitted_pool_poses_dropped";
                    self.hint_rejoin(ctx, to, rep, dropped, hint);
                    return;
                }
                // The pose's member count is authoritative: the pool owns
                // its roster, and this reconciles any drift from join
                // retransmissions whose first delivery we admitted but
                // whose reply was lost en route.
                if count != entry.active {
                    ctx.metrics().inc("overload.pool_count_reconciled");
                    entry.active = count;
                }
                self.handle_stream(
                    ctx,
                    from,
                    rep,
                    frame,
                    captured_at,
                    origin_anchor(),
                    count,
                    false,
                );
            }
            ClassMsg::RoomChange { avatar, room } => {
                if !self.clients.contains_key(&avatar)
                    || !self.admission.is_admitted(avatar.0 as u64)
                {
                    ctx.metrics().inc("cloud.room_moves_ignored");
                    return;
                }
                let old = self.rooms.insert(avatar, room).unwrap_or(0);
                if let Some(c) = self.room_counts.get_mut(&old) {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        self.room_counts.remove(&old);
                    }
                }
                *self.room_counts.entry(room).or_insert(0) += 1;
                // Reseat into the new room's seating block. The release
                // guarantees at least one vacancy, so the circular scan in
                // `assign_from` cannot fail.
                self.seats.release(avatar);
                let start = room as usize * ROOM_SEAT_STRIDE;
                if self.seats.assign_from(avatar, start).is_err() {
                    ctx.metrics().inc("cloud.seat_rejects");
                }
                ctx.metrics().inc("cloud.room_moves");
            }
            other => self.link.on_control(ctx, from, other),
        }
    }

    fn on_crash(&mut self) {
        // A crashed cloud loses all volatile session state; the deployment
        // configuration (clients, edges, capacity) survives.
        let capacity = self.seats.layout().capacity() as u32;
        self.link.on_crash();
        self.latest.clear();
        self.seats = SeatAllocator::new(ClassroomLayout::auditorium(capacity));
        self.interest = InterestManager::new(self.fanout.interest);
        self.sent_marks.clear();
        // The admission set is volatile: restarted clouds re-admit returning
        // clients (whose un-admitted traffic triggers a re-join hint).
        self.admission.reset(SimTime::ZERO);
        self.rejoin_hinted.clear();
        // Pool membership counts are volatile too: the next PoolPose from a
        // pool we no longer recognize triggers a PoolEvict re-join hint.
        for entry in self.pools.values_mut() {
            entry.active = 0;
        }
        // Room membership follows the seats it annotates.
        self.rooms.clear();
        self.room_counts.clear();
    }
}
