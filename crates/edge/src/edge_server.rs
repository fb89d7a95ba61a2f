//! The per-classroom edge server of Figure 3.
//!
//! §3.2: the edge server "aggregates the data to estimate the pose and facial
//! expression of the participants … generates the avatar and their
//! interaction traces accordingly, and packages them via the real-time
//! transmission link to both the edge server of Classroom 2 and the cloud
//! server of the VR classroom"; on reception it "identifies the vacant seats
//! … corrects the pose to match the new position of the avatar and generates
//! the scene to display."

use std::collections::BTreeMap;

use metaclass_avatar::{retarget, AnchorFrame, AvatarId, AvatarState};
use metaclass_netsim::{Context, Node, NodeId, SimTime, Timer};
use metaclass_sensors::PoseFusion;
use metaclass_sync::{InteractionEvent, PoseFrame, QuantizedSnapshot};

use crate::health::{PeerHealth, RemoteAvatarPresentation};
use crate::messages::ClassMsg;
use crate::overload::LoadShedder;
use crate::seat::{ClassroomLayout, SeatAllocator};
use crate::server::{Inbound, LinkRole, ServerConfig, ServerLink};

static ROLE: LinkRole = LinkRole {
    tick_tag: 10,
    heartbeat_tag: 11,
    peer_returns: "edge.peer_returns",
    peer_degraded: "edge.peer_degraded",
    peer_down: "edge.peer_down",
    interactions_delivered: "edge.interactions_delivered",
    decode_errors: "edge.decode_errors",
    ticks_shed: "overload.replicate_ticks_shed",
};

/// The edge server of one physical MR classroom.
pub struct EdgeServerNode {
    /// The inter-server link toward the peer servers receiving this
    /// classroom's avatars (other edges + cloud); its egress backlog is
    /// keyed by peer.
    link: ServerLink<NodeId>,
    /// Local participants and the headset node displaying to each.
    headsets: BTreeMap<AvatarId, NodeId>,
    /// Anchors of local participants in this classroom (their own seats).
    local_anchors: BTreeMap<AvatarId, AnchorFrame>,
    fusion: BTreeMap<AvatarId, PoseFusion>,
    seats: SeatAllocator,
    /// Latest retargeted state of each remote avatar.
    remote_latest: BTreeMap<AvatarId, (AvatarState, SimTime)>,
    /// Remote avatars currently pinned by a frozen source peer.
    frozen: BTreeMap<AvatarId, bool>,
    /// Working vectors of a replication tick, kept for their capacity.
    scratch: TickScratch,
}

#[derive(Default)]
struct TickScratch {
    /// Updates sent toward each peer this tick, in the link's peer order.
    sent_per_peer: Vec<usize>,
    /// Pairs already refreshed from the backlog this tick.
    flushed: Vec<(NodeId, AvatarId)>,
    /// The avatars one pass walks while it mutates their map.
    avatars: Vec<AvatarId>,
}

impl EdgeServerNode {
    /// Creates an edge server for a classroom with the given `layout`.
    ///
    /// `participants` maps each local avatar to its headset node and its
    /// anchor (seat/podium) in this classroom; `peers` are the other servers
    /// of the session.
    pub fn new(
        cfg: ServerConfig,
        layout: ClassroomLayout,
        participants: Vec<(AvatarId, NodeId, AnchorFrame)>,
        peers: Vec<NodeId>,
    ) -> Self {
        let mut headsets = BTreeMap::new();
        let mut local_anchors = BTreeMap::new();
        for (avatar, headset, anchor) in participants {
            headsets.insert(avatar, headset);
            local_anchors.insert(avatar, anchor);
        }
        EdgeServerNode {
            link: ServerLink::new(cfg, &ROLE, peers),
            headsets,
            local_anchors,
            fusion: BTreeMap::new(),
            seats: SeatAllocator::new(layout),
            remote_latest: BTreeMap::new(),
            frozen: BTreeMap::new(),
            scratch: TickScratch::default(),
        }
    }

    /// The load-shedding ladder (for tests and invariant oracles).
    pub fn shedder(&self) -> &LoadShedder {
        &self.link.shedder
    }

    /// Every bounded queue this server owns, as `(name, max depth ever,
    /// capacity)` — invariant oracles assert depth never exceeds capacity.
    pub fn overload_queues(&self) -> Vec<(String, usize, usize)> {
        let log = self.link.interaction_log();
        let mut out = vec![("edge.interaction_log".to_string(), log.max_depth(), log.capacity())];
        out.extend(self.link.backlogs().map(|(peer, backlog)| {
            (
                format!("edge.egress_backlog[{}]", peer.index()),
                backlog.max_depth(),
                backlog.capacity(),
            )
        }));
        out
    }

    /// Latest retargeted state of a remote avatar, if any.
    pub fn remote_state(&self, avatar: AvatarId) -> Option<&AvatarState> {
        self.remote_latest.get(&avatar).map(|(s, _)| s)
    }

    /// When the latest state of remote `avatar` was captured at its origin.
    pub fn remote_captured_at(&self, avatar: AvatarId) -> Option<SimTime> {
        self.remote_latest.get(&avatar).map(|(_, t)| *t)
    }

    /// Number of remote avatars this classroom currently displays.
    pub fn remote_count(&self) -> usize {
        self.remote_latest.len()
    }

    /// The current fused estimate for a local avatar, if initialized.
    pub fn local_estimate(&self, avatar: AvatarId) -> Option<AvatarState> {
        let f = self.fusion.get(&avatar)?;
        f.is_initialized().then(|| f.estimate())
    }

    /// The seat allocator (for inspection).
    pub fn seats(&self) -> &SeatAllocator {
        &self.seats
    }

    /// Every interaction event observed in this classroom, in order of
    /// in-sequence delivery (the retained bounded window, oldest first).
    pub fn interaction_log(&self) -> Vec<(AvatarId, InteractionEvent)> {
        self.link.interaction_log().iter().cloned().collect()
    }

    /// The failure detector tracking `peer`, if it is one of this server's
    /// peers.
    pub fn peer_health(&self, peer: NodeId) -> Option<&PeerHealth> {
        self.link.health(peer)
    }

    /// How the remote avatar `avatar` should currently be presented, given
    /// the health of the peer its stream arrives from.
    pub fn presentation_of(&self, avatar: AvatarId, now: SimTime) -> RemoteAvatarPresentation {
        self.link.presentation_of(avatar, now)
    }

    /// Applies hold-then-freeze presentation to remote avatars whose source
    /// peer is down: after the hold window a pinned state is pushed to local
    /// displays, which show it with exactly zero velocity, so stale motion is
    /// not extrapolated forever.
    fn apply_presentations(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        let now = ctx.now();
        let mut avatars = std::mem::take(&mut self.scratch.avatars);
        avatars.clear();
        avatars.extend(self.remote_latest.keys().copied());
        for &avatar in &avatars {
            let was_frozen = self.frozen.get(&avatar).copied().unwrap_or(false);
            match self.presentation_of(avatar, now) {
                RemoteAvatarPresentation::Frozen if !was_frozen => {
                    self.frozen.insert(avatar, true);
                    ctx.metrics().inc("edge.avatars_frozen");
                    if let Some((state, _)) = self.remote_latest.get(&avatar) {
                        let state = self.link.codec().quantize(state);
                        ClassMsg::DisplayUpdate { avatar, state, captured_at: now, pinned: true }
                            .send_to_all(ctx, self.headsets.values().copied());
                    }
                }
                RemoteAvatarPresentation::Live if was_frozen => {
                    self.frozen.remove(&avatar);
                    ctx.metrics().inc("edge.avatars_thawed");
                }
                _ => {}
            }
        }
        self.scratch.avatars = avatars;
    }

    /// Sends one avatar update toward `peer`.
    fn send_update(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        peer: NodeId,
        avatar: AvatarId,
        estimate: &QuantizedSnapshot,
        now: SimTime,
    ) {
        let anchor = self
            .local_anchors
            .get(&avatar)
            .copied()
            .unwrap_or_else(|| AnchorFrame::seat(Default::default()));
        let size = self.link.send_update(ctx, peer, avatar, estimate, now, anchor);
        ctx.metrics().inc("edge.updates_sent");
        ctx.metrics().add("edge.update_bytes", size as u64);
    }

    /// One budgeted replication pass; returns the number of (peer, avatar)
    /// sends *demanded* this tick, the shedder's pressure signal.
    fn replicate_local(&mut self, ctx: &mut Context<'_, ClassMsg>) -> usize {
        if self.link.sheds_tick(ctx) {
            return 0;
        }
        let now = ctx.now();
        let budget = self.link.egress_budget();
        let peers = self.link.peers();
        let TickScratch { mut sent_per_peer, mut flushed, mut avatars } =
            std::mem::take(&mut self.scratch);
        sent_per_peer.clear();
        sent_per_peer.resize(peers.len(), 0);
        flushed.clear();
        let mut demand = 0usize;
        // Refreshes deferred by an earlier budget crunch go out first, from
        // the avatar's *current* estimate, bypassing dead-reckoning
        // suppression — so no peer is starved of an update it was owed.
        for (&peer, sent) in peers.iter().zip(&mut sent_per_peer) {
            while *sent < budget {
                let Some(avatar) = self.link.pop_deferred(peer) else {
                    break;
                };
                let estimate = match self.fusion.get_mut(&avatar) {
                    Some(f) if f.is_initialized() => f.estimate_at(now),
                    _ => continue,
                };
                demand += 1;
                let estimate = QuantizedSnapshot::new(self.link.codec(), &estimate);
                self.send_update(ctx, peer, avatar, &estimate, now);
                *sent += 1;
                flushed.push((peer, avatar));
            }
        }
        avatars.clear();
        avatars.extend(self.fusion.keys().copied());
        for &avatar in &avatars {
            let fusion = self.fusion.get_mut(&avatar).expect("present");
            if !fusion.is_initialized() {
                continue;
            }
            let estimate = fusion.estimate_at(now);
            if !self.link.should_replicate(now, avatar, &estimate) {
                ctx.metrics().inc("edge.updates_suppressed");
                continue;
            }
            // Quantized once; each peer's stream only packs the integers.
            let estimate = QuantizedSnapshot::new(self.link.codec(), &estimate);
            for (&peer, sent) in peers.iter().zip(&mut sent_per_peer) {
                if flushed.contains(&(peer, avatar)) {
                    continue; // already refreshed from the backlog this tick
                }
                if self.link.skips(peer) {
                    ctx.metrics().inc("edge.updates_skipped_unhealthy_peer");
                    continue;
                }
                demand += 1;
                if *sent >= budget {
                    // Egress budget exhausted toward this peer: defer.
                    self.link.defer(ctx, peer, avatar);
                    ctx.metrics().inc("overload.egress_deferred");
                    continue;
                }
                *sent += 1;
                self.send_update(ctx, peer, avatar, &estimate, now);
            }
        }
        self.scratch = TickScratch { sent_per_peer, flushed, avatars };
        demand
    }

    fn on_remote_update(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        frame: PoseFrame,
        captured_at: SimTime,
        anchor: AnchorFrame,
    ) {
        // A stream's source is whoever opened it.
        self.link.sources.entry(avatar).or_insert(from);
        let state = match self.link.on_frame(ctx, from, avatar, &frame) {
            Inbound::State(state) => state,
            Inbound::KeyframeRequested => {
                ctx.metrics().inc("edge.keyframe_requests");
                return;
            }
            Inbound::Nothing => return,
        };
        let inbound = ctx.now().duration_since(captured_at);
        ctx.metrics().histogram("edge.remote_update_latency_ns").record(inbound.as_nanos());
        match self.seats.assign(avatar) {
            Ok(_) => {
                let seat = *self.seats.anchor_of(avatar).expect("just assigned");
                let (retargeted, report) = retarget(&state, &anchor, &seat);
                if report.clamp_distance > 0.0 {
                    ctx.metrics().inc("edge.retarget_clamps");
                }
                self.remote_latest.insert(avatar, (retargeted, captured_at));
                // Quantized once for every headset in the room.
                let state = self.link.codec().quantize(&retargeted);
                ClassMsg::DisplayUpdate { avatar, state, captured_at, pinned: false }
                    .send_to_all(ctx, self.headsets.values().copied());
            }
            Err(_) => {
                ctx.metrics().inc("edge.seat_rejects");
            }
        }
    }
}

impl Node<ClassMsg> for EdgeServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        self.link.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        if !self.link.on_timer(ctx, timer) {
            return;
        }
        let demand = self.replicate_local(ctx);
        // The budget is per peer, so the ladder sees demand against all of
        // them.
        let budget = self.link.egress_budget() * self.link.peers().len().max(1);
        self.link.finish_tick(ctx, demand, budget);
        self.apply_presentations(ctx);
        self.link.arm_tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId, msg: ClassMsg) {
        self.link.heard(ctx, from);
        match msg {
            ClassMsg::HeadsetPose { avatar, measurement, captured_at } => {
                self.fusion.entry(avatar).or_default().ingest(captured_at, &measurement);
                let sensor_delay = ctx.now().duration_since(captured_at);
                ctx.metrics().histogram("edge.sensor_latency_ns").record(sensor_delay.as_nanos());
            }
            ClassMsg::RoomPose { avatar, measurement, captured_at } => {
                self.fusion.entry(avatar).or_default().ingest(captured_at, &measurement);
            }
            ClassMsg::HeadsetExpression { avatar, frame } => {
                self.fusion.entry(avatar).or_default().ingest_expression(frame);
            }
            ClassMsg::AvatarUpdate { avatar, frame, captured_at, anchor } => {
                self.on_remote_update(ctx, from, avatar, frame, captured_at, anchor);
            }
            ClassMsg::Interaction { avatar, seq, event, captured_at } => {
                // Local participants' events fan out to every peer server.
                let relay = self.local_anchors.contains_key(&avatar);
                let delivered =
                    self.link.on_interaction(ctx, from, avatar, seq, event, captured_at, relay);
                if delivered > 0 {
                    let delay = ctx.now().duration_since(captured_at);
                    ctx.metrics()
                        .histogram("interaction.latency_ns")
                        .record_n(delay.as_nanos(), delivered);
                }
            }
            other => self.link.on_control(ctx, from, other),
        }
    }

    fn on_crash(&mut self) {
        // A crashed edge loses all volatile session state; the deployment
        // configuration (peers, roster, anchors) survives.
        self.link.on_crash();
        self.fusion.clear();
        self.seats = SeatAllocator::new(self.seats.layout().clone());
        self.remote_latest.clear();
        self.frozen.clear();
    }
}
