//! The server core: the one inter-server link of Figure 3.
//!
//! §3.2's "real-time transmission link" joins every pair of servers — edge
//! to edge and edge to cloud alike — so [`EdgeServerNode`] and
//! [`CloudServerNode`] each own one [`ServerLink`]: heartbeat failure
//! detection with resync on return, dead-reckoned snapshot streams with
//! keyframe recovery, reliable interaction relay, and the shed ladder over a
//! bounded egress backlog. What the two servers do *with* the link (sensor
//! fusion and local display, or the auditorium and audience fan-out) stays
//! in their own modules; what differs *inside* it is data ([`LinkRole`]).
//!
//! [`EdgeServerNode`]: crate::EdgeServerNode
//! [`CloudServerNode`]: crate::CloudServerNode

use std::collections::BTreeMap;
use std::sync::Arc;

use metaclass_avatar::{AnchorFrame, AvatarCodec, AvatarId, AvatarState, CodecConfig, SpaceBounds};
use metaclass_netsim::{Context, NodeId, SimDuration, SimTime, Timer};
use metaclass_sync::{
    BoundedQueue, DeadReckoningConfig, DeadReckoningSender, InteractionEvent, OverflowPolicy,
    PoseFrame, QuantizedSnapshot, ReliableReceiver, ReliableSender, SnapshotReceiver,
    SnapshotSender,
};

use crate::health::{HeartbeatConfig, PeerEvent, PeerHealth, RemoteAvatarPresentation};
use crate::messages::ClassMsg;
use crate::overload::{LoadShedder, OverloadConfig, ShedLevel};

/// Retransmission timeout for relayed interaction streams.
const INTERACTION_RTO: SimDuration = SimDuration::from_millis(150);

/// Capacity of the bounded interaction log (drop-new).
const INTERACTION_LOG_CAPACITY: usize = 4096;

/// The codec agreement used across the whole session: auditorium-sized
/// bounds at 15 bits (≈ 3 mm grid), so both classroom and VR-auditorium
/// coordinates encode cleanly. Server and client configurations default to
/// it.
pub fn protocol_codec() -> CodecConfig {
    CodecConfig { bounds: SpaceBounds::auditorium(), position_bits: 15, ..CodecConfig::default() }
}

/// Tuning of a classroom/cloud server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Dead-reckoning thresholds for outbound replication.
    pub dead_reckoning: DeadReckoningConfig,
    /// Keyframe cadence of the snapshot streams.
    pub keyframe_interval: u64,
    /// Avatar codec configuration (bounds must contain the classroom).
    pub codec: CodecConfig,
    /// Heartbeat failure detection and degradation tuning.
    pub heartbeat: HeartbeatConfig,
    /// Flash-crowd overload control (admission, bounded queues, shedding).
    pub overload: OverloadConfig,
}

impl ServerConfig {
    /// Replication tick rate (evaluation + fan-out cadence), Hz.
    pub const TICK_HZ: f64 = 60.0;
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            dead_reckoning: DeadReckoningConfig::default(),
            keyframe_interval: 60,
            codec: protocol_codec(),
            heartbeat: HeartbeatConfig::default(),
            overload: OverloadConfig::default(),
        }
    }
}

/// Everything that differs between the two ends of the link: the timer tags
/// (part of the trace fingerprint) and the metric names.
pub(crate) struct LinkRole {
    pub tick_tag: u64,
    pub heartbeat_tag: u64,
    pub peer_returns: &'static str,
    pub peer_degraded: &'static str,
    pub peer_down: &'static str,
    pub interactions_delivered: &'static str,
    pub decode_errors: &'static str,
    pub ticks_shed: &'static str,
}

/// What one inbound snapshot frame amounted to.
pub(crate) enum Inbound {
    /// Decoded and acknowledged.
    State(AvatarState),
    /// A delta without its reference: a keyframe was requested.
    KeyframeRequested,
    /// Undecodable or stale: nothing to apply.
    Nothing,
}

/// One server's end of the inter-server link. `K` keys the egress backlog:
/// the cloud defers per client avatar, an edge per peer server.
pub(crate) struct ServerLink<K> {
    cfg: ServerConfig,
    role: &'static LinkRole,
    peers: Arc<[NodeId]>,
    /// Failure detector per peer server.
    health: BTreeMap<NodeId, PeerHealth>,
    /// Ticks since (re)start; drives degraded-stride and shed-stride sending.
    pub tick_count: u64,
    dead_reckoners: BTreeMap<AvatarId, DeadReckoningSender>,
    /// The codec every outbound stream is configured with; quantizes a state
    /// once for all of them.
    codec: AvatarCodec,
    senders: BTreeMap<(NodeId, AvatarId), SnapshotSender>,
    receivers: BTreeMap<AvatarId, SnapshotReceiver>,
    /// Which node feeds each inbound stream (for health attribution); the
    /// owning server decides when a source is recorded.
    pub sources: BTreeMap<AvatarId, NodeId>,
    interaction_rx: BTreeMap<AvatarId, ReliableReceiver<InteractionEvent>>,
    /// Outbound interaction relays, per (peer, avatar).
    interaction_tx: BTreeMap<(NodeId, AvatarId), ReliableSender<InteractionEvent>>,
    /// Every interaction observed here, in delivery order (bounded,
    /// drop-new: under overload old evidence beats new noise).
    interaction_log: BoundedQueue<(AvatarId, InteractionEvent)>,
    /// Fidelity ladder driven by egress pressure.
    pub shedder: LoadShedder,
    /// Refreshes deferred past the egress budget (drop-oldest: a newer
    /// refresh supersedes a stale one).
    backlog: BTreeMap<K, BoundedQueue<AvatarId>>,
}

impl<K: Ord + Copy> ServerLink<K> {
    pub fn new(cfg: ServerConfig, role: &'static LinkRole, peers: Vec<NodeId>) -> Self {
        let health =
            peers.iter().map(|&p| (p, PeerHealth::new(cfg.heartbeat, SimTime::ZERO))).collect();
        ServerLink {
            cfg,
            role,
            peers: peers.into(),
            health,
            tick_count: 0,
            dead_reckoners: BTreeMap::new(),
            codec: AvatarCodec::new(cfg.codec),
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            sources: BTreeMap::new(),
            interaction_rx: BTreeMap::new(),
            interaction_tx: BTreeMap::new(),
            interaction_log: BoundedQueue::new(
                INTERACTION_LOG_CAPACITY,
                OverflowPolicy::DropNewest,
            ),
            shedder: LoadShedder::new(),
            backlog: BTreeMap::new(),
        }
    }

    /// The peer servers, in deployment order (a cheap shared handle, so a
    /// caller can walk them while sending through the link).
    pub fn peers(&self) -> Arc<[NodeId]> {
        Arc::clone(&self.peers)
    }

    pub fn health(&self, peer: NodeId) -> Option<&PeerHealth> {
        self.health.get(&peer)
    }

    /// How `avatar` should be presented given the health of its recorded
    /// source; `Live` when the source is not a monitored peer.
    pub fn presentation_of(&self, avatar: AvatarId, now: SimTime) -> RemoteAvatarPresentation {
        self.sources
            .get(&avatar)
            .and_then(|source| self.health.get(source))
            .map(|h| h.presentation(now))
            .unwrap_or(RemoteAvatarPresentation::Live)
    }

    pub fn interaction_log(&self) -> &BoundedQueue<(AvatarId, InteractionEvent)> {
        &self.interaction_log
    }

    pub fn backlogs(&self) -> impl Iterator<Item = (K, &BoundedQueue<AvatarId>)> {
        self.backlog.iter().map(|(k, q)| (*k, q))
    }

    /// The configured per-tick egress budget (at least one).
    pub fn egress_budget(&self) -> usize {
        self.cfg.overload.egress_budget_per_tick.max(1)
    }

    pub fn on_start(&self, ctx: &mut Context<'_, ClassMsg>) {
        self.arm_tick(ctx);
        if !self.peers.is_empty() {
            ctx.set_timer(self.cfg.heartbeat.interval, self.role.heartbeat_tag);
        }
    }

    /// Handles a timer. Heartbeats are sent here. Returns `true` when the
    /// replication tick fired — counted, peers' liveness re-evaluated — and
    /// the caller owes its budgeted pass, then [`Self::finish_tick`] and
    /// [`Self::arm_tick`].
    pub fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) -> bool {
        let now = ctx.now();
        if timer.tag == self.role.heartbeat_tag {
            for &peer in self.peers.iter() {
                ClassMsg::Heartbeat { sent_at: now }.send_to(ctx, peer);
            }
            ctx.set_timer(self.cfg.heartbeat.interval, self.role.heartbeat_tag);
            return false;
        }
        if timer.tag != self.role.tick_tag {
            return false;
        }
        self.tick_count += 1;
        for health in self.health.values_mut() {
            match health.poll(now) {
                Some(PeerEvent::Degraded) => ctx.metrics().inc(self.role.peer_degraded),
                Some(PeerEvent::Down) => ctx.metrics().inc(self.role.peer_down),
                _ => {}
            }
        }
        true
    }

    /// Whether the fidelity ladder suppresses this tick's sends.
    pub fn sheds_tick(&mut self, ctx: &mut Context<'_, ClassMsg>) -> bool {
        let level = self.shedder.level();
        if level.sends_on_tick(self.tick_count) {
            return false;
        }
        ctx.metrics().inc(self.role.ticks_shed);
        // A frozen spectator tick sends nothing, so deferred refreshes would
        // otherwise sit in the backlog forever, pinning the pressure signal
        // high and wedging the ladder at Spectator. Discarding them is safe:
        // they are only service-order hints, and the sender's own selection
        // (interest at the cloud, dead reckoning at an edge) re-picks any
        // still-stale pair once sending resumes.
        if level == ShedLevel::Spectator {
            let discarded: usize = self.backlog.values().map(|q| q.len()).sum();
            if discarded > 0 {
                for q in self.backlog.values_mut() {
                    q.clear();
                }
                ctx.metrics().add("overload.spectator_backlog_discarded", discarded as u64);
            }
        }
        true
    }

    /// Closes a tick: feeds the ladder the worse of this tick's
    /// demand-to-`budget` ratio and the backlog fill fraction, then pumps
    /// the reliable retransmissions of relayed interactions.
    pub fn finish_tick(&mut self, ctx: &mut Context<'_, ClassMsg>, demand: usize, budget: usize) {
        let now = ctx.now();
        let demand_ratio = demand as f64 / budget as f64;
        let backlog_len: usize = self.backlog.values().map(|q| q.len()).sum();
        let backlog_cap: usize = self.backlog.values().map(|q| q.capacity()).sum();
        let backlog_ratio =
            if backlog_cap == 0 { 0.0 } else { backlog_len as f64 / backlog_cap as f64 };
        let utilization = demand_ratio.max(backlog_ratio);
        ctx.metrics().histogram("overload.utilization_milli").record((utilization * 1000.0) as u64);
        if let Some(t) = self.shedder.observe(now, utilization) {
            ctx.metrics().inc("overload.shed_transitions");
            ctx.metrics().add("overload.shed_level", t.to.rung() as u64);
        }
        for ((peer, avatar), tx) in self.interaction_tx.iter_mut() {
            for (seq, event) in tx.due_retransmits(now) {
                ClassMsg::Interaction { avatar: *avatar, seq, event, captured_at: now }
                    .send_to(ctx, *peer);
            }
        }
    }

    pub fn arm_tick(&self, ctx: &mut Context<'_, ClassMsg>) {
        ctx.set_timer(SimDuration::from_rate_hz(ServerConfig::TICK_HZ), self.role.tick_tag);
    }

    /// Any traffic from a peer server counts as liveness. A peer back from
    /// an outage lost its receive state, so every snapshot stream toward it
    /// restarts from a keyframe and its reliable interaction streams are
    /// rebuilt carrying the outstanding tail.
    pub fn heard(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId) {
        let now = ctx.now();
        let returned = self
            .health
            .get_mut(&from)
            .is_some_and(|health| health.on_heard(now) == Some(PeerEvent::Returned));
        if !returned {
            return;
        }
        ctx.metrics().inc(self.role.peer_returns);
        for (_, sender) in self.senders.iter_mut().filter(|((peer, _), _)| *peer == from) {
            sender.request_keyframe();
        }
        for ((_, avatar), tx) in
            self.interaction_tx.iter_mut().filter(|((peer, _), _)| *peer == from)
        {
            let mut fresh = ReliableSender::new(INTERACTION_RTO);
            for ev in tx.take_outstanding() {
                let (seq, wire) = fresh.send(ev, now);
                if let Some(event) = wire {
                    ClassMsg::Interaction { avatar: *avatar, seq, event, captured_at: now }
                        .send_to(ctx, from);
                }
            }
            *tx = fresh;
        }
    }

    /// The protocol's bookkeeping messages, identical at both ends: stream
    /// acknowledgements, keyframe requests and clock probes. Heartbeats and
    /// anything unknown need no more than the liveness already recorded.
    pub fn on_control(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId, msg: ClassMsg) {
        match msg {
            ClassMsg::AvatarAck { avatar, seq } => {
                if let Some(sender) = self.senders.get_mut(&(from, avatar)) {
                    sender.on_ack(seq);
                }
            }
            ClassMsg::KeyframeRequest { avatar } => {
                if let Some(sender) = self.senders.get_mut(&(from, avatar)) {
                    sender.request_keyframe();
                }
            }
            ClassMsg::InteractionAck { avatar, seq } => {
                if let Some(tx) = self.interaction_tx.get_mut(&(from, avatar)) {
                    tx.on_ack_at(seq, ctx.now());
                }
            }
            ClassMsg::ClockProbe { nonce, client_send } => {
                ClassMsg::ClockReply { nonce, client_send, server_time: ctx.now() }
                    .send_to(ctx, from);
            }
            _ => {}
        }
    }

    /// Reliable receive of one interaction packet: cumulative ack to `from`,
    /// then every event now in sequence is logged and, when `relay` is set
    /// (the avatar is homed at this server), relayed reliably to every peer
    /// but the one it came from. Returns how many events were delivered.
    #[allow(clippy::too_many_arguments)]
    pub fn on_interaction(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        seq: u64,
        event: InteractionEvent,
        captured_at: SimTime,
        relay: bool,
    ) -> u64 {
        let rx = self.interaction_rx.entry(avatar).or_default();
        let ready = rx.on_packet(seq, event);
        if let Some(ack) = rx.cumulative_ack() {
            ClassMsg::InteractionAck { avatar, seq: ack }.send_to(ctx, from);
        }
        let delivered = ready.len() as u64;
        for ev in ready {
            ctx.metrics().inc(self.role.interactions_delivered);
            if relay {
                for &peer in self.peers.iter().filter(|&&p| p != from) {
                    let tx = self
                        .interaction_tx
                        .entry((peer, avatar))
                        .or_insert_with(|| ReliableSender::new(INTERACTION_RTO));
                    let (seq, wire) = tx.send(ev.clone(), ctx.now());
                    if let Some(event) = wire {
                        ClassMsg::Interaction { avatar, seq, event, captured_at }
                            .send_to(ctx, peer);
                    }
                }
            }
            if self.interaction_log.push((avatar, ev)).is_some() {
                ctx.metrics().inc("overload.interaction_log_dropped");
            }
        }
        delivered
    }

    /// Decodes one inbound snapshot frame of `avatar`'s stream, answering
    /// `from` with an acknowledgement or a keyframe request.
    pub fn on_frame(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        frame: &PoseFrame,
    ) -> Inbound {
        let receiver = self
            .receivers
            .entry(avatar)
            .or_insert_with(|| SnapshotReceiver::new(self.codec.clone()));
        match receiver.decode(frame) {
            Err(_) => {
                ctx.metrics().inc(self.role.decode_errors);
                Inbound::Nothing
            }
            Ok(None) => {
                if receiver.take_keyframe_request() {
                    ClassMsg::KeyframeRequest { avatar }.send_to(ctx, from);
                    Inbound::KeyframeRequested
                } else {
                    Inbound::Nothing
                }
            }
            Ok(Some(state)) => {
                if let Some(seq) = receiver.ack_seq() {
                    ClassMsg::AvatarAck { avatar, seq }.send_to(ctx, from);
                }
                Inbound::State(state)
            }
        }
    }

    /// Dead-reckoning gate of `avatar`'s outbound replication: `true` (and
    /// marked sent) when peers could no longer extrapolate `state`.
    pub fn should_replicate(
        &mut self,
        now: SimTime,
        avatar: AvatarId,
        state: &AvatarState,
    ) -> bool {
        let dr = self
            .dead_reckoners
            .entry(avatar)
            .or_insert_with(|| DeadReckoningSender::new(self.cfg.dead_reckoning));
        if dr.should_send(now, state) {
            dr.mark_sent(now, *state);
            true
        } else {
            dr.mark_suppressed();
            false
        }
    }

    /// Whether this tick's update toward `peer` is skipped because the peer
    /// is degraded (stride sending) or down.
    pub fn skips(&self, peer: NodeId) -> bool {
        self.health.get(&peer).is_some_and(|h| h.should_skip_send(self.tick_count))
    }

    /// The codec every stream of this link is configured with: a state for
    /// [`Self::send_update`] is quantized with it once per avatar per tick,
    /// however many peers it then goes to, and so is every state a server
    /// shows its displays.
    pub fn codec(&self) -> &AvatarCodec {
        &self.codec
    }

    /// Encodes `state` on the (`peer`, `avatar`) snapshot stream, created on
    /// demand, and sends it; returns the wire size.
    pub fn send_update(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        peer: NodeId,
        avatar: AvatarId,
        state: &QuantizedSnapshot,
        captured_at: SimTime,
        anchor: AnchorFrame,
    ) -> u32 {
        let sender = self
            .senders
            .entry((peer, avatar))
            .or_insert_with(|| SnapshotSender::new(self.codec.clone(), self.cfg.keyframe_interval));
        let frame = sender.encode_quantized(state);
        ClassMsg::AvatarUpdate { avatar, frame, captured_at, anchor }.send_to(ctx, peer)
    }

    /// Defers a refresh of `avatar` the egress budget had no room for.
    pub fn defer(&mut self, ctx: &mut Context<'_, ClassMsg>, key: K, avatar: AvatarId) {
        let backlog = self.backlog.entry(key).or_insert_with(|| {
            BoundedQueue::new(self.cfg.overload.backlog_capacity, OverflowPolicy::DropOldest)
        });
        if backlog.push(avatar).is_some() {
            ctx.metrics().inc("overload.backlog_dropped");
        }
    }

    /// The oldest refresh deferred under `key`, if any.
    pub fn pop_deferred(&mut self, key: K) -> Option<AvatarId> {
        self.backlog.get_mut(&key)?.pop()
    }

    /// A crashed server loses all volatile link state; the deployment
    /// configuration (peers, tuning) survives.
    pub fn on_crash(&mut self) {
        self.dead_reckoners.clear();
        self.senders.clear();
        self.receivers.clear();
        self.sources.clear();
        self.interaction_rx.clear();
        self.interaction_tx.clear();
        self.interaction_log.clear();
        for health in self.health.values_mut() {
            health.reset();
        }
        self.tick_count = 0;
        self.shedder.reset();
        self.backlog.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientConfig;

    #[test]
    fn both_ends_default_to_the_protocol_codec() {
        assert_eq!(ServerConfig::default().codec, protocol_codec());
        assert_eq!(ClientConfig::default().codec, protocol_codec());
    }
}
