//! The remote VR client ("Digital Metaverse Classroom Online in VR", §3.2):
//! a learner joining from home through a VR headset or computer.
//!
//! Joining is gated by the cloud's admission controller: the client sends
//! [`ClassMsg::JoinRequest`] and retries with jittered exponential backoff
//! (reusing the RFC 6298 [`RtoEstimator`] machinery) until admitted. Pose
//! upload and interactions stay silent until then; clock probes always run,
//! doubling as liveness probes — when they reveal that the serving cloud
//! restarted (heartbeat-detected [`PeerEvent::Returned`]), the client
//! re-joins from scratch with a reset backoff, so a join racing a server
//! crash can never wedge.

use metaclass_avatar::{AvatarCodec, AvatarId, AvatarState, CodecConfig, QuantizedState};
use metaclass_netsim::{Context, Node, NodeId, SimDuration, SimTime, Timer};
use metaclass_sensors::{MotionScript, Trajectory};
use metaclass_sync::{
    DeadReckoningConfig, DeadReckoningSender, InteractionEvent, JitterBuffer, JitterBufferConfig,
    OffsetEstimator, ReliableSender, RtoEstimator, SnapshotSender,
};

use crate::health::{HeartbeatConfig, PeerEvent, PeerHealth};
use crate::messages::ClassMsg;
use crate::platform::DevicePlatform;
use crate::server::protocol_codec;

const TAG_POSE: u64 = 30;
const TAG_CLOCK: u64 = 31;
const TAG_INTERACT: u64 = 32;
const TAG_JOIN: u64 = 33;
const TAG_MOVE: u64 = 34;

/// Retry interval for a room move that fires before the client is admitted
/// (the move waits for admission rather than being dropped).
const MOVE_RETRY: SimDuration = SimDuration::from_millis(500);

/// Retransmission timeout for the reliable interaction stream.
const INTERACTION_RTO: SimDuration = SimDuration::from_millis(200);

/// Initial/min/max timeout for join-request retries.
const JOIN_RTO_INITIAL: SimDuration = SimDuration::from_millis(500);
const JOIN_RTO_MIN: SimDuration = SimDuration::from_millis(250);
const JOIN_RTO_MAX: SimDuration = SimDuration::from_secs(8);

/// Tuning of a remote client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Own-pose upload cadence.
    pub pose_rate: SimDuration,
    /// Clock-probe cadence.
    pub clock_probe_interval: SimDuration,
    /// Dead-reckoning thresholds for uploads.
    pub dead_reckoning: DeadReckoningConfig,
    /// Playout buffering for displayed remote avatars.
    pub jitter: JitterBufferConfig,
    /// Avatar codec configuration — must match the serving cloud's.
    pub codec: CodecConfig,
    /// Failure detection toward the serving cloud, fed by clock-probe
    /// replies (which double as liveness probes).
    pub heartbeat: HeartbeatConfig,
    /// How long after start the first join request goes out (cohorts use
    /// this to stagger a flash crowd).
    pub join_delay: SimDuration,
    /// The hardware class this client attends through. Drives the
    /// interaction-channel cadence directly; pose rate, dead reckoning, and
    /// playout buffering are derived from it by
    /// [`DevicePlatform::apply`](crate::DevicePlatform::apply).
    pub platform: DevicePlatform,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            pose_rate: SimDuration::from_rate_hz(30.0),
            clock_probe_interval: SimDuration::from_millis(500),
            dead_reckoning: DeadReckoningConfig::default(),
            jitter: JitterBufferConfig::default(),
            codec: protocol_codec(),
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_millis(500),
                degraded_after: SimDuration::from_secs(2),
                timeout: SimDuration::from_secs(5),
                hold: SimDuration::from_secs(1),
            },
            join_delay: SimDuration::ZERO,
            platform: DevicePlatform::VrHeadset,
        }
    }
}

/// Where the client stands with the cloud's admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinPhase {
    /// `join_delay` has not elapsed; nothing sent yet.
    Waiting,
    /// A join request is in flight (or being retried with backoff).
    Joining,
    /// Admitted: pose upload and interactions are live.
    Admitted,
}

/// A remote learner's VR client.
pub struct RemoteClientNode {
    avatar: AvatarId,
    server: NodeId,
    cfg: ClientConfig,
    trajectory: Trajectory,
    uplink: SnapshotSender,
    dead_reckoner: DeadReckoningSender,
    /// Remote avatars on display, ascending; `buffers[i]` plays out
    /// `displayed[i]`.
    displayed: Vec<AvatarId>,
    /// Playout buffers of the grid states the cloud sends, dequantized
    /// only when sampled, with the uplink's codec: the session codec the
    /// cloud quantized them with (see [`ClientConfig::codec`]).
    buffers: Vec<JitterBuffer<QuantizedState>>,
    clock: OffsetEstimator,
    next_nonce: u64,
    interactions: ReliableSender<InteractionEvent>,
    interact_rng: metaclass_netsim::DetRng,
    hand_raised: bool,
    join: JoinPhase,
    join_rto: RtoEstimator,
    join_rng: metaclass_netsim::DetRng,
    join_attempt: u32,
    join_started_at: Option<SimTime>,
    /// Server-hinted earliest next join attempt (from a deferral).
    earliest_rejoin: SimTime,
    server_health: PeerHealth,
    joins_sent: u64,
    joins_deferred: u64,
    joins_rejected: u64,
    updates_received: u64,
    /// Scheduled inter-room moves, `(session time, target room)`, sorted.
    mobility: Vec<(SimDuration, u32)>,
    /// Next pending entry of `mobility`.
    mobility_idx: usize,
    /// The virtual room this client believes it occupies (0 at start).
    current_room: u32,
    room_moves_sent: u64,
}

impl RemoteClientNode {
    /// Creates a client for `avatar`, connected to `server`, moving through
    /// the virtual classroom along `script`.
    pub fn new(
        avatar: AvatarId,
        server: NodeId,
        cfg: ClientConfig,
        script: MotionScript,
        seed: u64,
    ) -> Self {
        RemoteClientNode {
            avatar,
            server,
            cfg,
            trajectory: Trajectory::new(script, seed),
            uplink: SnapshotSender::new(AvatarCodec::new(cfg.codec), 60),
            dead_reckoner: DeadReckoningSender::new(cfg.dead_reckoning),
            displayed: Vec::new(),
            buffers: Vec::new(),
            clock: OffsetEstimator::new(16),
            next_nonce: 0,
            interactions: ReliableSender::new(INTERACTION_RTO),
            interact_rng: metaclass_netsim::DetRng::new(seed).derive(0x4942),
            hand_raised: false,
            join: JoinPhase::Waiting,
            join_rto: RtoEstimator::new(JOIN_RTO_INITIAL, JOIN_RTO_MIN, JOIN_RTO_MAX),
            join_rng: metaclass_netsim::DetRng::new(seed).derive(0x4A4F),
            join_attempt: 0,
            join_started_at: None,
            earliest_rejoin: SimTime::ZERO,
            server_health: PeerHealth::new(cfg.heartbeat, SimTime::ZERO),
            joins_sent: 0,
            joins_deferred: 0,
            joins_rejected: 0,
            updates_received: 0,
            mobility: Vec::new(),
            mobility_idx: 0,
            current_room: 0,
            room_moves_sent: 0,
        }
    }

    /// Schedules inter-room moves for this client: at each `(when, room)`
    /// the client announces a [`ClassMsg::RoomChange`] to the cloud (waiting
    /// for admission first if necessary). Entries are sorted by time; call
    /// before the node is added to the simulation.
    pub fn with_mobility(mut self, mut plan: Vec<(SimDuration, u32)>) -> Self {
        plan.sort_by_key(|&(at, _)| at);
        self.mobility = plan;
        self.mobility_idx = 0;
        self
    }

    /// The virtual room this client last announced (0 before any move).
    pub fn current_room(&self) -> u32 {
        self.current_room
    }

    /// Room-change announcements actually sent so far.
    pub fn room_moves_sent(&self) -> u64 {
        self.room_moves_sent
    }

    /// This client's avatar id.
    pub fn avatar(&self) -> AvatarId {
        self.avatar
    }

    /// Number of remote avatars this client currently displays.
    pub fn displayed_count(&self) -> usize {
        self.displayed.len()
    }

    /// The displayed (buffered/interpolated) state of a remote avatar.
    pub fn displayed_state(&mut self, avatar: AvatarId, now: SimTime) -> Option<AvatarState> {
        let at = self.displayed.binary_search(&avatar).ok()?;
        self.buffers[at].sample_with(now, |grid| self.uplink.codec().dequantize(grid))
    }

    /// The client's clock-offset estimator (populated by probe replies).
    pub fn clock(&self) -> &OffsetEstimator {
        &self.clock
    }

    /// Whether the cloud has admitted this client.
    pub fn is_admitted(&self) -> bool {
        self.join == JoinPhase::Admitted
    }

    /// Display updates received so far (the client-side goodput counter).
    pub fn updates_received(&self) -> u64 {
        self.updates_received
    }

    /// Join-protocol totals: (requests sent, deferrals seen, rejections
    /// seen).
    pub fn join_stats(&self) -> (u64, u64, u64) {
        (self.joins_sent, self.joins_deferred, self.joins_rejected)
    }

    /// Sends one join request and arms the jittered-backoff retry timer.
    fn send_join(&mut self, ctx: &mut Context<'_, ClassMsg>, now: SimTime) {
        self.join = JoinPhase::Joining;
        self.join_attempt += 1;
        self.joins_sent += 1;
        self.join_started_at.get_or_insert(now);
        ctx.metrics().inc("client.joins_sent");
        ClassMsg::JoinRequest { avatar: self.avatar, attempt: self.join_attempt }
            .send_to(ctx, self.server);
        let retry = self.jittered(self.join_rto.rto());
        self.join_rto.backoff();
        ctx.set_timer(retry, TAG_JOIN);
    }

    /// ±15% deterministic jitter so a flash crowd's retries decorrelate.
    fn jittered(&mut self, base: SimDuration) -> SimDuration {
        base.mul_f64(self.join_rng.range_f64(0.85, 1.15))
    }

    /// The serving cloud returned from an outage (or crash-restarted): its
    /// admission state is gone, so re-join from scratch with fresh backoff.
    /// Idempotent admission means this is safe even if the cloud never
    /// actually lost us — it simply re-answers `JoinAccepted`.
    fn rejoin_after_return(&mut self, ctx: &mut Context<'_, ClassMsg>, now: SimTime) {
        if self.join == JoinPhase::Waiting {
            return;
        }
        ctx.metrics().inc("client.rejoins_after_server_return");
        self.join_rto = RtoEstimator::new(JOIN_RTO_INITIAL, JOIN_RTO_MIN, JOIN_RTO_MAX);
        self.earliest_rejoin = now;
        self.send_join(ctx, now);
    }
}

impl Node<ClassMsg> for RemoteClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        ctx.set_timer(self.cfg.pose_rate, TAG_POSE);
        ctx.set_timer(SimDuration::from_millis(1), TAG_CLOCK);
        if let Some(((first_min, first_max), _)) = self.cfg.platform.interaction_bounds() {
            let first =
                SimDuration::from_secs_f64(self.interact_rng.range_f64(first_min, first_max));
            ctx.set_timer(first, TAG_INTERACT);
        }
        ctx.set_timer(self.cfg.join_delay, TAG_JOIN);
        if let Some(&(at, _)) = self.mobility.first() {
            ctx.set_timer(at, TAG_MOVE);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        let now = ctx.now();
        match timer.tag {
            TAG_POSE => {
                if self.join == JoinPhase::Admitted {
                    let truth = self.trajectory.state_at(now.as_secs_f64());
                    if self.dead_reckoner.should_send(now, &truth) {
                        self.dead_reckoner.mark_sent(now, truth);
                        let frame = self.uplink.encode(&truth);
                        let size =
                            ClassMsg::ClientPose { avatar: self.avatar, frame, captured_at: now }
                                .send_to(ctx, self.server);
                        ctx.metrics().inc("client.poses_sent");
                        ctx.metrics().add("client.pose_bytes", size as u64);
                    } else {
                        self.dead_reckoner.mark_suppressed();
                    }
                    for (seq, event) in self.interactions.due_retransmits(now) {
                        ClassMsg::Interaction { avatar: self.avatar, seq, event, captured_at: now }
                            .send_to(ctx, self.server);
                    }
                }
                ctx.set_timer(self.cfg.pose_rate, TAG_POSE);
            }
            TAG_CLOCK => {
                if self.server_health.poll(now) == Some(PeerEvent::Down) {
                    ctx.metrics().inc("client.server_outages_seen");
                }
                self.next_nonce += 1;
                ClassMsg::ClockProbe { nonce: self.next_nonce, client_send: now }
                    .send_to(ctx, self.server);
                ctx.set_timer(self.cfg.clock_probe_interval, TAG_CLOCK);
            }
            TAG_INTERACT => {
                if self.join == JoinPhase::Admitted {
                    self.hand_raised = !self.hand_raised;
                    let (seq, wire) = self
                        .interactions
                        .send(InteractionEvent::RaiseHand { raised: self.hand_raised }, now);
                    if let Some(event) = wire {
                        ClassMsg::Interaction { avatar: self.avatar, seq, event, captured_at: now }
                            .send_to(ctx, self.server);
                    }
                    ctx.metrics().inc("client.interactions_sent");
                }
                // Only platforms with an input channel ever arm this timer.
                let (_, (steady_min, steady_max)) =
                    self.cfg.platform.interaction_bounds().expect("input channel present");
                let next =
                    SimDuration::from_secs_f64(self.interact_rng.range_f64(steady_min, steady_max));
                ctx.set_timer(next, TAG_INTERACT);
            }
            TAG_JOIN => {
                if self.join == JoinPhase::Admitted {
                    return;
                }
                if now < self.earliest_rejoin {
                    // A deferral hinted at a later retry: honor it.
                    ctx.set_timer(self.earliest_rejoin.duration_since(now), TAG_JOIN);
                    return;
                }
                self.send_join(ctx, now);
            }
            TAG_MOVE => {
                let Some(&(_, room)) = self.mobility.get(self.mobility_idx) else {
                    return;
                };
                if self.join != JoinPhase::Admitted {
                    // Not seated yet: a move before admission waits for it.
                    ctx.set_timer(MOVE_RETRY, TAG_MOVE);
                    return;
                }
                self.mobility_idx += 1;
                self.current_room = room;
                self.room_moves_sent += 1;
                ctx.metrics().inc("client.room_moves_sent");
                ClassMsg::RoomChange { avatar: self.avatar, room }.send_to(ctx, self.server);
                if let Some(&(at, _)) = self.mobility.get(self.mobility_idx) {
                    let delay = at.saturating_sub(SimDuration::from_nanos(now.as_nanos()));
                    ctx.set_timer(delay, TAG_MOVE);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, _from: NodeId, msg: ClassMsg) {
        let now = ctx.now();
        // Any inbound traffic proves the server alive; a Down → Up flip
        // means it was silent past the timeout — assume restart and re-join.
        if self.server_health.on_heard(now) == Some(PeerEvent::Returned) {
            self.rejoin_after_return(ctx, now);
        }
        match msg {
            // Only an edge pins, toward its headsets: the cloud's fan-out
            // never sets `pinned`.
            ClassMsg::DisplayUpdate { avatar, state, captured_at, pinned: _ } => {
                self.updates_received += 1;
                ctx.metrics()
                    .histogram("client.display_latency_ns")
                    .record(now.duration_since(captured_at).as_nanos());
                let at = self.displayed.binary_search(&avatar).unwrap_or_else(|at| {
                    self.displayed.insert(at, avatar);
                    self.buffers.insert(at, JitterBuffer::new(self.cfg.jitter));
                    at
                });
                self.buffers[at].push(captured_at, now, state);
            }
            ClassMsg::JoinAccepted { .. } if self.join != JoinPhase::Admitted => {
                self.join = JoinPhase::Admitted;
                ctx.metrics().inc("client.joins_admitted");
                if let Some(started) = self.join_started_at {
                    ctx.metrics()
                        .histogram("client.join_wait_ns")
                        .record(now.duration_since(started).as_nanos());
                }
            }
            ClassMsg::JoinAccepted { .. } => {}
            ClassMsg::JoinDeferred { retry_after, .. } if self.join == JoinPhase::Joining => {
                self.joins_deferred += 1;
                ctx.metrics().inc("client.joins_deferred");
                self.earliest_rejoin = now.saturating_add(retry_after);
            }
            ClassMsg::JoinDeferred { .. } => {}
            ClassMsg::JoinRejected { .. } => match self.join {
                JoinPhase::Joining => {
                    self.joins_rejected += 1;
                    ctx.metrics().inc("client.joins_rejected");
                    // Rejection is stronger than deferral: back off extra.
                    self.join_rto.backoff();
                    self.earliest_rejoin = now.saturating_add(self.join_rto.rto());
                }
                JoinPhase::Admitted => {
                    // The server no longer knows us (it restarted and wiped
                    // its admission set): re-join from scratch.
                    ctx.metrics().inc("client.rejoins_after_eviction");
                    self.join_rto = RtoEstimator::new(JOIN_RTO_INITIAL, JOIN_RTO_MIN, JOIN_RTO_MAX);
                    self.earliest_rejoin = now;
                    self.send_join(ctx, now);
                }
                JoinPhase::Waiting => {}
            },
            ClassMsg::AvatarAck { seq, .. } => {
                self.uplink.on_ack(seq);
            }
            ClassMsg::KeyframeRequest { .. } => {
                self.uplink.request_keyframe();
            }
            ClassMsg::InteractionAck { seq, .. } => {
                self.interactions.on_ack_at(seq, now);
            }
            ClassMsg::ClockReply { client_send, server_time, .. } => {
                self.clock.record(client_send, server_time, now);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_avatar::Vec3;
    use metaclass_netsim::{LinkClass, Simulation};

    /// A cloud that never answers.
    struct Silent;
    impl Node<ClassMsg> for Silent {
        fn on_message(&mut self, _: &mut Context<'_, ClassMsg>, _: NodeId, _: ClassMsg) {}
    }

    #[test]
    fn client_displays_the_grid_it_was_sent() {
        let mut sim: Simulation<ClassMsg> = Simulation::new(11);
        let cloud = sim.add_node("cloud", Silent);
        let script = MotionScript::SeatedLecture { seat: Vec3::new(1.0, 0.0, 1.0) };
        let cfg = ClientConfig::default();
        let client =
            sim.add_node("client", RemoteClientNode::new(AvatarId(5), cloud, cfg, script, 3));
        sim.connect(client, cloud, LinkClass::ResidentialAccess.config());
        let codec = AvatarCodec::new(cfg.codec);
        let mut remote = AvatarState::at_position(Vec3::new(12.3, 1.6, 40.7));
        remote.velocity = Vec3::new(0.4, 0.0, -0.2);
        let grid = codec.quantize(&remote);
        sim.inject(
            SimTime::from_millis(50),
            cloud,
            client,
            ClassMsg::DisplayUpdate {
                avatar: AvatarId(9),
                state: grid,
                captured_at: SimTime::from_millis(20),
                pinned: false,
            },
            78,
        );
        sim.run_until(SimTime::from_millis(60));
        let node = sim.node_as_mut::<RemoteClientNode>(client).unwrap();
        assert_eq!(node.updates_received(), 1);
        // Playout at 60 − 50 ms precedes the only state, so it is shown as
        // sent: the grid, dequantized with the session codec.
        let shown = node.displayed_state(AvatarId(9), SimTime::from_millis(60)).unwrap();
        let expected = codec.dequantize(&grid);
        assert!(shown.position_error(&expected) < 1e-9);
        assert!((shown.velocity - expected.velocity).norm() < 1e-9);
        assert!(shown.position_error(&remote) > 0.0, "the float state is not what travelled");
    }
}
