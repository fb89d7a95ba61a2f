//! Device actors: MR headsets and the room sensor array.
//!
//! These are the leaves of Figure 3: headsets sample their wearer and stream
//! measurements to the local edge server over WiFi; the room array does the
//! same for every local participant over wired LAN. Headsets also *display*:
//! they receive retargeted remote avatars on the edge's codec grid, and keep
//! per-avatar dead-reckoning receivers of the dequantized states, recording
//! display latency.

use std::collections::BTreeMap;

use metaclass_avatar::{AvatarCodec, AvatarId, AvatarState, CodecConfig, Vec3};
use metaclass_netsim::{Context, DetRng, Node, NodeId, SimDuration, SimTime, Timer};
use metaclass_sensors::{
    HeadsetConfig, HeadsetModel, MotionScript, RoomSensorArray, RoomSensorConfig, Trajectory,
};
use metaclass_sync::{DeadReckoningReceiver, InteractionEvent, ReliableSender};

use crate::messages::ClassMsg;

const TAG_POSE: u64 = 1;
const TAG_EXPRESSION: u64 = 2;
const TAG_ROOM: u64 = 3;
const TAG_INTERACT: u64 = 4;

/// Retransmission timeout for the reliable interaction stream.
const INTERACTION_RTO: SimDuration = SimDuration::from_millis(150);

/// An MR headset worn by one physical participant.
pub struct HeadsetNode {
    avatar: AvatarId,
    edge: NodeId,
    trajectory: Trajectory,
    model: HeadsetModel,
    /// The edge's codec, which the display updates are quantized with.
    codec: AvatarCodec,
    /// Remote avatars currently displayed, with display-side smoothing.
    displayed: BTreeMap<AvatarId, DeadReckoningReceiver>,
    /// Reliable stream of this participant's interaction events.
    interactions: ReliableSender<InteractionEvent>,
    interact_rng: DetRng,
    hand_raised: bool,
}

impl HeadsetNode {
    /// Creates a headset for `avatar`, streaming to `edge` (whose server
    /// quantizes display updates with `codec`), moving along `script`.
    pub fn new(
        avatar: AvatarId,
        edge: NodeId,
        codec: CodecConfig,
        script: MotionScript,
        seed: u64,
    ) -> Self {
        HeadsetNode {
            avatar,
            edge,
            trajectory: Trajectory::new(script, seed),
            model: HeadsetModel::new(HeadsetConfig::default(), seed ^ 0x4853),
            codec: AvatarCodec::new(codec),
            displayed: BTreeMap::new(),
            interactions: ReliableSender::new(INTERACTION_RTO),
            interact_rng: DetRng::new(seed).derive(0x4941),
            hand_raised: false,
        }
    }

    /// The participant's ground-truth state at `t` (for evaluation).
    pub fn truth_at(&self, t: SimTime) -> AvatarState {
        self.trajectory.state_at(t.as_secs_f64())
    }

    /// The displayed state of a remote avatar at `t`, if any.
    pub fn displayed_state(&self, avatar: AvatarId, t: SimTime) -> Option<AvatarState> {
        self.displayed.get(&avatar)?.state_at(t)
    }

    /// Remote avatars currently displayed.
    pub fn displayed_count(&self) -> usize {
        self.displayed.len()
    }
}

impl Node<ClassMsg> for HeadsetNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        ctx.set_timer(self.model.sample_period(), TAG_POSE);
        ctx.set_timer(self.model.expression_period(), TAG_EXPRESSION);
        let first = SimDuration::from_secs_f64(self.interact_rng.range_f64(5.0, 30.0));
        ctx.set_timer(first, TAG_INTERACT);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        let now = ctx.now();
        let truth = self.trajectory.state_at(now.as_secs_f64());
        match timer.tag {
            TAG_POSE => {
                if let Some(measurement) = self.model.measure_pose(&truth) {
                    ClassMsg::HeadsetPose { avatar: self.avatar, measurement, captured_at: now }
                        .send_to(ctx, self.edge);
                    ctx.metrics().inc("headset.pose_samples");
                }
                // Pump reliable retransmissions of interaction events.
                for (seq, event) in self.interactions.due_retransmits(now) {
                    ClassMsg::Interaction { avatar: self.avatar, seq, event, captured_at: now }
                        .send_to(ctx, self.edge);
                }
                ctx.set_timer(self.model.sample_period(), TAG_POSE);
            }
            TAG_EXPRESSION => {
                let frame = self.model.measure_expression(&truth);
                ClassMsg::HeadsetExpression { avatar: self.avatar, frame }.send_to(ctx, self.edge);
                ctx.set_timer(self.model.expression_period(), TAG_EXPRESSION);
            }
            TAG_INTERACT => {
                self.hand_raised = !self.hand_raised;
                let (seq, wire) = self
                    .interactions
                    .send(InteractionEvent::RaiseHand { raised: self.hand_raised }, now);
                if let Some(event) = wire {
                    ClassMsg::Interaction { avatar: self.avatar, seq, event, captured_at: now }
                        .send_to(ctx, self.edge);
                }
                ctx.metrics().inc("headset.interactions_sent");
                let next = SimDuration::from_secs_f64(self.interact_rng.range_f64(10.0, 45.0));
                ctx.set_timer(next, TAG_INTERACT);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, _from: NodeId, msg: ClassMsg) {
        match msg {
            ClassMsg::DisplayUpdate { avatar, state, captured_at, pinned } => {
                let latency = ctx.now().duration_since(captured_at);
                ctx.metrics().histogram("display.latency_ns").record(latency.as_nanos());
                let mut shown = self.codec.dequantize(&state);
                if pinned {
                    shown.velocity = Vec3::ZERO;
                }
                self.displayed.entry(avatar).or_default().on_update(captured_at, shown);
            }
            ClassMsg::InteractionAck { seq, .. } => {
                self.interactions.on_ack_at(seq, ctx.now());
            }
            _ => {}
        }
    }
}

/// The classroom's sensor array, tracking every local participant.
pub struct RoomArrayNode {
    edge: NodeId,
    tracked: Vec<(AvatarId, Trajectory, RoomSensorArray)>,
    rate: SimDuration,
}

impl RoomArrayNode {
    /// Creates an array streaming to `edge`. `participants` pairs each
    /// avatar with the *same* motion script/seed its headset uses, so both
    /// sensors observe the same ground truth.
    pub fn new(edge: NodeId, participants: Vec<(AvatarId, MotionScript, u64)>) -> Self {
        let cfg = RoomSensorConfig::default();
        let rate = SimDuration::from_rate_hz(RoomSensorArray::RATE_HZ);
        let tracked = participants
            .into_iter()
            .map(|(id, script, seed)| {
                (id, Trajectory::new(script, seed), RoomSensorArray::new(cfg, seed ^ 0x524d))
            })
            .collect();
        RoomArrayNode { edge, tracked, rate }
    }
}

impl Node<ClassMsg> for RoomArrayNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        ctx.set_timer(self.rate, TAG_ROOM);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        if timer.tag != TAG_ROOM {
            return;
        }
        let now = ctx.now();
        for (avatar, trajectory, array) in &mut self.tracked {
            let truth = trajectory.state_at(now.as_secs_f64());
            if let Some(measurement) = array.measure(&truth) {
                ClassMsg::RoomPose { avatar: *avatar, measurement, captured_at: now }
                    .send_to(ctx, self.edge);
                ctx.metrics().inc("room.pose_samples");
            } else {
                ctx.metrics().inc("room.occluded_samples");
            }
        }
        ctx.set_timer(self.rate, TAG_ROOM);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ClassMsg>, _from: NodeId, _msg: ClassMsg) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_codec;
    use metaclass_netsim::{LinkClass, Simulation};

    struct Sink {
        poses: u32,
        expressions: u32,
        room: u32,
    }
    impl Node<ClassMsg> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, ClassMsg>, _: NodeId, msg: ClassMsg) {
            match msg {
                ClassMsg::HeadsetPose { .. } => self.poses += 1,
                ClassMsg::HeadsetExpression { .. } => self.expressions += 1,
                ClassMsg::RoomPose { .. } => self.room += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn headset_streams_at_configured_rates() {
        let mut sim: Simulation<ClassMsg> = Simulation::new(5);
        let sink = sim.add_node("edge", Sink { poses: 0, expressions: 0, room: 0 });
        let script = MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 6.0) };
        let hs = sim
            .add_node("headset", HeadsetNode::new(AvatarId(1), sink, protocol_codec(), script, 7));
        sim.connect(hs, sink, LinkClass::Wifi.config());
        sim.run_until(SimTime::from_secs(2));
        let s = sim.node_as::<Sink>(sink).unwrap();
        // 72 Hz for 2 s minus a little loss/tracking-gap: > 120.
        assert!(s.poses > 120, "poses {}", s.poses);
        assert!((55..=62).contains(&s.expressions), "expressions {}", s.expressions);
    }

    #[test]
    fn room_array_streams_all_participants() {
        let mut sim: Simulation<ClassMsg> = Simulation::new(6);
        let sink = sim.add_node("edge", Sink { poses: 0, expressions: 0, room: 0 });
        let parts = (0..5)
            .map(|i| {
                (
                    AvatarId(i),
                    MotionScript::SeatedLecture { seat: Vec3::new(i as f64, 0.0, 6.0) },
                    100 + i as u64,
                )
            })
            .collect();
        let arr = sim.add_node("array", RoomArrayNode::new(sink, parts));
        sim.connect(arr, sink, LinkClass::WiredLan.config());
        assert_eq!(sim.node_as::<RoomArrayNode>(arr).unwrap().tracked.len(), 5);
        sim.run_until(SimTime::from_secs(2));
        let s = sim.node_as::<Sink>(sink).unwrap();
        // 30 Hz x 5 participants x 2 s, minus occlusions.
        assert!((250..=300).contains(&s.room), "room {}", s.room);
    }

    #[test]
    fn headset_displays_remote_updates() {
        let mut sim: Simulation<ClassMsg> = Simulation::new(7);
        let sink = sim.add_node("edge", Sink { poses: 0, expressions: 0, room: 0 });
        let script = MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 6.0) };
        let hs = sim
            .add_node("headset", HeadsetNode::new(AvatarId(1), sink, protocol_codec(), script, 7));
        sim.connect(hs, sink, LinkClass::Wifi.config());
        let remote = AvatarState::at_position(Vec3::new(1.0, 1.2, 2.0));
        let codec = AvatarCodec::new(protocol_codec());
        sim.inject(
            SimTime::from_millis(50),
            sink,
            hs,
            ClassMsg::DisplayUpdate {
                avatar: AvatarId(9),
                state: codec.quantize(&remote),
                captured_at: SimTime::from_millis(20),
                pinned: false,
            },
            78,
        );
        sim.run_until(SimTime::from_millis(100));
        let node = sim.node_as::<HeadsetNode>(hs).unwrap();
        assert_eq!(node.displayed_count(), 1);
        let shown = node.displayed_state(AvatarId(9), SimTime::from_millis(60)).unwrap();
        // The display shows what the grid reconstructs, not the float state,
        // carried 40 ms past its capture at the grid's velocity (the ±8 m/s
        // velocity grid has no exact zero; only a pinned update stops it).
        let expected = codec.reconstruct(&remote).extrapolate(0.040);
        assert!(shown.position_error(&expected) < 1e-9);
        let h = sim.metrics().histogram_if_present("display.latency_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 30_000_000);
    }
}
