//! The classroom wire protocol.
//!
//! Every message that crosses a link in the Figure-3 deployment is a
//! [`ClassMsg`]. Payload sizes are accounted explicitly so the network
//! simulator can charge realistic serialization and queueing costs.

use metaclass_avatar::{AnchorFrame, AvatarId, ExpressionFrame, QuantizedState};
use metaclass_netsim::{Context, NodeId, SimDuration, SimTime};
use metaclass_sensors::PoseMeasurement;
use metaclass_sync::{InteractionEvent, PoseFrame};

/// A message of the classroom protocol.
#[derive(Debug, Clone)]
pub enum ClassMsg {
    /// Headset → local edge: a pose sample.
    HeadsetPose {
        /// Tracked participant.
        avatar: AvatarId,
        /// The measurement.
        measurement: PoseMeasurement,
        /// Capture instant.
        captured_at: SimTime,
    },
    /// Headset → local edge: an expression sample.
    HeadsetExpression {
        /// Tracked participant.
        avatar: AvatarId,
        /// The blendshape frame.
        frame: ExpressionFrame,
    },
    /// Room sensor array → local edge: a pose sample.
    RoomPose {
        /// Tracked participant.
        avatar: AvatarId,
        /// The measurement (position only).
        measurement: PoseMeasurement,
        /// Capture instant.
        captured_at: SimTime,
    },
    /// Edge/cloud → peer server: a replicated avatar frame.
    AvatarUpdate {
        /// The avatar being replicated.
        avatar: AvatarId,
        /// Encoded snapshot/delta frame.
        frame: PoseFrame,
        /// When the underlying state was estimated at the origin.
        captured_at: SimTime,
        /// The avatar's anchor in its home space (for retargeting).
        anchor: AnchorFrame,
    },
    /// Receiver → sender: cumulative acknowledgement for an avatar stream.
    AvatarAck {
        /// The avatar stream being acknowledged.
        avatar: AvatarId,
        /// Highest applied sequence.
        seq: u64,
    },
    /// Receiver → sender: a delta could not be applied; send a keyframe.
    KeyframeRequest {
        /// The affected avatar stream.
        avatar: AvatarId,
    },
    /// Server → local display (headset / VR client): show this avatar state.
    DisplayUpdate {
        /// The remote avatar.
        avatar: AvatarId,
        /// Retargeted state in the display's local space, on the sending
        /// server's codec grid (the display's codec dequantizes it).
        state: QuantizedState,
        /// When the state was captured at its origin (for latency metrics
        /// and playout buffering).
        captured_at: SimTime,
        /// The avatar is frozen: show it with exactly zero velocity. The
        /// velocity grid has no exact zero, so the display applies this
        /// after dequantizing. Only an edge's freeze path sets it, toward
        /// its headsets.
        pinned: bool,
    },
    /// VR client → cloud: request admission to the session.
    JoinRequest {
        /// The joining client's avatar.
        avatar: AvatarId,
        /// Retry attempt number, starting at 1 (for diagnostics).
        attempt: u32,
    },
    /// Cloud → client: admitted; pose upload and interactions may start.
    JoinAccepted {
        /// The admitted client's avatar.
        avatar: AvatarId,
    },
    /// Cloud → client: parked in the admission waiting room.
    JoinDeferred {
        /// The deferred client's avatar.
        avatar: AvatarId,
        /// Earliest sensible retry (the client may also simply wait to be
        /// admitted from the waiting room).
        retry_after: SimDuration,
        /// Zero-based waiting-room position at the time of the reply.
        position: u32,
    },
    /// Cloud → client: waiting room full; back off and retry later.
    JoinRejected {
        /// The rejected client's avatar.
        avatar: AvatarId,
    },
    /// VR client → cloud: the client migrates to another virtual room
    /// mid-session (cross-reality mobility). The cloud reseats the avatar
    /// in the target room's seating block and updates its room census.
    RoomChange {
        /// The moving client's avatar.
        avatar: AvatarId,
        /// Target virtual room index.
        room: u32,
    },
    /// VR client → cloud: the client's own avatar frame.
    ClientPose {
        /// The client's avatar.
        avatar: AvatarId,
        /// Encoded snapshot/delta frame.
        frame: PoseFrame,
        /// Capture instant.
        captured_at: SimTime,
    },
    /// Client → server: clock-sync probe.
    ClockProbe {
        /// Correlates probe and reply.
        nonce: u64,
        /// Client transmit timestamp (client clock).
        client_send: SimTime,
    },
    /// Server → client: clock-sync reply.
    ClockReply {
        /// Echoed from the probe.
        nonce: u64,
        /// Echoed client transmit timestamp.
        client_send: SimTime,
        /// Server receive/transmit timestamp (server clock).
        server_time: SimTime,
    },
    /// A reliable, ordered interaction event ("interaction traces", §3.2).
    Interaction {
        /// The acting participant.
        avatar: AvatarId,
        /// Per-avatar reliable sequence number.
        seq: u64,
        /// The interaction.
        event: InteractionEvent,
        /// When the interaction happened at its origin.
        captured_at: SimTime,
    },
    /// Cumulative acknowledgement for an interaction stream.
    InteractionAck {
        /// The acting participant's stream.
        avatar: AvatarId,
        /// Highest in-order sequence received.
        seq: u64,
    },
    /// Server ↔ server liveness beacon for heartbeat failure detection.
    Heartbeat {
        /// Transmit instant at the sender.
        sent_at: SimTime,
    },
    /// Pool → cloud: `count` pooled clients request admission at once.
    ///
    /// The flyweight population layer collapses N statistically-identical
    /// remote clients into one scheduled entity; its aggregate messages are
    /// charged the exact wire bytes of the N individual messages they stand
    /// for, so links, token buckets, and egress budgets see the same load.
    PoolJoin {
        /// Pool identifier (stable per region).
        pool: u32,
        /// Number of pooled clients joining in this batch.
        count: u64,
        /// Retry attempt number, starting at 1 (for diagnostics).
        attempt: u32,
    },
    /// Cloud → pool: batch admission outcome.
    PoolJoinReply {
        /// Pool identifier.
        pool: u32,
        /// Clients admitted from this batch.
        admitted: u64,
        /// Clients left waiting (the pool retries after `retry_after`).
        waiting: u64,
        /// Earliest sensible retry for the waiting remainder.
        retry_after: SimDuration,
    },
    /// Pool → cloud: the pool's representative avatar frame, uploaded on
    /// behalf of `count` active pooled clients.
    PoolPose {
        /// Pool identifier.
        pool: u32,
        /// Active pooled clients this upload stands for.
        count: u64,
        /// Encoded snapshot/delta frame of the representative trajectory.
        frame: PoseFrame,
        /// Capture instant.
        captured_at: SimTime,
    },
    /// Cloud → pool: one fan-out tick's display updates for every pooled
    /// client, batched. Stands for `members × captured.len()` individual
    /// [`ClassMsg::DisplayUpdate`]s.
    PoolDisplay {
        /// Pool identifier.
        pool: u32,
        /// Pooled clients this batch fans out to.
        members: u64,
        /// Capture instants of the updates selected this tick (one per
        /// remote avatar update delivered to each pooled client).
        captured: Vec<SimTime>,
    },
    /// Cloud → pool: the cloud no longer knows this pool (post-crash); the
    /// pool must rejoin from scratch.
    PoolEvict {
        /// Pool identifier.
        pool: u32,
    },
}

impl ClassMsg {
    /// Wire size in bytes, including a nominal transport header.
    pub fn wire_bytes(&self) -> u32 {
        const HEADER: u32 = 28; // IP + UDP + session header
                                // Pool messages stand for N individual messages: their wire size is
                                // exactly N x the individual size (header included N times), clamped
                                // to u32. Expressed as a payload so the shared `HEADER +` below
                                // reconstructs the aggregate total.
        let aggregate = |total: u64| -> u32 {
            u32::try_from(total.saturating_sub(HEADER as u64)).unwrap_or(u32::MAX - HEADER)
        };
        let payload = match self {
            // id(4) + position(12) + quat(8) + hands(12) + noise(2) + t(8)
            ClassMsg::HeadsetPose { .. } => 46,
            // id(4) + 16 channels x 1
            ClassMsg::HeadsetExpression { .. } => 20,
            // id(4) + position(12) + noise(2) + t(8)
            ClassMsg::RoomPose { .. } => 26,
            ClassMsg::AvatarUpdate { frame, .. } => frame.wire_bytes() as u32 + 8 + 14,
            ClassMsg::AvatarAck { .. } => 12,
            ClassMsg::KeyframeRequest { .. } => 4,
            // id(4) + full quantized state(38) + t(8)
            ClassMsg::DisplayUpdate { .. } => 50,
            // id(4) + attempt(4)
            ClassMsg::JoinRequest { .. } => 8,
            ClassMsg::JoinAccepted { .. } => 4,
            // id(4) + retry_after(8) + position(4)
            ClassMsg::JoinDeferred { .. } => 16,
            ClassMsg::JoinRejected { .. } => 4,
            // id(4) + room(4)
            ClassMsg::RoomChange { .. } => 8,
            ClassMsg::ClientPose { frame, .. } => frame.wire_bytes() as u32 + 8,
            ClassMsg::ClockProbe { .. } => 16,
            ClassMsg::ClockReply { .. } => 24,
            ClassMsg::Interaction { event, .. } => 20 + event.wire_bytes(),
            ClassMsg::InteractionAck { .. } => 12,
            ClassMsg::Heartbeat { .. } => 8,
            // count x JoinRequest (36 bytes each).
            ClassMsg::PoolJoin { count, .. } => aggregate(count * 36),
            // admitted x JoinAccepted (32) + waiting x JoinDeferred (44);
            // at least one control reply even when the batch was empty.
            ClassMsg::PoolJoinReply { admitted, waiting, .. } => {
                aggregate((admitted * 32 + waiting * 44).max(32))
            }
            // count x ClientPose with the same frame.
            ClassMsg::PoolPose { count, frame, .. } => {
                aggregate(count * (HEADER as u64 + frame.wire_bytes() as u64 + 8))
            }
            // members x captured.len() x DisplayUpdate (78 bytes each).
            ClassMsg::PoolDisplay { members, captured, .. } => {
                aggregate(members * captured.len() as u64 * 78)
            }
            ClassMsg::PoolEvict { .. } => 4,
        };
        HEADER + payload
    }

    /// Sends this message to `to`, charged its own wire size; returns that
    /// size for callers that also count bytes.
    pub(crate) fn send_to(self, ctx: &mut Context<'_, ClassMsg>, to: NodeId) -> u32 {
        let size = self.wire_bytes();
        ctx.send(to, self, size);
        size
    }

    /// Sends this one message to every node in `to`, each copy charged its
    /// own wire size; the engine stores it once for all of them.
    pub(crate) fn send_to_all(
        self,
        ctx: &mut Context<'_, ClassMsg>,
        to: impl IntoIterator<Item = NodeId>,
    ) {
        let size = self.wire_bytes();
        ctx.send_all(to, self, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_avatar::{AvatarCodec, AvatarState, FramePayload, Vec3, MAX_FRAME_BYTES};

    fn frame_of(payload_len: usize) -> PoseFrame {
        let payload = FramePayload::try_from(&vec![0; payload_len][..]).unwrap();
        PoseFrame { seq: 0, ref_seq: None, payload }
    }

    /// The engine's envelope slab holds one entry of this size per distinct
    /// in-flight payload, frame or not: a send stores one, and a fan-out
    /// sent with `send_to_all` stores one for all its destinations. The
    /// largest variant, `AvatarUpdate`, sets the size: id (4) + inline frame
    /// (104) + capture time (8) + anchor (80) + tag. `DisplayUpdate`, with
    /// its 80-byte grid state, stays well under.
    #[test]
    fn a_slab_entry_per_in_flight_payload_is_as_large_as_an_avatar_update() {
        assert_eq!(std::mem::size_of::<PoseFrame>(), 104);
        assert_eq!(std::mem::size_of::<QuantizedState>(), 80);
        assert_eq!(std::mem::size_of::<ClassMsg>(), 200);
        assert_eq!(frame_of(MAX_FRAME_BYTES).wire_bytes(), MAX_FRAME_BYTES + 6);
    }

    #[test]
    fn wire_sizes_are_plausible() {
        let ack = ClassMsg::AvatarAck { avatar: AvatarId(1), seq: 42 };
        assert_eq!(ack.wire_bytes(), 40);
        let probe = ClassMsg::ClockProbe { nonce: 1, client_send: SimTime::ZERO };
        assert!(probe.wire_bytes() < 50);
        let state = AvatarCodec::with_defaults().quantize(&AvatarState::at_position(Vec3::ZERO));
        let disp = ClassMsg::DisplayUpdate {
            avatar: AvatarId(1),
            state,
            captured_at: SimTime::ZERO,
            pinned: false,
        };
        assert_eq!(disp.wire_bytes(), 78);
        let disp = ClassMsg::DisplayUpdate {
            avatar: AvatarId(1),
            state,
            captured_at: SimTime::ZERO,
            pinned: true,
        };
        assert_eq!(disp.wire_bytes(), 78);
        let join = ClassMsg::JoinRequest { avatar: AvatarId(1), attempt: 1 };
        assert_eq!(join.wire_bytes(), 36);
        let mv = ClassMsg::RoomChange { avatar: AvatarId(1), room: 2 };
        assert_eq!(mv.wire_bytes(), 36);
        let deferred = ClassMsg::JoinDeferred {
            avatar: AvatarId(1),
            retry_after: SimDuration::from_millis(50),
            position: 3,
        };
        assert_eq!(deferred.wire_bytes(), 44);
    }

    #[test]
    fn pool_messages_cost_exactly_their_expanded_equivalents() {
        // k pooled joins weigh the same as k individual JoinRequests.
        let join = ClassMsg::PoolJoin { pool: 0, count: 1000, attempt: 1 };
        assert_eq!(join.wire_bytes(), 1000 * 36);
        // Batch reply: admitted accepts + waiting deferrals.
        let reply = ClassMsg::PoolJoinReply {
            pool: 0,
            admitted: 10,
            waiting: 3,
            retry_after: SimDuration::from_millis(50),
        };
        assert_eq!(reply.wire_bytes(), 10 * 32 + 3 * 44);
        // A pooled pose upload is count x the individual ClientPose size.
        let frame = frame_of(30);
        let single = ClassMsg::ClientPose {
            avatar: AvatarId(1),
            frame: frame.clone(),
            captured_at: SimTime::ZERO,
        }
        .wire_bytes();
        let pooled = ClassMsg::PoolPose { pool: 0, count: 500, frame, captured_at: SimTime::ZERO };
        assert_eq!(pooled.wire_bytes(), 500 * single);
        // A pooled display batch is members x updates x DisplayUpdate(78).
        let disp =
            ClassMsg::PoolDisplay { pool: 0, members: 125_000, captured: vec![SimTime::ZERO; 4] };
        assert_eq!(disp.wire_bytes(), 125_000 * 4 * 78);
        // Planet scale saturates instead of overflowing the u32 wire size.
        let huge = ClassMsg::PoolDisplay {
            pool: 0,
            members: 1_000_000_000,
            captured: vec![SimTime::ZERO; 64],
        };
        assert_eq!(huge.wire_bytes(), u32::MAX);
    }

    #[test]
    fn avatar_update_size_tracks_its_frame() {
        let small = ClassMsg::AvatarUpdate {
            avatar: AvatarId(0),
            frame: frame_of(5),
            captured_at: SimTime::ZERO,
            anchor: AnchorFrame::seat(Default::default()),
        };
        let big = ClassMsg::AvatarUpdate {
            avatar: AvatarId(0),
            frame: frame_of(50),
            captured_at: SimTime::ZERO,
            anchor: AnchorFrame::seat(Default::default()),
        };
        assert_eq!(big.wire_bytes() - small.wire_bytes(), 45);
    }
}
