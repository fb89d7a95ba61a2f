//! Reliable-enough snapshot/delta replication sessions.
//!
//! Wraps the [`AvatarCodec`] into a sender/receiver pair that survives loss
//! and reordering on the "real-time transmission link" of §3.2: the sender
//! encodes deltas against the last state the receiver *acknowledged* (so a
//! lost delta never desynchronizes the pair), inserts periodic keyframes, and
//! the receiver asks for a keyframe when it cannot apply a delta.

use std::collections::VecDeque;

use metaclass_avatar::{AvatarCodec, AvatarState, CodecError, FramePayload, QuantizedState};
use serde::{Deserialize, Serialize};

/// A wire frame produced by [`SnapshotSender::encode`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoseFrame {
    /// Sequence number of this frame.
    pub seq: u64,
    /// The reference this delta was encoded against; `None` for keyframes.
    pub ref_seq: Option<u64>,
    /// Codec payload, inline: a frame owns no heap memory.
    pub payload: FramePayload,
}

impl PoseFrame {
    /// Total wire size: payload plus a small fixed header
    /// (seq varint ≈ 3 B, ref delta ≈ 1 B, avatar id ≈ 2 B).
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + 6
    }

    /// Whether this frame can be decoded without a reference.
    pub fn is_keyframe(&self) -> bool {
        self.ref_seq.is_none()
    }
}

/// One state quantized for replication, once for however many
/// [`SnapshotSender`]s (of the same [`CodecConfig`]) carry it: a server
/// replicating an avatar to four peers pays the floating-point work one time
/// and each stream only compares and packs integers.
///
/// [`CodecConfig`]: metaclass_avatar::CodecConfig
#[derive(Debug, Clone, Copy)]
pub struct QuantizedSnapshot {
    /// What this state's frames carry.
    wire: QuantizedState,
    /// What later deltas are encoded against: the grid form of the state a
    /// decoder *reconstructs* from `wire`. Almost always `wire` itself, but
    /// not when reconstruction moves an orientation across a smallest-three
    /// tie (two components within a grid step of each other), where the
    /// dropped component changes.
    reference: QuantizedState,
}

impl QuantizedSnapshot {
    /// Quantizes `state` with `codec`.
    pub fn new(codec: &AvatarCodec, state: &AvatarState) -> Self {
        Self::from_grid(codec, codec.quantize(state))
    }

    /// The snapshot of a state `codec` has already quantized to `wire`, for
    /// a caller that keeps the grid form for its own use too.
    pub fn from_grid(codec: &AvatarCodec, wire: QuantizedState) -> Self {
        QuantizedSnapshot { wire, reference: codec.quantize(&codec.dequantize(&wire)) }
    }
}

/// Sender half of a replication session for one avatar → one receiver.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarCodec, AvatarState, Vec3};
/// use metaclass_sync::{SnapshotReceiver, SnapshotSender};
///
/// let mut tx = SnapshotSender::new(AvatarCodec::with_defaults(), 60);
/// let mut rx = SnapshotReceiver::new(AvatarCodec::with_defaults());
///
/// let state = AvatarState::at_position(Vec3::new(1.0, 1.6, 2.0));
/// let frame = tx.encode(&state);
/// let decoded = rx.decode(&frame)?.expect("keyframe always applies");
/// assert!(state.position_error(&decoded) < 0.01);
/// tx.on_ack(frame.seq); // receiver acks; future deltas reference this state
/// # Ok::<(), metaclass_avatar::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotSender {
    codec: AvatarCodec,
    /// Reference forms of the frames not yet acknowledged past, oldest
    /// first. Always the contiguous sequence range
    /// `[next_seq - history.len(), next_seq)`, which starts at `last_acked`
    /// once there is one — so the delta reference is the front entry.
    history: VecDeque<QuantizedState>,
    next_seq: u64,
    last_acked: Option<u64>,
    keyframe_interval: u64,
    since_keyframe: u64,
    force_keyframe: bool,
}

impl SnapshotSender {
    /// Creates a sender inserting a keyframe every `keyframe_interval` frames
    /// (and whenever no acknowledged reference exists).
    ///
    /// # Panics
    ///
    /// Panics if `keyframe_interval` is zero.
    pub fn new(codec: AvatarCodec, keyframe_interval: u64) -> Self {
        assert!(keyframe_interval > 0, "keyframe interval must be positive");
        SnapshotSender {
            codec,
            history: VecDeque::new(),
            next_seq: 0,
            last_acked: None,
            keyframe_interval,
            since_keyframe: 0,
            force_keyframe: false,
        }
    }

    /// The codec this stream encodes with.
    pub fn codec(&self) -> &AvatarCodec {
        &self.codec
    }

    /// Frames encoded so far.
    pub fn frames_sent(&self) -> u64 {
        self.next_seq
    }

    /// States retained while awaiting acknowledgement.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Encodes the next frame for `state`.
    pub fn encode(&mut self, state: &AvatarState) -> PoseFrame {
        self.encode_quantized(&QuantizedSnapshot::new(&self.codec, state))
    }

    /// Encodes the next frame for a state quantized beforehand, by a codec
    /// configured like this sender's.
    pub fn encode_quantized(&mut self, state: &QuantizedSnapshot) -> PoseFrame {
        let seq = self.next_seq;
        self.next_seq += 1;

        let keyframe_due = self.force_keyframe || self.since_keyframe >= self.keyframe_interval;
        let (ref_seq, payload) = match (self.last_acked, self.history.front()) {
            (Some(acked), Some(reference)) if !keyframe_due => {
                self.since_keyframe += 1;
                (Some(acked), self.codec.delta_frame(reference, &state.wire))
            }
            _ => {
                self.since_keyframe = 0;
                self.force_keyframe = false;
                (None, self.codec.full_frame(&state.wire))
            }
        };
        self.history.push_back(state.reference);
        PoseFrame { seq, ref_seq, payload }
    }

    /// Processes an acknowledgement for `seq` (cumulative: older history is
    /// pruned). Stale or unknown acks are ignored.
    pub fn on_ack(&mut self, seq: u64) {
        let oldest = self.next_seq - self.history.len() as u64;
        if seq < oldest || seq >= self.next_seq || self.last_acked.is_some_and(|a| a >= seq) {
            return;
        }
        self.last_acked = Some(seq);
        self.history.drain(..(seq - oldest) as usize);
    }

    /// Forces the next frame to be a keyframe (the receiver reported a
    /// missing reference).
    pub fn request_keyframe(&mut self) {
        self.force_keyframe = true;
    }
}

/// Decoded states a [`SnapshotReceiver`] keeps as delta references at most:
/// the bound for a stream whose sender never hears an ack (and so sends
/// only keyframes, which prune nothing).
const RECEIVER_CAPACITY: usize = 128;

/// Receiver half of a replication session.
///
/// Once a delta naming reference `r` applies, every state older than `r` is
/// dropped: a sender names its last acknowledged sequence, which only grows,
/// so on a FIFO link no later frame of the stream names anything below `r`.
/// An acknowledged stream therefore keeps the few states between its
/// reference and its newest frame; one never acknowledged, at most 128.
///
/// Caveat: a sender restarted at sequence 0 is not told apart from the old
/// stream, whose states this receiver keeps and keeps acknowledging.
#[derive(Debug, Clone)]
pub struct SnapshotReceiver {
    codec: AvatarCodec,
    /// Recently decoded states in grid form (88 B an entry where a float
    /// state takes 200), ascending by sequence, never more than
    /// [`RECEIVER_CAPACITY`], and none older than the reference of the last
    /// delta applied. The back entry is the newest applied frame. Each is
    /// the grid whose `dequantize` is the state `decode` returned (see
    /// [`AvatarCodec::decode_grid`]).
    states: VecDeque<(u64, QuantizedState)>,
    needs_keyframe: bool,
}

impl SnapshotReceiver {
    /// Creates a receiver.
    pub fn new(codec: AvatarCodec) -> Self {
        SnapshotReceiver { codec, states: VecDeque::new(), needs_keyframe: false }
    }

    /// Decodes a frame. `Ok(Some(state))` when the frame applied (stale
    /// frames older than the newest applied frame still decode while their
    /// reference is kept, but do not advance [`SnapshotReceiver::latest`]);
    /// `Ok(None)` when a delta's reference is missing — the caller should
    /// relay [`SnapshotReceiver::take_keyframe_request`] to the sender. An
    /// applied delta drops every state older than its reference.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError`] on malformed payloads.
    pub fn decode(&mut self, frame: &PoseFrame) -> Result<Option<AvatarState>, CodecError> {
        let (reference, at) = match frame.ref_seq {
            None => (None, 0),
            Some(r) => match self.states.binary_search_by_key(&r, |(seq, _)| *seq) {
                Ok(at) => (Some(&self.states[at].1), at),
                Err(_) => {
                    self.needs_keyframe = true;
                    return Ok(None);
                }
            },
        };
        let grid = self.codec.decode_grid(reference, &frame.payload)?;
        self.states.drain(..at);
        if self.ack_seq().is_none_or(|latest| frame.seq > latest) {
            self.needs_keyframe = false;
        }
        self.store(frame.seq, grid);
        Ok(Some(self.codec.dequantize(&grid)))
    }

    /// Files `grid` under `seq`, evicting the oldest entry *first* when
    /// full, so the deque never grows (and never reallocates) past
    /// [`RECEIVER_CAPACITY`].
    fn store(&mut self, seq: u64, grid: QuantizedState) {
        match self.states.binary_search_by_key(&seq, |(seq, _)| *seq) {
            Ok(at) => self.states[at].1 = grid,
            Err(at) if self.states.len() < RECEIVER_CAPACITY => {
                self.states.insert(at, (seq, grid));
            }
            // Full, and older than everything kept: it would be the entry
            // evicted.
            Err(0) => {}
            Err(at) => {
                self.states.pop_front();
                self.states.insert(at - 1, (seq, grid));
            }
        }
    }

    /// The newest applied state and its sequence.
    pub fn latest(&self) -> Option<(u64, AvatarState)> {
        self.states.back().map(|(seq, grid)| (*seq, self.codec.dequantize(grid)))
    }

    /// States kept as delta references.
    pub fn references_len(&self) -> usize {
        self.states.len()
    }

    /// The sequence the receiver would acknowledge (its newest applied).
    pub fn ack_seq(&self) -> Option<u64> {
        self.states.back().map(|(seq, _)| *seq)
    }

    /// Returns and clears the keyframe-needed flag.
    pub fn take_keyframe_request(&mut self) -> bool {
        std::mem::take(&mut self.needs_keyframe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_avatar::{Vec3, MAX_FRAME_BYTES};
    use proptest::prelude::*;

    fn pair() -> (SnapshotSender, SnapshotReceiver) {
        (
            SnapshotSender::new(AvatarCodec::with_defaults(), 60),
            SnapshotReceiver::new(AvatarCodec::with_defaults()),
        )
    }

    fn walk(i: u64) -> AvatarState {
        let mut st = AvatarState::at_position(Vec3::new(1.0 + i as f64 * 0.01, 1.6, 2.0));
        st.velocity = Vec3::new(0.7, 0.0, 0.0);
        st
    }

    #[test]
    fn lossless_session_stays_in_sync_with_small_deltas() {
        let (mut tx, mut rx) = pair();
        let mut delta_bytes = 0usize;
        let mut delta_count = 0usize;
        for i in 0..200 {
            let truth = walk(i);
            let frame = tx.encode(&truth);
            if !frame.is_keyframe() {
                delta_bytes += frame.payload.len();
                delta_count += 1;
            }
            let decoded = rx.decode(&frame).unwrap().unwrap();
            assert!(truth.position_error(&decoded) < 0.01, "at frame {i}");
            tx.on_ack(rx.ack_seq().unwrap());
        }
        assert!(delta_count > 150);
        let avg = delta_bytes as f64 / delta_count as f64;
        assert!(avg < 12.0, "average delta size {avg} bytes");
    }

    #[test]
    fn first_frame_is_a_keyframe() {
        let (mut tx, _) = pair();
        assert!(tx.encode(&walk(0)).is_keyframe());
    }

    #[test]
    fn lost_deltas_do_not_desync_ack_based_references() {
        let (mut tx, mut rx) = pair();
        let f0 = tx.encode(&walk(0));
        rx.decode(&f0).unwrap().unwrap();
        tx.on_ack(0);
        // Frames 1..4 are lost in the network. Frame 5 still references
        // seq 0 (last acked), so the receiver can apply it.
        for i in 1..5 {
            let _lost = tx.encode(&walk(i));
        }
        let f5 = tx.encode(&walk(5));
        assert_eq!(f5.ref_seq, Some(0));
        let decoded = rx.decode(&f5).unwrap().unwrap();
        assert!(walk(5).position_error(&decoded) < 0.01);
    }

    #[test]
    fn missing_reference_requests_keyframe() {
        let (mut tx, mut rx) = pair();
        let f0 = tx.encode(&walk(0));
        // Receiver never saw f0 but the sender believes it was acked
        // (e.g. a forged/corrupt ack path); simulate by acking manually.
        tx.on_ack(f0.seq);
        let f1 = tx.encode(&walk(1));
        assert!(!f1.is_keyframe());
        assert_eq!(rx.decode(&f1).unwrap(), None);
        assert!(rx.take_keyframe_request());
        assert!(!rx.take_keyframe_request(), "flag is cleared after take");
        // Relay to the sender: next frame is decodable.
        tx.request_keyframe();
        let f2 = tx.encode(&walk(2));
        assert!(f2.is_keyframe());
        assert!(rx.decode(&f2).unwrap().is_some());
    }

    #[test]
    fn periodic_keyframes_bound_loss_recovery() {
        let (mut tx, _) = pair();
        let mut keyframes = 0;
        for i in 0..240 {
            if tx.encode(&walk(i)).is_keyframe() {
                keyframes += 1;
            }
            // No acks at all: only periodic keyframes keep the session alive.
        }
        assert_eq!(keyframes, 240, "without acks every frame must be a keyframe");

        // With acks, keyframes appear only at the configured cadence.
        let (mut tx, mut rx) = pair();
        let mut keyframes = 0;
        for i in 0..240 {
            let f = tx.encode(&walk(i));
            if f.is_keyframe() {
                keyframes += 1;
            }
            rx.decode(&f).unwrap();
            tx.on_ack(rx.ack_seq().unwrap());
        }
        assert_eq!(keyframes, 4, "expected 240/60 periodic keyframes");
    }

    #[test]
    fn history_is_pruned_by_acks() {
        let (mut tx, mut rx) = pair();
        for i in 0..50 {
            let f = tx.encode(&walk(i));
            rx.decode(&f).unwrap();
        }
        assert_eq!(tx.history_len(), 50);
        tx.on_ack(47);
        assert!(tx.history_len() <= 3);
        // Stale ack after a newer one is ignored.
        tx.on_ack(10);
        assert!(tx.history_len() <= 3);
    }

    #[test]
    fn reordered_stale_frames_do_not_regress_latest() {
        let (mut tx, mut rx) = pair();
        let f0 = tx.encode(&walk(0));
        let f1 = tx.encode(&walk(1));
        rx.decode(&f1).unwrap();
        assert_eq!(rx.ack_seq(), Some(1));
        rx.decode(&f0).unwrap();
        assert_eq!(rx.ack_seq(), Some(1), "older frame must not regress the ack");
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let (mut tx, mut rx) = pair();
        let mut f = tx.encode(&walk(0));
        f.payload = FramePayload::try_from(&f.payload[..2]).unwrap();
        assert!(rx.decode(&f).is_err());
    }

    proptest! {
        // Whatever arrives — any sequence numbers, any bytes, valid frames
        // with bits flipped — is an applied state, a missing reference or a
        // codec error, and leaves the receiver answering.
        #[test]
        fn hostile_frames_never_panic_the_receiver(
            warmup in 0u64..200,
            frames in proptest::collection::vec(
                (
                    (any::<u64>(), any::<u64>(), 0u32..4),
                    proptest::collection::vec(any::<u8>(), 0..=MAX_FRAME_BYTES),
                    proptest::collection::vec(any::<u16>(), 0..4),
                ),
                1..40,
            ),
        ) {
            let (mut tx, mut rx) = pair();
            let mut valid = Vec::new();
            for i in 0..warmup {
                let frame = tx.encode(&walk(i));
                rx.decode(&frame).unwrap();
                tx.on_ack(frame.seq.saturating_sub(3)); // deltas against a trailing ack
                valid.push(frame);
            }
            for ((seq, ref_seq, shape), noise, flips) in frames {
                let mut frame = match (shape, valid.is_empty()) {
                    // Pure noise under arbitrary or plausible sequence numbers.
                    (0, _) | (_, true) => PoseFrame {
                        seq,
                        ref_seq: (ref_seq % 3 != 0).then_some(ref_seq),
                        payload: FramePayload::try_from(&noise[..]).unwrap(),
                    },
                    (1, _) => PoseFrame {
                        seq: seq % (warmup + 2),
                        ref_seq: Some(ref_seq % (warmup + 2)),
                        payload: FramePayload::try_from(&noise[..]).unwrap(),
                    },
                    // A frame that was valid once, replayed or renumbered.
                    (2, _) => valid[seq as usize % valid.len()].clone(),
                    _ => PoseFrame { seq, ..valid[ref_seq as usize % valid.len()].clone() },
                };
                let mut bytes = frame.payload.to_vec();
                for flip in flips {
                    if !bytes.is_empty() {
                        let bit = flip as usize % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                frame.payload = FramePayload::try_from(&bytes[..]).unwrap();
                match rx.decode(&frame) {
                    Ok(Some(state)) => {
                        prop_assert!(state.is_finite());
                        prop_assert!(rx.ack_seq() >= Some(frame.seq));
                    }
                    Ok(None) => prop_assert!(rx.take_keyframe_request()),
                    Err(_) => {}
                }
                prop_assert_eq!(rx.latest().map(|(seq, _)| seq), rx.ack_seq());
                tx.on_ack(seq); // and a forged acknowledgement is ignored or applied
                prop_assert!(tx.history_len() as u64 <= tx.frames_sent());
            }
        }
    }
}
