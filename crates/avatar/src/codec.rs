//! The avatar wire codec: quantized full snapshots and delta frames.
//!
//! The encoder works like a video codec: a *full* frame carries the complete
//! quantized state; a *delta* frame carries only the fields whose quantized
//! value changed against a reference state. The reference must be the last
//! *reconstructed* state (see [`AvatarCodec::reconstruct`]), exactly as video
//! codecs predict from decoded, not source, frames — this keeps encoder and
//! decoder bit-identical with no drift.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bitstream::{BitReader, BitWriter, ReadOverrunError};
use crate::expression::{ExpressionFrame, CHANNELS};
use crate::geom::Vec3;
use crate::quant::{PositionQuantizer, QuantizedQuat, QuatQuantizer, SpaceBounds};
use crate::state::AvatarState;

/// Errors produced when decoding avatar frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the frame was complete.
    Overrun(ReadOverrunError),
    /// A delta frame arrived with no reference state to apply it to.
    MissingReference,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Overrun(e) => write!(f, "truncated avatar frame: {e}"),
            CodecError::MissingReference => write!(f, "delta frame without a reference state"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Overrun(e) => Some(e),
            CodecError::MissingReference => None,
        }
    }
}

impl From<ReadOverrunError> for CodecError {
    fn from(e: ReadOverrunError) -> Self {
        CodecError::Overrun(e)
    }
}

/// Bit-allocation configuration of the codec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodecConfig {
    /// Classroom (or virtual space) bounds for head positions.
    pub bounds: SpaceBounds,
    /// Bits per axis for head position (default 14: sub-2 mm in a classroom).
    pub position_bits: u32,
    /// Bits per stored quaternion component (default 10: ~0.3°).
    pub orientation_bits: u32,
    /// Bits per axis for hand offsets from the head (default 10 over ±1.5 m).
    pub hand_bits: u32,
    /// Bits per axis for velocity (default 12 over ±8 m/s).
    pub velocity_bits: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            bounds: SpaceBounds::classroom(),
            position_bits: 14,
            orientation_bits: 10,
            hand_bits: 10,
            velocity_bits: 12,
        }
    }
}

/// Reach of hands from the head, metres (each axis).
const HAND_RANGE: f64 = 1.5;
/// Velocity range, metres/second (each axis).
const VEL_RANGE: f64 = 8.0;

/// Bits of the largest frame any codec can emit: every field at the widest
/// quantizer a [`CodecConfig`] may name ([`AvatarCodec::new`] rejects wider).
const fn worst_case_frame_bits() -> usize {
    let p = PositionQuantizer::MAX_BITS as usize;
    let quat = 2 + 3 * QuatQuantizer::MAX_BITS as usize;
    // Head, both hands and velocity are three grid coordinates each.
    let full = 1 + 3 * p + quat + 3 * (3 * p) + 8 * CHANNELS;
    // A delta sends the head as zigzag varints of grid differences (p + 1
    // bits, 7 to a byte), then the same fields behind six change flags and
    // a per-channel expression mask.
    let head = 3 * 8 * (p + 1).div_ceil(7);
    let delta = 1 + 6 + head + quat + 3 * (3 * p) + CHANNELS + 8 * CHANNELS;
    if full > delta {
        full
    } else {
        delta
    }
}

/// Capacity of a [`FramePayload`], bytes: the largest frame any valid
/// [`CodecConfig`] can produce (74 at 30/16/30/30 bits).
pub const MAX_FRAME_BYTES: usize = worst_case_frame_bits().div_ceil(8);

/// Error returned when bytes offered as a [`FramePayload`] exceed
/// [`MAX_FRAME_BYTES`] and so cannot be a frame of this codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadTooLongError {
    /// Length of the rejected byte string.
    pub len: usize,
}

impl fmt::Display for PayloadTooLongError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "avatar frame payload of {} bytes exceeds {MAX_FRAME_BYTES}", self.len)
    }
}

impl std::error::Error for PayloadTooLongError {}

/// The bytes of one encoded avatar frame, held inline.
///
/// A frame is at most [`MAX_FRAME_BYTES`] long, so it travels inside its
/// message with no heap allocation; it dereferences to `[u8]`.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{FramePayload, MAX_FRAME_BYTES};
///
/// let payload = FramePayload::try_from(&[1u8, 2, 3][..])?;
/// assert_eq!(payload.len(), 3);
/// assert_eq!(&payload[..], [1, 2, 3]);
/// assert!(FramePayload::try_from(&[0u8; MAX_FRAME_BYTES + 1][..]).is_err());
/// # Ok::<(), metaclass_avatar::PayloadTooLongError>(())
/// ```
#[derive(Clone, Copy)]
pub struct FramePayload {
    len: u8,
    bytes: [u8; MAX_FRAME_BYTES],
}

const _: () = assert!(MAX_FRAME_BYTES <= u8::MAX as usize);

impl FramePayload {
    /// Runs `write` over the inline storage and keeps what it wrote.
    fn written(write: impl FnOnce(&mut BitWriter<'_>)) -> Self {
        let mut payload = FramePayload { len: 0, bytes: [0; MAX_FRAME_BYTES] };
        let mut w = BitWriter::new(&mut payload.bytes);
        write(&mut w);
        payload.len = w.byte_len() as u8;
        payload
    }
}

impl std::ops::Deref for FramePayload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl TryFrom<&[u8]> for FramePayload {
    type Error = PayloadTooLongError;

    fn try_from(src: &[u8]) -> Result<Self, PayloadTooLongError> {
        if src.len() > MAX_FRAME_BYTES {
            return Err(PayloadTooLongError { len: src.len() });
        }
        let mut bytes = [0u8; MAX_FRAME_BYTES];
        bytes[..src.len()].copy_from_slice(src);
        Ok(FramePayload { len: src.len() as u8, bytes })
    }
}

impl PartialEq for FramePayload {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for FramePayload {}

impl fmt::Debug for FramePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

// Serialized as the byte array a `Vec<u8>` payload was. Written by hand
// against the vendored serde's `Value` model because its derive has no
// `try_from`: a derived impl would accept a `len` the storage cannot back.
impl Serialize for FramePayload {
    fn to_value(&self) -> serde::Value {
        self[..].to_value()
    }
}

impl Deserialize for FramePayload {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        // The length is checked before anything is copied.
        let serde::Value::Array(items) = v else {
            return Err(serde::Error::custom(format!(
                "invalid type: {}, expected byte array",
                v.kind()
            )));
        };
        if items.len() > MAX_FRAME_BYTES {
            return Err(serde::Error::custom(PayloadTooLongError { len: items.len() }));
        }
        let mut bytes = [0u8; MAX_FRAME_BYTES];
        for (b, item) in bytes.iter_mut().zip(items) {
            *b = u8::from_value(item)?;
        }
        Ok(FramePayload { len: items.len() as u8, bytes })
    }
}

/// An [`AvatarState`] on the codec's quantization grid: the integers a frame
/// carries, and the domain in which delta frames compare states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedState {
    position: [u32; 3],
    orientation: QuantizedQuat,
    /// Hands are offsets from the *dequantized* head position.
    left_hand: [u32; 3],
    right_hand: [u32; 3],
    velocity: [u32; 3],
    expression: [u8; CHANNELS],
}

/// Encoder/decoder for [`AvatarState`] wire frames.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarCodec, AvatarState, Vec3};
///
/// let codec = AvatarCodec::with_defaults();
/// let state = AvatarState::at_position(Vec3::new(3.0, 1.6, 5.0));
/// let bytes = codec.encode_full(&state);
/// let decoded = codec.decode(None, &bytes)?;
/// assert!(state.position_error(&decoded) < 0.01);
/// # Ok::<(), metaclass_avatar::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AvatarCodec {
    cfg: CodecConfig,
    pos: PositionQuantizer,
    quat: QuatQuantizer,
    hand: PositionQuantizer,
    vel: PositionQuantizer,
}

impl AvatarCodec {
    /// Creates a codec from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if a bit width is outside its quantizer's range (see
    /// [`PositionQuantizer::new`] and [`QuatQuantizer::new`]).
    pub fn new(cfg: CodecConfig) -> Self {
        let hand_bounds = SpaceBounds::new(
            Vec3::new(-HAND_RANGE, -HAND_RANGE, -HAND_RANGE),
            Vec3::new(HAND_RANGE, HAND_RANGE, HAND_RANGE),
        );
        let vel_bounds = SpaceBounds::new(
            Vec3::new(-VEL_RANGE, -VEL_RANGE, -VEL_RANGE),
            Vec3::new(VEL_RANGE, VEL_RANGE, VEL_RANGE),
        );
        AvatarCodec {
            pos: PositionQuantizer::new(cfg.bounds, cfg.position_bits),
            quat: QuatQuantizer::new(cfg.orientation_bits),
            hand: PositionQuantizer::new(hand_bounds, cfg.hand_bits),
            vel: PositionQuantizer::new(vel_bounds, cfg.velocity_bits),
            cfg,
        }
    }

    /// Creates a codec with [`CodecConfig::default`].
    pub fn with_defaults() -> Self {
        Self::new(CodecConfig::default())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CodecConfig {
        &self.cfg
    }

    /// Worst-case head-position reconstruction error, metres.
    pub fn position_error_bound(&self) -> f64 {
        self.pos.max_error()
    }

    /// Projects `state` onto the quantization grid. This is all the
    /// floating-point work of encoding: the frame writers
    /// ([`full_frame`](Self::full_frame), [`delta_frame`](Self::delta_frame))
    /// only compare and pack the resulting integers, so a state replicated
    /// on several streams is quantized once.
    pub fn quantize(&self, state: &AvatarState) -> QuantizedState {
        let position = self.pos.quantize(state.head.position);
        // Hand grids are relative to the head a decoder will reconstruct, so
        // pure head translation does not dirty the hands.
        let head_pos = self.pos.dequantize(position);
        QuantizedState {
            position,
            orientation: self.quat.quantize(state.head.orientation),
            left_hand: self.hand.quantize(state.left_hand - head_pos),
            right_hand: self.hand.quantize(state.right_hand - head_pos),
            velocity: self.vel.quantize(state.velocity),
            expression: state.expression.quantize(),
        }
    }

    /// The state a decoder reconstructs from a full frame of `q`.
    pub fn dequantize(&self, q: &QuantizedState) -> AvatarState {
        let head_pos = self.pos.dequantize(q.position);
        AvatarState {
            head: crate::geom::Pose::new(head_pos, self.quat.dequantize(q.orientation)),
            left_hand: head_pos + self.hand.dequantize(q.left_hand),
            right_hand: head_pos + self.hand.dequantize(q.right_hand),
            velocity: self.vel.dequantize(q.velocity),
            expression: ExpressionFrame::from_quantized(&q.expression),
        }
    }

    /// Projects a state onto the quantization grid: what a decoder would
    /// reconstruct from a full frame of `state`. Use the returned state as
    /// the reference for the next [`AvatarCodec::encode_delta`].
    pub fn reconstruct(&self, state: &AvatarState) -> AvatarState {
        self.dequantize(&self.quantize(state))
    }

    /// Encodes a complete snapshot of `state`.
    pub fn encode_full(&self, state: &AvatarState) -> Vec<u8> {
        self.full_frame(&self.quantize(state)).to_vec()
    }

    /// Encodes only the fields of `state` whose quantized value differs from
    /// `reference` (which must be a reconstructed state — see
    /// [`AvatarCodec::reconstruct`]). An unchanged state encodes to ~1 byte.
    pub fn encode_delta(&self, reference: &AvatarState, state: &AvatarState) -> Vec<u8> {
        self.delta_frame(&self.quantize(reference), &self.quantize(state)).to_vec()
    }

    /// Packs a complete snapshot of `q`; [`encode_full`](Self::encode_full)
    /// without the quantization or the allocation.
    pub fn full_frame(&self, q: &QuantizedState) -> FramePayload {
        FramePayload::written(|w| {
            w.write_bool(true); // full frame
            write_grid(w, q.position, self.cfg.position_bits);
            self.write_quat(w, q.orientation);
            write_grid(w, q.left_hand, self.cfg.hand_bits);
            write_grid(w, q.right_hand, self.cfg.hand_bits);
            write_grid(w, q.velocity, self.cfg.velocity_bits);
            for e in q.expression {
                w.write_bits(e as u64, 8);
            }
        })
    }

    /// Packs only the fields of `q` that differ from `reference`, the grid
    /// form of a reconstructed state; [`encode_delta`](Self::encode_delta)
    /// without the quantization or the allocation.
    pub fn delta_frame(&self, reference: &QuantizedState, q: &QuantizedState) -> FramePayload {
        let pos_changed = reference.position != q.position;
        let quat_changed = reference.orientation != q.orientation;
        let lh_changed = reference.left_hand != q.left_hand;
        let rh_changed = reference.right_hand != q.right_hand;
        let vel_changed = reference.velocity != q.velocity;
        let expr_changed = reference.expression != q.expression;
        FramePayload::written(|w| {
            w.write_bool(false); // delta frame
            w.write_bool(pos_changed);
            w.write_bool(quat_changed);
            w.write_bool(lh_changed);
            w.write_bool(rh_changed);
            w.write_bool(vel_changed);
            w.write_bool(expr_changed);

            if pos_changed {
                for (c, p) in q.position.iter().zip(&reference.position) {
                    w.write_varint_signed(*c as i64 - *p as i64);
                }
            }
            if quat_changed {
                self.write_quat(w, q.orientation);
            }
            if lh_changed {
                write_grid(w, q.left_hand, self.cfg.hand_bits);
            }
            if rh_changed {
                write_grid(w, q.right_hand, self.cfg.hand_bits);
            }
            if vel_changed {
                write_grid(w, q.velocity, self.cfg.velocity_bits);
            }
            if expr_changed {
                let mut mask: u64 = 0;
                for (i, (c, p)) in q.expression.iter().zip(&reference.expression).enumerate() {
                    if c != p {
                        mask |= 1 << i;
                    }
                }
                w.write_bits(mask, CHANNELS as u32);
                for (i, c) in q.expression.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        w.write_bits(*c as u64, 8);
                    }
                }
            }
        })
    }

    fn write_quat(&self, w: &mut BitWriter<'_>, q: QuantizedQuat) {
        w.write_bits(q.largest as u64, 2);
        write_grid(w, q.components, self.cfg.orientation_bits);
    }

    fn read_quat(&self, r: &mut BitReader<'_>) -> Result<QuantizedQuat, CodecError> {
        let largest = r.read_bits(2)? as u8;
        let components = read_grid(r, self.cfg.orientation_bits)?;
        Ok(QuantizedQuat { largest, components })
    }

    /// Decodes a frame, applying a delta against `reference` if needed.
    ///
    /// # Errors
    ///
    /// [`CodecError::MissingReference`] if `bytes` is a delta frame and
    /// `reference` is `None`; [`CodecError::Overrun`] on truncated input.
    pub fn decode(
        &self,
        reference: Option<&AvatarState>,
        bytes: &[u8],
    ) -> Result<AvatarState, CodecError> {
        let mut r = BitReader::new(bytes);
        let full = r.read_bool()?;
        if full {
            return self.decode_full_body(&mut r);
        }
        let reference = reference.ok_or(CodecError::MissingReference)?;
        let [pos_changed, quat_changed, lh_changed, rh_changed, vel_changed, expr_changed] =
            read_change_flags(&mut r)?;

        let prev_pg = self.pos.quantize(reference.head.position);
        let cur_pg = if pos_changed { self.read_head_delta(&mut r, prev_pg)? } else { prev_pg };
        let head_pos = self.pos.dequantize(cur_pg);

        let orientation = if quat_changed {
            self.quat.dequantize(self.read_quat(&mut r)?)
        } else {
            reference.head.orientation
        };

        // An unchanged hand keeps its grid offset and follows the head.
        let ref_head = self.pos.dequantize(prev_pg);
        let left_hand = if lh_changed {
            read_grid(&mut r, self.cfg.hand_bits)?
        } else {
            self.hand.quantize(reference.left_hand - ref_head)
        };
        let right_hand = if rh_changed {
            read_grid(&mut r, self.cfg.hand_bits)?
        } else {
            self.hand.quantize(reference.right_hand - ref_head)
        };

        let velocity = if vel_changed {
            self.vel.dequantize(read_grid(&mut r, self.cfg.velocity_bits)?)
        } else {
            reference.velocity
        };

        let expression = if expr_changed {
            let q = read_expression_delta(&mut r, reference.expression.quantize())?;
            ExpressionFrame::from_quantized(&q)
        } else {
            reference.expression
        };

        Ok(AvatarState {
            head: crate::geom::Pose::new(head_pos, orientation),
            left_hand: head_pos + self.hand.dequantize(left_hand),
            right_hand: head_pos + self.hand.dequantize(right_hand),
            velocity,
            expression,
        })
    }

    /// A delta's head grid: `prev` moved by three varint differences.
    fn read_head_delta(
        &self,
        r: &mut BitReader<'_>,
        prev: [u32; 3],
    ) -> Result<[u32; 3], CodecError> {
        let mut g = [0u32; 3];
        for (o, p) in g.iter_mut().zip(&prev) {
            // The difference is untrusted: saturate, then clamp onto the grid.
            let d = r.read_varint_signed()?;
            *o = (*p as i64).saturating_add(d).clamp(0, (1 << self.cfg.position_bits) - 1) as u32;
        }
        Ok(g)
    }

    fn decode_full_body(&self, r: &mut BitReader<'_>) -> Result<AvatarState, CodecError> {
        Ok(self.dequantize(&self.read_full_grid(r)?))
    }

    fn read_full_grid(&self, r: &mut BitReader<'_>) -> Result<QuantizedState, CodecError> {
        let position = read_grid(r, self.cfg.position_bits)?;
        let orientation = self.read_quat(r)?;
        let left_hand = read_grid(r, self.cfg.hand_bits)?;
        let right_hand = read_grid(r, self.cfg.hand_bits)?;
        let velocity = read_grid(r, self.cfg.velocity_bits)?;
        let mut expression = [0u8; CHANNELS];
        for e in &mut expression {
            *e = r.read_bits(8)? as u8;
        }
        Ok(QuantizedState { position, orientation, left_hand, right_hand, velocity, expression })
    }

    /// [`decode`](Self::decode) on the grid: decodes a frame against the grid
    /// form of a reference and returns the grids the frame carries, so a
    /// receiver can keep its references at wire precision. The result is
    /// exact, not close: when `reference` is `Some(g)`,
    /// `dequantize(&decode_grid(Some(g), bytes)?)` is to the bit what
    /// `decode(Some(&dequantize(g)), bytes)` returns, and both fail alike.
    ///
    /// The argument is an induction from the keyframe, which
    /// [`decode`](Self::decode) already builds as `dequantize` of the grids
    /// read. A delta carries an unchanged orientation, velocity or
    /// expression over from its reference, so carrying the grid over
    /// dequantizes to the same floats; and it rebuilds head and hands from
    /// grids, so those are the grids returned. What the float decoder
    /// re-quantizes from its reference (the head grid, unchanged hand
    /// offsets, the expression) is re-quantized here from the same floats,
    /// `dequantize(g)`'s, by the same calls.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_grid(
        &self,
        reference: Option<&QuantizedState>,
        bytes: &[u8],
    ) -> Result<QuantizedState, CodecError> {
        let mut r = BitReader::new(bytes);
        let full = r.read_bool()?;
        if full {
            return self.read_full_grid(&mut r);
        }
        let reference = reference.ok_or(CodecError::MissingReference)?;
        let [pos_changed, quat_changed, lh_changed, rh_changed, vel_changed, expr_changed] =
            read_change_flags(&mut r)?;

        let ref_pos = self.pos.dequantize(reference.position);
        let prev_pg = self.pos.quantize(ref_pos);
        let position = if pos_changed { self.read_head_delta(&mut r, prev_pg)? } else { prev_pg };

        let orientation =
            if quat_changed { self.read_quat(&mut r)? } else { reference.orientation };

        // An unchanged hand keeps its grid offset and follows the head; the
        // offset is re-derived from the reference's absolute hand position,
        // as the float decoder re-derives it.
        let ref_head = self.pos.dequantize(prev_pg);
        let carried_hand =
            |g: [u32; 3]| self.hand.quantize(ref_pos + self.hand.dequantize(g) - ref_head);
        let left_hand = if lh_changed {
            read_grid(&mut r, self.cfg.hand_bits)?
        } else {
            carried_hand(reference.left_hand)
        };
        let right_hand = if rh_changed {
            read_grid(&mut r, self.cfg.hand_bits)?
        } else {
            carried_hand(reference.right_hand)
        };

        let velocity = if vel_changed {
            read_grid(&mut r, self.cfg.velocity_bits)?
        } else {
            reference.velocity
        };

        let expression = if expr_changed {
            let carried = ExpressionFrame::from_quantized(&reference.expression).quantize();
            read_expression_delta(&mut r, carried)?
        } else {
            reference.expression
        };

        Ok(QuantizedState { position, orientation, left_hand, right_hand, velocity, expression })
    }
}

fn write_grid(w: &mut BitWriter<'_>, g: [u32; 3], bits: u32) {
    for c in g {
        w.write_bits(c as u64, bits);
    }
}

/// A delta's six change flags: head, orientation, hands, velocity, expression.
fn read_change_flags(r: &mut BitReader<'_>) -> Result<[bool; 6], ReadOverrunError> {
    let mut flags = [false; 6];
    for f in &mut flags {
        *f = r.read_bool()?;
    }
    Ok(flags)
}

/// A delta's expression: the channels its mask names replace those of `q`.
fn read_expression_delta(
    r: &mut BitReader<'_>,
    mut q: [u8; CHANNELS],
) -> Result<[u8; CHANNELS], ReadOverrunError> {
    let mask = r.read_bits(CHANNELS as u32)?;
    for (i, o) in q.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            *o = r.read_bits(8)? as u8;
        }
    }
    Ok(q)
}

fn read_grid(r: &mut BitReader<'_>, bits: u32) -> Result<[u32; 3], ReadOverrunError> {
    let mut g = [0u32; 3];
    for c in &mut g {
        *c = r.read_bits(bits)? as u32;
    }
    Ok(g)
}

impl Default for AvatarCodec {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::BlendChannel;
    use crate::geom::Quat;
    use proptest::prelude::*;

    fn sample_state() -> AvatarState {
        let mut st = AvatarState::at_position(Vec3::new(4.2, 1.65, 7.7));
        st.head.orientation = Quat::from_euler(0.8, -0.2, 0.05);
        st.velocity = Vec3::new(0.4, 0.0, -0.7);
        st.expression.set(BlendChannel::JawOpen, 0.35);
        st.expression.set(BlendChannel::EyeBlinkLeft, 0.9);
        st
    }

    #[test]
    fn full_frame_roundtrip_within_bounds() {
        let codec = AvatarCodec::with_defaults();
        let st = sample_state();
        let decoded = codec.decode(None, &codec.encode_full(&st)).unwrap();
        assert!(st.position_error(&decoded) <= codec.position_error_bound());
        assert!(st.orientation_error_deg(&decoded) < 0.5);
        assert!(st.hand_error(&decoded) < 0.01);
        assert!(st.expression.max_abs_diff(&decoded.expression) < 0.003);
    }

    #[test]
    fn full_frame_size_is_compact() {
        let codec = AvatarCodec::with_defaults();
        let bytes = codec.encode_full(&sample_state());
        // 1 + 42 + 32 + 60 + 36 + 128 bits = 299 bits = 38 bytes.
        assert!(bytes.len() <= 40, "full frame is {} bytes", bytes.len());
    }

    #[test]
    fn unchanged_delta_is_one_byte() {
        let codec = AvatarCodec::with_defaults();
        let reference = codec.reconstruct(&sample_state());
        let bytes = codec.encode_delta(&reference, &reference);
        assert_eq!(bytes.len(), 1, "idle avatar delta should be 1 byte");
        let decoded = codec.decode(Some(&reference), &bytes).unwrap();
        assert!(reference.position_error(&decoded) < 1e-9);
    }

    #[test]
    fn small_move_delta_is_much_smaller_than_full() {
        let codec = AvatarCodec::with_defaults();
        let st = sample_state();
        let reference = codec.reconstruct(&st);
        let mut moved = reference;
        moved.head.position += Vec3::new(0.01, 0.0, 0.005);
        let delta = codec.encode_delta(&reference, &moved);
        let full = codec.encode_full(&moved);
        assert!(delta.len() * 3 < full.len(), "delta {} full {}", delta.len(), full.len());
    }

    #[test]
    fn delta_decode_matches_full_decode() {
        let codec = AvatarCodec::with_defaults();
        let st = sample_state();
        let reference = codec.reconstruct(&st);
        let mut next = st;
        next.head.position += Vec3::new(0.3, 0.01, -0.2);
        next.head.orientation = Quat::from_yaw(1.1);
        next.left_hand += Vec3::new(0.2, 0.1, 0.0);
        next.velocity = Vec3::new(1.0, 0.0, 0.0);
        next.expression.set(BlendChannel::MouthSmileLeft, 0.7);

        let via_delta =
            codec.decode(Some(&reference), &codec.encode_delta(&reference, &next)).unwrap();
        let via_full = codec.decode(None, &codec.encode_full(&next)).unwrap();
        assert!(via_delta.position_error(&via_full) < 1e-9);
        assert!(via_delta.orientation_error_deg(&via_full) < 1e-6);
        assert!(via_delta.hand_error(&via_full) < 1e-9);
        assert!(via_delta.expression.max_abs_diff(&via_full.expression) < 1e-6);
    }

    #[test]
    fn delta_without_reference_is_an_error() {
        let codec = AvatarCodec::with_defaults();
        let reference = codec.reconstruct(&sample_state());
        let bytes = codec.encode_delta(&reference, &reference);
        assert_eq!(codec.decode(None, &bytes), Err(CodecError::MissingReference));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let codec = AvatarCodec::with_defaults();
        let bytes = codec.encode_full(&sample_state());
        let err = codec.decode(None, &bytes[..10]).unwrap_err();
        assert!(matches!(err, CodecError::Overrun(_)));
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn reconstruct_is_idempotent() {
        let codec = AvatarCodec::with_defaults();
        let once = codec.reconstruct(&sample_state());
        let twice = codec.reconstruct(&once);
        assert!(once.position_error(&twice) < 1e-12);
        assert!(once.hand_error(&twice) < 1e-9);
        assert_eq!(once.expression, twice.expression);
    }

    #[test]
    fn chained_deltas_do_not_drift() {
        let codec = AvatarCodec::with_defaults();
        let mut truth = sample_state();
        let mut reference = codec.reconstruct(&truth);
        for step in 0..200 {
            truth.head.position += Vec3::new(0.01, 0.0, 0.005);
            truth.head.orientation = Quat::from_yaw(step as f64 * 0.01);
            let bytes = codec.encode_delta(&reference, &truth);
            reference = codec.decode(Some(&reference), &bytes).unwrap();
            assert!(
                truth.position_error(&reference) <= codec.position_error_bound() + 1e-9,
                "drift at step {step}: {}",
                truth.position_error(&reference)
            );
        }
    }

    proptest! {
        #[test]
        fn prop_full_roundtrip_error_bounded(
            x in 0.0..20.0f64, y in 0.0..5.0f64, z in 0.0..15.0f64,
            yaw in -3.0f64..3.0, vx in -7.9f64..7.9
        ) {
            let codec = AvatarCodec::with_defaults();
            let mut st = AvatarState::at_position(Vec3::new(x, y, z));
            st.head.orientation = Quat::from_yaw(yaw);
            st.velocity = Vec3::new(vx, 0.0, 0.0);
            let decoded = codec.decode(None, &codec.encode_full(&st)).unwrap();
            prop_assert!(st.position_error(&decoded) <= codec.position_error_bound() + 1e-12);
            prop_assert!(st.orientation_error_deg(&decoded) < 0.5);
            prop_assert!((st.velocity.x - decoded.velocity.x).abs() < 0.005);
        }

        #[test]
        fn prop_delta_equals_full(
            dx in -0.5f64..0.5, dz in -0.5f64..0.5, yaw in -3.0f64..3.0
        ) {
            let codec = AvatarCodec::with_defaults();
            let base = codec.reconstruct(&AvatarState::at_position(Vec3::new(10.0, 1.6, 7.0)));
            let mut next = base;
            next.head.position += Vec3::new(dx, 0.0, dz);
            next.head.orientation = Quat::from_yaw(yaw);
            let via_delta = codec.decode(Some(&base), &codec.encode_delta(&base, &next)).unwrap();
            let via_full = codec.decode(None, &codec.encode_full(&next)).unwrap();
            prop_assert!(via_delta.position_error(&via_full) < 1e-9);
            prop_assert!(via_delta.orientation_error_deg(&via_full) < 1e-6);
        }
    }
}
