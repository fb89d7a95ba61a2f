//! The allocation-free frame path against the forms it replaced, and against
//! hostile input.
//!
//! `BitWriter` packs into a caller's buffer and `AvatarCodec` writes frames
//! from a state quantized beforehand; both must produce exactly the bytes of
//! the straightforward versions — a growing `Vec<u8>` pushed a byte at a
//! time, and encoders that quantize reference and state from floats on every
//! call — which live on here as oracles. The decode surfaces are then fed
//! arbitrary and bit-flipped bytes: they may fail, never panic. Last, the
//! grid-domain decoder a receiver keeps its references with must be the
//! float decoder to the bit, along whole chains of frames.

use metaclass_avatar::{
    AvatarCodec, AvatarState, BitReader, BitWriter, CodecConfig, CodecError, ExpressionFrame,
    FramePayload, Pose, PositionQuantizer, QuantizedQuat, QuantizedState, Quat, QuatQuantizer,
    SpaceBounds, Vec3, CHANNELS, MAX_FRAME_BYTES,
};
use proptest::prelude::*;
use serde::Deserialize;

/// The bit writer as first written: an owned vector grown one byte at a time.
#[derive(Default)]
struct RefBitWriter {
    buf: Vec<u8>,
    partial_bits: u32,
}

impl RefBitWriter {
    fn write_bits(&mut self, value: u64, count: u32) {
        let mut remaining = count;
        while remaining > 0 {
            if self.partial_bits == 0 {
                self.buf.push(0);
            }
            let free = 8 - self.partial_bits;
            let take = free.min(remaining);
            let shift = remaining - take;
            let chunk = ((value >> shift) & ((1u64 << take) - 1)) as u8;
            let byte = self.buf.last_mut().expect("buffer non-empty");
            *byte |= chunk << (free - take);
            self.partial_bits = (self.partial_bits + take) % 8;
            remaining -= take;
        }
    }

    fn write_bool(&mut self, b: bool) {
        self.write_bits(b as u64, 1);
    }

    fn write_varint(&mut self, mut value: u64) {
        loop {
            let byte = value & 0x7f;
            value >>= 7;
            if value == 0 {
                self.write_bits(byte, 8);
                return;
            }
            self.write_bits(byte | 0x80, 8);
        }
    }

    fn write_varint_signed(&mut self, value: i64) {
        self.write_varint((value.wrapping_shl(1) ^ (value >> 63)) as u64);
    }

    fn align(&mut self) {
        self.partial_bits = 0;
    }
}

/// The encoder as first written, over the public quantizers: every call
/// quantizes what it is given, reference included, and `reconstruct` runs
/// the quantizers a second time.
struct RefCodec {
    cfg: CodecConfig,
    pos: PositionQuantizer,
    quat: QuatQuantizer,
    hand: PositionQuantizer,
    vel: PositionQuantizer,
}

impl RefCodec {
    fn new(cfg: CodecConfig) -> Self {
        let cube = |r: f64| SpaceBounds::new(Vec3::new(-r, -r, -r), Vec3::new(r, r, r));
        RefCodec {
            pos: PositionQuantizer::new(cfg.bounds, cfg.position_bits),
            quat: QuatQuantizer::new(cfg.orientation_bits),
            hand: PositionQuantizer::new(cube(1.5), cfg.hand_bits),
            vel: PositionQuantizer::new(cube(8.0), cfg.velocity_bits),
            cfg,
        }
    }

    fn quant_hand(&self, hand: Vec3, head_pos: Vec3) -> [u32; 3] {
        self.hand.quantize(hand - head_pos)
    }

    fn dequant_hand(&self, g: [u32; 3], head_pos: Vec3) -> Vec3 {
        head_pos + self.hand.dequantize(g)
    }

    fn reconstruct(&self, state: &AvatarState) -> AvatarState {
        let head_pos = self.pos.dequantize(self.pos.quantize(state.head.position));
        let orientation = self.quat.dequantize(self.quat.quantize(state.head.orientation));
        let lh = self.dequant_hand(self.quant_hand(state.left_hand, head_pos), head_pos);
        let rh = self.dequant_hand(self.quant_hand(state.right_hand, head_pos), head_pos);
        let vel = self.vel.dequantize(self.vel.quantize(state.velocity));
        AvatarState {
            head: Pose::new(head_pos, orientation),
            left_hand: lh,
            right_hand: rh,
            velocity: vel,
            expression: ExpressionFrame::from_quantized(&state.expression.quantize()),
        }
    }

    fn write_quat(&self, w: &mut RefBitWriter, q: QuantizedQuat) {
        w.write_bits(q.largest as u64, 2);
        for c in q.components {
            w.write_bits(c as u64, self.cfg.orientation_bits);
        }
    }

    fn encode_full(&self, state: &AvatarState) -> Vec<u8> {
        let mut w = RefBitWriter::default();
        w.write_bool(true);
        let pg = self.pos.quantize(state.head.position);
        for g in pg {
            w.write_bits(g as u64, self.cfg.position_bits);
        }
        let head_pos = self.pos.dequantize(pg);
        self.write_quat(&mut w, self.quat.quantize(state.head.orientation));
        for g in self.quant_hand(state.left_hand, head_pos) {
            w.write_bits(g as u64, self.cfg.hand_bits);
        }
        for g in self.quant_hand(state.right_hand, head_pos) {
            w.write_bits(g as u64, self.cfg.hand_bits);
        }
        for g in self.vel.quantize(state.velocity) {
            w.write_bits(g as u64, self.cfg.velocity_bits);
        }
        for q in state.expression.quantize() {
            w.write_bits(q as u64, 8);
        }
        w.buf
    }

    fn encode_delta(&self, reference: &AvatarState, state: &AvatarState) -> Vec<u8> {
        let mut w = RefBitWriter::default();
        w.write_bool(false);

        let prev_pg = self.pos.quantize(reference.head.position);
        let cur_pg = self.pos.quantize(state.head.position);
        let pos_changed = prev_pg != cur_pg;
        let cur_head = self.pos.dequantize(cur_pg);
        let prev_q = self.quat.quantize(reference.head.orientation);
        let cur_q = self.quat.quantize(state.head.orientation);
        let quat_changed = prev_q != cur_q;
        let ref_head = self.pos.dequantize(prev_pg);
        let prev_lh = self.quant_hand(reference.left_hand, ref_head);
        let cur_lh = self.quant_hand(state.left_hand, cur_head);
        let lh_changed = prev_lh != cur_lh;
        let prev_rh = self.quant_hand(reference.right_hand, ref_head);
        let cur_rh = self.quant_hand(state.right_hand, cur_head);
        let rh_changed = prev_rh != cur_rh;
        let prev_v = self.vel.quantize(reference.velocity);
        let cur_v = self.vel.quantize(state.velocity);
        let vel_changed = prev_v != cur_v;
        let prev_e = reference.expression.quantize();
        let cur_e = state.expression.quantize();
        let expr_changed = prev_e != cur_e;

        w.write_bool(pos_changed);
        w.write_bool(quat_changed);
        w.write_bool(lh_changed);
        w.write_bool(rh_changed);
        w.write_bool(vel_changed);
        w.write_bool(expr_changed);

        if pos_changed {
            for (c, p) in cur_pg.iter().zip(&prev_pg) {
                w.write_varint_signed(*c as i64 - *p as i64);
            }
        }
        if quat_changed {
            self.write_quat(&mut w, cur_q);
        }
        if lh_changed {
            for g in cur_lh {
                w.write_bits(g as u64, self.cfg.hand_bits);
            }
        }
        if rh_changed {
            for g in cur_rh {
                w.write_bits(g as u64, self.cfg.hand_bits);
            }
        }
        if vel_changed {
            for g in cur_v {
                w.write_bits(g as u64, self.cfg.velocity_bits);
            }
        }
        if expr_changed {
            let mut mask: u64 = 0;
            for (i, (c, p)) in cur_e.iter().zip(&prev_e).enumerate() {
                if c != p {
                    mask |= 1 << i;
                }
            }
            w.write_bits(mask, CHANNELS as u32);
            for (i, c) in cur_e.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    w.write_bits(*c as u64, 8);
                }
            }
        }
        w.buf
    }
}

/// Codec shapes the properties run under: the protocol default, the
/// narrowest and the widest fields a configuration may name (the widest is
/// what `MAX_FRAME_BYTES` is sized for), and a large space at mixed widths.
fn codec_shapes() -> [CodecConfig; 4] {
    let base = CodecConfig::default();
    [
        base,
        CodecConfig {
            position_bits: 1,
            orientation_bits: 2,
            hand_bits: 1,
            velocity_bits: 1,
            ..base
        },
        CodecConfig {
            position_bits: 30,
            orientation_bits: 16,
            hand_bits: 30,
            velocity_bits: 30,
            ..base
        },
        CodecConfig {
            bounds: SpaceBounds::auditorium(),
            position_bits: 17,
            orientation_bits: 9,
            ..base
        },
    ]
}

/// The shape every session stream uses (`metaclass_core::protocol_codec`,
/// built here because this crate sits below `core`): auditorium bounds at
/// 15 position bits.
fn protocol_shape() -> CodecConfig {
    CodecConfig { bounds: SpaceBounds::auditorium(), position_bits: 15, ..CodecConfig::default() }
}

/// Sixteen raw numbers and sixteen weights to a state. `lattice` snaps the
/// orientation to quarter steps, which makes exact smallest-three ties (two
/// components of equal magnitude) common; positions and hands range past the
/// bounds so clamping is exercised.
fn state_from(raw: &[f64], weights: &[u8], lattice: bool) -> AvatarState {
    let v = |i: usize, scale: f64| Vec3::new(raw[i], raw[i + 1], raw[i + 2]) * scale;
    let snap = |x: f64| if lattice { (x * 4.0).round() / 4.0 } else { x };
    let head = Vec3::new(10.0, 2.5, 7.5) + v(0, 14.0);
    let mut w = [0f32; CHANNELS];
    for (o, b) in w.iter_mut().zip(weights) {
        *o = *b as f32 / 200.0; // past 1.0 at the top: clamped by `from_weights`
    }
    AvatarState {
        head: Pose::new(head, Quat::new(snap(raw[3]), snap(raw[4]), snap(raw[5]), snap(raw[6]))),
        left_hand: head + v(7, 2.0),
        right_hand: head + v(10, 2.0),
        velocity: v(13, 10.0),
        expression: ExpressionFrame::from_weights(w),
    }
}

fn bits(s: &AvatarState) -> Vec<u64> {
    let q = s.head.orientation;
    [s.head.position, s.left_hand, s.right_hand, s.velocity]
        .iter()
        .flat_map(|v| [v.x, v.y, v.z])
        .chain([q.w, q.x, q.y, q.z])
        .map(f64::to_bits)
        .chain(s.expression.weights().iter().map(|w| u64::from(w.to_bits())))
        .collect()
}

fn raw_state() -> impl Strategy<Value = (Vec<f64>, Vec<u8>, bool)> {
    (
        proptest::collection::vec(-1.0..1.0f64, 16),
        proptest::collection::vec(any::<u8>(), CHANNELS),
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // (a) Packing in place writes the bytes the growing vector held, for any
    // mix of fields, varints and alignments, into a buffer that starts dirty.
    #[test]
    fn in_place_writer_matches_the_growing_vector(
        ops in proptest::collection::vec((0u32..4, any::<u64>(), 1u32..=64), 0..40),
    ) {
        let mut slow = RefBitWriter::default();
        let mut buf = [0x5au8; 512];
        let mut fast = BitWriter::new(&mut buf);
        for (kind, value, count) in ops {
            match kind {
                0 => {
                    let value = if count == 64 { value } else { value & ((1u64 << count) - 1) };
                    fast.write_bits(value, count);
                    slow.write_bits(value, count);
                }
                1 => {
                    fast.write_varint(value >> (count - 1));
                    slow.write_varint(value >> (count - 1));
                }
                2 => {
                    fast.write_varint_signed(value as i64 >> (count - 1));
                    slow.write_varint_signed(value as i64 >> (count - 1));
                }
                _ => {
                    fast.align();
                    slow.align();
                }
            }
            prop_assert_eq!(fast.byte_len(), slow.buf.len());
        }
        let len = fast.byte_len();
        prop_assert_eq!(&buf[..len], &slow.buf[..]);
    }

    // (b) Frames written from pre-quantized states are the frames the
    // float-domain encoders wrote — including a delta against a
    // *reconstructed* reference, whose orientation may re-quantize with a
    // different dropped component than the state it came from — and fit the
    // inline capacity at every field width.
    #[test]
    fn quantize_once_frames_match_the_float_domain_encoders(
        shape in 0usize..4,
        (raw_a, weights_a, lattice_a) in raw_state(),
        (raw_b, weights_b, lattice_b) in raw_state(),
        same in 0u32..4,
    ) {
        let cfg = codec_shapes()[shape];
        let (fast, slow) = (AvatarCodec::new(cfg), RefCodec::new(cfg));
        let a = state_from(&raw_a, &weights_a, lattice_a);
        // One pair in four is a state against itself: the all-unchanged delta.
        let b = if same == 0 { a } else { state_from(&raw_b, &weights_b, lattice_b) };

        let reference = slow.reconstruct(&a);
        prop_assert_eq!(bits(&fast.reconstruct(&a)), bits(&reference));
        prop_assert_eq!(bits(&fast.dequantize(&fast.quantize(&a))), bits(&reference));

        let full = slow.encode_full(&b);
        prop_assert!(full.len() <= MAX_FRAME_BYTES);
        prop_assert_eq!(&fast.encode_full(&b), &full);
        prop_assert_eq!(&fast.full_frame(&fast.quantize(&b))[..], &full[..]);

        let delta = slow.encode_delta(&reference, &b);
        prop_assert!(delta.len() <= MAX_FRAME_BYTES);
        prop_assert_eq!(&fast.encode_delta(&reference, &b), &delta);
        let quantized_reference = fast.quantize(&fast.dequantize(&fast.quantize(&a)));
        prop_assert_eq!(&fast.delta_frame(&quantized_reference, &fast.quantize(&b))[..], &delta[..]);

        // And both still decode to what the reference encoder meant.
        prop_assert_eq!(bits(&fast.decode(None, &full).unwrap()), bits(&slow.reconstruct(&b)));
        prop_assert!(fast.decode(Some(&reference), &delta).is_ok());
    }

    // (c) Arbitrary bytes into the bit reader: every read is a value or an
    // overrun, including varints that never terminate.
    #[test]
    fn bit_reader_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        reads in proptest::collection::vec((0u32..5, 0u32..=64), 1..64),
        continuation in any::<bool>(),
    ) {
        let bytes: Vec<u8> =
            bytes.into_iter().map(|b| if continuation { b | 0x80 } else { b }).collect();
        let mut r = BitReader::new(&bytes);
        for (kind, count) in reads {
            let before = r.remaining_bits();
            let failed = match kind {
                0 => r.read_bits(count).is_err(),
                1 => r.read_bool().is_err(),
                2 => r.read_varint().is_err(),
                3 => r.read_varint_signed().is_err(),
                _ => {
                    r.align();
                    false
                }
            };
            prop_assert!(r.remaining_bits() <= before);
            prop_assert!(!failed || r.remaining_bits() < 64, "a read fails only at the end");
        }
    }

    // (d) Arbitrary bytes, and valid frames with bits flipped or the tail cut
    // off, into the codec: a state or an error, at every field width, with
    // and without a reference.
    #[test]
    fn codec_decode_survives_hostile_frames(
        shape in 0usize..4,
        (raw, weights, lattice) in raw_state(),
        noise in proptest::collection::vec(any::<u8>(), 0..=MAX_FRAME_BYTES),
        flips in proptest::collection::vec(any::<u16>(), 1..8),
        cut in any::<u16>(),
    ) {
        let codec = AvatarCodec::new(codec_shapes()[shape]);
        let state = state_from(&raw, &weights, lattice);
        let reference = codec.reconstruct(&state.extrapolate(0.3));

        for reference in [None, Some(&reference)] {
            match codec.decode(reference, &noise) {
                Ok(decoded) => prop_assert!(decoded.is_finite()),
                Err(CodecError::MissingReference) => prop_assert!(reference.is_none()),
                Err(CodecError::Overrun(_)) => {}
            }
        }
        for valid in [codec.encode_full(&state), codec.encode_delta(&reference, &state)] {
            let mut frame = valid.clone();
            for flip in &flips {
                let bit = *flip as usize % (frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = codec.decode(Some(&reference), &frame) {
                    prop_assert!(decoded.is_finite());
                }
            }
            let cut = cut as usize % valid.len();
            // A cut frame may still parse when only padding went missing.
            let _ = codec.decode(Some(&reference), &valid[..cut]);
        }
    }

    // (e) Chains of keyframes and deltas — the same state again, new states
    // with orientation ties, frames with bits flipped or the tail cut off —
    // through a float receiver and a grid receiver side by side. Before each
    // frame the grid reference dequantizes to the float reference, and the
    // frame decodes to the same bits, or the same error, on both.
    #[test]
    fn the_grid_decoder_is_the_float_decoder_to_the_bit(
        shape in 0usize..5,
        chain in proptest::collection::vec(
            (raw_state(), 0u32..8, 0u32..4, proptest::collection::vec(any::<u16>(), 1..4)),
            1..24,
        ),
    ) {
        let cfg = codec_shapes().into_iter().chain([protocol_shape()]).nth(shape).unwrap();
        let codec = AvatarCodec::new(cfg);
        let mut grid: Option<QuantizedState> = None;
        let mut float: Option<AvatarState> = None;
        let mut last = None;
        for (step, ((raw, weights, lattice), kind, mangle, noise)) in chain.into_iter().enumerate() {
            prop_assert_eq!(grid.map(|g| bits(&codec.dequantize(&g))), float.map(|s| bits(&s)));
            // One frame in eight is a keyframe, one the previous state again
            // (the all-unchanged delta); the rest are new states. A delta is
            // written as a sender writes it, against the grid form of the
            // reconstructed reference.
            let state = match (kind, last) {
                (1, Some(last)) => last,
                _ => state_from(&raw, &weights, lattice),
            };
            last = Some(state);
            let wire = codec.quantize(&state);
            let mut frame = match grid {
                Some(g) if kind != 0 => {
                    codec.delta_frame(&codec.quantize(&codec.dequantize(&g)), &wire).to_vec()
                }
                _ => codec.full_frame(&wire).to_vec(),
            };
            match mangle {
                2 => {
                    for flip in &noise {
                        let bit = *flip as usize % (frame.len() * 8);
                        frame[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                3 => frame.truncate(noise[0] as usize % frame.len()),
                _ => {}
            }

            let by_grid = codec.decode_grid(grid.as_ref(), &frame);
            let by_float = codec.decode(float.as_ref(), &frame);
            prop_assert_eq!(
                by_grid.map(|q| bits(&codec.dequantize(&q))),
                by_float.map(|s| bits(&s)),
                "step {}", step
            );
            // Without a reference, too: a keyframe or the same error.
            prop_assert_eq!(
                codec.decode_grid(None, &frame).map(|q| bits(&codec.dequantize(&q))),
                codec.decode(None, &frame).map(|s| bits(&s)),
                "step {} without a reference", step
            );
            // What applied becomes the next reference, mangled or not.
            if let (Ok(q), Ok(s)) = (by_grid, by_float) {
                grid = Some(q);
                float = Some(s);
            }
        }
    }
}

/// The widest delta a codec can write — every field changed, head
/// differences at the far end of a 30-bit grid — fills the inline capacity
/// to the byte: the constant is the worst case, not a guess above it.
#[test]
fn the_widest_delta_is_exactly_the_inline_capacity() {
    let cfg = codec_shapes()[2];
    let codec = AvatarCodec::new(cfg);
    let mut far = AvatarState::at_position(cfg.bounds.max);
    far.head.orientation = Quat::from_euler(2.0, 0.7, -1.1);
    far.left_hand = far.head.position + Vec3::new(1.5, 1.5, 1.5);
    far.right_hand = far.head.position - Vec3::new(1.5, 1.5, 1.5);
    far.velocity = Vec3::new(8.0, -8.0, 8.0);
    far.expression = ExpressionFrame::from_weights([1.0; CHANNELS]);
    let near = codec.reconstruct(&AvatarState::at_position(cfg.bounds.min));

    let delta = codec.delta_frame(&codec.quantize(&near), &codec.quantize(&far));
    assert_eq!(delta.len(), MAX_FRAME_BYTES);
    assert_eq!(MAX_FRAME_BYTES, 74);
    assert!(codec.full_frame(&codec.quantize(&far)).len() < MAX_FRAME_BYTES);
    let decoded = codec.decode(Some(&near), &delta).unwrap();
    assert!(far.position_error(&decoded) <= codec.position_error_bound());
}

/// A byte string longer than a frame can be is refused where it enters —
/// `TryFrom` and deserialization alike — never cut to fit.
#[test]
fn an_oversized_payload_is_rejected_not_truncated() {
    let fits = vec![7u8; MAX_FRAME_BYTES];
    let payload = FramePayload::try_from(&fits[..]).unwrap();
    assert_eq!(&payload[..], &fits[..]);
    assert_eq!(FramePayload::try_from(&[][..]).unwrap().len(), 0);

    let long = vec![7u8; MAX_FRAME_BYTES + 1];
    let err = FramePayload::try_from(&long[..]).unwrap_err();
    assert_eq!(err.len, MAX_FRAME_BYTES + 1);
    assert!(err.to_string().contains("exceeds"));

    let as_value = |bytes: &[u8]| {
        serde::Value::Array(bytes.iter().map(|b| serde::Value::UInt(u128::from(*b))).collect())
    };
    assert_eq!(FramePayload::from_value(&as_value(&fits)).unwrap(), payload);
    assert!(FramePayload::from_value(&as_value(&long)).is_err());
    assert!(FramePayload::from_value(&serde::Value::Array(vec![serde::Value::UInt(256)])).is_err());
    assert!(FramePayload::from_value(&serde::Value::Str("frame".into())).is_err());
}
