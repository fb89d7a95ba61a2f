//! Bit-level serialization for the avatar wire format.
//!
//! The blueprint's edge servers "package" avatar state for "real-time
//! transmission" (§3.2); at 60 Hz per participant, every bit on the wire
//! matters. [`BitWriter`] and [`BitReader`] provide MSB-first bit packing and
//! LEB128 varints on top of a plain byte slice.

use std::fmt;

/// Error returned when a [`BitReader`] runs past the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOverrunError {
    /// Bits requested by the failing read.
    pub requested: u32,
    /// Bits that remained in the stream.
    pub remaining: u64,
}

impl fmt::Display for ReadOverrunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bitstream overrun: requested {} bits, {} remaining",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for ReadOverrunError {}

/// An MSB-first bit-level writer over a caller-provided byte buffer.
///
/// Bits are packed in place, so a frame can be written straight into its
/// fixed-capacity inline storage (see [`FramePayload`](crate::FramePayload))
/// without touching the allocator. Every byte the writer starts is zeroed
/// first; the buffer's previous contents do not matter.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{BitReader, BitWriter};
///
/// let mut buf = [0u8; 8];
/// let mut w = BitWriter::new(&mut buf);
/// w.write_bits(0b101, 3);
/// w.write_bool(true);
/// w.write_varint(300);
/// let len = w.byte_len();
///
/// let mut r = BitReader::new(&buf[..len]);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert!(r.read_bool().unwrap());
/// assert_eq!(r.read_varint().unwrap(), 300);
/// ```
#[derive(Debug)]
pub struct BitWriter<'a> {
    buf: &'a mut [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitWriter<'a> {
    /// Creates a writer at the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        BitWriter { buf, pos: 0 }
    }

    /// Writes the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`, if `value` has bits set above `count`, or if
    /// the buffer has no room for `count` more bits.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        assert!(
            count == 64 || value < (1u64 << count),
            "value {value} does not fit in {count} bits"
        );
        assert!(
            self.pos + count as usize <= self.buf.len() * 8,
            "bit writer overflow: {count} bits at bit {} of a {}-byte buffer",
            self.pos,
            self.buf.len()
        );
        let mut remaining = count;
        while remaining > 0 {
            let used = (self.pos % 8) as u32;
            let byte = &mut self.buf[self.pos / 8];
            if used == 0 {
                *byte = 0;
            }
            let free = 8 - used;
            let take = free.min(remaining);
            let shift = remaining - take;
            let chunk = ((value >> shift) & ((1u64 << take) - 1)) as u8;
            *byte |= chunk << (free - take);
            self.pos += take as usize;
            remaining -= take;
        }
    }

    /// Writes a single bit.
    pub fn write_bool(&mut self, b: bool) {
        self.write_bits(b as u64, 1);
    }

    /// Writes an unsigned LEB128 varint (1 byte for values < 128).
    pub fn write_varint(&mut self, mut value: u64) {
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

    /// Writes a signed varint via zigzag encoding.
    pub fn write_varint_signed(&mut self, value: i64) {
        self.write_varint((value.wrapping_shl(1) ^ (value >> 63)) as u64);
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Current length in whole bytes (including a partially filled final
    /// byte, whose unwritten low bits are zero).
    pub fn byte_len(&self) -> usize {
        self.pos.div_ceil(8)
    }
}

/// An MSB-first bit-level reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Bits remaining in the stream.
    pub fn remaining_bits(&self) -> u64 {
        (self.buf.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Reads `count` bits, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`ReadOverrunError`] if fewer than `count` bits remain.
    pub fn read_bits(&mut self, count: u32) -> Result<u64, ReadOverrunError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.remaining_bits() < count as u64 {
            return Err(ReadOverrunError { requested: count, remaining: self.remaining_bits() });
        }
        let mut out: u64 = 0;
        let mut remaining = count;
        while remaining > 0 {
            let byte = self.buf[(self.pos / 8) as usize];
            let offset = (self.pos % 8) as u32;
            let avail = 8 - offset;
            let take = avail.min(remaining);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | chunk as u64;
            self.pos += take as u64;
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`ReadOverrunError`] at end of stream.
    pub fn read_bool(&mut self) -> Result<bool, ReadOverrunError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads an unsigned LEB128 varint. A `u64` spans at most ten groups, so
    /// a hostile eleventh continuation byte is left unread rather than
    /// shifted past the value's width.
    ///
    /// # Errors
    ///
    /// Returns [`ReadOverrunError`] if the stream ends mid-varint.
    pub fn read_varint(&mut self) -> Result<u64, ReadOverrunError> {
        let mut out: u64 = 0;
        for shift in (0..u64::BITS).step_by(7) {
            let byte = self.read_bits(8)?;
            out |= (byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
        }
        Ok(out)
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Returns [`ReadOverrunError`] if the stream ends mid-varint.
    pub fn read_varint_signed(&mut self) -> Result<i64, ReadOverrunError> {
        let raw = self.read_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Skips forward to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs `write` over a scratch buffer and returns the bytes it produced.
    /// The buffer starts dirty: the writer must not rely on zeroed storage.
    fn written(write: impl FnOnce(&mut BitWriter<'_>)) -> Vec<u8> {
        let mut buf = [0xa5u8; 512];
        let mut w = BitWriter::new(&mut buf);
        write(&mut w);
        let len = w.byte_len();
        buf[..len].to_vec()
    }

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let bytes = written(|w| {
            for &b in &pattern {
                w.write_bool(b);
            }
        });
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bool().unwrap(), b);
        }
    }

    #[test]
    fn cross_byte_fields_roundtrip() {
        let bytes = written(|w| {
            w.write_bits(0x3, 2);
            w.write_bits(0x1234, 13);
            w.write_bits(0x0fff_ffff, 28);
        });
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
        assert_eq!(r.read_bits(13).unwrap(), 0x1234);
        assert_eq!(r.read_bits(28).unwrap(), 0x0fff_ffff);
    }

    #[test]
    fn sixty_four_bit_write() {
        let bytes = written(|w| w.write_bits(u64::MAX, 64));
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn varint_sizes() {
        for (v, expected_bytes) in [(0u64, 1usize), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            assert_eq!(written(|w| w.write_varint(v)).len(), expected_bytes, "value {v}");
        }
    }

    #[test]
    fn overrun_is_an_error_not_a_panic() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        let err = r.read_bits(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(err.remaining, 0);
        assert!(err.to_string().contains("overrun"));
    }

    #[test]
    fn align_pads_and_skips() {
        let bytes = written(|w| {
            w.write_bits(1, 1);
            w.align();
            w.write_bits(0xab, 8);
        });
        assert_eq!(bytes, [0x80, 0xab], "padding bits are zero");
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align();
        assert_eq!(r.read_bits(8).unwrap(), 0xab);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut buf = [0u8; 2];
        let mut w = BitWriter::new(&mut buf);
        assert_eq!(w.pos, 0);
        w.write_bits(0, 3);
        assert_eq!(w.pos, 3);
        w.write_bits(0, 5);
        assert_eq!(w.pos, 8);
        w.write_bits(0, 1);
        assert_eq!(w.pos, 9);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut buf = [0u8; 1];
        BitWriter::new(&mut buf).write_bits(8, 3);
    }

    #[test]
    #[should_panic(expected = "bit writer overflow")]
    fn writing_past_the_buffer_panics_before_touching_it() {
        let mut buf = [0u8; 1];
        let mut w = BitWriter::new(&mut buf);
        w.write_bits(0x7f, 7);
        w.write_bits(0b11, 2);
    }

    proptest! {
        #[test]
        fn prop_bits_roundtrip(fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..50)) {
            let masked: Vec<(u64, u32)> = fields
                .iter()
                .map(|&(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
                .collect();
            let bytes = written(|w| {
                for &(v, n) in &masked {
                    w.write_bits(v, n);
                }
            });
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &masked {
                prop_assert_eq!(r.read_bits(n).unwrap(), v);
            }
        }

        #[test]
        fn prop_varint_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..50)) {
            let bytes = written(|w| {
                for &v in &values {
                    w.write_varint(v);
                }
            });
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.read_varint().unwrap(), v);
            }
        }

        #[test]
        fn prop_signed_varint_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..50)) {
            let bytes = written(|w| {
                for &v in &values {
                    w.write_varint_signed(v);
                }
            });
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.read_varint_signed().unwrap(), v);
            }
        }

        #[test]
        fn prop_small_signed_varints_are_one_byte(v in -64i64..64) {
            prop_assert_eq!(written(|w| w.write_varint_signed(v)).len(), 1);
        }
    }
}
