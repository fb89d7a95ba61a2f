//! Frame packetization with forward error correction.
//!
//! A video frame is split into `k` equal data shards, extended with `m`
//! Reed–Solomon parity shards, and each shard travels as one packet. The
//! receiver reassembles the frame from *any* `k` arriving shards — no
//! retransmission round-trip, which is the entire latency argument of §3.3.

use std::collections::btree_map::{BTreeMap, Entry};

use serde::{Deserialize, Serialize};

use crate::rs::{ReedSolomon, RsError};

/// FEC configuration: shards per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FecConfig {
    /// Data shards per frame (k).
    pub data_shards: usize,
    /// Parity shards per frame (m). Overhead is `m / k`.
    pub parity_shards: usize,
}

impl Default for FecConfig {
    fn default() -> Self {
        // 25% overhead: tolerates 1-in-5 packet loss per frame.
        FecConfig { data_shards: 8, parity_shards: 2 }
    }
}

impl FecConfig {
    /// Bandwidth overhead ratio added by parity (`m / k`).
    pub fn overhead(&self) -> f64 {
        self.parity_shards as f64 / self.data_shards as f64
    }
}

/// One shard of one frame, as carried in a packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameShard {
    /// Which frame this shard belongs to.
    pub frame_id: u64,
    /// Shard index in `0..(k + m)`; indexes `< k` are data.
    pub index: u16,
    /// Data shards in this frame (k).
    pub data_shards: u16,
    /// Parity shards in this frame (m).
    pub parity_shards: u16,
    /// Original frame length (the last data shard is zero-padded).
    pub frame_len: u32,
    /// Shard payload.
    pub payload: Vec<u8>,
}

impl FrameShard {
    /// Wire size: payload plus the 17-byte shard header.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + 17
    }
}

/// Splits a frame into `k` data + `m` parity shards.
///
/// # Errors
///
/// Propagates [`RsError`] for invalid configurations; `frame` must be
/// non-empty.
///
/// # Examples
///
/// ```
/// use metaclass_media::{shard_frame, FecConfig, FrameAssembler};
///
/// let cfg = FecConfig { data_shards: 4, parity_shards: 2 };
/// let frame: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
/// let shards = shard_frame(7, &frame, cfg)?;
/// assert_eq!(shards.len(), 6);
///
/// // Deliver only 4 of 6 shards (drop one data, one parity):
/// let mut asm = FrameAssembler::new();
/// for s in shards.into_iter().enumerate().filter(|(i, _)| *i != 1 && *i != 5).map(|(_, s)| s) {
///     if let Some((id, data)) = asm.ingest(s)? {
///         assert_eq!(id, 7);
///         assert_eq!(data, frame);
///     }
/// }
/// # Ok::<(), metaclass_media::RsError>(())
/// ```
pub fn shard_frame(
    frame_id: u64,
    frame: &[u8],
    cfg: FecConfig,
) -> Result<Vec<FrameShard>, RsError> {
    if frame.is_empty() {
        return Err(RsError::ShardSizeMismatch);
    }
    let k = cfg.data_shards;
    let m = cfg.parity_shards;
    let rs = ReedSolomon::new(k, m)?;
    let shard_len = frame.len().div_ceil(k);
    let mut data: Vec<Vec<u8>> = Vec::with_capacity(k);
    for i in 0..k {
        let start = (i * shard_len).min(frame.len());
        let end = ((i + 1) * shard_len).min(frame.len());
        let mut s = frame[start..end].to_vec();
        s.resize(shard_len, 0);
        data.push(s);
    }
    let parity = rs.encode(&data)?;
    let mut out = Vec::with_capacity(k + m);
    for (i, payload) in data.into_iter().chain(parity).enumerate() {
        out.push(FrameShard {
            frame_id,
            index: i as u16,
            data_shards: k as u16,
            parity_shards: m as u16,
            frame_len: frame.len() as u32,
            payload,
        });
    }
    Ok(out)
}

#[derive(Debug, Clone)]
struct PartialFrame {
    shards: Vec<Option<Vec<u8>>>,
    received: usize,
    data_shards: usize,
    shard_len: usize,
    frame_len: usize,
}

/// Reassembles frames from arriving shards, reconstructing through FEC as
/// soon as any `k` shards of a frame are in.
#[derive(Debug, Clone, Default)]
pub struct FrameAssembler {
    pending: BTreeMap<u64, PartialFrame>,
    /// Frames already delivered (late duplicates are ignored).
    delivered_up_to: Option<u64>,
    delivered: Vec<u64>,
    recovered_via_parity: u64,
    capacity: usize,
}

impl FrameAssembler {
    /// Creates an assembler holding at most 64 incomplete frames.
    pub fn new() -> Self {
        FrameAssembler {
            pending: BTreeMap::new(),
            delivered_up_to: None,
            delivered: Vec::new(),
            recovered_via_parity: 0,
            capacity: 64,
        }
    }

    /// Frames that needed parity reconstruction (vs all-data arrivals).
    pub fn recovered_via_parity(&self) -> u64 {
        self.recovered_via_parity
    }

    /// Incomplete frames currently buffered.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Ingests one shard. Returns the reassembled `(frame_id, bytes)` when
    /// this shard completes its frame; duplicates and shards of
    /// already-delivered frames return `Ok(None)`.
    ///
    /// Shard headers are untrusted: nothing is reserved by a length a header
    /// claims until the shard's geometry has been checked against what it
    /// carries. A frame's first shard fixes its geometry and payload size.
    ///
    /// # Errors
    ///
    /// [`RsError::InvalidShardCounts`] unless `1 <= k` and `k + m <= 256`;
    /// [`RsError::WrongShardCount`] for an index past `k + m` or counts that
    /// differ from the frame's first shard; [`RsError::ShardSizeMismatch`]
    /// if the first shard's `frame_len` exceeds `k` payloads or a later
    /// shard's payload differs in length from the first's. A rejected shard
    /// leaves the assembler as it was.
    pub fn ingest(&mut self, shard: FrameShard) -> Result<Option<(u64, Vec<u8>)>, RsError> {
        if self.delivered.contains(&shard.frame_id) {
            return Ok(None);
        }
        let k = shard.data_shards as usize;
        let m = shard.parity_shards as usize;
        let total = k + m;
        if k == 0 || total > 256 {
            return Err(RsError::InvalidShardCounts { data: k, parity: m });
        }
        if shard.index as usize >= total {
            return Err(RsError::WrongShardCount { got: shard.index as usize, expected: total });
        }
        let entry = match self.pending.entry(shard.frame_id) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(slot) => {
                if shard.frame_len as usize > k * shard.payload.len() {
                    return Err(RsError::ShardSizeMismatch);
                }
                slot.insert(PartialFrame {
                    shards: vec![None; total],
                    received: 0,
                    data_shards: k,
                    shard_len: shard.payload.len(),
                    frame_len: shard.frame_len as usize,
                })
            }
        };
        if entry.shards.len() != total || entry.data_shards != k {
            return Err(RsError::WrongShardCount { got: total, expected: entry.shards.len() });
        }
        if shard.payload.len() != entry.shard_len {
            return Err(RsError::ShardSizeMismatch);
        }
        let slot = &mut entry.shards[shard.index as usize];
        if slot.is_none() {
            *slot = Some(shard.payload);
            entry.received += 1;
        }
        if entry.received < k {
            // Bound memory: evict the oldest incomplete frame if over capacity.
            if self.pending.len() > self.capacity {
                let oldest = *self.pending.keys().next().expect("non-empty");
                self.pending.remove(&oldest);
            }
            return Ok(None);
        }

        // Complete: reconstruct if any data shard is missing.
        let mut entry = self.pending.remove(&shard.frame_id).expect("present");
        let missing_data = entry.shards[..k].iter().any(|s| s.is_none());
        if missing_data {
            let rs = ReedSolomon::new(k, m)?;
            rs.reconstruct(&mut entry.shards)?;
            self.recovered_via_parity += 1;
        }
        let mut frame = Vec::with_capacity(entry.frame_len);
        for s in entry.shards[..k].iter() {
            frame.extend_from_slice(s.as_ref().expect("reconstructed"));
        }
        frame.truncate(entry.frame_len);
        self.delivered.push(shard.frame_id);
        if self.delivered.len() > 256 {
            self.delivered.remove(0);
        }
        self.delivered_up_to =
            Some(self.delivered_up_to.map_or(shard.frame_id, |d| d.max(shard.frame_id)));
        Ok(Some((shard.frame_id, frame)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_netsim::DetRng;
    use proptest::prelude::*;

    fn frame(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        (0..len).map(|_| rng.range_u64(0, 256) as u8).collect()
    }

    #[test]
    fn all_data_shards_reassemble_without_parity() {
        let cfg = FecConfig { data_shards: 5, parity_shards: 2 };
        let f = frame(997, 1);
        let shards = shard_frame(1, &f, cfg).unwrap();
        let mut asm = FrameAssembler::new();
        let mut out = None;
        for s in shards.into_iter().take(5) {
            out = asm.ingest(s).unwrap().or(out);
        }
        assert_eq!(out.unwrap().1, f);
        assert_eq!(asm.recovered_via_parity(), 0);
    }

    #[test]
    fn parity_fills_in_for_lost_data() {
        let cfg = FecConfig { data_shards: 5, parity_shards: 2 };
        let f = frame(997, 2);
        let shards = shard_frame(9, &f, cfg).unwrap();
        let mut asm = FrameAssembler::new();
        let mut out = None;
        // Drop data shards 0 and 3, keep everything else.
        for (i, s) in shards.into_iter().enumerate() {
            if i == 0 || i == 3 {
                continue;
            }
            out = asm.ingest(s).unwrap().or(out);
        }
        assert_eq!(out.unwrap().1, f);
        assert_eq!(asm.recovered_via_parity(), 1);
    }

    #[test]
    fn insufficient_shards_never_deliver() {
        let cfg = FecConfig { data_shards: 4, parity_shards: 1 };
        let f = frame(100, 3);
        let shards = shard_frame(2, &f, cfg).unwrap();
        let mut asm = FrameAssembler::new();
        for s in shards.into_iter().take(3) {
            assert!(asm.ingest(s).unwrap().is_none());
        }
        assert_eq!(asm.pending_count(), 1);
    }

    #[test]
    fn duplicates_and_late_shards_are_ignored() {
        let cfg = FecConfig { data_shards: 2, parity_shards: 1 };
        let f = frame(64, 4);
        let shards = shard_frame(3, &f, cfg).unwrap();
        let mut asm = FrameAssembler::new();
        assert!(asm.ingest(shards[0].clone()).unwrap().is_none());
        assert!(asm.ingest(shards[0].clone()).unwrap().is_none(), "duplicate");
        assert!(asm.ingest(shards[1].clone()).unwrap().is_some());
        assert!(asm.ingest(shards[2].clone()).unwrap().is_none(), "late shard of delivered frame");
    }

    #[test]
    fn interleaved_frames_reassemble_independently() {
        let cfg = FecConfig::default();
        let f1 = frame(1500, 5);
        let f2 = frame(900, 6);
        let s1 = shard_frame(10, &f1, cfg).unwrap();
        let s2 = shard_frame(11, &f2, cfg).unwrap();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for (a, b) in s1.into_iter().zip(s2) {
            if let Some(x) = asm.ingest(a).unwrap() {
                got.push(x);
            }
            if let Some(x) = asm.ingest(b).unwrap() {
                got.push(x);
            }
        }
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (10, f1));
        assert_eq!(got[1], (11, f2));
    }

    #[test]
    fn shard_sizes_cover_frame_with_minimal_padding() {
        let cfg = FecConfig { data_shards: 8, parity_shards: 2 };
        let f = frame(1001, 7);
        let shards = shard_frame(0, &f, cfg).unwrap();
        // ceil(1001/8) = 126 bytes per shard.
        assert!(shards.iter().all(|s| s.payload.len() == 126));
        assert_eq!(shards[0].wire_bytes(), 126 + 17);
        assert!((cfg.overhead() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_frame_is_rejected() {
        assert!(shard_frame(0, &[], FecConfig::default()).is_err());
    }

    #[test]
    fn bogus_shard_index_is_an_error() {
        let cfg = FecConfig { data_shards: 2, parity_shards: 1 };
        let mut s = shard_frame(0, &frame(10, 8), cfg).unwrap().remove(0);
        s.index = 99;
        assert!(FrameAssembler::new().ingest(s).is_err());
    }

    #[test]
    fn forged_geometry_is_rejected_at_the_first_shard() {
        let cfg = FecConfig { data_shards: 2, parity_shards: 1 };
        let genuine = shard_frame(0, &frame(10, 9), cfg).unwrap().remove(0);
        let forge = |edit: fn(&mut FrameShard)| {
            let mut s = genuine.clone();
            edit(&mut s);
            let mut asm = FrameAssembler::new();
            let err = asm.ingest(s).unwrap_err();
            assert_eq!(asm.pending_count(), 0, "{err}");
            err
        };
        assert_eq!(
            forge(|s| s.data_shards = 0),
            RsError::InvalidShardCounts { data: 0, parity: 1 }
        );
        assert_eq!(
            forge(|s| s.parity_shards = 255),
            RsError::InvalidShardCounts { data: 2, parity: 255 }
        );
        // A 4 GiB claim on a 5-byte payload reserves nothing.
        assert_eq!(forge(|s| s.frame_len = u32::MAX), RsError::ShardSizeMismatch);
        assert_eq!(forge(|s| s.frame_len = 11), RsError::ShardSizeMismatch);
    }

    #[test]
    fn a_later_shard_of_another_size_is_rejected() {
        let cfg = FecConfig { data_shards: 2, parity_shards: 1 };
        let f = frame(10, 10);
        let mut shards = shard_frame(4, &f, cfg).unwrap();
        let mut asm = FrameAssembler::new();
        assert!(asm.ingest(shards[0].clone()).unwrap().is_none());
        let mut short = shards[1].clone();
        short.payload.pop();
        assert_eq!(asm.ingest(short), Err(RsError::ShardSizeMismatch));
        // The frame still completes from genuine shards.
        assert_eq!(asm.ingest(shards.remove(2)).unwrap(), Some((4, f)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_any_k_shards_reassemble(
            len in 1usize..3000,
            k in 1usize..12,
            m in 0usize..5,
            seed in any::<u64>(),
        ) {
            let cfg = FecConfig { data_shards: k, parity_shards: m };
            let f = frame(len, seed);
            let shards = shard_frame(1, &f, cfg).unwrap();
            let mut idx: Vec<usize> = (0..k + m).collect();
            let mut rng = DetRng::new(seed ^ 0xabcd);
            rng.shuffle(&mut idx);
            let mut asm = FrameAssembler::new();
            let mut out = None;
            for &i in idx.iter().take(k) {
                out = asm.ingest(shards[i].clone()).unwrap().or(out);
            }
            prop_assert_eq!(out.unwrap().1, f);
        }
    }
}
