//! Shards with forged headers: `FrameAssembler::ingest` must answer any
//! header and payload length with `Ok` or `Err`, never a panic, and never
//! hand out a frame whose length differs from the `frame_len` its first
//! shard declared. `ReedSolomon::reconstruct`, called directly, must answer
//! any shard vector without a panic, and any `Ok` must be a full codeword.
//!
//! Each case interleaves a genuine frame's shards, some with one header
//! field or the payload length overwritten, with shards made up outright
//! for the same few frame ids, so forged shards meet both fresh and
//! half-assembled frames.

use metaclass_media::{shard_frame, FecConfig, FrameAssembler, FrameShard, ReedSolomon};
use proptest::prelude::*;

/// Overwrites one field of `shard` with `value`, picked by `field`; 0 keeps
/// the shard genuine.
fn forge(shard: &mut FrameShard, field: u8, value: u32) {
    match field % 7 {
        1 => shard.index = value as u16,
        2 => shard.data_shards = value as u16,
        3 => shard.parity_shards = value as u16,
        4 => shard.frame_len = value,
        5 => shard.payload.resize(value as usize % 600, 0x5a),
        6 => shard.frame_id = u64::from(value % 3),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn forged_shards_never_panic_or_mislength_a_frame(
        len in 1usize..800,
        k in 1usize..8,
        m in 0usize..4,
        edits in proptest::collection::vec((any::<u8>(), any::<u32>(), 0u32..4), 0..12),
        made_up in proptest::collection::vec(
            ((0u64..3, any::<u16>(), 0u16..12), (any::<u16>(), any::<u32>(), 0usize..300, 0u8..8)),
            0..24,
        ),
    ) {
        let frame: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let cfg = FecConfig { data_shards: k, parity_shards: m };
        let mut shards = shard_frame(1, &frame, cfg).unwrap();
        for (i, &(field, value, small)) in edits.iter().enumerate() {
            let at = i % shards.len();
            // Small values hit plausible geometry as well as absurd ones.
            forge(&mut shards[at], field, if field & 0x80 == 0 { small } else { value });
        }
        for ((id, index, data), (parity, frame_len, payload_len, small)) in made_up {
            shards.push(FrameShard {
                frame_id: id,
                index: index % 16,
                data_shards: data,
                parity_shards: if small < 6 { parity % 6 } else { parity },
                frame_len: if small < 4 { frame_len % 2_000 } else { frame_len },
                payload: vec![small; payload_len],
            });
        }
        // Made-up shards land between genuine ones.
        let n = shards.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (i * 7919) % n);

        let mut asm = FrameAssembler::new();
        let mut declared = std::collections::BTreeMap::new();
        for i in order {
            let shard = shards[i].clone();
            let (id, frame_len) = (shard.frame_id, shard.frame_len as usize);
            let pending_before = asm.pending_count();
            match asm.ingest(shard) {
                Ok(Some((got, bytes))) => {
                    prop_assert_eq!(got, id);
                    prop_assert_eq!(bytes.len(), declared.remove(&id).unwrap_or(frame_len));
                }
                Ok(None) => {
                    if asm.pending_count() > pending_before {
                        declared.insert(id, frame_len);
                    }
                }
                Err(_) => prop_assert_eq!(asm.pending_count(), pending_before),
            }
        }
    }

    /// `ReedSolomon::reconstruct` on any shard vector: wrong entry counts,
    /// mixed and zero lengths, every erasure pattern. The surviving bytes
    /// are prefixes of one genuine codeword, since an erasure code restores
    /// missing shards and cannot tell corrupted ones from sound ones.
    #[test]
    fn reconstruct_never_panics_and_any_ok_is_a_codeword(
        k in 1usize..8,
        m in 0usize..5,
        len in 1usize..64,
        // Bit i erases shard i; the AND of two draws erases a quarter.
        (erase_a, erase_b) in (any::<u16>(), any::<u16>()),
        // 0..=3 keep the shape; 4 truncates shards, 5 drops trailing
        // entries, 6 appends made-up ones, 7 truncates and appends.
        shape in 0u8..8,
        cuts in proptest::collection::vec((0usize..12, 0usize..64), 1..4),
        dropped in 1usize..3,
        extra in proptest::collection::vec((any::<bool>(), 0usize..64, any::<u8>()), 1..3),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> =
            (0..k).map(|j| (0..len).map(|i| (i * 31 + j * 17) as u8).collect()).collect();
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).map(|s| Some(s.clone())).collect();
        for (i, shard) in shards.iter_mut().enumerate() {
            if (erase_a & erase_b) >> i & 1 == 1 {
                *shard = None;
            }
        }
        if shape == 4 || shape == 7 {
            for &(at, cut) in &cuts {
                if let Some(Some(s)) = shards.get_mut(at) {
                    s.truncate(cut);
                }
            }
        }
        if shape == 5 {
            shards.truncate(shards.len().saturating_sub(dropped));
        }
        if shape == 6 || shape == 7 {
            shards.extend(extra.iter().map(|&(some, n, b)| some.then(|| vec![b; n])));
        }

        if rs.reconstruct(&mut shards).is_ok() {
            prop_assert_eq!(shards.len(), k + m);
            let got: Vec<&[u8]> =
                shards.iter().map(|s| s.as_deref().expect("Ok restores every shard")).collect();
            let n = got[0].len();
            prop_assert!(n > 0 && got.iter().all(|s| s.len() == n), "Ok with ragged shards");
            prop_assert_eq!(rs.encode(&got[..k]).unwrap(), &got[k..]);
            for (j, d) in data.iter().enumerate() {
                prop_assert_eq!(got[j], &d[..n]);
            }
        }
    }
}
