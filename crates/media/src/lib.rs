//! # metaclass-media
//!
//! The video transport of the blueprint: "many courses may rely on
//! video transmission, whether of the instructor, digital artefacts (e.g.,
//! slides), or physical objects in the classroom … Maximizing video quality
//! while minimizing latency … solutions leveraging joint source coding and
//! forward error correction at the application level are presenting promising
//! results" (§3.3, citing Nebula).
//!
//! Everything here is implemented from scratch:
//!
//! - [`gf256`] — GF(2⁸) arithmetic with compile-time tables;
//! - [`ReedSolomon`] — a real systematic MDS erasure code (Cauchy
//!   generator): recover from **any** k of k+m shards;
//! - [`shard_frame`] / [`FrameAssembler`] — frame packetization over FEC;
//! - [`ArqFrameSender`] / [`ArqFrameReceiver`] — the selective-repeat
//!   retransmission baseline FEC is compared against (experiment E6);
//! - [`VideoSource`] / [`legibility_score`] — a calibrated rate–distortion
//!   model standing in for a hardware encoder.
//!
//! # Examples
//!
//! Ship a frame through 20% random loss with zero retransmissions:
//!
//! ```
//! use metaclass_media::{shard_frame, FecConfig, FrameAssembler};
//!
//! let cfg = FecConfig { data_shards: 8, parity_shards: 4 };
//! let frame = vec![0x5au8; 4096];
//! let shards = shard_frame(0, &frame, cfg)?;
//!
//! let mut asm = FrameAssembler::new();
//! let mut delivered = None;
//! for (i, s) in shards.into_iter().enumerate() {
//!     if i % 5 == 0 {
//!         continue; // the network ate every fifth packet
//!     }
//!     delivered = asm.ingest(s)?.or(delivered);
//! }
//! assert_eq!(delivered.unwrap().1, frame);
//! # Ok::<(), metaclass_media::RsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arq;
mod codec_model;
mod fec;
pub mod gf256;
mod rs;

pub use arq::{ArqConfig, ArqFrameReceiver, ArqFrameSender, ArqPacket};
pub use codec_model::{
    legibility_after_stalls, legibility_score, VideoConfig, VideoFrame, VideoSource,
};
pub use fec::{shard_frame, FecConfig, FrameAssembler, FrameShard};
pub use rs::{ReedSolomon, RsError};
