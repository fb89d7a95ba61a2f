//! # metaclass-avatar
//!
//! Avatar representation for the virtual-physical blended classroom: the
//! "digital twins of class participants" of the ICDCS 2022 blueprint.
//!
//! The crate covers the full life of an avatar's state:
//!
//! - [`AvatarState`] — head pose, hands, velocity, and facial
//!   [`ExpressionFrame`] blendshapes;
//! - [`AvatarCodec`] — a real bit-level wire format: quantized full
//!   snapshots and delta frames against a reconstructed reference
//!   (video-codec style), built on [`BitWriter`]/[`BitReader`];
//! - [`PositionQuantizer`] / [`QuatQuantizer`] — bounded-error fixed-point
//!   quantization (smallest-three for orientations);
//! - [`LodLevel`] — fidelity levels from impostor to volumetric capture;
//! - [`retarget`] — seat-frame pose correction, as performed by the
//!   receiving edge server in Figure 3.
//!
//! # Examples
//!
//! Encode an avatar once in full, then stream cheap deltas:
//!
//! ```
//! use metaclass_avatar::{AvatarCodec, AvatarState, Vec3};
//!
//! let codec = AvatarCodec::with_defaults();
//! let mut truth = AvatarState::at_position(Vec3::new(5.0, 1.6, 5.0));
//! let full = codec.encode_full(&truth);
//! let mut reference = codec.decode(None, &full)?;
//!
//! truth = truth.extrapolate(0.02); // the avatar drifts a little
//! truth.head.position += Vec3::new(0.02, 0.0, 0.0);
//! let delta = codec.encode_delta(&reference, &truth);
//! assert!(delta.len() < full.len() / 2);
//! reference = codec.decode(Some(&reference), &delta)?;
//! assert!(truth.position_error(&reference) < 0.01);
//! # Ok::<(), metaclass_avatar::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitstream;
mod codec;
mod expression;
mod geom;
mod lod;
mod quant;
mod retarget;
mod state;

pub use bitstream::{BitReader, BitWriter, ReadOverrunError};
pub use codec::{
    AvatarCodec, CodecConfig, CodecError, FramePayload, PayloadTooLongError, QuantizedState,
    MAX_FRAME_BYTES,
};
pub use expression::{BlendChannel, ExpressionFrame, CHANNELS};
pub use geom::{Pose, Quat, Vec3};
pub use lod::LodLevel;
pub use quant::{PositionQuantizer, QuantizedQuat, QuatQuantizer, SpaceBounds};
pub use retarget::{retarget, AnchorFrame, RetargetReport};
pub use state::{AvatarId, AvatarState};
