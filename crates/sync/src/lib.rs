//! # metaclass-sync
//!
//! Real-time state synchronization for the blueprint's "real-time
//! transmission link" (§3.2): the protocol layer that keeps two physical MR
//! classrooms and the cloud VR classroom showing the same avatars at the same
//! time.
//!
//! The building blocks are deliberately sans-I/O — plain state machines fed
//! with timestamps and frames — so they are unit-testable in isolation and
//! are wired onto the network by `metaclass-edge` and `metaclass-core`:
//!
//! - [`OffsetEstimator`] — NTP-style min-RTT clock synchronization;
//! - [`SnapshotSender`] / [`SnapshotReceiver`] — ack-referenced delta
//!   replication with keyframe recovery (loss never desynchronizes a pair);
//! - [`DeadReckoningSender`] / [`DeadReckoningReceiver`] — send-on-divergence
//!   filtering and smooth correction blending;
//! - [`InterestManager`] — spatial-grid area-of-interest selection with
//!   importance, field-of-view, and anti-starvation staleness;
//! - [`ReliableSender`] / [`ReliableReceiver`] — exactly-once in-order
//!   interaction replication with an RFC 6298-style adaptive RTO
//!   ([`RtoEstimator`]) and a bounded in-flight window;
//! - [`TokenBucket`] / [`BoundedQueue`] — deterministic rate limiting and
//!   fixed-capacity drop-policy queues, the backpressure primitives under
//!   the edge/cloud overload-control layer;
//! - [`JitterBuffer`] — adaptive playout delay with interpolation;
//! - [`ActionClass`] — the latency → user-performance model behind the
//!   paper's 100 ms interactivity rule.
//!
//! # Examples
//!
//! End-to-end: dead-reckoned, delta-coded replication over a lossy path.
//!
//! ```
//! use metaclass_avatar::{AvatarCodec, AvatarState, Vec3};
//! use metaclass_netsim::SimTime;
//! use metaclass_sync::{
//!     DeadReckoningConfig, DeadReckoningSender, SnapshotReceiver, SnapshotSender,
//! };
//!
//! let mut dr = DeadReckoningSender::new(DeadReckoningConfig::default());
//! let mut tx = SnapshotSender::new(AvatarCodec::with_defaults(), 60);
//! let mut rx = SnapshotReceiver::new(AvatarCodec::with_defaults());
//!
//! let mut sent = 0;
//! for i in 0..120u64 {
//!     let now = SimTime::from_millis(i * 14);
//!     let mut truth = AvatarState::at_position(Vec3::new(2.0, 1.6, 2.0));
//!     truth.head.position.x += (i as f64 * 0.05).sin() * 0.05;
//!     if dr.should_send(now, &truth) {
//!         let frame = tx.encode(&truth);
//!         if rx.decode(&frame)?.is_some() {
//!             tx.on_ack(rx.ack_seq().unwrap());
//!         }
//!         dr.mark_sent(now, truth);
//!         sent += 1;
//!     } else {
//!         dr.mark_suppressed();
//!     }
//! }
//! assert!(sent < 60, "dead reckoning should suppress most of 120 samples; sent {sent}");
//! # Ok::<(), metaclass_avatar::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backpressure;
mod clock;
mod deadreckon;
mod interactivity;
mod interest;
mod jitterbuf;
mod reliable;
mod snapshot;

pub use backpressure::{BoundedQueue, OverflowPolicy, TokenBucket};
pub use clock::{ClockSample, OffsetEstimator};
pub use deadreckon::{DeadReckoningConfig, DeadReckoningReceiver, DeadReckoningSender};
pub use interactivity::{
    activity, blended_performance, is_noticeable, ActionClass, NOTICEABILITY_THRESHOLD,
};
pub use interest::{InterestConfig, InterestManager, SubscriberId, Viewpoint};
pub use jitterbuf::{JitterBuffer, JitterBufferConfig};
pub use reliable::{
    InteractionEvent, ReliableConfig, ReliableReceiver, ReliableSender, RtoEstimator,
};
pub use snapshot::{PoseFrame, QuantizedSnapshot, SnapshotReceiver, SnapshotSender};
