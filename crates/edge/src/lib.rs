//! # metaclass-edge
//!
//! The server tier of the blueprint's Figure 3, as network actors: MR
//! headsets and room arrays streaming to a per-classroom **edge server**
//! (sensor fusion → avatar replication → seat retargeting → local display),
//! a **cloud server** hosting the fully virtual VR classroom with
//! interest-managed fan-out, and the **remote clients** connecting from
//! anywhere in the world.
//!
//! - [`ClassMsg`] — the classroom wire protocol with explicit sizes;
//! - [`HeadsetNode`] / [`RoomArrayNode`] — the sensing leaves;
//! - [`EdgeServerNode`] — fusion, dead-reckoned delta replication to peers,
//!   vacant-seat assignment and pose correction for arrivals;
//! - [`CloudServerNode`] — the VR auditorium: ingest from edges and clients,
//!   budgeted interest-managed fan-out, re-encoding toward the classrooms;
//! - [`RemoteClientNode`] — pose upload, jitter-buffered display, NTP-style
//!   clock probing, per-[`DevicePlatform`] rate/buffer/input profiles, and
//!   scripted inter-room mobility;
//! - [`SeatAllocator`] / [`ClassroomLayout`] — the "identify the vacant
//!   seats" mechanic of §3.2;
//! - the server core (`server.rs`, private; tuned by [`ServerConfig`]; both
//!   ends of every stream default to the [`protocol_codec`]) —
//!   the one inter-server link both server actors own: heartbeats and
//!   resync, snapshot streams, reliable interaction relay, the shed ladder
//!   over a bounded egress backlog;
//! - [`PeerHealth`] / [`HeartbeatConfig`] — heartbeat failure detection
//!   between servers, with hold-then-freeze display degradation
//!   ([`RemoteAvatarPresentation`]) and full-snapshot resync on peer return;
//! - [`AdmissionController`] / [`LoadShedder`] — flash-crowd overload
//!   control: token-bucket join admission with a bounded waiting room, and a
//!   hysteretic fidelity ladder (full → reduced-rate → expression-only →
//!   spectator) driven by smoothed utilization;
//! - [`ClientPoolNode`] — the flyweight population layer: a region's whole
//!   remote audience as one scheduled entity with exact aggregate
//!   bandwidth/admission/latency accounting, while a tracer subset of fully
//!   simulated [`RemoteClientNode`]s preserves tail-latency fidelity.
//!
//! The full unit case (two campuses + cloud) is assembled by
//! `metaclass-core`; this crate's integration tests exercise each pairing in
//! isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cloud;
mod devices;
mod edge_server;
mod health;
mod messages;
mod overload;
mod platform;
mod pool;
mod seat;
mod server;

pub use client::{ClientConfig, RemoteClientNode};
pub use cloud::{CloudServerNode, FanoutConfig};
pub use devices::{HeadsetNode, RoomArrayNode};
pub use edge_server::EdgeServerNode;
pub use health::{HeartbeatConfig, PeerEvent, PeerHealth, PeerState, RemoteAvatarPresentation};
pub use messages::ClassMsg;
pub use overload::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, LoadShedder, OverloadConfig, ShedLevel,
    ShedTransition,
};
pub use platform::DevicePlatform;
pub use pool::{pool_avatar, ClientPoolNode, PoolConfig, POOL_AVATAR_BASE};
pub use seat::{ClassroomFullError, ClassroomLayout, SeatAllocator};
pub use server::{protocol_codec, ServerConfig};
