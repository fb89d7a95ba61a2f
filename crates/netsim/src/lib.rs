//! # metaclass-netsim
//!
//! A deterministic discrete-event network simulator: the substrate on which
//! the `metaclassroom` workspace reproduces the virtual-physical blended
//! classroom blueprint (Wang et al., ICDCS 2022).
//!
//! The blueprint's Figure 3 is a distributed system of headsets, room
//! sensors, edge servers, a cloud server, and remote clients joined by WiFi,
//! wired LAN, an inter-campus backbone, and the public Internet. This crate
//! models exactly those parts:
//!
//! - [`Simulation`] — the deterministic event engine, run serially or on
//!   shard lanes ([`EngineConfig`]) with byte-identical results;
//! - [`Node`] / [`Context`] — the actor interface for protocol code;
//! - [`Link`] / [`LinkConfig`] — delay, jitter, loss (i.i.d. and
//!   Gilbert–Elliott), bandwidth, and bounded queues;
//! - [`LinkClass`] / [`Region`] — calibrated presets for the blueprint's
//!   transport classes and a worldwide latency matrix;
//! - [`SimTime`] / [`SimDuration`] — integer-nanosecond time newtypes;
//! - [`DetRng`] — explicitly seeded randomness with derived sub-streams;
//! - [`MetricsRegistry`] / [`Histogram`] — deterministic measurement;
//! - [`Simulation::fingerprint`] — an order-sensitive digest of every
//!   event, for determinism tests; [`SimObserver`] hands the events
//!   themselves to whoever needs them;
//! - [`FaultWindow`] / [`FaultAction`] — replayable fault schedules (link
//!   flaps, loss bursts, latency spikes, partitions, node crash/restart),
//!   each window a paired start/end the engine executes as ordinary events;
//!   [`Simulation::apply_fault_plan`] is the only way to change link or node
//!   state once the topology is built;
//! - [`PopulationProfile`] / [`PopulationTimeline`] — deterministic
//!   flash-crowd join schedules that drive the flyweight client pools of the
//!   million-user population layer.
//!
//! # Modules
//!
//! The event core is split by concern: `sim` holds [`EngineConfig`], the
//! causal stamps, the per-lane event core (dispatch, transmit, delivery)
//! and [`Simulation`] itself (topology building, run loops, metrics flush);
//! `envelope` stores messages in flight (a refcounted slab, re-indexed
//! between slabs when the sharded engine moves events); `fault` lowers and
//! executes fault schedules; `shard` is the conservative shard-parallel
//! executor; `sched` is the timer wheel. `link`, `node`, `observe`, `trace`,
//! `metrics`, `rng`, `time`, `topology` and `population` hold the models
//! and measurement types listed above.
//!
//! # Examples
//!
//! A two-node ping over a 5 ms link:
//!
//! ```
//! use metaclass_netsim::{Context, LinkConfig, Node, NodeId, SimDuration, Simulation};
//!
//! struct Hello(NodeId);
//! struct World(Option<NodeId>);
//!
//! impl Node<&'static str> for Hello {
//!     fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
//!         ctx.send(self.0, "hello", 16);
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, &'static str>, _: NodeId, _: &'static str) {}
//! }
//! impl Node<&'static str> for World {
//!     fn on_message(&mut self, _: &mut Context<'_, &'static str>, from: NodeId, _: &'static str) {
//!         self.0 = Some(from);
//!     }
//! }
//!
//! let mut sim = Simulation::new(1);
//! let w = sim.add_node("world", World(None));
//! let h = sim.add_node("hello", Hello(w));
//! sim.connect(h, w, LinkConfig::new(SimDuration::from_millis(5)));
//! sim.run_until_idle();
//! assert_eq!(sim.node_as::<World>(w).unwrap().0, Some(h));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod envelope;
mod fault;
mod link;
mod metrics;
mod node;
mod observe;
mod population;
mod rng;
pub mod sched;
mod shard;
mod sim;
mod time;
mod topology;
mod trace;

pub use fault::{FaultAction, FaultWindow};
pub use link::{DropReason, Link, LinkConfig, LinkId, LossModel, Transmit};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, Summary};
pub use node::{Context, Node, NodeId, Timer};
pub use observe::{SimEvent, SimObserver, SimView};
pub use population::{PopulationProfile, PopulationTimeline};
pub use rng::DetRng;
pub use sched::{BinaryHeapQueue, EventQueue, TimerWheel};
pub use sim::{parse_engine, EngineConfig, Simulation, DEFAULT_SHARDS, MAX_SHARDS};
pub use time::{SimDuration, SimTime};
pub use topology::{min_cut_partition, LinkClass, Partition, Region};
pub use trace::Fnv1a;
