//! Engine observation hooks for invariant checking.
//!
//! Every engine-boundary event — sends, injects, final deliveries, drops,
//! no-routes, timer firings and fault executions — is described once, as a
//! [`SimEvent`], and leaves the engine through one emit point. There it is
//! first folded into the
//! [`Simulation::fingerprint`](crate::Simulation::fingerprint), if enabled (a
//! fixed-format digest of this stream that stores nothing), and then handed
//! to the installed [`SimObserver`] with a read-only [`SimView`] of engine
//! state taken *after* the event was applied. The observer is the one way to
//! inspect the events themselves. Under the sharded engine each lane
//! buffers its events with their `(time, stamp)` keys, and the barrier
//! merges the lanes into serial order once, for fingerprint and observer
//! alike.
//! The `simcheck` crate builds its invariant oracles on these hooks; the
//! engine itself stays policy-free.
//!
//! Observation is strictly passive: an observer cannot mutate the simulation,
//! draws no randomness from it, and schedules nothing, so installing one
//! never changes event order, metrics, or fingerprints.

use crate::fault::FaultAction;
use crate::link::DropReason;
use crate::node::NodeId;
use crate::time::SimTime;

/// One engine-boundary event, as seen by a [`SimObserver`].
///
/// Borrowed payloads keep observation allocation-free on the hot path.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum SimEvent<'a> {
    /// A node emitted a message via `Context::send` (loopback included).
    Sent {
        /// Sending node.
        src: NodeId,
        /// Final destination.
        dst: NodeId,
        /// Wire size in bytes.
        size_bytes: u32,
    },
    /// A message was scheduled from outside the network via
    /// [`Simulation::inject`](crate::Simulation::inject).
    Injected {
        /// Nominal sender.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Wire size in bytes.
        size_bytes: u32,
    },
    /// A message reached its final destination and was handed to the node.
    Delivered {
        /// Original sender.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Wire size in bytes.
        size_bytes: u32,
        /// When the message was sent (or injected).
        sent_at: SimTime,
    },
    /// A message was dropped in transit (link loss, queue overflow, link or
    /// node down).
    Dropped {
        /// Original sender.
        src: NodeId,
        /// Intended final destination.
        dst: NodeId,
        /// Wire size in bytes.
        size_bytes: u32,
        /// Why the message was dropped.
        reason: DropReason,
    },
    /// A message had no route toward its destination and was discarded.
    NoRoute {
        /// Original sender.
        src: NodeId,
        /// Intended final destination.
        dst: NodeId,
        /// Wire size in bytes.
        size_bytes: u32,
    },
    /// A live timer fired and the node's `on_timer` ran. Swallowed timers
    /// (stale epoch, crashed node) are *not* reported.
    TimerFired {
        /// The node whose timer fired.
        node: NodeId,
        /// The caller-chosen timer tag.
        tag: u64,
    },
    /// A scripted fault action executed. The view reflects post-fault state.
    Fault {
        /// The action that just ran.
        action: &'a FaultAction,
    },
}

/// A read-only snapshot of engine state handed to observers, taken after the
/// event it accompanies was applied.
///
/// The view is the clock and the crash flags, both exact under either
/// engine. Crash flags (and link availability, which the view does not
/// carry) change only when a scripted fault action executes (see
/// [`Simulation::apply_fault_plan`](crate::Simulation::apply_fault_plan)),
/// and every such action reaches the observer as a [`SimEvent::Fault`], so
/// no change to this state goes unobserved.
pub struct SimView<'a> {
    pub(crate) time: SimTime,
    pub(crate) crashed: &'a [bool],
}

impl SimView<'_> {
    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.crashed.len()
    }

    /// Whether `node` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }
}

impl std::fmt::Debug for SimView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimView")
            .field("time", &self.time)
            .field("nodes", &self.crashed.len())
            .finish()
    }
}

/// Receives engine-boundary events from a [`Simulation`](crate::Simulation).
///
/// Implementations must be deterministic (no wall-clock, no ambient
/// randomness) or they forfeit the engine's replayability guarantee for any
/// state they accumulate. The engine calls observers synchronously on the
/// simulation thread; `Send` is required so simulations stay movable across
/// threads (e.g. in sweep workers).
pub trait SimObserver: Send {
    /// Called after each observable event with the post-event engine view.
    fn on_event(&mut self, view: &SimView<'_>, event: &SimEvent<'_>);
}

impl<F: FnMut(&SimView<'_>, &SimEvent<'_>) + Send> SimObserver for F {
    fn on_event(&mut self, view: &SimView<'_>, event: &SimEvent<'_>) {
        self(view, event)
    }
}
