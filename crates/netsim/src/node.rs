//! The actor interface: [`Node`], [`Context`], and timers.
//!
//! Simulation participants implement [`Node`] and interact with the engine
//! exclusively through the [`Context`] handed to each callback. Side effects
//! (sends, timers) are buffered by the context and applied by the engine after
//! the callback returns, which keeps callbacks pure with respect to engine
//! state and guarantees a deterministic application order.

use std::any::Any;

use crate::envelope::{EnvSlab, Envelope};
use crate::metrics::MetricsRegistry;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a node within a [`Simulation`](crate::Simulation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a raw index previously obtained with
    /// [`NodeId::index`]. Using an index from a different simulation is not
    /// memory-unsafe but will address the wrong node.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A fired timer, delivered to [`Node::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// Caller-chosen tag distinguishing timer purposes.
    pub tag: u64,
}

/// A side effect buffered by [`Context`], applied by the engine after the
/// callback returns. A send names its envelope by slab index: the payload
/// was stored in the engine's envelope slab when the node sent it.
pub(crate) enum Op {
    Send { dst: NodeId, env: u32 },
    SetTimer { after: SimDuration, tag: u64 },
}

/// The engine handle passed to every [`Node`] callback.
///
/// All interaction with the simulated world — reading the clock, sending
/// messages, arming timers, drawing randomness, recording metrics — goes
/// through this type.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) id: NodeId,
    pub(crate) ops: &'a mut Vec<Op>,
    pub(crate) slab: &'a mut EnvSlab<M>,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) metrics: &'a mut MetricsRegistry,
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node receiving this callback.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `payload` to `dst` with the given wire size.
    ///
    /// The message travels the direct link from this node to `dst`, subject
    /// to its delay, loss, and queueing; with no such link it is dropped and
    /// counted as `net.dropped.no_route`. Delivery is not guaranteed.
    pub fn send(&mut self, dst: NodeId, payload: M, size_bytes: u32) {
        let env =
            self.slab.insert(Envelope { src: self.id, size_bytes, sent_at: self.now, payload });
        self.ops.push(Op::Send { dst, env });
    }

    /// Sends one `payload` to every node in `dsts`, each copy charged
    /// `size_bytes` on its own link.
    ///
    /// The engine stores the payload once and every destination's delivery
    /// shares it; a delivery clones it, except the last, which takes it.
    /// Everything else — `Sent` events, delays, loss draws, drops and
    /// delivery order — is exactly as if `send` were called once per
    /// destination, in `dsts`' order. With no destinations nothing is sent.
    pub fn send_all(
        &mut self,
        dsts: impl IntoIterator<Item = NodeId>,
        payload: M,
        size_bytes: u32,
    ) {
        let mut dsts = dsts.into_iter();
        let Some(first) = dsts.next() else { return };
        let env =
            self.slab.insert(Envelope { src: self.id, size_bytes, sent_at: self.now, payload });
        self.ops.push(Op::Send { dst: first, env });
        for dst in dsts {
            self.slab.share(env);
            self.ops.push(Op::Send { dst, env });
        }
    }

    /// Arms a one-shot timer that fires `after` from now, carrying `tag`.
    /// A timer cannot be cancelled; a crash voids every timer the node armed.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        self.ops.push(Op::SetTimer { after, tag });
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// The simulation-wide metrics registry.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }
}

/// A simulation actor.
///
/// Implementors receive messages and timer callbacks and react by emitting
/// operations through the [`Context`]. The `Any` supertrait allows tests and
/// harnesses to downcast nodes back to their concrete type after a run via
/// [`Simulation::node_as`](crate::Simulation::node_as).
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{Context, Node, NodeId, Timer};
///
/// struct Echo;
/// impl Node<String> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, String>, from: NodeId, msg: String) {
///         ctx.send(from, msg, 32);
///     }
/// }
/// ```
pub trait Node<M>: Any {
    /// Called once, at simulation start, in node-id order.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer armed by this node fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _timer: Timer) {}

    /// Called when the engine crashes this node (fault injection).
    ///
    /// Implementors should reset volatile protocol state here: a crashed
    /// process loses its memory, and `on_start` will run again at restart.
    /// No [`Context`] is available — a crashing node cannot send or arm
    /// timers, and any timers it had armed are voided by the engine.
    fn on_crash(&mut self) {}
}
