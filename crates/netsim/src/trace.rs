//! Event tracing for audits and determinism tests.
//!
//! The trace is a fixed-format digest of the observer's event stream: the
//! engine emits each [`SimEvent`] once, and [`Trace::record`] — the one place
//! that maps a `SimEvent` to a [`TraceKind`] — folds it in before the
//! observer sees it. Two records exist only in the trace and are written
//! outside shard lanes: a fault, recorded *before* its action runs (so a
//! restarted node's `on_start` sends follow it), and an engine fallback.
//! Injects are seen by the observer only.

use serde::{Deserialize, Serialize};

use crate::fault::FaultAction;
use crate::link::DropReason;
use crate::node::NodeId;
use crate::observe::SimEvent;
use crate::time::SimTime;

/// What happened at a traced instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A message was offered to the network by its source.
    Sent,
    /// A message reached its final destination.
    Delivered,
    /// A message was dropped en route.
    Dropped(DropReason),
    /// No direct link existed from the sender to the destination.
    NoRoute,
    /// A timer fired at a node.
    TimerFired {
        /// The timer's tag.
        tag: u64,
    },
    /// A scripted fault action was executed by the engine.
    Fault {
        /// Discriminant of the executed [`FaultAction`](crate::FaultAction).
        code: u64,
    },
    /// A sharded run found no feasible shard plan and fell back to the
    /// serial executor (src/dst are meaningless; size is zero).
    EngineFallback,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// Event kind.
    pub kind: TraceKind,
    /// Message source (or the timer's node).
    pub src: NodeId,
    /// Message destination (or the timer's node).
    pub dst: NodeId,
    /// Message wire size in bytes (zero for timers).
    pub size_bytes: u32,
}

/// A bounded in-memory event trace.
///
/// Storing stops silently once `capacity` events are held — the
/// [`Trace::truncated`] flag reports whether that happened — but every
/// event, stored or not, is folded into the [`Trace::fingerprint`].
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Events pushed, stored or not.
    seen: u64,
    /// Running digest over every pushed event.
    hash: Fnv1a,
}

/// Byte-wise 64-bit FNV-1a: the one digest behind trace, sweep and simcheck
/// fingerprints, scenario seed salts and the content ledger's hash chain.
/// Not collision-resistant against an adversary; it pins determinism.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The empty digest (the FNV offset basis).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v` in as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Trace {
    /// Creates a trace storing at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace { events: Vec::new(), capacity, seen: 0, hash: Fnv1a::new() }
    }

    /// Folds one engine event, emitted at `at`, into the trace. Injects are
    /// not traced, and faults are recorded by [`Trace::record_fault`].
    pub(crate) fn record(&mut self, at: SimTime, event: &SimEvent<'_>) {
        let (kind, src, dst, size_bytes) = match *event {
            SimEvent::Sent { src, dst, size_bytes } => (TraceKind::Sent, src, dst, size_bytes),
            SimEvent::Delivered { src, dst, size_bytes, .. } => {
                (TraceKind::Delivered, src, dst, size_bytes)
            }
            SimEvent::Dropped { src, dst, size_bytes, reason } => {
                (TraceKind::Dropped(reason), src, dst, size_bytes)
            }
            SimEvent::NoRoute { src, dst, size_bytes } => {
                (TraceKind::NoRoute, src, dst, size_bytes)
            }
            SimEvent::TimerFired { node, tag } => (TraceKind::TimerFired { tag }, node, node, 0),
            SimEvent::Injected { .. } | SimEvent::Fault { .. } => return,
        };
        self.push(TraceEvent { at, kind, src, dst, size_bytes });
    }

    /// Records a scripted fault about to execute at `at`: a link fault names
    /// its two nodes, a node fault its node twice, a partition or heal node 0.
    pub(crate) fn record_fault(&mut self, at: SimTime, action: &FaultAction) {
        let (src, dst) = match action {
            FaultAction::LinkDown { a, b }
            | FaultAction::LinkUp { a, b }
            | FaultAction::LossBurstStart { a, b, .. }
            | FaultAction::LossBurstEnd { a, b }
            | FaultAction::LatencySpikeStart { a, b, .. }
            | FaultAction::LatencySpikeEnd { a, b } => (*a, *b),
            FaultAction::CrashNode { node } | FaultAction::RestartNode { node } => (*node, *node),
            FaultAction::Partition { .. } | FaultAction::Heal => (NodeId(0), NodeId(0)),
        };
        let kind = TraceKind::Fault { code: action.code() };
        self.push(TraceEvent { at, kind, src, dst, size_bytes: 0 });
    }

    /// Records that a sharded run at `at` fell back to the serial executor.
    pub(crate) fn record_fallback(&mut self, at: SimTime) {
        let kind = TraceKind::EngineFallback;
        self.push(TraceEvent { at, kind, src: NodeId(0), dst: NodeId(0), size_bytes: 0 });
    }

    fn push(&mut self, ev: TraceEvent) {
        let kind_code: u64 = match ev.kind {
            TraceKind::Sent => 1,
            TraceKind::Delivered => 2,
            TraceKind::Dropped(DropReason::QueueFull) => 3,
            TraceKind::Dropped(DropReason::Loss) => 4,
            TraceKind::Dropped(DropReason::LinkDown) => 5,
            TraceKind::NoRoute => 6,
            TraceKind::TimerFired { tag } => 7 ^ (tag << 8),
            TraceKind::Dropped(DropReason::NodeDown) => 8,
            TraceKind::Fault { code } => 9 ^ (code << 8),
            TraceKind::EngineFallback => 10,
        };
        for v in [
            ev.at.as_nanos(),
            kind_code,
            ev.src.index() as u64,
            ev.dst.index() as u64,
            ev.size_bytes as u64,
        ] {
            self.hash.write_u64(v);
        }
        self.seen += 1;
        if self.events.len() < self.capacity {
            self.events.push(ev);
        }
    }

    /// The stored events, in order of occurrence.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether events were discarded because capacity was reached.
    pub fn truncated(&self) -> bool {
        self.seen > self.events.len() as u64
    }

    /// An order-sensitive 64-bit digest of the whole run (FNV-1a over the
    /// fields of every event, stored or not), for cheap determinism
    /// assertions: two runs with the same seed must produce identical
    /// fingerprints. A truncated trace also folds in its total event count.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.hash;
        if self.truncated() {
            h.write_u64(self.seen);
        }
        h.finish()
    }

    /// The [`Trace::fingerprint`] rendered as a fixed-width lowercase hex
    /// string, the form used in machine-readable result files where a JSON
    /// number would lose precision past 2^53.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(nanos),
            kind,
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 10,
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = Trace::new(2);
        t.push(ev(1, TraceKind::Sent));
        t.push(ev(2, TraceKind::Delivered));
        t.push(ev(3, TraceKind::Sent));
        assert_eq!(t.len(), 2);
        assert!(t.truncated());
    }

    #[test]
    fn fingerprint_covers_events_past_the_capacity_cap() {
        let run = |tail: u64| {
            let mut t = Trace::new(2);
            for at in [1, 2, tail] {
                t.push(ev(at, TraceKind::Sent));
            }
            t
        };
        let (a, b) = (run(3), run(4));
        assert_eq!(a.events(), b.events(), "stored prefixes are equal");
        assert!(a.truncated() && b.truncated());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Capacity does not change the digest of an untruncated trace.
        let mut roomy = Trace::new(10);
        let mut exact = Trace::new(2);
        for at in [1, 2] {
            roomy.push(ev(at, TraceKind::Sent));
            exact.push(ev(at, TraceKind::Sent));
        }
        assert_eq!(roomy.fingerprint(), exact.fingerprint());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Trace::new(10);
        a.push(ev(1, TraceKind::Sent));
        a.push(ev(2, TraceKind::Delivered));
        let mut b = Trace::new(10);
        b.push(ev(2, TraceKind::Delivered));
        b.push(ev(1, TraceKind::Sent));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_timer_tags() {
        let mut a = Trace::new(10);
        a.push(ev(1, TraceKind::TimerFired { tag: 1 }));
        let mut b = Trace::new(10);
        b.push(ev(1, TraceKind::TimerFired { tag: 2 }));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_fault_codes() {
        let mut a = Trace::new(10);
        a.push(ev(1, TraceKind::Fault { code: 1 }));
        let mut b = Trace::new(10);
        b.push(ev(1, TraceKind::Fault { code: 2 }));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = Trace::new(10);
        c.push(ev(1, TraceKind::Dropped(DropReason::NodeDown)));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_hex_is_fixed_width_and_consistent() {
        let mut t = Trace::new(10);
        t.push(ev(1, TraceKind::Sent));
        let hex = t.fingerprint_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(hex, format!("{:016x}", t.fingerprint()));
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn identical_traces_match() {
        let mut a = Trace::new(10);
        let mut b = Trace::new(10);
        for t in [a.events.len() as u64, 5, 9] {
            a.push(ev(t, TraceKind::Sent));
            b.push(ev(t, TraceKind::Sent));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
