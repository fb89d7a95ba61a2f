//! The run fingerprint: a fixed-format digest of the engine's event stream.
//!
//! The engine emits each [`SimEvent`] once, and [`Trace::record`] folds it
//! into the digest before the observer sees it. Nothing is stored: a test
//! that needs the events themselves installs a
//! [`SimObserver`](crate::SimObserver). One record exists only in the
//! fingerprint and is folded outside shard lanes: a fault, *before* its
//! action runs (so a restarted node's `on_start` sends follow it). Injects
//! are seen by the observer only.

use crate::fault::FaultAction;
use crate::link::DropReason;
use crate::node::NodeId;
use crate::observe::SimEvent;
use crate::time::SimTime;

/// An order-sensitive digest of a run: FNV-1a over `(at, code, src, dst,
/// size)` of every record, each field as a little-endian `u64`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Trace(Fnv1a);

/// Byte-wise 64-bit FNV-1a: the one digest behind run, sweep and simcheck
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
    /// Folds one engine event, emitted at `at`. Injects are not folded, and
    /// faults are folded by [`Trace::record_fault`].
    pub(crate) fn record(&mut self, at: SimTime, event: &SimEvent<'_>) {
        let (code, src, dst, size_bytes) = match *event {
            SimEvent::Sent { src, dst, size_bytes } => (1, src, dst, size_bytes),
            SimEvent::Delivered { src, dst, size_bytes, .. } => (2, src, dst, size_bytes),
            SimEvent::Dropped { src, dst, size_bytes, reason } => {
                let code = match reason {
                    DropReason::QueueFull => 3,
                    DropReason::Loss => 4,
                    DropReason::LinkDown => 5,
                    DropReason::NodeDown => 8,
                };
                (code, src, dst, size_bytes)
            }
            SimEvent::NoRoute { src, dst, size_bytes } => (6, src, dst, size_bytes),
            SimEvent::TimerFired { node, tag } => (7 ^ (tag << 8), node, node, 0),
            SimEvent::Injected { .. } | SimEvent::Fault { .. } => return,
        };
        self.fold(at, code, src, dst, size_bytes);
    }

    /// Folds a scripted fault about to execute at `at`: a link fault names
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
        self.fold(at, 9 ^ (action.code() << 8), src, dst, 0);
    }

    fn fold(&mut self, at: SimTime, code: u64, src: NodeId, dst: NodeId, size_bytes: u32) {
        for v in [at.as_nanos(), code, src.index() as u64, dst.index() as u64, size_bytes as u64] {
            self.0.write_u64(v);
        }
    }

    /// The digest of every record so far.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(nanos: u64) -> (SimTime, SimEvent<'static>) {
        let event = SimEvent::Sent { src: NodeId(0), dst: NodeId(1), size_bytes: 10 };
        (SimTime::from_nanos(nanos), event)
    }

    fn timer(tag: u64) -> SimEvent<'static> {
        SimEvent::TimerFired { node: NodeId(0), tag }
    }

    fn digest<'a>(records: impl IntoIterator<Item = (SimTime, SimEvent<'a>)>) -> u64 {
        let mut t = Trace::default();
        for (at, ev) in records {
            t.record(at, &ev);
        }
        t.fingerprint()
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_eq!(digest([sent(1), sent(2)]), digest([sent(1), sent(2)]));
        assert_ne!(digest([sent(1), sent(2)]), digest([sent(2), sent(1)]));
    }

    #[test]
    fn fingerprint_distinguishes_timer_tags() {
        let at = SimTime::from_nanos(1);
        assert_ne!(digest([(at, timer(1))]), digest([(at, timer(2))]));
    }

    #[test]
    fn fingerprint_distinguishes_fault_codes_and_skips_injects() {
        let at = SimTime::from_nanos(1);
        let fault = |action: FaultAction| {
            let mut t = Trace::default();
            t.record_fault(at, &action);
            t.fingerprint()
        };
        let crash = fault(FaultAction::CrashNode { node: NodeId(0) });
        assert_ne!(crash, fault(FaultAction::RestartNode { node: NodeId(0) }));
        let (src, dst) = (NodeId(0), NodeId(0));
        let node_down = SimEvent::Dropped { src, dst, size_bytes: 0, reason: DropReason::NodeDown };
        assert_ne!(crash, digest([(at, node_down)]));
        let inject = SimEvent::Injected { src, dst, size_bytes: 8 };
        assert_eq!(digest([(at, inject)]), Trace::default().fingerprint());
    }
}
