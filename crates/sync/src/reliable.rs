//! Reliable, ordered event replication with an adaptive retransmission
//! timeout.
//!
//! Pose streams tolerate loss (the next update supersedes the last), but the
//! blueprint's *interaction traces* (§3.2) — raise-hand, pointing, grabbing a
//! shared object, drawing a stroke — must arrive **exactly once, in order**:
//! a lost "release object" or a reordered "undo" corrupts shared state. This
//! module provides a sans-I/O go-back-style reliable channel: cumulative
//! acks, timeout retransmission with an RFC 6298-style adaptive RTO
//! (SRTT/RTTVAR, exponential backoff, Karn's algorithm), a bounded in-flight
//! window, and an in-order release buffer. A sender retries an item until
//! it is acknowledged.

use std::collections::{BTreeMap, VecDeque};

use metaclass_netsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Retransmission policy of a [`ReliableSender`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// RTO before the first RTT sample arrives.
    pub initial_rto: SimDuration,
    /// Lower clamp on the computed RTO.
    pub min_rto: SimDuration,
    /// Upper clamp on the computed RTO; also caps exponential backoff.
    pub max_rto: SimDuration,
    /// Maximum unacknowledged items; further sends queue until space frees.
    pub window: usize,
}

impl ReliableConfig {
    /// Adaptive RFC 6298-style policy seeded with `initial_rto`, clamped to
    /// `[initial_rto / 4, initial_rto * 32]`, retrying forever with a
    /// 256-item window.
    pub fn adaptive(initial_rto: SimDuration) -> Self {
        ReliableConfig {
            initial_rto,
            min_rto: SimDuration::from_nanos(initial_rto.as_nanos() / 4),
            max_rto: SimDuration::from_nanos(initial_rto.as_nanos().saturating_mul(32)),
            window: 256,
        }
    }

    /// Fixed-RTO policy: the timeout never adapts or backs off. This is the
    /// pre-adaptive baseline, kept for ablation experiments.
    pub fn fixed(rto: SimDuration) -> Self {
        ReliableConfig { initial_rto: rto, min_rto: rto, max_rto: rto, window: 1024 }
    }
}

/// RFC 6298-style smoothed RTT estimator.
///
/// Maintains SRTT and RTTVAR from RTT samples, computes
/// `rto = srtt + 4 * rttvar` clamped to the configured bounds, and doubles
/// the timeout (up to `max_rto`) on each backoff. Samples must come only
/// from never-retransmitted packets (Karn's algorithm) — the caller
/// guarantees that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RtoEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RtoEstimator {
    /// Creates an estimator starting at `initial` and clamped to
    /// `[min, max]`.
    pub fn new(initial: SimDuration, min: SimDuration, max: SimDuration) -> Self {
        RtoEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial.clamp(min, max),
            min_rto: min,
            max_rto: max,
        }
    }

    /// Feeds one RTT sample, re-deriving the RTO.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_nanos();
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration::from_nanos(r / 2);
            }
            Some(srtt) => {
                let s = srtt.as_nanos();
                let var = self.rttvar.as_nanos();
                let err = s.abs_diff(r);
                // RTTVAR := 3/4 RTTVAR + 1/4 |SRTT - R|; SRTT := 7/8 SRTT + 1/8 R.
                self.rttvar = SimDuration::from_nanos(var - var / 4 + err / 4);
                self.srtt = Some(SimDuration::from_nanos(s - s / 8 + r / 8));
            }
        }
        let srtt = self.srtt.expect("just set").as_nanos();
        let rto = srtt.saturating_add(self.rttvar.as_nanos().saturating_mul(4));
        self.rto = SimDuration::from_nanos(rto).clamp(self.min_rto, self.max_rto);
    }

    /// Doubles the RTO after a timeout, capped at `max_rto`.
    pub fn backoff(&mut self) {
        self.rto = SimDuration::from_nanos(self.rto.as_nanos().saturating_mul(2))
            .clamp(self.min_rto, self.max_rto);
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// The smoothed RTT, once at least one sample arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }
}

#[derive(Debug, Clone)]
struct InFlight<T> {
    item: T,
    first_tx: SimTime,
    last_tx: SimTime,
    /// Karn's algorithm: never sample RTT from a retransmitted packet.
    retransmitted: bool,
}

/// Sender half of a reliable ordered channel.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{SimDuration, SimTime};
/// use metaclass_sync::{ReliableReceiver, ReliableSender};
///
/// let mut tx = ReliableSender::new(SimDuration::from_millis(100));
/// let mut rx: ReliableReceiver<&str> = ReliableReceiver::new();
///
/// let (seq, wire) = tx.send("raise-hand", SimTime::ZERO);
/// let delivered = rx.on_packet(seq, wire.unwrap());
/// assert_eq!(delivered, vec!["raise-hand"]);
/// tx.on_ack_at(rx.cumulative_ack().unwrap(), SimTime::from_millis(30));
/// assert_eq!(tx.in_flight(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReliableSender<T> {
    cfg: ReliableConfig,
    estimator: RtoEstimator,
    next_seq: u64,
    /// Unacknowledged items by sequence.
    unacked: BTreeMap<u64, InFlight<T>>,
    /// Sends deferred because the window was full, in sequence order.
    queued: VecDeque<(u64, T)>,
    retransmissions: u64,
}

impl<T: Clone> ReliableSender<T> {
    /// Creates an adaptive sender seeded with `initial_rto` (see
    /// [`ReliableConfig::adaptive`]).
    pub fn new(initial_rto: SimDuration) -> Self {
        Self::with_config(ReliableConfig::adaptive(initial_rto))
    }

    /// Creates a sender with an explicit policy.
    pub fn with_config(cfg: ReliableConfig) -> Self {
        ReliableSender {
            cfg,
            estimator: RtoEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            next_seq: 0,
            unacked: BTreeMap::new(),
            queued: VecDeque::new(),
            retransmissions: 0,
        }
    }

    /// Enqueues `item` at `now`; returns its sequence number and, if the
    /// in-flight window admits it immediately, a clone to put on the wire.
    /// `None` means the item was queued — it will surface from
    /// [`ReliableSender::due_retransmits`] once the window frees up.
    pub fn send(&mut self, item: T, now: SimTime) -> (u64, Option<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.unacked.len() < self.cfg.window {
            self.unacked.insert(
                seq,
                InFlight { item: item.clone(), first_tx: now, last_tx: now, retransmitted: false },
            );
            (seq, Some(item))
        } else {
            self.queued.push_back((seq, item));
            (seq, None)
        }
    }

    /// Items to put on the wire at `now`: expired in-flight items (restamped,
    /// with exponential RTO backoff) and queued items newly admitted to the
    /// window.
    pub fn due_retransmits(&mut self, now: SimTime) -> Vec<(u64, T)> {
        let rto = self.estimator.rto();
        let mut out = Vec::new();
        for (&seq, entry) in self.unacked.iter_mut() {
            if now.duration_since(entry.last_tx) < rto {
                continue;
            }
            entry.last_tx = now;
            entry.retransmitted = true;
            self.retransmissions += 1;
            out.push((seq, entry.item.clone()));
        }
        if !out.is_empty() {
            self.estimator.backoff();
        }
        // Admit queued items into the freed window; they are first
        // transmissions, not retransmissions.
        while self.unacked.len() < self.cfg.window {
            let Some((seq, item)) = self.queued.pop_front() else { break };
            self.unacked.insert(
                seq,
                InFlight { item: item.clone(), first_tx: now, last_tx: now, retransmitted: false },
            );
            out.push((seq, item));
        }
        out
    }

    /// Processes a cumulative acknowledgement received at `now`: everything
    /// `<= seq` is done. If the exactly-acked item was never retransmitted,
    /// its RTT feeds the adaptive estimator (Karn's algorithm).
    pub fn on_ack_at(&mut self, seq: u64, now: SimTime) {
        if let Some(entry) = self.unacked.get(&seq) {
            if !entry.retransmitted {
                self.estimator.on_sample(now.duration_since(entry.first_tx));
            }
        }
        self.unacked.retain(|&s, _| s > seq);
    }

    /// Processes a cumulative acknowledgement without an RTT sample. Prefer
    /// [`ReliableSender::on_ack_at`], which lets the RTO adapt.
    pub fn on_ack(&mut self, seq: u64) {
        self.unacked.retain(|&s, _| s > seq);
    }

    /// Removes and returns every outstanding item (unacked then queued) in
    /// send order, clearing the stream.
    ///
    /// Used to rebuild a stream toward a restarted peer: the peer lost its
    /// receive state, so the outstanding tail must be requeued on a fresh
    /// sender whose sequence numbers start over.
    pub fn take_outstanding(&mut self) -> Vec<T> {
        let unacked = std::mem::take(&mut self.unacked);
        let queued = std::mem::take(&mut self.queued);
        unacked
            .into_values()
            .map(|entry| entry.item)
            .chain(queued.into_iter().map(|(_, item)| item))
            .collect()
    }

    /// Items awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Items waiting for window space.
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// Total retransmissions so far (each restamped copy counts once).
    pub fn retransmission_count(&self) -> u64 {
        self.retransmissions
    }

    /// Sequence the next [`ReliableSender::send`] will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Receiver half: releases items exactly once, in sequence order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReliableReceiver<T> {
    next_expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    buffer: BTreeMap<u64, T>,
    /// Bound on the reorder buffer (drops beyond-window arrivals; the
    /// sender's retransmission recovers them later).
    window: u64,
}

impl<T> Default for ReliableReceiver<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReliableReceiver<T> {
    /// Creates a receiver with a 1024-item reorder window.
    pub fn new() -> Self {
        ReliableReceiver { next_expected: 0, buffer: BTreeMap::new(), window: 1024 }
    }

    /// Ingests a packet; returns every item now deliverable in order
    /// (possibly empty for gaps/duplicates).
    pub fn on_packet(&mut self, seq: u64, item: T) -> Vec<T> {
        if seq < self.next_expected || seq >= self.next_expected + self.window {
            return Vec::new(); // duplicate or far future
        }
        self.buffer.entry(seq).or_insert(item);
        let mut out = Vec::new();
        while let Some(item) = self.buffer.remove(&self.next_expected) {
            out.push(item);
            self.next_expected += 1;
        }
        out
    }

    /// The cumulative ack to report (highest in-order sequence delivered), or
    /// `None` before anything arrived.
    pub fn cumulative_ack(&self) -> Option<u64> {
        self.next_expected.checked_sub(1)
    }

    /// Items buffered out of order.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Sequence the receiver is waiting for.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }
}

/// An interaction a participant performs in the shared space — the
/// "interaction traces" replicated alongside pose (§3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InteractionEvent {
    /// Raise (or lower) a hand.
    RaiseHand {
        /// True to raise, false to lower.
        raised: bool,
    },
    /// Point at a shared entity (another avatar, a slide, an object).
    Point {
        /// Identifier of the pointed-at entity.
        target: u32,
    },
    /// Grab or release a shared object.
    Grab {
        /// The object.
        object: u32,
        /// True on grab, false on release.
        held: bool,
    },
    /// A whiteboard stroke segment.
    DrawStroke {
        /// Stroke id (groups segments).
        stroke: u32,
        /// Encoded points payload size, bytes.
        payload_bytes: u32,
    },
    /// Trigger of a gamified module (answer buzzer, breakout door).
    Activate {
        /// The module.
        module: u32,
    },
}

impl InteractionEvent {
    /// Wire size of the event payload, bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            InteractionEvent::RaiseHand { .. } => 2,
            InteractionEvent::Point { .. } => 5,
            InteractionEvent::Grab { .. } => 6,
            InteractionEvent::DrawStroke { payload_bytes, .. } => 5 + payload_bytes,
            InteractionEvent::Activate { .. } => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_netsim::DetRng;
    use proptest::prelude::*;

    fn rto() -> SimDuration {
        SimDuration::from_millis(100)
    }

    #[test]
    fn in_order_delivery_with_no_loss() {
        let mut tx = ReliableSender::new(rto());
        let mut rx = ReliableReceiver::new();
        let mut delivered = Vec::new();
        for i in 0..50 {
            let now = SimTime::from_millis(i as u64);
            let (seq, item) = tx.send(i, now);
            delivered.extend(rx.on_packet(seq, item.unwrap()));
            tx.on_ack_at(rx.cumulative_ack().unwrap(), now);
        }
        assert_eq!(delivered, (0..50).collect::<Vec<_>>());
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.retransmission_count(), 0);
    }

    #[test]
    fn gaps_block_release_until_filled() {
        let mut rx = ReliableReceiver::new();
        assert!(rx.on_packet(1, "b").is_empty(), "gap at 0 blocks 1");
        assert_eq!(rx.buffered(), 1);
        assert_eq!(rx.cumulative_ack(), None);
        let out = rx.on_packet(0, "a");
        assert_eq!(out, vec!["a", "b"]);
        assert_eq!(rx.cumulative_ack(), Some(1));
    }

    #[test]
    fn duplicates_are_delivered_exactly_once() {
        let mut rx = ReliableReceiver::new();
        assert_eq!(rx.on_packet(0, "a"), vec!["a"]);
        assert!(rx.on_packet(0, "a").is_empty());
        assert!(rx.on_packet(0, "a-corrupt").is_empty());
        assert_eq!(rx.next_expected(), 1);
    }

    #[test]
    fn retransmission_recovers_losses() {
        let mut tx = ReliableSender::new(rto());
        let mut rx = ReliableReceiver::new();
        // Send 3 events; the middle one is lost.
        let (s0, i0) = tx.send("a", SimTime::ZERO);
        let (_s1, _lost) = tx.send("b", SimTime::ZERO);
        let (s2, i2) = tx.send("c", SimTime::ZERO);
        let mut got = Vec::new();
        got.extend(rx.on_packet(s0, i0.unwrap()));
        got.extend(rx.on_packet(s2, i2.unwrap()));
        tx.on_ack(rx.cumulative_ack().unwrap()); // acks only "a"
        assert_eq!(tx.in_flight(), 2);
        // RTO fires: both unacked go out again; delivery completes in order.
        for (seq, item) in tx.due_retransmits(SimTime::from_millis(100)) {
            got.extend(rx.on_packet(seq, item));
        }
        assert_eq!(got, vec!["a", "b", "c"]);
        tx.on_ack(rx.cumulative_ack().unwrap());
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.retransmission_count(), 2);
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let mut tx = ReliableSender::new(rto());
        tx.send("x", SimTime::ZERO);
        assert!(tx.due_retransmits(SimTime::from_millis(99)).is_empty());
        // First timeout at 100 ms; RTO doubles to 200 ms.
        assert_eq!(tx.due_retransmits(SimTime::from_millis(100)).len(), 1);
        assert_eq!(tx.estimator.rto(), SimDuration::from_millis(200));
        assert!(tx.due_retransmits(SimTime::from_millis(250)).is_empty());
        // Second timeout at 100 + 200 = 300 ms; RTO doubles to 400 ms.
        assert_eq!(tx.due_retransmits(SimTime::from_millis(300)).len(), 1);
        assert_eq!(tx.estimator.rto(), SimDuration::from_millis(400));
    }

    #[test]
    fn fixed_config_never_backs_off() {
        let mut tx = ReliableSender::with_config(ReliableConfig::fixed(rto()));
        tx.send("x", SimTime::ZERO);
        assert_eq!(tx.due_retransmits(SimTime::from_millis(100)).len(), 1);
        assert_eq!(tx.estimator.rto(), rto());
        assert_eq!(tx.due_retransmits(SimTime::from_millis(200)).len(), 1);
        assert_eq!(tx.estimator.rto(), rto());
    }

    #[test]
    fn adaptive_rto_tracks_measured_rtt() {
        let mut tx = ReliableSender::new(rto());
        let mut now = SimTime::ZERO;
        // Stable 20 ms RTT: the RTO should fall well below the initial 100 ms
        // (clamped at min 25 ms, and srtt + 4*rttvar decays toward srtt).
        for i in 0..50u64 {
            let (seq, _) = tx.send(i, now);
            let acked_at = now + SimDuration::from_millis(20);
            tx.on_ack_at(seq, acked_at);
            now += SimDuration::from_millis(40);
        }
        let srtt = tx.estimator.srtt().unwrap();
        assert_eq!(srtt, SimDuration::from_millis(20), "srtt converges to the true rtt");
        assert!(
            tx.estimator.rto() < SimDuration::from_millis(60),
            "rto {:?} should shrink toward the measured rtt",
            tx.estimator.rto()
        );
        assert!(tx.estimator.rto() >= SimDuration::from_millis(20));
    }

    #[test]
    fn karn_ignores_rtt_of_retransmitted_packets() {
        let mut tx = ReliableSender::new(rto());
        let (seq, _) = tx.send("x", SimTime::ZERO);
        tx.due_retransmits(SimTime::from_millis(100));
        // Ack arrives much later; it is ambiguous which copy it acks, so it
        // must not feed the estimator.
        tx.on_ack_at(seq, SimTime::from_millis(5000));
        assert_eq!(tx.estimator.srtt(), None);
    }

    #[test]
    fn take_outstanding_returns_unacked_then_queued_in_order() {
        let cfg = ReliableConfig { window: 2, ..ReliableConfig::adaptive(rto()) };
        let mut tx = ReliableSender::with_config(cfg);
        tx.send("a", SimTime::ZERO);
        tx.send("b", SimTime::ZERO);
        tx.send("c", SimTime::ZERO); // queued beyond the window
        tx.on_ack_at(0, SimTime::from_millis(10));
        let outstanding = tx.take_outstanding();
        assert_eq!(outstanding, vec!["b", "c"]);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.queued(), 0);
    }

    #[test]
    fn window_bounds_in_flight_and_queues_excess() {
        let cfg = ReliableConfig { window: 2, ..ReliableConfig::adaptive(rto()) };
        let mut tx = ReliableSender::with_config(cfg);
        let (s0, w0) = tx.send("a", SimTime::ZERO);
        let (_s1, w1) = tx.send("b", SimTime::ZERO);
        let (s2, w2) = tx.send("c", SimTime::ZERO);
        assert!(w0.is_some() && w1.is_some());
        assert!(w2.is_none(), "third send exceeds the window");
        assert_eq!(tx.in_flight(), 2);
        assert_eq!(tx.queued(), 1);
        // Acking the first two frees the window; the queued item goes out on
        // the next pump as a first transmission.
        tx.on_ack_at(1, SimTime::from_millis(10));
        let out = tx.due_retransmits(SimTime::from_millis(10));
        assert_eq!(out, vec![(s2, "c")]);
        assert_eq!(tx.queued(), 0);
        assert_eq!(tx.retransmission_count(), 0, "window admission is not a retransmit");
        let _ = s0;
    }

    #[test]
    fn event_wire_sizes() {
        assert_eq!(InteractionEvent::RaiseHand { raised: true }.wire_bytes(), 2);
        assert_eq!(
            InteractionEvent::DrawStroke { stroke: 1, payload_bytes: 120 }.wire_bytes(),
            125
        );
    }

    proptest! {
        /// The core guarantee: under arbitrary loss, duplication, and
        /// reordering (with retransmission), the receiver emits exactly the
        /// sent sequence, in order.
        #[test]
        fn prop_exactly_once_in_order(seed in any::<u64>(), n in 1usize..120, loss in 0.0f64..0.6) {
            let mut rng = DetRng::new(seed);
            let mut tx = ReliableSender::with_config(ReliableConfig::fixed(rto()));
            let mut rx = ReliableReceiver::new();
            let mut delivered: Vec<u64> = Vec::new();
            let mut wire: Vec<(u64, u64)> = Vec::new();
            let mut now = SimTime::ZERO;

            for i in 0..n as u64 {
                let (seq, item) = tx.send(i, now);
                if let Some(item) = item {
                    wire.push((seq, item));
                }
            }
            // Pump the network until everything is acknowledged.
            let mut rounds = 0;
            while tx.in_flight() > 0 || tx.queued() > 0 {
                rounds += 1;
                prop_assert!(rounds < 200, "did not converge");
                // Shuffle (reordering) and drop (loss) the in-flight packets.
                rng.shuffle(&mut wire);
                for (seq, item) in wire.drain(..) {
                    if rng.chance(loss) {
                        continue;
                    }
                    delivered.extend(rx.on_packet(seq, item));
                    // Duplicate occasionally: must release nothing new.
                    if rng.chance(0.1) {
                        prop_assert!(rx.on_packet(seq, item).is_empty());
                    }
                }
                if let Some(ack) = rx.cumulative_ack() {
                    // Acks themselves can be lost.
                    if !rng.chance(loss) {
                        tx.on_ack_at(ack, now);
                    }
                }
                now += SimDuration::from_millis(100);
                wire.extend(tx.due_retransmits(now));
            }
            prop_assert_eq!(delivered, (0..n as u64).collect::<Vec<_>>());
        }

        /// The adaptive sender preserves the same exactly-once guarantee when
        /// the pump advances by its live (backed-off) RTO each round.
        #[test]
        fn prop_adaptive_exactly_once(seed in any::<u64>(), n in 1usize..80, loss in 0.0f64..0.5) {
            let mut rng = DetRng::new(seed);
            let mut tx = ReliableSender::new(rto());
            let mut rx = ReliableReceiver::new();
            let mut delivered: Vec<u64> = Vec::new();
            let mut wire: Vec<(u64, u64)> = Vec::new();
            let mut now = SimTime::ZERO;

            for i in 0..n as u64 {
                let (seq, item) = tx.send(i, now);
                if let Some(item) = item {
                    wire.push((seq, item));
                }
            }
            let mut rounds = 0;
            while tx.in_flight() > 0 || tx.queued() > 0 {
                rounds += 1;
                prop_assert!(rounds < 200, "did not converge");
                rng.shuffle(&mut wire);
                for (seq, item) in wire.drain(..) {
                    if rng.chance(loss) {
                        continue;
                    }
                    delivered.extend(rx.on_packet(seq, item));
                }
                if let Some(ack) = rx.cumulative_ack() {
                    if !rng.chance(loss) {
                        tx.on_ack_at(ack, now);
                    }
                }
                now = now.saturating_add(tx.estimator.rto());
                wire.extend(tx.due_retransmits(now));
            }
            prop_assert_eq!(delivered, (0..n as u64).collect::<Vec<_>>());
        }
    }
}
