//! ARQ (retransmission) baseline for frame delivery.
//!
//! The comparator for FEC in experiment E6: a selective-repeat sender that
//! retransmits unacknowledged packets after a retransmission timeout. Under
//! loss, completing a frame costs at least one extra RTT per loss round —
//! exactly the latency FEC avoids.

use std::collections::BTreeMap;

use metaclass_netsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// ARQ tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArqConfig {
    /// Retransmission timeout. Realistic stacks use ~RTT + 4·jitter.
    pub rto: SimDuration,
    /// Give up after this many transmissions of one packet.
    pub max_transmissions: u32,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig { rto: SimDuration::from_millis(80), max_transmissions: 8 }
    }
}

/// A packet the ARQ sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArqPacket {
    /// Frame this packet belongs to.
    pub frame_id: u64,
    /// Packet index within the frame.
    pub index: u16,
    /// Payload size, bytes.
    pub bytes: u32,
    /// Which transmission attempt this is (1 = first).
    pub attempt: u32,
}

#[derive(Debug, Clone)]
struct Outstanding {
    bytes: u32,
    last_sent: Option<SimTime>,
    attempts: u32,
    acked: bool,
}

/// Selective-repeat ARQ sender for one frame.
///
/// Drive it with [`ArqFrameSender::due_packets`] (what to put on the wire
/// now) and [`ArqFrameSender::on_ack`]; poll [`ArqFrameSender::is_complete`].
///
/// # Examples
///
/// ```
/// use metaclass_media::{ArqConfig, ArqFrameSender};
/// use metaclass_netsim::SimTime;
///
/// let mut tx = ArqFrameSender::new(ArqConfig::default(), 1, &[500, 500, 500]);
/// let first = tx.due_packets(SimTime::ZERO);
/// assert_eq!(first.len(), 3);
/// tx.on_ack(0);
/// tx.on_ack(1);
/// tx.on_ack(2);
/// assert!(tx.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct ArqFrameSender {
    cfg: ArqConfig,
    frame_id: u64,
    packets: BTreeMap<u16, Outstanding>,
    transmissions: u64,
    gave_up: bool,
}

impl ArqFrameSender {
    /// Creates a sender for a frame split into packets of the given sizes.
    pub fn new(cfg: ArqConfig, frame_id: u64, packet_bytes: &[u32]) -> Self {
        let packets = packet_bytes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                (i as u16, Outstanding { bytes, last_sent: None, attempts: 0, acked: false })
            })
            .collect();
        ArqFrameSender { cfg, frame_id, packets, transmissions: 0, gave_up: false }
    }

    /// The frame id this sender serves.
    pub fn frame_id(&self) -> u64 {
        self.frame_id
    }

    /// Packets that should be (re)transmitted at `now`: never-sent packets
    /// and unacked packets whose RTO expired. Marks them sent.
    pub fn due_packets(&mut self, now: SimTime) -> Vec<ArqPacket> {
        if self.gave_up {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (&index, p) in self.packets.iter_mut() {
            if p.acked {
                continue;
            }
            let due = match p.last_sent {
                None => true,
                Some(t) => now.duration_since(t) >= self.cfg.rto,
            };
            if due {
                if p.attempts >= self.cfg.max_transmissions {
                    self.gave_up = true;
                    return Vec::new();
                }
                p.attempts += 1;
                p.last_sent = Some(now);
                self.transmissions += 1;
                out.push(ArqPacket {
                    frame_id: self.frame_id,
                    index,
                    bytes: p.bytes,
                    attempt: p.attempts,
                });
            }
        }
        out
    }

    /// Processes an acknowledgement for packet `index` (duplicates ignored).
    pub fn on_ack(&mut self, index: u16) {
        if let Some(p) = self.packets.get_mut(&index) {
            p.acked = true;
        }
    }

    /// Whether every packet has been acknowledged.
    pub fn is_complete(&self) -> bool {
        self.packets.values().all(|p| p.acked)
    }

    /// Whether the sender abandoned the frame (too many retransmissions).
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Total transmissions so far (including retransmissions).
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }
}

/// Receiver side: tracks which packets arrived and when the frame completed.
#[derive(Debug, Clone)]
pub struct ArqFrameReceiver {
    expected: u16,
    received: Vec<bool>,
    completed_at: Option<SimTime>,
}

impl ArqFrameReceiver {
    /// Creates a receiver expecting `packet_count` packets.
    ///
    /// # Panics
    ///
    /// Panics if `packet_count` is zero.
    pub fn new(packet_count: u16) -> Self {
        assert!(packet_count > 0, "a frame has at least one packet");
        ArqFrameReceiver {
            expected: packet_count,
            received: vec![false; packet_count as usize],
            completed_at: None,
        }
    }

    /// Ingests a packet arrival at `now`; returns the ack index to send back,
    /// or `None` for out-of-range indices.
    pub fn on_packet(&mut self, now: SimTime, index: u16) -> Option<u16> {
        if index >= self.expected {
            return None;
        }
        self.received[index as usize] = true;
        if self.completed_at.is_none() && self.received.iter().all(|&r| r) {
            self.completed_at = Some(now);
        }
        Some(index)
    }

    /// When the full frame was first available, if yet.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(n: usize) -> ArqFrameSender {
        ArqFrameSender::new(ArqConfig::default(), 1, &vec![1000u32; n])
    }

    #[test]
    fn lossless_path_sends_each_packet_once() {
        let mut tx = sender(4);
        let mut rx = ArqFrameReceiver::new(4);
        let pkts = tx.due_packets(SimTime::ZERO);
        assert_eq!(pkts.len(), 4);
        for p in &pkts {
            let ack = rx.on_packet(SimTime::from_millis(10), p.index).unwrap();
            tx.on_ack(ack);
        }
        assert!(tx.is_complete());
        assert_eq!(tx.transmissions(), 4);
        assert_eq!(rx.completed_at(), Some(SimTime::from_millis(10)));
        // Nothing more is due.
        assert!(tx.due_packets(SimTime::from_millis(200)).is_empty());
    }

    #[test]
    fn lost_packet_is_retransmitted_after_rto() {
        let mut tx = sender(2);
        let first = tx.due_packets(SimTime::ZERO);
        assert_eq!(first.len(), 2);
        tx.on_ack(0); // packet 1 lost
                      // Before RTO: nothing due.
        assert!(tx.due_packets(SimTime::from_millis(79)).is_empty());
        // After RTO: retransmit packet 1 only.
        let retx = tx.due_packets(SimTime::from_millis(80));
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].index, 1);
        assert_eq!(retx[0].attempt, 2);
    }

    #[test]
    fn gives_up_after_max_transmissions() {
        let cfg = ArqConfig { rto: SimDuration::from_millis(10), max_transmissions: 3 };
        let mut tx = ArqFrameSender::new(cfg, 1, &[100]);
        for i in 0..3u64 {
            assert_eq!(tx.due_packets(SimTime::from_millis(i * 10)).len(), 1);
        }
        assert!(tx.due_packets(SimTime::from_millis(30)).is_empty());
        assert!(tx.gave_up());
        assert!(!tx.is_complete());
    }

    #[test]
    fn duplicate_acks_and_bad_indices_are_benign() {
        let mut tx = sender(1);
        let mut rx = ArqFrameReceiver::new(1);
        tx.due_packets(SimTime::ZERO);
        assert_eq!(rx.on_packet(SimTime::ZERO, 5), None);
        tx.on_ack(0);
        tx.on_ack(0);
        tx.on_ack(42);
        assert!(tx.is_complete());
    }

    #[test]
    fn completion_time_is_first_full_arrival() {
        let mut rx = ArqFrameReceiver::new(2);
        rx.on_packet(SimTime::from_millis(5), 0);
        assert_eq!(rx.completed_at(), None);
        rx.on_packet(SimTime::from_millis(95), 1);
        assert_eq!(rx.completed_at(), Some(SimTime::from_millis(95)));
        // Late duplicate does not move the completion time.
        rx.on_packet(SimTime::from_millis(200), 0);
        assert_eq!(rx.completed_at(), Some(SimTime::from_millis(95)));
    }
}
