//! NTP-style clock synchronization.
//!
//! "These three classrooms are synchronized" (§3.2): every classroom server
//! and client estimates its offset to the session's reference clock by
//! exchanging timestamped probes, exactly as NTP does, keeping the estimate
//! from the minimum-RTT exchanges in a sliding window (low-RTT exchanges have
//! the least asymmetric queueing error).

use std::collections::VecDeque;

use metaclass_netsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One completed probe exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockSample {
    /// Round-trip time of the exchange.
    pub rtt: SimDuration,
    /// Estimated offset (server clock minus local clock), nanoseconds.
    pub offset_ns: i64,
}

/// Sliding-window min-RTT offset estimator.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::SimTime;
/// use metaclass_sync::OffsetEstimator;
///
/// let mut est = OffsetEstimator::new(8);
/// // Local clock is 5 ms behind the server; symmetric 10 ms RTT.
/// est.record(
///     SimTime::from_millis(100),             // local send
///     SimTime::from_millis(110),             // server timestamp
///     SimTime::from_millis(110),             // local receive
/// );
/// assert_eq!(est.offset_ns(), Some(5_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct OffsetEstimator {
    window: VecDeque<ClockSample>,
    capacity: usize,
}

impl OffsetEstimator {
    /// Creates an estimator keeping the last `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        OffsetEstimator { window: VecDeque::with_capacity(capacity), capacity }
    }

    /// Records a completed exchange: the probe left at `local_send`, the
    /// server stamped `server_time`, the reply arrived at `local_recv`.
    ///
    /// # Panics
    ///
    /// Panics if `local_recv < local_send`.
    pub fn record(&mut self, local_send: SimTime, server_time: SimTime, local_recv: SimTime) {
        assert!(local_recv >= local_send, "reply before request");
        let rtt = local_recv.duration_since(local_send);
        let midpoint_ns = (local_send.as_nanos() + local_recv.as_nanos()) / 2;
        let offset_ns = server_time.as_nanos() as i64 - midpoint_ns as i64;
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(ClockSample { rtt, offset_ns });
    }

    /// Number of samples currently in the window.
    pub fn sample_count(&self) -> usize {
        self.window.len()
    }

    /// The best (minimum-RTT) sample in the window.
    pub fn best_sample(&self) -> Option<ClockSample> {
        self.window.iter().min_by_key(|s| s.rtt).copied()
    }

    /// Estimated offset (server minus local), nanoseconds.
    pub fn offset_ns(&self) -> Option<i64> {
        self.best_sample().map(|s| s.offset_ns)
    }

    /// Upper bound on the offset error: half the best sample's RTT.
    pub fn uncertainty(&self) -> Option<SimDuration> {
        self.best_sample().map(|s| s.rtt / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_exchange_recovers_exact_offset() {
        let mut est = OffsetEstimator::new(4);
        // Server is 25 ms ahead; one-way 7 ms each direction.
        est.record(
            SimTime::from_millis(1000),
            SimTime::from_millis(1000 + 7 + 25),
            SimTime::from_millis(1014),
        );
        assert_eq!(est.offset_ns(), Some(25_000_000));
        assert_eq!(est.uncertainty(), Some(SimDuration::from_millis(7)));
    }

    #[test]
    fn min_rtt_sample_wins() {
        let mut est = OffsetEstimator::new(8);
        // Asymmetric, high-RTT exchange with a skewed offset estimate.
        est.record(
            SimTime::from_millis(0),
            SimTime::from_millis(90), // 80 out / 20 back: apparent offset 40
            SimTime::from_millis(100),
        );
        // Clean low-RTT exchange with the true offset of 10 ms.
        est.record(SimTime::from_millis(200), SimTime::from_millis(212), SimTime::from_millis(204));
        assert_eq!(est.offset_ns(), Some(10_000_000));
    }

    #[test]
    fn window_evicts_old_samples() {
        let mut est = OffsetEstimator::new(2);
        for i in 0..5u64 {
            est.record(
                SimTime::from_millis(i * 100),
                SimTime::from_millis(i * 100 + 5 + i),
                SimTime::from_millis(i * 100 + 10),
            );
        }
        assert_eq!(est.sample_count(), 2);
    }

    #[test]
    fn a_server_behind_local_time_has_a_negative_offset() {
        let mut est = OffsetEstimator::new(4);
        est.record(SimTime::from_secs(100), SimTime::from_secs(1), SimTime::from_secs(100));
        assert_eq!(est.offset_ns(), Some(-99_000_000_000));
    }

    #[test]
    fn empty_estimator_returns_none() {
        let est = OffsetEstimator::new(4);
        assert_eq!(est.offset_ns(), None);
        assert_eq!(est.uncertainty(), None);
    }
}
