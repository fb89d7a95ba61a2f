//! Heartbeat failure detection and graceful display degradation.
//!
//! Edge and cloud servers beacon each other with [`ClassMsg::Heartbeat`]
//! (any inbound traffic also counts as liveness). A [`PeerHealth`] state
//! machine per peer classifies silence into three regimes:
//!
//! - **Up** — traffic within the expected cadence;
//! - **Degraded** — sustained loss: several heartbeats missed but not yet a
//!   full outage. Senders reduce snapshot rate toward the peer;
//! - **Down** — silence past the timeout. Remote avatars sourced from the
//!   peer are *held* (dead-reckoned in place) for a grace window and then
//!   *frozen* rather than extrapolated forever, so a stale pose is never
//!   presented as live motion.
//!
//! When a down peer speaks again the server performs a full-snapshot resync
//! (keyframes on every stream toward it, fresh reliable interaction streams
//! carrying the outstanding tail), because a restarted peer has lost its
//! receive state.
//!
//! [`ClassMsg::Heartbeat`]: crate::ClassMsg::Heartbeat

use metaclass_netsim::{SimDuration, SimTime};

/// Toward a degraded peer, only every `DEGRADED_STRIDE`-th replication tick
/// actually sends (reduced snapshot rate under sustained loss).
const DEGRADED_STRIDE: u64 = 4;

/// Tuning of the server-to-server heartbeat failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// Heartbeat send cadence.
    pub interval: SimDuration,
    /// Silence longer than this (but shorter than `timeout`) marks the peer
    /// [`PeerState::Degraded`].
    pub degraded_after: SimDuration,
    /// Silence longer than this marks the peer [`PeerState::Down`].
    pub timeout: SimDuration,
    /// How long a remote avatar keeps dead-reckoning ([`Hold`]) after its
    /// source peer goes down before its display is frozen.
    ///
    /// [`Hold`]: RemoteAvatarPresentation::Hold
    pub hold: SimDuration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: SimDuration::from_millis(50),
            degraded_after: SimDuration::from_millis(200),
            timeout: SimDuration::from_millis(500),
            hold: SimDuration::from_millis(1000),
        }
    }
}

/// Liveness classification of a peer server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heard from recently.
    Up,
    /// Missing heartbeats; assumed lossy but alive.
    Degraded,
    /// Silent past the timeout; assumed crashed or partitioned away.
    Down,
}

/// A liveness transition worth reacting to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// Up → Degraded: start sending less toward this peer.
    Degraded,
    /// → Down: remote avatars from this peer enter hold-then-freeze.
    Down,
    /// Down → Up: the peer returned; resynchronize it from scratch.
    Returned,
}

/// How a remote avatar should be presented given its source peer's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteAvatarPresentation {
    /// Fresh updates are flowing; display normally.
    Live,
    /// Source peer is down within the hold window: keep dead-reckoning the
    /// last trajectory.
    Hold,
    /// Source peer has been down past the hold window: pin the avatar in
    /// place (zero velocity) instead of extrapolating stale motion.
    Frozen,
}

/// Failure-detector state for one peer server.
///
/// Sans-I/O: feed it [`on_heard`](PeerHealth::on_heard) whenever traffic
/// arrives from the peer and [`poll`](PeerHealth::poll) on a timer; both
/// return the [`PeerEvent`] crossed, if any.
#[derive(Debug, Clone)]
pub struct PeerHealth {
    cfg: HeartbeatConfig,
    /// `None` until the detector first observes the peer (or first polls):
    /// silence is measured from that baseline, not from construction, so a
    /// detector built (or reset by a crash) mid-session does not spuriously
    /// declare its peers down.
    last_heard: Option<SimTime>,
    state: PeerState,
    down_since: Option<SimTime>,
    outages: u64,
}

impl PeerHealth {
    /// Creates a detector that considers the peer up as of `now`.
    pub fn new(cfg: HeartbeatConfig, now: SimTime) -> Self {
        PeerHealth {
            cfg,
            last_heard: Some(now),
            state: PeerState::Up,
            down_since: None,
            outages: 0,
        }
    }

    /// Forgets every observation (used when the owning node crash-resets).
    /// The next poll or inbound traffic re-baselines silence measurement, so
    /// a freshly restarted node does not declare all peers down at once.
    pub fn reset(&mut self) {
        self.last_heard = None;
        self.state = PeerState::Up;
        self.down_since = None;
        self.outages = 0;
    }

    /// Records traffic from the peer at `now`.
    pub fn on_heard(&mut self, now: SimTime) -> Option<PeerEvent> {
        self.last_heard = Some(now);
        let was = self.state;
        self.state = PeerState::Up;
        match was {
            PeerState::Down => {
                self.down_since = None;
                Some(PeerEvent::Returned)
            }
            _ => None,
        }
    }

    /// Re-evaluates the peer's state against the clock.
    pub fn poll(&mut self, now: SimTime) -> Option<PeerEvent> {
        let baseline = *self.last_heard.get_or_insert(now);
        let silence = now.duration_since(baseline);
        let next = if silence >= self.cfg.timeout {
            PeerState::Down
        } else if silence >= self.cfg.degraded_after {
            PeerState::Degraded
        } else {
            PeerState::Up
        };
        if next == self.state {
            return None;
        }
        let event = match next {
            PeerState::Down => {
                self.down_since = Some(now);
                self.outages += 1;
                Some(PeerEvent::Down)
            }
            PeerState::Degraded => Some(PeerEvent::Degraded),
            // poll never moves a peer back Up — only traffic does.
            PeerState::Up => None,
        };
        if event.is_some() {
            self.state = next;
        }
        event
    }

    /// Current classification.
    pub fn state(&self) -> PeerState {
        self.state
    }

    /// When the ongoing outage was detected, if the peer is down.
    pub fn down_since(&self) -> Option<SimTime> {
        self.down_since
    }

    /// Number of distinct outages detected so far.
    pub fn outages(&self) -> u64 {
        self.outages
    }

    /// Whether senders should skip this peer on the given replication tick
    /// (down, or degraded and off-stride).
    pub fn should_skip_send(&self, tick: u64) -> bool {
        match self.state {
            PeerState::Up => false,
            PeerState::Degraded => !tick.is_multiple_of(DEGRADED_STRIDE),
            PeerState::Down => true,
        }
    }

    /// How avatars sourced from this peer should be displayed at `now`.
    pub fn presentation(&self, now: SimTime) -> RemoteAvatarPresentation {
        match (self.state, self.down_since) {
            (PeerState::Down, Some(since)) => {
                if now.duration_since(since) < self.cfg.hold {
                    RemoteAvatarPresentation::Hold
                } else {
                    RemoteAvatarPresentation::Frozen
                }
            }
            _ => RemoteAvatarPresentation::Live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig::default()
    }

    #[test]
    fn silence_degrades_then_downs() {
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        assert_eq!(h.poll(SimTime::from_millis(100)), None);
        assert_eq!(h.poll(SimTime::from_millis(250)), Some(PeerEvent::Degraded));
        assert_eq!(h.poll(SimTime::from_millis(300)), None);
        assert_eq!(h.poll(SimTime::from_millis(600)), Some(PeerEvent::Down));
        assert_eq!(h.state(), PeerState::Down);
        assert_eq!(h.down_since(), Some(SimTime::from_millis(600)));
        assert_eq!(h.outages(), 1);
    }

    #[test]
    fn traffic_recovers_and_signals_return() {
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        h.poll(SimTime::from_millis(250));
        assert_eq!(h.on_heard(SimTime::from_millis(260)), None, "degraded recovery is silent");
        h.poll(SimTime::from_millis(900));
        assert_eq!(h.state(), PeerState::Down);
        assert_eq!(h.on_heard(SimTime::from_millis(950)), Some(PeerEvent::Returned));
        assert_eq!(h.state(), PeerState::Up);
        assert_eq!(h.down_since(), None);
    }

    #[test]
    fn presentation_holds_then_freezes() {
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        assert_eq!(h.presentation(SimTime::from_millis(100)), RemoteAvatarPresentation::Live);
        h.poll(SimTime::from_millis(600));
        assert_eq!(h.presentation(SimTime::from_millis(700)), RemoteAvatarPresentation::Hold);
        assert_eq!(h.presentation(SimTime::from_millis(1700)), RemoteAvatarPresentation::Frozen);
        h.on_heard(SimTime::from_millis(1800));
        assert_eq!(h.presentation(SimTime::from_millis(1800)), RemoteAvatarPresentation::Live);
    }

    #[test]
    fn reset_rebaselines_instead_of_declaring_down() {
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        h.poll(SimTime::from_millis(600));
        assert_eq!(h.state(), PeerState::Down);
        h.reset();
        assert_eq!(h.poll(SimTime::from_secs(30)), None, "first poll re-baselines");
        assert_eq!(h.state(), PeerState::Up);
        assert_eq!(h.poll(SimTime::from_secs(31)), Some(PeerEvent::Down));
    }

    #[test]
    fn boundaries_are_inclusive_at_the_exact_instant() {
        // silence >= degraded_after and silence >= timeout: a poll landing
        // exactly on the threshold crosses it.
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        assert_eq!(h.poll(SimTime::from_millis(200)), Some(PeerEvent::Degraded));
        assert_eq!(h.state(), PeerState::Degraded);
        assert_eq!(h.poll(SimTime::from_millis(500)), Some(PeerEvent::Down));
        assert_eq!(h.state(), PeerState::Down);

        // One nanosecond earlier stays on the near side of each threshold.
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        assert_eq!(h.poll(SimTime::from_nanos(200 * 1_000_000 - 1)), None);
        assert_eq!(h.state(), PeerState::Up);
        h.poll(SimTime::from_millis(200));
        assert_eq!(h.poll(SimTime::from_nanos(500 * 1_000_000 - 1)), None);
        assert_eq!(h.state(), PeerState::Degraded);
    }

    #[test]
    fn heartbeat_exactly_at_timeout_races_the_poll() {
        // Traffic and a poll at the same instant: whichever runs first wins
        // deterministically. Heard-then-poll keeps the peer up (silence is
        // zero); poll-then-heard dips Down and immediately Returns.
        let mut a = PeerHealth::new(cfg(), SimTime::ZERO);
        let t = SimTime::from_millis(500);
        assert_eq!(a.on_heard(t), None);
        assert_eq!(a.poll(t), None);
        assert_eq!(a.state(), PeerState::Up);
        assert_eq!(a.outages(), 0);

        let mut b = PeerHealth::new(cfg(), SimTime::ZERO);
        assert_eq!(b.poll(t), Some(PeerEvent::Down));
        assert_eq!(b.on_heard(t), Some(PeerEvent::Returned));
        assert_eq!(b.state(), PeerState::Up);
        assert_eq!(b.outages(), 1);
    }

    #[test]
    fn restart_inside_hold_window_goes_live_without_freezing() {
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        h.poll(SimTime::from_millis(600));
        assert_eq!(h.presentation(SimTime::from_millis(900)), RemoteAvatarPresentation::Hold);
        // The peer restarts inside the hold window (hold = 1000ms, so the
        // freeze would land at 1600ms): display returns to live and the
        // freeze never happens.
        assert_eq!(h.on_heard(SimTime::from_millis(1100)), Some(PeerEvent::Returned));
        assert_eq!(h.presentation(SimTime::from_millis(1100)), RemoteAvatarPresentation::Live);
        assert_eq!(h.presentation(SimTime::from_millis(1700)), RemoteAvatarPresentation::Live);
        assert_eq!(h.down_since(), None);
        assert_eq!(h.outages(), 1);
        // A second outage counts separately.
        h.poll(SimTime::from_millis(1700));
        assert_eq!(h.outages(), 2);
    }

    #[test]
    fn degraded_peers_send_on_stride_only() {
        let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
        assert!(!h.should_skip_send(1), "up peers always send");
        h.poll(SimTime::from_millis(250));
        let sent: Vec<u64> = (0..12).filter(|&t| !h.should_skip_send(t)).collect();
        assert_eq!(sent, vec![0, 4, 8], "stride-4 under degradation");
        h.poll(SimTime::from_millis(600));
        assert!(h.should_skip_send(8), "down peers never send");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under any interleaving of traffic and polls at nondecreasing
            /// times, the outage counter never decreases and equals the
            /// number of `Down` events observed.
            #[test]
            fn outages_are_monotone_and_count_down_events(
                ops in proptest::collection::vec(
                    (any::<bool>(), 0u64..1500),
                    1..64,
                )
            ) {
                let mut h = PeerHealth::new(cfg(), SimTime::ZERO);
                let mut now_ms = 0u64;
                let mut prev_outages = 0u64;
                let mut down_events = 0u64;
                for (is_heard, advance_ms) in ops {
                    now_ms += advance_ms;
                    let t = SimTime::from_millis(now_ms);
                    let ev = if is_heard { h.on_heard(t) } else { h.poll(t) };
                    if ev == Some(PeerEvent::Down) {
                        down_events += 1;
                    }
                    prop_assert!(
                        h.outages() >= prev_outages,
                        "outages went backwards: {} -> {}",
                        prev_outages,
                        h.outages()
                    );
                    prop_assert_eq!(h.outages(), down_events);
                    prev_outages = h.outages();
                }
            }
        }
    }
}
