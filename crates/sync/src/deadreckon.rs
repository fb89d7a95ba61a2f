//! Dead reckoning: threshold-triggered updates with smooth correction.
//!
//! Instead of shipping every 72 Hz sensor sample, the sender transmits only
//! when the receiver's *prediction* (linear extrapolation of the last sent
//! state) would diverge beyond a configured error budget — the classic DIS
//! dead-reckoning protocol. The receiver blends corrections in over a short
//! window so avatars never visibly snap.

use metaclass_avatar::AvatarState;
use metaclass_netsim::{SimDuration, SimTime};

/// Receiver-side blend window for corrections.
const CORRECTION_WINDOW: SimDuration = SimDuration::from_millis(100);

/// Error thresholds that trigger an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadReckoningConfig {
    /// Head-position divergence that forces an update, metres.
    pub position_threshold: f64,
    /// Orientation divergence that forces an update, degrees.
    pub orientation_threshold_deg: f64,
    /// Hand divergence that forces an update, metres.
    pub hand_threshold: f64,
    /// Expression divergence (max per-channel weight) that forces an update.
    pub expression_threshold: f32,
    /// Heartbeat: maximum silence between updates even when static.
    pub max_interval: SimDuration,
}

impl Default for DeadReckoningConfig {
    fn default() -> Self {
        DeadReckoningConfig {
            position_threshold: 0.02,
            orientation_threshold_deg: 2.0,
            hand_threshold: 0.03,
            expression_threshold: 0.05,
            max_interval: SimDuration::from_millis(500),
        }
    }
}

/// Sender side: decides *when* a new state must be transmitted.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarState, Vec3};
/// use metaclass_netsim::SimTime;
/// use metaclass_sync::{DeadReckoningConfig, DeadReckoningSender};
///
/// let mut dr = DeadReckoningSender::new(DeadReckoningConfig::default());
/// let st = AvatarState::at_position(Vec3::new(1.0, 1.6, 1.0));
/// assert!(dr.should_send(SimTime::ZERO, &st)); // first state always sends
/// dr.mark_sent(SimTime::ZERO, st);
/// assert!(!dr.should_send(SimTime::from_millis(14), &st)); // unchanged
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeadReckoningSender {
    cfg: DeadReckoningConfig,
    last_sent: Option<(SimTime, AvatarState)>,
    suppressed: u64,
    sent: u64,
}

impl DeadReckoningSender {
    /// Creates a sender with the given thresholds.
    pub fn new(cfg: DeadReckoningConfig) -> Self {
        DeadReckoningSender { cfg, last_sent: None, suppressed: 0, sent: 0 }
    }

    /// Whether `truth` at `now` diverges from the receiver's prediction
    /// enough to require an update.
    pub fn should_send(&self, now: SimTime, truth: &AvatarState) -> bool {
        let (sent_at, sent_state) = match &self.last_sent {
            None => return true,
            Some(s) => s,
        };
        if now.duration_since(*sent_at) >= self.cfg.max_interval {
            return true;
        }
        let predicted = sent_state.extrapolate(now.duration_since(*sent_at).as_secs_f64());
        predicted.position_error(truth) > self.cfg.position_threshold
            || predicted.orientation_error_deg(truth) > self.cfg.orientation_threshold_deg
            || predicted.hand_error(truth) > self.cfg.hand_threshold
            || predicted.expression.max_abs_diff(&truth.expression) > self.cfg.expression_threshold
    }

    /// Records that `state` was transmitted at `now`.
    pub fn mark_sent(&mut self, now: SimTime, state: AvatarState) {
        self.last_sent = Some((now, state));
        self.sent += 1;
    }

    /// Records that a sample was evaluated and *not* sent (for the
    /// suppression-ratio metric).
    pub fn mark_suppressed(&mut self) {
        self.suppressed += 1;
    }

    /// Updates sent so far.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Fraction of evaluated samples that were suppressed (0 when none seen).
    pub fn suppression_ratio(&self) -> f64 {
        let total = self.sent + self.suppressed;
        if total == 0 {
            0.0
        } else {
            self.suppressed as f64 / total as f64
        }
    }
}

/// Receiver side: extrapolates between updates and blends corrections.
#[derive(Debug, Clone, Default)]
pub struct DeadReckoningReceiver {
    /// Latest authoritative update.
    latest: Option<(SimTime, AvatarState)>,
    /// State the receiver was displaying when `latest` arrived (correction
    /// blends from here).
    correction_from: Option<AvatarState>,
}

impl DeadReckoningReceiver {
    /// Creates a receiver.
    pub fn new() -> Self {
        DeadReckoningReceiver { latest: None, correction_from: None }
    }

    /// Ingests an authoritative update stamped `at` (sender clock).
    ///
    /// Updates older than the current latest are discarded (stale reordered
    /// packets).
    pub fn on_update(&mut self, at: SimTime, state: AvatarState) {
        if let Some((t, _)) = self.latest {
            if at <= t {
                return;
            }
            // Capture what we were displaying, to blend away the correction.
            self.correction_from = self.state_at(at);
        }
        self.latest = Some((at, state));
    }

    /// Whether any update has arrived.
    pub fn is_initialized(&self) -> bool {
        self.latest.is_some()
    }

    /// The displayed state at time `t` (sender clock): the newest update
    /// extrapolated to `t`, blended with the pre-correction prediction inside
    /// the correction window. `None` before the first update.
    pub fn state_at(&self, t: SimTime) -> Option<AvatarState> {
        let (at, state) = self.latest.as_ref()?;
        let dt = t.duration_since(*at);
        let target = state.extrapolate(dt.as_secs_f64());
        match &self.correction_from {
            Some(from) if dt < CORRECTION_WINDOW => {
                let alpha = dt.as_secs_f64() / CORRECTION_WINDOW.as_secs_f64();
                let drifted = from.extrapolate(dt.as_secs_f64());
                Some(drifted.interpolate(&target, alpha))
            }
            _ => Some(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_avatar::Vec3;

    fn cfg() -> DeadReckoningConfig {
        DeadReckoningConfig::default()
    }

    fn state_at(x: f64, vx: f64) -> AvatarState {
        let mut st = AvatarState::at_position(Vec3::new(x, 1.6, 0.0));
        st.velocity = Vec3::new(vx, 0.0, 0.0);
        st
    }

    #[test]
    fn constant_velocity_motion_is_suppressed() {
        let mut dr = DeadReckoningSender::new(cfg());
        dr.mark_sent(SimTime::ZERO, state_at(0.0, 1.0));
        // Truth follows the prediction exactly: never send (until heartbeat).
        for ms in (14..400).step_by(14) {
            let truth = state_at(ms as f64 / 1000.0, 1.0);
            assert!(!dr.should_send(SimTime::from_millis(ms), &truth), "at {ms} ms");
        }
    }

    #[test]
    fn divergence_triggers_update() {
        let mut dr = DeadReckoningSender::new(cfg());
        dr.mark_sent(SimTime::ZERO, state_at(0.0, 1.0));
        // Truth stopped dead: prediction runs away at 1 m/s; after 30 ms the
        // 2 cm budget is blown.
        let truth = state_at(0.0, 0.0);
        assert!(dr.should_send(SimTime::from_millis(30), &truth));
    }

    #[test]
    fn heartbeat_fires_even_when_static() {
        let mut dr = DeadReckoningSender::new(cfg());
        let st = state_at(5.0, 0.0);
        dr.mark_sent(SimTime::ZERO, st);
        assert!(!dr.should_send(SimTime::from_millis(400), &st));
        assert!(dr.should_send(SimTime::from_millis(500), &st));
    }

    #[test]
    fn expression_change_triggers_update() {
        let mut dr = DeadReckoningSender::new(cfg());
        let st = state_at(1.0, 0.0);
        dr.mark_sent(SimTime::ZERO, st);
        let mut smiling = st;
        smiling.expression.set(metaclass_avatar::BlendChannel::MouthSmileLeft, 0.9);
        assert!(dr.should_send(SimTime::from_millis(14), &smiling));
    }

    #[test]
    fn suppression_ratio_counts() {
        let mut dr = DeadReckoningSender::new(cfg());
        dr.mark_sent(SimTime::ZERO, state_at(0.0, 0.0));
        for _ in 0..9 {
            dr.mark_suppressed();
        }
        assert!((dr.suppression_ratio() - 0.9).abs() < 1e-9);
        assert_eq!(dr.sent_count(), 1);
    }

    #[test]
    fn receiver_extrapolates_between_updates() {
        let mut rx = DeadReckoningReceiver::new();
        rx.on_update(SimTime::ZERO, state_at(0.0, 2.0));
        let st = rx.state_at(SimTime::from_millis(250)).unwrap();
        assert!((st.head.position.x - 0.5).abs() < 1e-9);
    }

    #[test]
    fn corrections_blend_without_snapping() {
        let mut rx = DeadReckoningReceiver::new();
        rx.on_update(SimTime::ZERO, state_at(0.0, 1.0));
        // Displayed at t=200ms: x = 0.2 (prediction).
        // Authoritative update says x actually 0.3 and stopped.
        rx.on_update(SimTime::from_millis(200), state_at(0.3, 0.0));
        // Immediately after the update the displayed state is still near the
        // old prediction (no snap) ...
        let just_after = rx.state_at(SimTime::from_millis(201)).unwrap();
        assert!(
            (just_after.head.position.x - 0.2).abs() < 0.02,
            "x {}",
            just_after.head.position.x
        );
        // ... and by the end of the window it has converged to the target.
        let converged = rx.state_at(SimTime::from_millis(310)).unwrap();
        assert!((converged.head.position.x - 0.3).abs() < 1e-9);
    }

    #[test]
    fn stale_reordered_updates_are_ignored() {
        let mut rx = DeadReckoningReceiver::new();
        rx.on_update(SimTime::from_millis(100), state_at(1.0, 0.0));
        rx.on_update(SimTime::from_millis(50), state_at(99.0, 0.0));
        let st = rx.state_at(SimTime::from_millis(100)).unwrap();
        assert!((st.head.position.x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uninitialized_receiver_returns_none() {
        let rx = DeadReckoningReceiver::new();
        assert!(rx.state_at(SimTime::ZERO).is_none());
        assert!(!rx.is_initialized());
    }
}
