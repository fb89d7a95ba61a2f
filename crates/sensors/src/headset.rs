//! The MR headset sensor model.
//!
//! Blueprint §3.2: participants "wear MR headsets that can track their
//! locations and other features, such as facial expressions". The model adds
//! the error sources that make fusion with room sensors worthwhile: white
//! measurement noise, a slow random-walk drift bias (inside-out tracking
//! drifts), and occasional tracking-loss gaps.

use metaclass_avatar::{AvatarState, ExpressionFrame, Quat, Vec3};
use metaclass_netsim::{DetRng, SimDuration};
use serde::{Deserialize, Serialize};

/// Which device produced a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensorSource {
    /// The participant's MR/VR headset.
    Headset,
    /// The classroom's non-intrusive sensor array.
    RoomArray,
}

/// A position (and optionally orientation) measurement from one source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoseMeasurement {
    /// Producing device.
    pub source: SensorSource,
    /// Measured head position.
    pub position: Vec3,
    /// Measured head orientation, if the source tracks it.
    pub orientation: Option<Quat>,
    /// Measured hand positions, if the source tracks them.
    pub hands: Option<(Vec3, Vec3)>,
    /// The 1-sigma position noise the producer believes it has (fed to the
    /// fusion filter as measurement variance).
    pub noise_std: f64,
}

/// Configuration of the headset model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadsetConfig {
    /// Random-walk drift rate, metres per sqrt(second).
    pub drift_rate: f64,
    /// Maximum drift magnitude before the headset relocalizes, metres.
    pub drift_limit: f64,
}

impl Default for HeadsetConfig {
    fn default() -> Self {
        HeadsetConfig { drift_rate: 0.002, drift_limit: 0.06 }
    }
}

/// A simulated MR headset tracking one participant.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarState, Vec3};
/// use metaclass_sensors::{HeadsetConfig, HeadsetModel};
///
/// let mut hs = HeadsetModel::new(HeadsetConfig::default(), 42);
/// let truth = AvatarState::at_position(Vec3::new(1.0, 1.6, 2.0));
/// if let Some(m) = hs.measure_pose(&truth) {
///     assert!(m.position.distance(truth.head.position) < 0.1);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HeadsetModel {
    cfg: HeadsetConfig,
    rng: DetRng,
    drift: Vec3,
    loss_remaining: u32,
}

impl HeadsetModel {
    /// Pose sampling rate (Hz). Quest-class headsets track at 72–120 Hz.
    pub const RATE_HZ: f64 = 72.0;
    /// White position noise, 1-sigma metres.
    pub(crate) const POSITION_NOISE_STD: f64 = 0.004;
    /// White orientation noise, 1-sigma degrees.
    const ORIENTATION_NOISE_DEG: f64 = 0.5;
    /// Probability per sample of entering a tracking-loss gap.
    const LOSS_PROBABILITY: f64 = 0.0005;
    /// Samples a tracking-loss gap lasts.
    const LOSS_DURATION_SAMPLES: u32 = 20;
    /// Expression sampling rate (Hz).
    const EXPRESSION_RATE_HZ: f64 = 30.0;
    /// White noise added to each blendshape weight, 1-sigma.
    const EXPRESSION_NOISE_STD: f64 = 0.03;

    /// Creates a headset with its own noise stream.
    pub fn new(cfg: HeadsetConfig, seed: u64) -> Self {
        HeadsetModel {
            cfg,
            rng: DetRng::new(seed).derive(0x0068_6561_6473_6574),
            drift: Vec3::ZERO,
            loss_remaining: 0,
        }
    }

    /// Interval between pose samples.
    pub fn sample_period(&self) -> SimDuration {
        SimDuration::from_rate_hz(Self::RATE_HZ)
    }

    /// Interval between expression samples.
    pub fn expression_period(&self) -> SimDuration {
        SimDuration::from_rate_hz(Self::EXPRESSION_RATE_HZ)
    }

    /// Takes one pose sample of `truth`. Returns `None` during a
    /// tracking-loss gap.
    pub fn measure_pose(&mut self, truth: &AvatarState) -> Option<PoseMeasurement> {
        if self.loss_remaining > 0 {
            self.loss_remaining -= 1;
            return None;
        }
        if self.rng.chance(Self::LOSS_PROBABILITY) {
            self.loss_remaining = Self::LOSS_DURATION_SAMPLES;
            return None;
        }

        // Random-walk drift with relocalization snap at the limit.
        let dt = 1.0 / Self::RATE_HZ;
        let step = self.cfg.drift_rate * dt.sqrt();
        self.drift += Vec3::new(
            self.rng.normal(0.0, step),
            self.rng.normal(0.0, step * 0.3),
            self.rng.normal(0.0, step),
        );
        if self.drift.norm() > self.cfg.drift_limit {
            self.drift = Vec3::ZERO; // relocalization against the map
        }

        let n = Self::POSITION_NOISE_STD;
        let noise =
            Vec3::new(self.rng.normal(0.0, n), self.rng.normal(0.0, n), self.rng.normal(0.0, n));
        let position = truth.head.position + self.drift + noise;

        let angle = self.rng.normal(0.0, Self::ORIENTATION_NOISE_DEG.to_radians());
        let axis = Vec3::new(
            self.rng.normal(0.0, 1.0),
            self.rng.normal(0.0, 1.0),
            self.rng.normal(0.0, 1.0),
        );
        let orientation =
            (Quat::from_axis_angle(axis, angle) * truth.head.orientation).normalized();

        let hand_noise = |rng: &mut DetRng, h: Vec3| {
            h + Vec3::new(
                rng.normal(0.0, 2.0 * n),
                rng.normal(0.0, 2.0 * n),
                rng.normal(0.0, 2.0 * n),
            )
        };
        let hands = (
            hand_noise(&mut self.rng, truth.left_hand),
            hand_noise(&mut self.rng, truth.right_hand),
        );

        Some(PoseMeasurement {
            source: SensorSource::Headset,
            position,
            orientation: Some(orientation),
            hands: Some(hands),
            // The filter sees noise + typical drift as its variance budget.
            noise_std: (n * n + (self.cfg.drift_limit / 2.0).powi(2)).sqrt(),
        })
    }

    /// Takes one expression sample of `truth` (noisy blendshapes).
    pub fn measure_expression(&mut self, truth: &AvatarState) -> ExpressionFrame {
        let mut weights = *truth.expression.weights();
        for w in &mut weights {
            *w += self.rng.normal(0.0, Self::EXPRESSION_NOISE_STD) as f32;
        }
        ExpressionFrame::from_weights(weights)
    }

    /// Current drift bias (for tests and diagnostics).
    pub fn drift(&self) -> Vec3 {
        self.drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> AvatarState {
        AvatarState::at_position(Vec3::new(5.0, 1.6, 5.0))
    }

    #[test]
    fn measurements_are_near_truth() {
        let mut hs = HeadsetModel::new(HeadsetConfig::default(), 1);
        let t = truth();
        let mut count = 0;
        for _ in 0..1000 {
            if let Some(m) = hs.measure_pose(&t) {
                assert!(m.position.distance(t.head.position) < 0.1);
                assert!(m.orientation.unwrap().angle_to(t.head.orientation).to_degrees() < 5.0);
                count += 1;
            }
        }
        assert!(count > 900, "too many tracking losses: {count}");
    }

    #[test]
    fn noise_statistics_match_the_model() {
        let cfg = HeadsetConfig { drift_rate: 0.0, ..Default::default() };
        let mut hs = HeadsetModel::new(cfg, 2);
        let t = truth();
        let errors: Vec<f64> = (0..5000)
            .filter_map(|_| hs.measure_pose(&t))
            .map(|m| m.position.x - t.head.position.x)
            .collect();
        let std = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();
        assert!((std - HeadsetModel::POSITION_NOISE_STD).abs() < 0.001, "std {std}");
    }

    #[test]
    fn drift_is_bounded_by_relocalization() {
        let cfg = HeadsetConfig { drift_rate: 0.05, ..Default::default() }; // exaggerated
        let mut hs = HeadsetModel::new(cfg, 3);
        let t = truth();
        for _ in 0..20_000 {
            hs.measure_pose(&t);
            assert!(hs.drift().norm() <= cfg.drift_limit + 1e-9);
        }
    }

    #[test]
    fn tracking_loss_creates_gaps_of_the_model_length() {
        let mut hs = HeadsetModel::new(HeadsetConfig::default(), 4);
        let t = truth();
        let mut gap = 0u32;
        let mut gaps = Vec::new();
        for _ in 0..50_000 {
            if hs.measure_pose(&t).is_none() {
                gap += 1;
            } else if gap > 0 {
                gaps.push(gap);
                gap = 0;
            }
        }
        assert!(!gaps.is_empty());
        // A new loss can chain onto a gap that just ended, so gaps last at
        // least the model's length.
        let min = HeadsetModel::LOSS_DURATION_SAMPLES;
        assert!(gaps.iter().all(|&g| g >= min), "gaps {gaps:?}");
    }

    #[test]
    fn expression_noise_is_clamped_to_valid_weights() {
        let mut hs = HeadsetModel::new(HeadsetConfig::default(), 5);
        let t = truth();
        for _ in 0..500 {
            let e = hs.measure_expression(&t);
            for &w in e.weights() {
                assert!((0.0..=1.0).contains(&w));
            }
        }
    }

    #[test]
    fn sample_periods_follow_rates() {
        let hs = HeadsetModel::new(HeadsetConfig::default(), 6);
        assert_eq!(hs.sample_period().as_nanos(), 13_888_889);
        assert_eq!(hs.expression_period(), SimDuration::from_rate_hz(30.0));
    }
}
