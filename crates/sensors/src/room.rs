//! The classroom's non-intrusive sensor array.
//!
//! Blueprint §3.2: "the physical classroom is equipped with non-intrusive
//! sensors that can estimate the exact pose of the participants". We model a
//! ceiling-mounted multi-camera rig: lower rate than a headset but lower
//! noise and drift-free, with occlusion dropouts when other bodies block the
//! line of sight (a Markov on/off process).

use metaclass_avatar::{AvatarState, Vec3};
use metaclass_netsim::{DetRng, SimDuration};

use crate::headset::{PoseMeasurement, SensorSource};

/// Configuration of the room sensor array (per tracked participant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoomSensorConfig {
    /// Probability per sample of becoming occluded.
    pub occlusion_probability: f64,
    /// Probability per sample of recovering from occlusion.
    pub recovery_probability: f64,
}

impl Default for RoomSensorConfig {
    fn default() -> Self {
        RoomSensorConfig { occlusion_probability: 0.01, recovery_probability: 0.2 }
    }
}

/// The room array's view of one participant.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarState, Vec3};
/// use metaclass_sensors::{RoomSensorArray, RoomSensorConfig};
///
/// let mut arr = RoomSensorArray::new(RoomSensorConfig::default(), 7);
/// let truth = AvatarState::at_position(Vec3::new(2.0, 1.6, 3.0));
/// // Some samples are None (occlusion); present ones are near truth.
/// for _ in 0..100 {
///     if let Some(m) = arr.measure(&truth) {
///         assert!(m.position.distance(truth.head.position) < 0.1);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RoomSensorArray {
    cfg: RoomSensorConfig,
    rng: DetRng,
    occluded: bool,
}

impl RoomSensorArray {
    /// Sampling rate, Hz (multi-camera rigs typically fuse at 30 Hz).
    pub const RATE_HZ: f64 = 30.0;
    /// White position noise, 1-sigma metres (drift-free).
    const POSITION_NOISE_STD: f64 = 0.008;

    /// Creates an array view with its own noise stream.
    pub fn new(cfg: RoomSensorConfig, seed: u64) -> Self {
        RoomSensorArray { cfg, rng: DetRng::new(seed).derive(0x726f_6f6d), occluded: false }
    }

    /// Interval between samples.
    pub fn sample_period(&self) -> SimDuration {
        SimDuration::from_rate_hz(Self::RATE_HZ)
    }

    /// Takes one sample of `truth`; `None` while occluded.
    ///
    /// Room arrays measure position only — orientation and hands come from
    /// the headset.
    pub fn measure(&mut self, truth: &AvatarState) -> Option<PoseMeasurement> {
        // Markov occlusion process.
        if self.occluded {
            if self.rng.chance(self.cfg.recovery_probability) {
                self.occluded = false;
            }
        } else if self.rng.chance(self.cfg.occlusion_probability) {
            self.occluded = true;
        }
        if self.occluded {
            return None;
        }
        let n = Self::POSITION_NOISE_STD;
        let position = truth.head.position
            + Vec3::new(self.rng.normal(0.0, n), self.rng.normal(0.0, n), self.rng.normal(0.0, n));
        Some(PoseMeasurement {
            source: SensorSource::RoomArray,
            position,
            orientation: None,
            hands: None,
            noise_std: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> AvatarState {
        AvatarState::at_position(Vec3::new(5.0, 1.6, 5.0))
    }

    #[test]
    fn measurements_carry_no_orientation() {
        let mut arr = RoomSensorArray::new(RoomSensorConfig::default(), 1);
        let m = loop {
            if let Some(m) = arr.measure(&truth()) {
                break m;
            }
        };
        assert_eq!(m.source, SensorSource::RoomArray);
        assert!(m.orientation.is_none());
        assert!(m.hands.is_none());
    }

    #[test]
    fn occlusion_fraction_matches_stationary_distribution() {
        let cfg = RoomSensorConfig { occlusion_probability: 0.02, recovery_probability: 0.1 };
        let mut arr = RoomSensorArray::new(cfg, 2);
        let t = truth();
        let n = 50_000;
        let occluded = (0..n).filter(|_| arr.measure(&t).is_none()).count();
        // π_occluded = p / (p + r) = 0.02 / 0.12 ≈ 0.167.
        let frac = occluded as f64 / n as f64;
        assert!((frac - 1.0 / 6.0).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn forced_occlusion_blocks_measurements() {
        let cfg = RoomSensorConfig { recovery_probability: 0.0, ..Default::default() };
        let mut arr = RoomSensorArray::new(cfg, 3);
        arr.occluded = true;
        for _ in 0..100 {
            assert!(arr.measure(&truth()).is_none());
        }
        assert!(arr.occluded);
        arr.occluded = false;
        assert!(arr.measure(&truth()).is_some() || arr.occluded);
    }

    #[test]
    fn noise_is_lower_than_headset_drift_budget() {
        let headset = crate::headset::HeadsetConfig::default();
        // The array's total error budget beats headset noise + drift.
        let noise = crate::headset::HeadsetModel::POSITION_NOISE_STD;
        let headset_budget = (noise.powi(2) + (headset.drift_limit / 2.0).powi(2)).sqrt();
        assert!(RoomSensorArray::POSITION_NOISE_STD < headset_budget);
    }
}
