//! Multi-sensor pose fusion on the edge server.
//!
//! Blueprint §3.2: "the edge server … aggregates the data to estimate the
//! pose and facial expression of the participants". Fusion is a per-axis
//! constant-velocity Kalman filter over head position (headset and room-array
//! measurements enter with their own variances), a complementary filter for
//! orientation, and exponential smoothing for hands and expression.

use metaclass_avatar::{AvatarState, ExpressionFrame, Pose, Quat, Vec3};
use metaclass_netsim::SimTime;

use crate::headset::PoseMeasurement;

/// A scalar constant-velocity Kalman filter (state: position, velocity).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Kalman2 {
    /// State estimate: position, velocity.
    x: [f64; 2],
    /// Covariance (symmetric 2x2).
    p: [[f64; 2]; 2],
}

impl Kalman2 {
    fn new() -> Self {
        // Large initial uncertainty: 10 m position, 5 m/s velocity.
        Kalman2 { x: [0.0, 0.0], p: [[100.0, 0.0], [0.0, 25.0]] }
    }

    /// Propagates `dt` seconds with white-acceleration spectral density
    /// `q_accel` (m/s²).
    fn predict(&mut self, dt: f64, q_accel: f64) {
        let (p, v) = (self.x[0], self.x[1]);
        self.x = [p + v * dt, v];
        let [[p00, p01], [p10, p11]] = self.p;
        // P = F P Fᵀ
        let n00 = p00 + dt * (p10 + p01) + dt * dt * p11;
        let n01 = p01 + dt * p11;
        let n10 = p10 + dt * p11;
        let n11 = p11;
        // + Q (discrete white acceleration)
        let q = q_accel * q_accel;
        let dt2 = dt * dt;
        self.p = [
            [n00 + q * dt2 * dt2 / 4.0, n01 + q * dt2 * dt / 2.0],
            [n10 + q * dt2 * dt / 2.0, n11 + q * dt2],
        ];
    }

    /// Incorporates a position measurement `z` with 1-sigma noise `r_std`.
    fn update(&mut self, z: f64, r_std: f64) {
        let r = r_std * r_std;
        let s = self.p[0][0] + r;
        let k0 = self.p[0][0] / s;
        let k1 = self.p[1][0] / s;
        let y = z - self.x[0];
        self.x[0] += k0 * y;
        self.x[1] += k1 * y;
        let [[p00, p01], [_p10, p11]] = self.p;
        self.p = [[(1.0 - k0) * p00, (1.0 - k0) * p01], [self.p[1][0] - k1 * p00, p11 - k1 * p01]];
    }
}

/// Configuration of the fusion filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// Process noise: white-acceleration 1-sigma, m/s². Larger values track
    /// agile motion faster at the cost of noise rejection.
    pub process_accel_std: f64,
    /// Complementary-filter gain for orientation per measurement (0–1).
    pub orientation_gain: f64,
    /// Exponential-smoothing gain for hands per measurement (0–1).
    pub hand_gain: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig { process_accel_std: 2.0, orientation_gain: 0.7, hand_gain: 0.6 }
    }
}

/// Fused estimate of one participant's state.
///
/// Feed it timestamped [`PoseMeasurement`]s from any mix of sources; read
/// back an [`AvatarState`] at any time (the filter extrapolates between
/// measurements).
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarState, Vec3};
/// use metaclass_netsim::SimTime;
/// use metaclass_sensors::{FusionConfig, HeadsetConfig, HeadsetModel, PoseFusion};
///
/// let mut fusion = PoseFusion::new(FusionConfig::default());
/// let mut headset = HeadsetModel::new(HeadsetConfig::default(), 1);
/// let truth = AvatarState::at_position(Vec3::new(3.0, 1.6, 4.0));
/// for i in 0..72 {
///     let t = SimTime::from_millis(i * 14);
///     if let Some(m) = headset.measure_pose(&truth) {
///         fusion.ingest(t, &m);
///     }
/// }
/// let est = fusion.estimate_at(SimTime::from_secs(1));
/// assert!(est.head.position.distance(truth.head.position) < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct PoseFusion {
    cfg: FusionConfig,
    axes: [Kalman2; 3],
    orientation: Quat,
    orientation_initialized: bool,
    left_hand: Vec3,
    right_hand: Vec3,
    hands_initialized: bool,
    expression: ExpressionFrame,
    last_time: Option<SimTime>,
    position_initialized: bool,
}

impl PoseFusion {
    /// Creates an empty filter.
    pub fn new(cfg: FusionConfig) -> Self {
        PoseFusion {
            cfg,
            axes: [Kalman2::new(); 3],
            orientation: Quat::IDENTITY,
            orientation_initialized: false,
            left_hand: Vec3::ZERO,
            right_hand: Vec3::ZERO,
            hands_initialized: false,
            expression: ExpressionFrame::neutral(),
            last_time: None,
            position_initialized: false,
        }
    }

    /// Whether at least one position measurement has arrived.
    pub fn is_initialized(&self) -> bool {
        self.position_initialized
    }

    /// Propagates the filter to time `t` (no-op if `t` is not after the last
    /// processed instant).
    pub fn predict_to(&mut self, t: SimTime) {
        if let Some(last) = self.last_time {
            if t > last {
                let dt = (t - last).as_secs_f64();
                for axis in &mut self.axes {
                    axis.predict(dt, self.cfg.process_accel_std);
                }
                self.last_time = Some(t);
            }
        } else {
            self.last_time = Some(t);
        }
    }

    /// Ingests one measurement taken at time `t`.
    pub fn ingest(&mut self, t: SimTime, m: &PoseMeasurement) {
        self.predict_to(t);

        if !self.position_initialized {
            for (axis, z) in self.axes.iter_mut().zip([m.position.x, m.position.y, m.position.z]) {
                axis.x = [z, 0.0];
                axis.p = [[m.noise_std * m.noise_std, 0.0], [0.0, 25.0]];
            }
            self.position_initialized = true;
        } else {
            for (axis, z) in self.axes.iter_mut().zip([m.position.x, m.position.y, m.position.z]) {
                axis.update(z, m.noise_std);
            }
        }

        if let Some(q) = m.orientation {
            if self.orientation_initialized {
                self.orientation = self.orientation.nlerp(q, self.cfg.orientation_gain);
            } else {
                self.orientation = q;
                self.orientation_initialized = true;
            }
        }
        if let Some((lh, rh)) = m.hands {
            if self.hands_initialized {
                self.left_hand = self.left_hand.lerp(lh, self.cfg.hand_gain);
                self.right_hand = self.right_hand.lerp(rh, self.cfg.hand_gain);
            } else {
                self.left_hand = lh;
                self.right_hand = rh;
                self.hands_initialized = true;
            }
        }
    }

    /// Updates the fused expression (expressions come only from the headset,
    /// already smoothed there; the edge keeps the latest frame).
    pub fn ingest_expression(&mut self, e: ExpressionFrame) {
        self.expression = e;
    }

    /// The fused state, extrapolated to time `t`.
    pub fn estimate_at(&mut self, t: SimTime) -> AvatarState {
        self.predict_to(t);
        self.estimate()
    }

    /// The fused state at the last processed instant.
    pub fn estimate(&self) -> AvatarState {
        let position = Vec3::new(self.axes[0].x[0], self.axes[1].x[0], self.axes[2].x[0]);
        let velocity = Vec3::new(self.axes[0].x[1], self.axes[1].x[1], self.axes[2].x[1]);
        let (lh, rh) = if self.hands_initialized {
            (self.left_hand, self.right_hand)
        } else {
            // Default resting hands relative to the head.
            (position + Vec3::new(-0.25, -0.45, 0.1), position + Vec3::new(0.25, -0.45, 0.1))
        };
        AvatarState {
            head: Pose::new(position, self.orientation),
            left_hand: lh,
            right_hand: rh,
            velocity,
            expression: self.expression,
        }
    }
}

impl Default for PoseFusion {
    fn default() -> Self {
        Self::new(FusionConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headset::{HeadsetConfig, HeadsetModel};
    use crate::motion::{MotionScript, Trajectory};
    use crate::room::{RoomSensorArray, RoomSensorConfig};

    fn meas(p: Vec3, noise: f64) -> PoseMeasurement {
        PoseMeasurement {
            source: crate::headset::SensorSource::Headset,
            position: p,
            orientation: None,
            hands: None,
            noise_std: noise,
        }
    }

    #[test]
    fn static_target_converges_below_measurement_noise() {
        let mut f = PoseFusion::default();
        let truth = Vec3::new(3.0, 1.6, 4.0);
        let mut rng = metaclass_netsim::DetRng::new(9);
        let noise = 0.01;
        for i in 0..300 {
            let z = truth
                + Vec3::new(rng.normal(0.0, noise), rng.normal(0.0, noise), rng.normal(0.0, noise));
            f.ingest(SimTime::from_millis(i * 14), &meas(z, noise));
        }
        let est = f.estimate();
        assert!(
            est.head.position.distance(truth) < noise,
            "err {}",
            est.head.position.distance(truth)
        );
        let mean_var = f.axes.iter().map(|a| a.p[0][0]).sum::<f64>() / 3.0;
        assert!(mean_var.sqrt() < noise, "1-sigma {}", mean_var.sqrt());
    }

    #[test]
    fn constant_velocity_target_velocity_is_recovered() {
        let mut f = PoseFusion::default();
        let v = Vec3::new(1.0, 0.0, -0.5);
        let mut rng = metaclass_netsim::DetRng::new(10);
        for i in 0..300 {
            let t = i as f64 * 0.014;
            let z = Vec3::new(1.0, 1.6, 2.0)
                + v * t
                + Vec3::new(rng.normal(0.0, 0.005), 0.0, rng.normal(0.0, 0.005));
            f.ingest(SimTime::from_millis((t * 1000.0) as u64), &meas(z, 0.005));
        }
        let est = f.estimate();
        assert!(est.velocity.distance(v) < 0.15, "velocity {:?}", est.velocity);
    }

    #[test]
    fn extrapolation_uses_estimated_velocity() {
        let mut f = PoseFusion::default();
        for i in 0..200 {
            let t = i as f64 * 0.01;
            f.ingest(
                SimTime::from_millis((t * 1000.0) as u64),
                &meas(Vec3::new(t, 1.6, 0.0), 0.002),
            );
        }
        // One second with no measurements: the estimate keeps moving at ~1 m/s.
        let est = f.estimate_at(
            SimTime::from_millis(1990) + metaclass_netsim::SimDuration::from_millis(1000),
        );
        assert!((est.head.position.x - 2.99).abs() < 0.2, "x {}", est.head.position.x);
    }

    fn run_tracking(use_headset: bool, use_room: bool, seed: u64) -> f64 {
        let traj = Trajectory::new(
            MotionScript::Presenter {
                center: Vec3::new(10.0, 0.0, 2.0),
                area_half: Vec3::new(1.5, 0.0, 1.0),
            },
            seed,
        );
        let mut headset = HeadsetModel::new(HeadsetConfig::default(), seed + 1);
        let mut room = RoomSensorArray::new(RoomSensorConfig::default(), seed + 2);
        let mut fusion = PoseFusion::default();
        let mut err_sq = 0.0;
        let mut n = 0u64;
        // 30 s, evaluated at 90 Hz; headset at 72 Hz, room at 30 Hz.
        let mut next_headset = 0.0f64;
        let mut next_room = 0.0f64;
        for i in 0..2700 {
            let t = i as f64 / 90.0;
            let truth = traj.state_at(t);
            if use_headset && t >= next_headset {
                if let Some(m) = headset.measure_pose(&truth) {
                    fusion.ingest(SimTime::from_nanos((t * 1e9) as u64), &m);
                }
                next_headset += 1.0 / 72.0;
            }
            if use_room && t >= next_room {
                if let Some(m) = room.measure(&truth) {
                    fusion.ingest(SimTime::from_nanos((t * 1e9) as u64), &m);
                }
                next_room += 1.0 / 30.0;
            }
            if t > 1.0 && fusion.is_initialized() {
                let est = fusion.estimate_at(SimTime::from_nanos((t * 1e9) as u64));
                err_sq += est.head.position.distance(truth.head.position).powi(2);
                n += 1;
            }
        }
        (err_sq / n as f64).sqrt()
    }

    #[test]
    fn fusion_beats_single_sources() {
        let both = run_tracking(true, true, 77);
        let headset_only = run_tracking(true, false, 77);
        let room_only = run_tracking(false, true, 77);
        assert!(both < headset_only, "both {both} headset {headset_only}");
        assert!(both < room_only, "both {both} room {room_only}");
        assert!(both < 0.05, "fused RMSE too high: {both}");
    }

    #[test]
    fn survives_total_room_occlusion() {
        // Room sensor permanently occluded: fusion degrades but still tracks.
        let traj =
            Trajectory::new(MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 6.0) }, 3);
        let mut headset = HeadsetModel::new(HeadsetConfig::default(), 4);
        let mut fusion = PoseFusion::default();
        for i in 0..720 {
            let t = i as f64 / 72.0;
            let truth = traj.state_at(t);
            if let Some(m) = headset.measure_pose(&truth) {
                fusion.ingest(SimTime::from_nanos((t * 1e9) as u64), &m);
            }
        }
        let truth = traj.state_at(10.0);
        let est = fusion.estimate_at(SimTime::from_secs(10));
        assert!(est.head.position.distance(truth.head.position) < 0.1);
    }

    #[test]
    fn orientation_follows_headset_measurements() {
        let mut f = PoseFusion::default();
        let q = Quat::from_yaw(1.0);
        for i in 0..20 {
            let mut m = meas(Vec3::ZERO, 0.01);
            m.orientation = Some(q);
            f.ingest(SimTime::from_millis(i * 14), &m);
        }
        assert!(f.estimate().head.orientation.angle_to(q) < 0.01);
    }

    #[test]
    fn covariance_stays_positive() {
        let mut f = PoseFusion::default();
        let mut rng = metaclass_netsim::DetRng::new(5);
        for i in 0..5000 {
            if i % 7 != 0 {
                let z = Vec3::new(rng.normal(0.0, 3.0), 1.6, rng.normal(0.0, 3.0));
                f.ingest(SimTime::from_millis(i * 5), &meas(z, 0.01));
            } else {
                f.predict_to(SimTime::from_millis(i * 5));
            }
            for a in &f.axes {
                assert!(a.p[0][0].is_finite(), "covariance went non-finite");
                assert!(a.p[0][0] >= 0.0 && a.p[1][1] >= 0.0, "covariance went negative");
            }
        }
    }

    #[test]
    fn uninitialized_estimate_is_benign() {
        let f = PoseFusion::default();
        assert!(!f.is_initialized());
        let est = f.estimate();
        assert!(est.is_finite());
    }
}
