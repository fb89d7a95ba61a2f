//! Client device platforms and their transport/display profiles.
//!
//! The multi-player immersive-communication survey the blueprint builds on
//! distinguishes three classes of remote attendee hardware, each with its
//! own pose upload rate, display pipeline, and input channels:
//!
//! - **VR headset** — full 6-DoF tracking at the native pose rate, tight
//!   dead reckoning, controller input (hand raises, reactions);
//! - **mobile AR** — phone/tablet attendance: half-rate pose upload,
//!   relaxed dead-reckoning thresholds (coarse IMU tracking), a deeper
//!   playout buffer against cellular jitter, sparser touch input;
//! - **desktop spectator** — a flat-screen viewer: low-rate pose (mouse
//!   camera), wide dead-reckoning thresholds, the deepest playout buffer,
//!   and *no* interaction channel at all.
//!
//! [`DevicePlatform::apply`] derives a platform-adjusted [`ClientConfig`]
//! from a base config. Applying [`DevicePlatform::VrHeadset`] is the
//! identity (modulo recording the platform), so existing cohorts are
//! byte-identical to their pre-platform behavior.

use metaclass_netsim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::client::ClientConfig;

/// The hardware class a remote learner attends through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DevicePlatform {
    /// A tracked VR headset with controllers (the default).
    #[default]
    VrHeadset,
    /// A handheld mobile-AR device (phone or tablet).
    MobileAr,
    /// A flat-screen desktop viewer with no input channel.
    DesktopSpectator,
}

impl DevicePlatform {
    /// Every platform, in declaration order.
    pub const ALL: [DevicePlatform; 3] =
        [DevicePlatform::VrHeadset, DevicePlatform::MobileAr, DevicePlatform::DesktopSpectator];

    /// Short lowercase label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            DevicePlatform::VrHeadset => "vr",
            DevicePlatform::MobileAr => "mobile_ar",
            DevicePlatform::DesktopSpectator => "spectator",
        }
    }

    /// Derives this platform's client tuning from `base` (typically the
    /// session-wide [`ClientConfig`]). The wire codec is never touched —
    /// it is a protocol agreement with the serving cloud.
    pub fn apply(self, base: ClientConfig) -> ClientConfig {
        let mut cfg = base;
        cfg.platform = self;
        match self {
            DevicePlatform::VrHeadset => {}
            DevicePlatform::MobileAr => {
                cfg.pose_rate = base.pose_rate.mul_f64(2.0); // half rate
                cfg.dead_reckoning.position_threshold *= 1.5;
                cfg.dead_reckoning.orientation_threshold_deg *= 1.5;
                cfg.dead_reckoning.hand_threshold *= 1.5;
                cfg.jitter.initial_delay = base.jitter.initial_delay + SimDuration::from_millis(20);
                cfg.jitter.margin = base.jitter.margin + SimDuration::from_millis(10);
            }
            DevicePlatform::DesktopSpectator => {
                cfg.pose_rate = base.pose_rate.mul_f64(3.0); // third rate
                cfg.dead_reckoning.position_threshold *= 2.5;
                cfg.dead_reckoning.orientation_threshold_deg *= 2.5;
                cfg.dead_reckoning.hand_threshold *= 2.5;
                cfg.jitter.initial_delay = base.jitter.initial_delay + SimDuration::from_millis(40);
                cfg.jitter.margin = base.jitter.margin + SimDuration::from_millis(20);
            }
        }
        cfg
    }

    /// Interaction cadence bounds in seconds, as `((first_min, first_max),
    /// (steady_min, steady_max))`, or `None` for platforms with no input
    /// channel. VR keeps the historical cadence exactly.
    pub fn interaction_bounds(self) -> Option<((f64, f64), (f64, f64))> {
        match self {
            DevicePlatform::VrHeadset => Some(((5.0, 30.0), (15.0, 60.0))),
            DevicePlatform::MobileAr => Some(((10.0, 45.0), (30.0, 120.0))),
            DevicePlatform::DesktopSpectator => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_avatar::QuantizedState;
    use metaclass_sync::JitterBuffer;

    #[test]
    fn vr_apply_is_the_identity_except_for_the_platform_field() {
        let base = ClientConfig::default();
        let vr = DevicePlatform::VrHeadset.apply(base);
        let mut expect = base;
        expect.platform = DevicePlatform::VrHeadset;
        assert_eq!(vr, expect);
    }

    #[test]
    fn platforms_order_pose_rates_and_thresholds() {
        let base = ClientConfig::default();
        let vr = DevicePlatform::VrHeadset.apply(base);
        let ar = DevicePlatform::MobileAr.apply(base);
        let desk = DevicePlatform::DesktopSpectator.apply(base);
        assert!(vr.pose_rate < ar.pose_rate && ar.pose_rate < desk.pose_rate);
        assert!(
            vr.dead_reckoning.position_threshold < ar.dead_reckoning.position_threshold
                && ar.dead_reckoning.position_threshold < desk.dead_reckoning.position_threshold
        );
        assert!(vr.jitter.initial_delay < desk.jitter.initial_delay);
        // Codec is a protocol agreement: never platform-adjusted.
        assert_eq!(vr.codec, base.codec);
        assert_eq!(desk.codec, base.codec);
    }

    #[test]
    fn every_platform_config_builds_a_playout_buffer() {
        // `JitterBuffer::new` panics on a zero or over-32-bit window and a
        // zero capacity; no shipped platform tuning reaches those panics.
        for platform in DevicePlatform::ALL {
            let cfg = platform.apply(ClientConfig::default());
            let buffer = JitterBuffer::<QuantizedState>::new(cfg.jitter);
            assert!(buffer.is_empty(), "{}", platform.label());
        }
    }

    #[test]
    fn only_the_spectator_lacks_an_input_channel() {
        assert!(DevicePlatform::VrHeadset.interaction_bounds().is_some());
        assert!(DevicePlatform::MobileAr.interaction_bounds().is_some());
        assert!(DevicePlatform::DesktopSpectator.interaction_bounds().is_none());
    }
}
