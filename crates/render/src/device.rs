//! Rendering device profiles.
//!
//! §3.3: sensed avatars "may be too complex to render with WebGL and
//! lightweight VR headsets". A device profile is the analytic stand-in for a
//! GPU: a per-frame triangle budget at the target frame rate, a texture
//! residency budget, and the display's refresh rate (frame times quantize to
//! vsync).

use metaclass_netsim::SimDuration;
use serde::{Deserialize, Serialize};

/// A rendering device's capability envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Triangles the GPU can shade per frame while hitting `target_fps`.
    pub triangle_budget: u64,
    /// Frame rate the experience is designed for.
    pub target_fps: f64,
    /// Display refresh rate (frame times quantize to its period).
    pub refresh_hz: f64,
    /// Texture memory available for avatar assets, bytes.
    pub texture_bytes: u64,
}

impl DeviceProfile {
    /// A standalone MR headset (Quest-class): mobile SoC, 72 Hz panel.
    pub fn mr_headset() -> Self {
        DeviceProfile {
            name: "mr-headset".into(),
            triangle_budget: 900_000,
            target_fps: 72.0,
            refresh_hz: 72.0,
            texture_bytes: 1536 * 1024 * 1024,
        }
    }

    /// A laptop running the WebGL client of the remote VR classroom.
    pub fn laptop_webgl() -> Self {
        DeviceProfile {
            name: "laptop-webgl".into(),
            triangle_budget: 2_500_000,
            target_fps: 60.0,
            refresh_hz: 60.0,
            texture_bytes: 2048 * 1024 * 1024,
        }
    }

    /// A gaming desktop with a discrete GPU and PC VR headset.
    pub fn desktop() -> Self {
        DeviceProfile {
            name: "desktop".into(),
            triangle_budget: 10_000_000,
            target_fps: 90.0,
            refresh_hz: 90.0,
            texture_bytes: 8192u64 * 1024 * 1024,
        }
    }

    /// A cloud render node (edge/cloud server of Figure 3).
    pub fn cloud_gpu() -> Self {
        DeviceProfile {
            name: "cloud-gpu".into(),
            triangle_budget: 60_000_000,
            target_fps: 60.0,
            refresh_hz: 60.0,
            texture_bytes: 24_576u64 * 1024 * 1024,
        }
    }

    /// Refresh periods a frame of `triangles` occupies (vsync quantization;
    /// the 1e-6 slack absorbs floating-point noise so an exactly-on-budget
    /// scene completes in one period).
    fn refresh_periods(&self, triangles: u64) -> u64 {
        let refresh = 1.0 / self.refresh_hz;
        let raw = (triangles as f64 / self.triangle_budget as f64) / self.target_fps;
        (raw / refresh - 1e-6).ceil().max(1.0) as u64
    }

    /// Frame time after vsync quantization: rendering always completes on a
    /// refresh boundary, and never faster than one refresh.
    pub fn frame_time(&self, triangles: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.refresh_periods(triangles) as f64 / self.refresh_hz)
    }

    /// Achieved frame rate for a scene of `triangles`.
    pub fn achieved_fps(&self, triangles: u64) -> f64 {
        self.refresh_hz / self.refresh_periods(triangles) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_power() {
        let hs = DeviceProfile::mr_headset();
        let lp = DeviceProfile::laptop_webgl();
        let dt = DeviceProfile::desktop();
        let cl = DeviceProfile::cloud_gpu();
        assert!(hs.triangle_budget < lp.triangle_budget);
        assert!(lp.triangle_budget < dt.triangle_budget);
        assert!(dt.triangle_budget < cl.triangle_budget);
    }

    #[test]
    fn within_budget_hits_target_fps() {
        let d = DeviceProfile::mr_headset();
        assert_eq!(d.achieved_fps(d.triangle_budget), 72.0);
        assert_eq!(d.achieved_fps(1_000), 72.0, "light scenes are vsync-capped");
    }

    #[test]
    fn over_budget_halves_fps_at_vsync_boundaries() {
        let d = DeviceProfile::mr_headset();
        // 1.5x budget: frame takes 2 refresh periods → 36 FPS.
        let fps = d.achieved_fps(d.triangle_budget * 3 / 2);
        assert!((fps - 36.0).abs() < 1e-6, "fps {fps}");
        // 2.5x budget → 3 periods → 24 FPS.
        let fps = d.achieved_fps(d.triangle_budget * 5 / 2);
        assert!((fps - 24.0).abs() < 1e-6, "fps {fps}");
    }

    #[test]
    fn frame_time_is_monotone_in_triangles() {
        let d = DeviceProfile::laptop_webgl();
        let mut prev = SimDuration::ZERO;
        for t in (0..20_000_000u64).step_by(1_000_000) {
            let ft = d.frame_time(t.max(1));
            assert!(ft >= prev);
            prev = ft;
        }
    }
}
