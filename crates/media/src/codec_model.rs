//! Rate–distortion video model.
//!
//! §3.3: "many courses may rely on video transmission … a high video quality
//! (high resolution with few artifacts) is also necessary to deliver
//! information with high legibility." We substitute a calibrated analytic
//! model for a real encoder: frame sizes follow the usual I/P GOP structure
//! and the *legibility score* follows a logistic curve in bits-per-pixel —
//! the standard shape of subjective quality vs bitrate.

use metaclass_netsim::{DetRng, SimDuration};
use serde::{Deserialize, Serialize};

/// Encoder configuration for one video stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, pixels.
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
    /// Target bitrate, bits per second.
    pub bitrate_bps: u64,
    /// Frames between keyframes (GOP length).
    pub keyframe_interval: u32,
}

impl VideoConfig {
    /// 1080p30 at 4 Mbit/s — a lecture camera.
    pub fn lecture_camera() -> Self {
        VideoConfig {
            width: 1920,
            height: 1080,
            fps: 30.0,
            bitrate_bps: 4_000_000,
            keyframe_interval: 60,
        }
    }

    /// 720p30 at 1.5 Mbit/s — a webcam tile in a conference grid.
    pub fn webcam_tile() -> Self {
        VideoConfig {
            width: 1280,
            height: 720,
            fps: 30.0,
            bitrate_bps: 1_500_000,
            keyframe_interval: 60,
        }
    }

    /// Bits per pixel per frame at the target bitrate.
    pub fn bits_per_pixel(&self) -> f64 {
        self.bitrate_bps as f64 / (self.width as f64 * self.height as f64 * self.fps)
    }

    /// Frame period.
    pub fn frame_period(&self) -> SimDuration {
        SimDuration::from_rate_hz(self.fps)
    }

    /// Mean encoded frame size, bytes.
    pub fn mean_frame_bytes(&self) -> f64 {
        self.bitrate_bps as f64 / self.fps / 8.0
    }
}

/// One encoded frame emitted by [`VideoSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VideoFrame {
    /// Monotonic frame id.
    pub id: u64,
    /// Encoded size, bytes.
    pub bytes: u32,
    /// Whether this is a keyframe (decodable standalone).
    pub is_keyframe: bool,
}

/// Deterministic synthetic encoder: emits frames with GOP structure and
/// realistic size variation.
///
/// # Examples
///
/// ```
/// use metaclass_media::{VideoConfig, VideoSource};
///
/// let mut src = VideoSource::new(VideoConfig::lecture_camera(), 42);
/// let first = src.next_frame();
/// assert!(first.is_keyframe);
/// ```
#[derive(Debug, Clone)]
pub struct VideoSource {
    cfg: VideoConfig,
    rng: DetRng,
    next_id: u64,
}

/// Keyframes are this factor larger than the mean frame.
const I_FRAME_FACTOR: f64 = 4.0;

impl VideoSource {
    /// Creates a source with its own deterministic size stream.
    pub fn new(cfg: VideoConfig, seed: u64) -> Self {
        VideoSource { cfg, rng: DetRng::new(seed).derive(0x0076_6964_656f), next_id: 0 }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &VideoConfig {
        &self.cfg
    }

    /// Emits the next frame. Sizes average to the configured bitrate: in a
    /// GOP of `g` frames, the keyframe takes `I_FRAME_FACTOR` shares and each
    /// P-frame takes `(g - F) / (g - 1)` of the rest.
    pub fn next_frame(&mut self) -> VideoFrame {
        let id = self.next_id;
        self.next_id += 1;
        let g = self.cfg.keyframe_interval.max(1) as f64;
        let mean = self.cfg.mean_frame_bytes();
        let is_keyframe = id.is_multiple_of(self.cfg.keyframe_interval.max(1) as u64);
        let base = if is_keyframe || g <= 1.0 {
            mean * I_FRAME_FACTOR.min(g)
        } else {
            mean * (g - I_FRAME_FACTOR.min(g)) / (g - 1.0)
        };
        // ±20% lognormal-ish content variation.
        let factor = self.rng.truncated_normal(1.0, 0.2, 0.5, 2.0);
        VideoFrame { id, bytes: (base * factor).max(64.0).round() as u32, is_keyframe }
    }
}

/// Subjective legibility (0–100) of a stream at its configured rate:
/// a logistic curve in bits-per-pixel, saturating near transparent quality.
///
/// Calibration: 1080p30 at 4 Mbit/s (≈ 0.064 bpp with modern codecs) scores
/// ≈ 80; halving the bitrate costs ≈ 12 points.
pub fn legibility_score(cfg: &VideoConfig) -> f64 {
    let bpp = cfg.bits_per_pixel();
    // Mid-point at 0.02 bpp, log-domain slope.
    let x = (bpp.max(1e-6) / 0.02).ln();
    100.0 / (1.0 + (-x / 0.9).exp())
}

/// Degrades a legibility score by the fraction of frames that missed their
/// display deadline or were undecodable. Freezes hurt legibility sharply:
/// even a small stall fraction costs more than its proportional share of
/// quality (the penalty curve is steepest at the origin).
pub fn legibility_after_stalls(base: f64, stall_fraction: f64) -> f64 {
    let s = stall_fraction.clamp(0.0, 1.0);
    (base * (1.0 - s).powf(1.5)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_run_rate_matches_target() {
        let cfg = VideoConfig::lecture_camera();
        let mut src = VideoSource::new(cfg, 1);
        let n = 3000;
        let total: u64 = (0..n).map(|_| src.next_frame().bytes as u64).sum();
        let secs = n as f64 / cfg.fps;
        let rate = total as f64 * 8.0 / secs;
        let err = (rate - cfg.bitrate_bps as f64).abs() / cfg.bitrate_bps as f64;
        assert!(err < 0.05, "rate {rate} vs target {} ({err:.3})", cfg.bitrate_bps);
    }

    #[test]
    fn gop_structure_is_periodic_and_keyframes_are_big() {
        let cfg = VideoConfig { keyframe_interval: 30, ..VideoConfig::lecture_camera() };
        let mut src = VideoSource::new(cfg, 2);
        let frames: Vec<VideoFrame> = (0..120).map(|_| src.next_frame()).collect();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.is_keyframe, i % 30 == 0, "frame {i}");
        }
        let avg_i: f64 =
            frames.iter().filter(|f| f.is_keyframe).map(|f| f.bytes as f64).sum::<f64>() / 4.0;
        let avg_p: f64 =
            frames.iter().filter(|f| !f.is_keyframe).map(|f| f.bytes as f64).sum::<f64>() / 116.0;
        assert!(avg_i > 3.0 * avg_p, "I {avg_i} vs P {avg_p}");
    }

    #[test]
    fn legibility_grows_with_bitrate() {
        let mut prev = 0.0;
        for mbps in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let cfg =
                VideoConfig { bitrate_bps: (mbps * 1e6) as u64, ..VideoConfig::lecture_camera() };
            let q = legibility_score(&cfg);
            assert!(q > prev, "quality not monotone at {mbps} Mbps");
            assert!((0.0..=100.0).contains(&q));
            prev = q;
        }
    }

    #[test]
    fn calibration_point_holds() {
        let q = legibility_score(&VideoConfig::lecture_camera());
        assert!((75.0..90.0).contains(&q), "1080p30@4Mbps scored {q}");
        let half = legibility_score(&VideoConfig {
            bitrate_bps: 2_000_000,
            ..VideoConfig::lecture_camera()
        });
        assert!((q - half) > 5.0 && (q - half) < 20.0, "halving cost {}", q - half);
    }

    #[test]
    fn stalls_hurt_more_than_proportionally() {
        let base = 80.0;
        let q10 = legibility_after_stalls(base, 0.1);
        let q20 = legibility_after_stalls(base, 0.2);
        assert!(q10 < base && q20 < q10);
        // A 10% stall fraction costs more than 10% of the score.
        assert!((base - q10) > 0.1 * base, "penalty {}", base - q10);
        assert_eq!(legibility_after_stalls(base, 1.0), 0.0);
        assert_eq!(legibility_after_stalls(base, -0.5), base);
    }

    #[test]
    fn presets_are_ordered_by_rate() {
        assert!(VideoConfig::lecture_camera().bitrate_bps > VideoConfig::webcam_tile().bitrate_bps);
        assert_eq!(VideoConfig::lecture_camera().frame_period().as_nanos(), 33_333_333);
    }
}
