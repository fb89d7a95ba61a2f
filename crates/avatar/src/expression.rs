//! Facial expression representation.
//!
//! The blueprint's MR headsets "track their locations and other features,
//! such as facial expressions" (§3.2). Expressions are carried as a small
//! fixed set of blendshape channels — the industry-standard representation —
//! each a weight in `[0, 1]`.

use serde::{Deserialize, Serialize};

/// The tracked blendshape channels, a compact subset of the ARKit-style set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BlendChannel {
    JawOpen,
    MouthSmileLeft,
    MouthSmileRight,
    MouthFrown,
    MouthPucker,
    BrowInnerUp,
    BrowDownLeft,
    BrowDownRight,
    EyeBlinkLeft,
    EyeBlinkRight,
    EyeWideLeft,
    EyeWideRight,
    CheekPuff,
    NoseSneer,
    TongueOut,
    HeadNod,
}

impl BlendChannel {
    /// All channels, in wire order.
    pub const ALL: [BlendChannel; CHANNELS] = [
        BlendChannel::JawOpen,
        BlendChannel::MouthSmileLeft,
        BlendChannel::MouthSmileRight,
        BlendChannel::MouthFrown,
        BlendChannel::MouthPucker,
        BlendChannel::BrowInnerUp,
        BlendChannel::BrowDownLeft,
        BlendChannel::BrowDownRight,
        BlendChannel::EyeBlinkLeft,
        BlendChannel::EyeBlinkRight,
        BlendChannel::EyeWideLeft,
        BlendChannel::EyeWideRight,
        BlendChannel::CheekPuff,
        BlendChannel::NoseSneer,
        BlendChannel::TongueOut,
        BlendChannel::HeadNod,
    ];

    /// The wire index of this channel.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("channel in ALL")
    }
}

/// Number of blendshape channels.
pub const CHANNELS: usize = 16;

/// One frame of facial expression: a weight per blendshape channel.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{BlendChannel, ExpressionFrame};
///
/// let mut smile = ExpressionFrame::neutral();
/// smile.set(BlendChannel::MouthSmileLeft, 0.8);
/// smile.set(BlendChannel::MouthSmileRight, 0.8);
/// assert!(smile.get(BlendChannel::MouthSmileLeft) > 0.7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExpressionFrame {
    weights: [f32; CHANNELS],
}

impl ExpressionFrame {
    /// The neutral (all-zero) expression.
    pub fn neutral() -> Self {
        Self::default()
    }

    /// Builds a frame from raw weights, clamping each into `[0, 1]`.
    pub fn from_weights(weights: [f32; CHANNELS]) -> Self {
        let mut w = weights;
        for v in &mut w {
            *v = v.clamp(0.0, 1.0);
        }
        ExpressionFrame { weights: w }
    }

    /// Weight of one channel.
    pub fn get(&self, c: BlendChannel) -> f32 {
        self.weights[c.index()]
    }

    /// Sets one channel's weight, clamped into `[0, 1]`.
    pub fn set(&mut self, c: BlendChannel, w: f32) {
        self.weights[c.index()] = w.clamp(0.0, 1.0);
    }

    /// All weights in wire order.
    pub fn weights(&self) -> &[f32; CHANNELS] {
        &self.weights
    }

    /// Quantizes every channel to 8 bits.
    pub fn quantize(&self) -> [u8; CHANNELS] {
        let mut out = [0u8; CHANNELS];
        for (o, w) in out.iter_mut().zip(&self.weights) {
            *o = (w * 255.0).round() as u8;
        }
        out
    }

    /// Rebuilds a frame from 8-bit quantized weights.
    pub fn from_quantized(q: &[u8; CHANNELS]) -> Self {
        let mut weights = [0f32; CHANNELS];
        for (w, &b) in weights.iter_mut().zip(q) {
            *w = b as f32 / 255.0;
        }
        ExpressionFrame { weights }
    }

    /// Maximum absolute per-channel difference to another frame.
    pub fn max_abs_diff(&self, other: &ExpressionFrame) -> f32 {
        self.weights.iter().zip(&other.weights).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// Linear interpolation between frames (`self` at `t = 0`).
    pub fn lerp(&self, other: &ExpressionFrame, t: f32) -> ExpressionFrame {
        let mut weights = [0f32; CHANNELS];
        for ((w, a), b) in weights.iter_mut().zip(&self.weights).zip(&other.weights) {
            *w = a + (b - a) * t.clamp(0.0, 1.0);
        }
        ExpressionFrame { weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_indices_are_unique_and_dense() {
        let mut seen = [false; CHANNELS];
        for c in BlendChannel::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn set_clamps_weights() {
        let mut f = ExpressionFrame::neutral();
        f.set(BlendChannel::JawOpen, 2.5);
        assert_eq!(f.get(BlendChannel::JawOpen), 1.0);
        f.set(BlendChannel::JawOpen, -1.0);
        assert_eq!(f.get(BlendChannel::JawOpen), 0.0);
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let mut f = ExpressionFrame::neutral();
        for (i, c) in BlendChannel::ALL.iter().enumerate() {
            f.set(*c, i as f32 / 17.3);
        }
        let back = ExpressionFrame::from_quantized(&f.quantize());
        assert!(f.max_abs_diff(&back) <= 0.5 / 255.0 + 1e-6);
    }

    #[test]
    fn lerp_endpoints() {
        let a = ExpressionFrame::neutral();
        let mut b = ExpressionFrame::neutral();
        b.set(BlendChannel::CheekPuff, 0.6);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert!((a.lerp(&b, 0.5).get(BlendChannel::CheekPuff) - 0.3).abs() < 1e-6);
    }
}
