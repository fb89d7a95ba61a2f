//! Fixed-point quantizers for positions and orientations.
//!
//! A classroom is a bounded space, so positions quantize onto a uniform grid
//! with provable worst-case error; orientations use the standard
//! smallest-three quaternion encoding. These quantizers define the *grid
//! domain* in which the delta codec compares states.

use serde::{Deserialize, Serialize};

use crate::geom::{Quat, Vec3};

/// An axis-aligned bounding box for quantizable space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpaceBounds {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl SpaceBounds {
    /// Creates bounds from two corners.
    ///
    /// # Panics
    ///
    /// Panics if any `min` component is not strictly below `max`.
    pub fn new(min: Vec3, max: Vec3) -> Self {
        assert!(
            min.x < max.x && min.y < max.y && min.z < max.z,
            "bounds must have positive extent"
        );
        SpaceBounds { min, max }
    }

    /// A typical lecture classroom: 20 m x 5 m x 15 m.
    pub fn classroom() -> Self {
        SpaceBounds::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(20.0, 5.0, 15.0))
    }

    /// A large virtual auditorium: 100 m x 20 m x 100 m.
    pub fn auditorium() -> Self {
        SpaceBounds::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(100.0, 20.0, 100.0))
    }

    /// Extent per axis.
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        (self.min.x..=self.max.x).contains(&p.x)
            && (self.min.y..=self.max.y).contains(&p.y)
            && (self.min.z..=self.max.z).contains(&p.z)
    }

    /// Clamps `p` into the bounds.
    pub fn clamp(&self, p: Vec3) -> Vec3 {
        p.clamp_box(self.min, self.max)
    }

    /// The centre point.
    pub fn center(&self) -> Vec3 {
        self.min + self.extent() * 0.5
    }
}

/// Uniform grid quantizer for positions within [`SpaceBounds`].
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{PositionQuantizer, SpaceBounds, Vec3};
///
/// let q = PositionQuantizer::new(SpaceBounds::classroom(), 14);
/// let p = Vec3::new(3.21, 1.57, 9.99);
/// let back = q.dequantize(q.quantize(p));
/// assert!(p.distance(back) <= q.max_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PositionQuantizer {
    bounds: SpaceBounds,
    bits: u32,
}

impl PositionQuantizer {
    /// Most bits per axis a quantizer accepts.
    pub const MAX_BITS: u32 = 30;

    /// Creates a quantizer with `bits` per axis (1–30).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=30`.
    pub fn new(bounds: SpaceBounds, bits: u32) -> Self {
        assert!((1..=Self::MAX_BITS).contains(&bits), "bits must be in 1..=30");
        PositionQuantizer { bounds, bits }
    }

    /// Bits per axis.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The configured bounds.
    pub fn bounds(&self) -> SpaceBounds {
        self.bounds
    }

    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantizes a position (clamped into bounds) to grid coordinates.
    pub fn quantize(&self, p: Vec3) -> [u32; 3] {
        let c = self.bounds.clamp(p);
        let e = self.bounds.extent();
        let l = self.levels() as f64;
        [
            (((c.x - self.bounds.min.x) / e.x) * l).round() as u32,
            (((c.y - self.bounds.min.y) / e.y) * l).round() as u32,
            (((c.z - self.bounds.min.z) / e.z) * l).round() as u32,
        ]
    }

    /// Reconstructs a position from grid coordinates (saturating at the
    /// grid's last level).
    pub fn dequantize(&self, g: [u32; 3]) -> Vec3 {
        let e = self.bounds.extent();
        let l = self.levels() as f64;
        Vec3::new(
            self.bounds.min.x + (g[0].min(self.levels()) as f64 / l) * e.x,
            self.bounds.min.y + (g[1].min(self.levels()) as f64 / l) * e.y,
            self.bounds.min.z + (g[2].min(self.levels()) as f64 / l) * e.z,
        )
    }

    /// Grid step per axis, in metres.
    pub fn resolution(&self) -> Vec3 {
        self.bounds.extent() / self.levels() as f64
    }

    /// Worst-case reconstruction error for in-bounds points (half the grid
    /// diagonal step), in metres.
    pub fn max_error(&self) -> f64 {
        let r = self.resolution() * 0.5;
        r.norm()
    }
}

/// Smallest-three quaternion quantizer.
///
/// Drops the largest-magnitude component (recovered from the unit-norm
/// constraint), encoding the remaining three in `bits` bits each plus a
/// 2-bit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuatQuantizer {
    bits: u32,
}

/// The wire form of a quantized quaternion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedQuat {
    /// Index (0–3) of the dropped component (w, x, y, z order).
    pub largest: u8,
    /// The three remaining components, quantized.
    pub components: [u32; 3],
}

impl QuatQuantizer {
    /// Maximum magnitude of a non-largest component of a unit quaternion.
    const LIMIT: f64 = std::f64::consts::FRAC_1_SQRT_2;

    /// Most bits per stored component a quantizer accepts.
    pub const MAX_BITS: u32 = 16;

    /// Creates a quantizer with `bits` per stored component (2–16).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn new(bits: u32) -> Self {
        assert!((2..=Self::MAX_BITS).contains(&bits), "bits must be in 2..=16");
        QuatQuantizer { bits }
    }

    /// Bits per stored component.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantizes a rotation.
    pub fn quantize(&self, q: Quat) -> QuantizedQuat {
        let q = q.normalized();
        let comps = [q.w, q.x, q.y, q.z];
        let largest = comps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
            .map(|(i, _)| i)
            .expect("four components");
        // Force the dropped component positive so reconstruction is unique.
        let sign = if comps[largest] < 0.0 { -1.0 } else { 1.0 };
        let l = self.levels() as f64;
        let mut components = [0u32; 3];
        let mut k = 0;
        for (i, &c) in comps.iter().enumerate() {
            if i == largest {
                continue;
            }
            let v = (c * sign).clamp(-Self::LIMIT, Self::LIMIT);
            let unit = (v + Self::LIMIT) / (2.0 * Self::LIMIT);
            components[k] = (unit * l).round() as u32;
            k += 1;
        }
        QuantizedQuat { largest: largest as u8, components }
    }

    /// Reconstructs a rotation.
    ///
    /// Out-of-range component values saturate; a `largest` index above 3 is
    /// treated as 3 (decoders never panic on adversarial input).
    pub fn dequantize(&self, q: QuantizedQuat) -> Quat {
        let l = self.levels() as f64;
        let mut three = [0f64; 3];
        for (o, &c) in three.iter_mut().zip(&q.components) {
            let unit = c.min(self.levels()) as f64 / l;
            *o = unit * 2.0 * Self::LIMIT - Self::LIMIT;
        }
        let sum_sq: f64 = three.iter().map(|v| v * v).sum();
        let largest_val = (1.0 - sum_sq).max(0.0).sqrt();
        let largest = (q.largest as usize).min(3);
        let mut comps = [0f64; 4];
        let mut k = 0;
        for (i, c) in comps.iter_mut().enumerate() {
            if i == largest {
                *c = largest_val;
            } else {
                *c = three[k];
                k += 1;
            }
        }
        Quat::new(comps[0], comps[1], comps[2], comps[3]).normalized()
    }

    /// Approximate worst-case angular error, in radians.
    pub fn max_angle_error(&self) -> f64 {
        // Each stored component has step 2*LIMIT/levels and error ≤ step/2.
        // Recovering the dropped component from the unit-norm constraint can
        // amplify the three stored errors by up to |other/largest| ≤ 1 each,
        // so the 4-vector error norm is ≤ sqrt(6)*(step/2), and the angle
        // error ≈ 2*||Δq|| ≤ sqrt(6)*step. A 15% margin covers the
        // second-order terms the small-angle approximation ignores.
        let step = 2.0 * Self::LIMIT / self.levels() as f64;
        (6.0f64).sqrt() * step * 1.15
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classroom_resolution_is_subcentimetre_at_14_bits() {
        let q = PositionQuantizer::new(SpaceBounds::classroom(), 14);
        let r = q.resolution();
        assert!(r.x < 0.002 && r.y < 0.001 && r.z < 0.001, "{r:?}");
        assert!(q.max_error() < 0.002);
    }

    #[test]
    fn quantize_clamps_out_of_bounds_points() {
        let q = PositionQuantizer::new(SpaceBounds::classroom(), 10);
        let g = q.quantize(Vec3::new(-5.0, 100.0, 7.0));
        let back = q.dequantize(g);
        assert_eq!(back.x, 0.0);
        assert_eq!(back.y, 5.0);
    }

    #[test]
    fn dequantize_saturates_bad_grid_values() {
        let q = PositionQuantizer::new(SpaceBounds::classroom(), 8);
        let p = q.dequantize([u32::MAX, 0, 0]);
        assert!(q.bounds().contains(p));
    }

    #[test]
    fn quat_identity_roundtrips_exactly_enough() {
        let qq = QuatQuantizer::new(10);
        let back = qq.dequantize(qq.quantize(Quat::IDENTITY));
        assert!(back.angle_to(Quat::IDENTITY) < qq.max_angle_error());
    }

    #[test]
    fn quat_negative_double_cover_is_handled() {
        let qq = QuatQuantizer::new(10);
        let q = Quat::from_yaw(2.0);
        let neg = Quat::new(-q.w, -q.x, -q.y, -q.z);
        let a = qq.dequantize(qq.quantize(q));
        let b = qq.dequantize(qq.quantize(neg));
        assert!(a.angle_to(b) < 1e-6);
    }

    #[test]
    fn bad_largest_index_does_not_panic() {
        let qq = QuatQuantizer::new(10);
        let q = qq.dequantize(QuantizedQuat { largest: 250, components: [u32::MAX; 3] });
        assert!(q.is_finite());
    }

    proptest! {
        #[test]
        fn prop_position_error_bounded(
            x in 0.0..20.0f64, y in 0.0..5.0f64, z in 0.0..15.0f64, bits in 8u32..=16
        ) {
            let q = PositionQuantizer::new(SpaceBounds::classroom(), bits.min(30));
            let p = Vec3::new(x, y, z);
            let back = q.dequantize(q.quantize(p));
            prop_assert!(p.distance(back) <= q.max_error() + 1e-12);
        }

        #[test]
        fn prop_quat_error_bounded(
            yaw in -3.1f64..3.1, pitch in -1.5f64..1.5, roll in -3.1f64..3.1, bits in 8u32..=12
        ) {
            let qq = QuatQuantizer::new(bits);
            let q = Quat::from_euler(yaw, pitch, roll);
            let back = qq.dequantize(qq.quantize(q));
            prop_assert!(back.angle_to(q) <= qq.max_angle_error() + 1e-9,
                "err {} bound {}", back.angle_to(q), qq.max_angle_error());
        }

        #[test]
        fn prop_quantization_is_idempotent(
            x in 0.0..20.0f64, y in 0.0..5.0f64, z in 0.0..15.0f64
        ) {
            let q = PositionQuantizer::new(SpaceBounds::classroom(), 14);
            let g1 = q.quantize(Vec3::new(x, y, z));
            let g2 = q.quantize(q.dequantize(g1));
            prop_assert_eq!(g1, g2);
        }
    }
}
