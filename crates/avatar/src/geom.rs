//! Minimal 3D geometry for avatar poses: vectors, quaternions, poses.
//!
//! Implemented from scratch (no external math crate) with only the operations
//! the classroom pipeline needs: rigid transforms, interpolation, and angular
//! distances for error metrics.

use serde::{Deserialize, Serialize};

/// A 3-component vector (metres in classroom space).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component (east in a classroom frame).
    pub x: f64,
    /// Y component (up).
    pub y: f64,
    /// Z component (north).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in this direction; returns `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Distance to another point.
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Linear interpolation: `self` at `t = 0`, `o` at `t = 1`.
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// Component-wise clamp into the axis-aligned box `[min, max]`.
    pub fn clamp_box(self, min: Vec3, max: Vec3) -> Vec3 {
        Vec3::new(
            self.x.clamp(min.x, max.x),
            self.y.clamp(min.y, max.y),
            self.z.clamp(min.z, max.z),
        )
    }

    /// Whether every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}
impl std::ops::Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}
impl std::ops::Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}
impl std::ops::AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

/// A unit quaternion representing a rotation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// X of the vector part.
    pub x: f64,
    /// Y of the vector part.
    pub y: f64,
    /// Z of the vector part.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a quaternion from raw components (not normalized).
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        Quat { w, x, y, z }
    }

    /// Rotation of `angle` radians about `axis` (need not be unit length).
    ///
    /// Returns the identity if `axis` is (near-)zero.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        match axis.normalized() {
            None => Quat::IDENTITY,
            Some(a) => {
                let (s, c) = (angle / 2.0).sin_cos();
                Quat::new(c, a.x * s, a.y * s, a.z * s)
            }
        }
    }

    /// Rotation about the vertical (Y) axis — heading in a classroom.
    pub fn from_yaw(yaw: f64) -> Quat {
        Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), yaw)
    }

    /// Yaw–pitch–roll (Y, then X, then Z) composition.
    pub fn from_euler(yaw: f64, pitch: f64, roll: f64) -> Quat {
        Quat::from_yaw(yaw)
            * Quat::from_axis_angle(Vec3::new(1.0, 0.0, 0.0), pitch)
            * Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), roll)
    }

    /// The yaw (heading) component of this rotation, in radians.
    pub fn yaw(self) -> f64 {
        // Forward vector (0,0,1) rotated, projected onto XZ plane.
        let f = self.rotate(Vec3::new(0.0, 0.0, 1.0));
        f.x.atan2(f.z)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion; identity if degenerate.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n < 1e-12 {
            Quat::IDENTITY
        } else {
            Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// The inverse rotation (conjugate, for unit quaternions).
    pub fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Rotates a vector by this quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = q * (0, v) * q^-1, expanded.
        let u = Vec3::new(self.x, self.y, self.z);
        let s = self.w;
        u * (2.0 * u.dot(v)) + v * (s * s - u.dot(u)) + u.cross(v) * (2.0 * s)
    }

    /// Angular distance to another rotation, in radians (range `[0, π]`).
    pub fn angle_to(self, other: Quat) -> f64 {
        let dot = (self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z)
            .abs()
            .clamp(0.0, 1.0);
        2.0 * dot.acos()
    }

    /// Normalized linear interpolation (shortest arc): `self` at `t = 0`.
    ///
    /// Nlerp is commutative with quantization and cheap; its deviation from
    /// slerp is negligible at the small inter-frame angles of a 60 Hz stream.
    pub fn nlerp(self, mut other: Quat, t: f64) -> Quat {
        let dot = self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z;
        if dot < 0.0 {
            other = Quat::new(-other.w, -other.x, -other.y, -other.z);
        }
        Quat::new(
            self.w + (other.w - self.w) * t,
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
            self.z + (other.z - self.z) * t,
        )
        .normalized()
    }

    /// Whether every component is finite.
    pub fn is_finite(self) -> bool {
        self.w.is_finite() && self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl std::ops::Mul for Quat {
    type Output = Quat;
    fn mul(self, o: Quat) -> Quat {
        Quat::new(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )
    }
}

/// A rigid pose: position plus orientation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// Position in metres.
    pub position: Vec3,
    /// Orientation as a unit quaternion.
    pub orientation: Quat,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Vec3, orientation: Quat) -> Self {
        Pose { position, orientation }
    }

    /// Applies this pose as a rigid transform to a local-frame point.
    pub fn transform_point(&self, local: Vec3) -> Vec3 {
        self.orientation.rotate(local) + self.position
    }

    /// Expresses a world-frame point in this pose's local frame.
    pub fn inverse_transform_point(&self, world: Vec3) -> Vec3 {
        self.orientation.conjugate().rotate(world - self.position)
    }

    /// Composes two poses (`self` then `child`, as in parent * child).
    pub fn compose(&self, child: &Pose) -> Pose {
        Pose {
            position: self.transform_point(child.position),
            orientation: (self.orientation * child.orientation).normalized(),
        }
    }

    /// Interpolates between poses (`self` at `t = 0`).
    pub fn interpolate(&self, other: &Pose, t: f64) -> Pose {
        Pose {
            position: self.position.lerp(other.position, t),
            orientation: self.orientation.nlerp(other.orientation, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn assert_vec_eq(a: Vec3, b: Vec3) {
        assert!(a.distance(b) < 1e-9, "{a:?} != {b:?}");
    }

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a.dot(b), 1.0 * 4.0 - 2.0 * 5.0 + 3.0 * 6.0);
        assert_vec_eq(a.cross(b), Vec3::new(27.0, 6.0, -13.0));
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < EPS);
        assert_vec_eq(a.lerp(b, 0.0), a);
        assert_vec_eq(a.lerp(b, 1.0), b);
        assert_eq!(Vec3::ZERO.normalized(), None);
    }

    #[test]
    fn clamp_box_contains_result() {
        let p = Vec3::new(10.0, -3.0, 0.5);
        let c = p.clamp_box(Vec3::new(0.0, 0.0, 0.0), Vec3::new(5.0, 2.0, 1.0));
        assert_vec_eq(c, Vec3::new(5.0, 0.0, 0.5));
    }

    #[test]
    fn yaw_rotation_turns_forward_vector() {
        let q = Quat::from_yaw(std::f64::consts::FRAC_PI_2);
        let f = q.rotate(Vec3::new(0.0, 0.0, 1.0));
        assert_vec_eq(f, Vec3::new(1.0, 0.0, 0.0));
        assert!((q.yaw() - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn quaternion_rotation_preserves_length() {
        let q = Quat::from_euler(0.3, 0.8, -0.2);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!((q.rotate(v).norm() - v.norm()).abs() < EPS);
    }

    #[test]
    fn conjugate_inverts_rotation() {
        let q = Quat::from_euler(1.0, 0.5, 0.25);
        let v = Vec3::new(-2.0, 1.0, 4.0);
        assert_vec_eq(q.conjugate().rotate(q.rotate(v)), v);
    }

    #[test]
    fn composition_matches_sequential_rotation() {
        let a = Quat::from_yaw(0.7);
        let b = Quat::from_axis_angle(Vec3::new(1.0, 0.0, 0.0), 0.4);
        let v = Vec3::new(0.0, 0.0, 1.0);
        assert_vec_eq((a * b).rotate(v), a.rotate(b.rotate(v)));
    }

    #[test]
    fn angle_to_self_is_zero_and_symmetric() {
        let a = Quat::from_euler(0.2, -0.1, 0.05);
        let b = Quat::from_euler(0.9, 0.3, -0.4);
        assert!(a.angle_to(a) < 1e-6);
        assert!((a.angle_to(b) - b.angle_to(a)).abs() < EPS);
        // Double cover: q and -q are the same rotation.
        let neg = Quat::new(-a.w, -a.x, -a.y, -a.z);
        assert!(a.angle_to(neg) < 1e-6);
    }

    #[test]
    fn nlerp_endpoints_and_midpoint() {
        let a = Quat::from_yaw(0.0);
        let b = Quat::from_yaw(1.0);
        assert!(a.nlerp(b, 0.0).angle_to(a) < 1e-9);
        assert!(a.nlerp(b, 1.0).angle_to(b) < 1e-9);
        let mid = a.nlerp(b, 0.5);
        assert!((mid.yaw() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn nlerp_takes_shortest_arc() {
        let a = Quat::from_yaw(0.1);
        let b = Quat::from_yaw(-0.1);
        // Flip the sign of b: nlerp must still interpolate through yaw 0.
        let b_neg = Quat::new(-b.w, -b.x, -b.y, -b.z);
        let mid = a.nlerp(b_neg, 0.5);
        assert!(mid.yaw().abs() < 1e-6, "yaw {}", mid.yaw());
    }

    #[test]
    fn pose_transform_roundtrip() {
        let pose = Pose::new(Vec3::new(1.0, 2.0, 3.0), Quat::from_euler(0.5, 0.2, 0.1));
        let local = Vec3::new(0.4, -0.3, 0.9);
        let world = pose.transform_point(local);
        assert_vec_eq(pose.inverse_transform_point(world), local);
    }

    #[test]
    fn pose_compose_matches_sequential_transform() {
        let parent = Pose::new(Vec3::new(5.0, 0.0, 0.0), Quat::from_yaw(0.5));
        let child = Pose::new(Vec3::new(0.0, 1.0, 0.0), Quat::from_yaw(-0.2));
        let composed = parent.compose(&child);
        let p = Vec3::new(0.1, 0.2, 0.3);
        assert_vec_eq(
            composed.transform_point(p),
            parent.transform_point(child.transform_point(p)),
        );
    }

    #[test]
    fn pose_interpolation_endpoints() {
        let a = Pose::new(Vec3::ZERO, Quat::IDENTITY);
        let b = Pose::new(Vec3::new(2.0, 0.0, 0.0), Quat::from_yaw(1.0));
        let at0 = a.interpolate(&b, 0.0);
        let at1 = a.interpolate(&b, 1.0);
        assert_vec_eq(at0.position, a.position);
        assert_vec_eq(at1.position, b.position);
        assert!(at1.orientation.angle_to(b.orientation) < 1e-9);
    }

    #[test]
    fn zero_axis_yields_identity() {
        assert_eq!(Quat::from_axis_angle(Vec3::ZERO, 1.0), Quat::IDENTITY);
    }
}
