//! A minimal 3-component vector used throughout the simulator and controllers.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-component `f64` vector.
///
/// Used for positions, velocities, accelerations, Euler-angle triples and
/// body rates. All operations are component-wise unless documented otherwise.
///
/// # Examples
///
/// ```
/// use pidpiper_math::Vec3;
///
/// let v = Vec3::new(3.0, 4.0, 0.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v + Vec3::unit_z(), Vec3::new(3.0, 4.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (East in the simulator's ENU frame).
    pub x: f64,
    /// Y component (North in the simulator's ENU frame).
    pub y: f64,
    /// Z component (Up in the simulator's ENU frame).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    /// The unit vector along X.
    #[inline]
    pub const fn unit_x() -> Self {
        Vec3::new(1.0, 0.0, 0.0)
    }

    /// The unit vector along Y.
    #[inline]
    pub const fn unit_y() -> Self {
        Vec3::new(0.0, 1.0, 0.0)
    }

    /// The unit vector along Z.
    #[inline]
    pub const fn unit_z() -> Self {
        Vec3::new(0.0, 0.0, 1.0)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Norm of the XY (horizontal) components only.
    #[inline]
    pub fn norm_xy(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Returns the unit vector in the same direction, or zero if the vector
    /// is shorter than `1e-12`.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n < 1e-12 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise multiplication (Hadamard product).
    #[inline]
    pub fn hadamard(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Clamps the vector's norm to at most `max_norm`, preserving direction.
    ///
    /// Used to enforce velocity/acceleration limits in the controllers.
    #[inline]
    pub fn clamp_norm(self, max_norm: f64) -> Vec3 {
        debug_assert!(max_norm >= 0.0, "max_norm must be non-negative");
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            self * (max_norm / n)
        } else {
            self
        }
    }

    /// Linear interpolation: `self * (1 - t) + other * t`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self * (1.0 - t) + other * t
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (XY-plane) distance to another point.
    #[inline]
    pub fn distance_xy(self, other: Vec3) -> f64 {
        (self - other).norm_xy()
    }

    /// Returns `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Returns the components as a fixed-size array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Creates a vector from a `[x, y, z]` array.
    #[inline]
    pub fn from_array(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }

    /// The component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    /// Indexes the vector: 0 → x, 1 → y, 2 → z.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        match index {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    #[inline]
    fn from(v: Vec3) -> [f64; 3] {
        v.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::unit_x();
        let y = Vec3::unit_y();
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), Vec3::unit_z());
        assert_eq!(y.cross(x), -Vec3::unit_z());
    }

    #[test]
    fn norm_and_normalize() {
        let v = Vec3::new(0.0, 3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert!((v.normalized().norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn clamp_norm_preserves_direction() {
        let v = Vec3::new(10.0, 0.0, 0.0);
        let c = v.clamp_norm(2.0);
        assert_eq!(c, Vec3::new(2.0, 0.0, 0.0));
        // Short vectors are untouched.
        assert_eq!(Vec3::new(0.5, 0.0, 0.0).clamp_norm(2.0), Vec3::new(0.5, 0.0, 0.0));
    }

    #[test]
    fn index_access() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        v[2] = 9.0;
        assert_eq!(v.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn distances() {
        let a = Vec3::new(0.0, 0.0, 10.0);
        let b = Vec3::new(3.0, 4.0, 10.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_xy(b), 5.0);
        let c = Vec3::new(0.0, 0.0, 0.0);
        assert_eq!(a.distance_xy(c), 0.0);
    }
}
