//! Planar geometry primitives for node placement.

/// A point in the deployment area, in meters.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance (avoids the square root in range tests).
    pub(crate) fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Whether `other` lies within `range` meters (inclusive).
    pub fn in_range(&self, other: &Point, range: f64) -> bool {
        self.distance_sq(other) <= range * range
    }

    /// Whether the point lies inside the square `[0, side] × [0, side]`.
    pub fn in_square(&self, side: f64) -> bool {
        (0.0..=side).contains(&self.x) && (0.0..=side).contains(&self.y)
    }
}

#[cfg(test)]
impl Point {
    /// Euclidean distance to `other`.
    fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn in_range_is_inclusive() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(50.0, 0.0);
        assert!(a.in_range(&b, 50.0));
        assert!(!a.in_range(&b, 49.999));
    }

    #[test]
    fn in_square_checks_bounds() {
        assert!(Point::new(0.0, 0.0).in_square(10.0));
        assert!(Point::new(10.0, 10.0).in_square(10.0));
        assert!(!Point::new(10.1, 5.0).in_square(10.0));
        assert!(!Point::new(-0.1, 5.0).in_square(10.0));
    }
}
