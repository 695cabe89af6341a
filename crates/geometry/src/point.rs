//! Points in the Euclidean plane.

use serde::{Deserialize, Serialize};

/// A point in the Euclidean plane.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Point2D {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point2D {
    /// Creates a new point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2D { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2D) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root in hot
    /// loops such as grid range queries).
    pub fn distance_squared(&self, other: &Point2D) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_basics() {
        let a = Point2D::new(0.0, 0.0);
        let b = Point2D::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_squared(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric_and_nonnegative(ax in -1e3f64..1e3, ay in -1e3f64..1e3,
                                                   bx in -1e3f64..1e3, by in -1e3f64..1e3) {
            let a = Point2D::new(ax, ay);
            let b = Point2D::new(bx, by);
            prop_assert!(a.distance(&b) >= 0.0);
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(ax in -1e3f64..1e3, ay in -1e3f64..1e3,
                                    bx in -1e3f64..1e3, by in -1e3f64..1e3,
                                    cx in -1e3f64..1e3, cy in -1e3f64..1e3) {
            let a = Point2D::new(ax, ay);
            let b = Point2D::new(bx, by);
            let c = Point2D::new(cx, cy);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }
    }
}
