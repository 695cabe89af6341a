//! Transmission-range disks (Section 4.1 of the paper).
//!
//! In the transmitter scenario each bidder is a transmitter that covers a
//! disk around its position; two transmitters conflict when their disks
//! intersect. Proposition 9 shows that ordering the disks by decreasing
//! radius certifies an inductive independence number of at most 5.

use crate::point::Point2D;
use serde::{Deserialize, Serialize};

/// A closed disk in the plane: a transmitter position plus its transmission
/// range.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    /// Center (the transmitter position).
    pub center: Point2D,
    /// Radius (the transmission range). Must be positive.
    pub radius: f64,
}

impl Disk {
    /// Creates a new disk.
    ///
    /// # Panics
    /// Panics if the radius is not strictly positive or not finite.
    pub fn new(center: Point2D, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "disk radius must be positive and finite"
        );
        Disk { center, radius }
    }

    /// Returns `true` if the two (closed) disks intersect, i.e. the distance
    /// between the centers is at most the sum of the radii.
    pub fn intersects(&self, other: &Disk) -> bool {
        let sum = self.radius + other.radius;
        self.center.distance_squared(&other.center) <= sum * sum
    }

    /// Returns `true` if the point lies in the closed disk.
    pub fn contains(&self, p: &Point2D) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intersecting_and_disjoint_disks() {
        let a = Disk::new(Point2D::new(0.0, 0.0), 1.0);
        let b = Disk::new(Point2D::new(1.5, 0.0), 1.0);
        let c = Disk::new(Point2D::new(5.0, 0.0), 1.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // tangent disks count as intersecting (closed disks)
        let d = Disk::new(Point2D::new(2.0, 0.0), 1.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn containment() {
        let big = Disk::new(Point2D::new(0.0, 0.0), 5.0);
        assert!(big.contains(&Point2D::new(3.0, 3.0)));
        assert!(!big.contains(&Point2D::new(4.0, 4.0)));
    }

    #[test]
    #[should_panic]
    fn zero_radius_rejected() {
        Disk::new(Point2D::new(0.0, 0.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_intersection_is_symmetric(ax in -100.0f64..100.0, ay in -100.0f64..100.0, ar in 0.1f64..20.0,
                                          bx in -100.0f64..100.0, by in -100.0f64..100.0, br in 0.1f64..20.0) {
            let a = Disk::new(Point2D::new(ax, ay), ar);
            let b = Disk::new(Point2D::new(bx, by), br);
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        }

        #[test]
        fn prop_self_intersection_and_containment(ax in -100.0f64..100.0, ay in -100.0f64..100.0, ar in 0.1f64..20.0) {
            let a = Disk::new(Point2D::new(ax, ay), ar);
            prop_assert!(a.intersects(&a));
            prop_assert!(a.contains(&a.center));
        }
    }
}
