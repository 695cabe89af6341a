//! A uniform spatial hash grid for neighborhood queries.
//!
//! Conflict-graph construction for disk graphs and the protocol model needs
//! "all points within distance `r` of `p`" queries. A uniform grid with cell
//! size equal to the typical query radius answers these in output-sensitive
//! time, which keeps graph construction near-linear for the workloads used
//! in the experiments (up to thousands of nodes).

use crate::point::Point2D;
use std::collections::HashMap;

/// A uniform grid over a set of points, bucketing point indices by cell.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell_size: f64,
    cells: HashMap<(i64, i64), Vec<usize>>,
    points: Vec<Point2D>,
}

impl SpatialGrid {
    /// Builds a grid with the given cell size over the points.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(points: &[Point2D], cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive"
        );
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            cells
                .entry(Self::cell_of(p, cell_size))
                .or_default()
                .push(i);
        }
        SpatialGrid {
            cell_size,
            cells,
            points: points.to_vec(),
        }
    }

    fn cell_of(p: &Point2D, cell_size: f64) -> (i64, i64) {
        (
            (p.x / cell_size).floor() as i64,
            (p.y / cell_size).floor() as i64,
        )
    }

    /// Number of points stored in the grid.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Returns the indices of all points within distance `radius` of `query`
    /// (inclusive), in increasing index order.
    pub fn within_radius(&self, query: &Point2D, radius: f64) -> Vec<usize> {
        let r2 = radius * radius;
        let min_cx = ((query.x - radius) / self.cell_size).floor() as i64;
        let max_cx = ((query.x + radius) / self.cell_size).floor() as i64;
        let min_cy = ((query.y - radius) / self.cell_size).floor() as i64;
        let max_cy = ((query.y + radius) / self.cell_size).floor() as i64;
        let mut out = Vec::new();
        for cx in min_cx..=max_cx {
            for cy in min_cy..=max_cy {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    for &i in bucket {
                        if self.points[i].distance_squared(query) <= r2 {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn within_radius_matches_brute_force_small() {
        let pts = vec![
            Point2D::new(0.0, 0.0),
            Point2D::new(1.0, 0.0),
            Point2D::new(0.0, 2.5),
            Point2D::new(-3.0, -3.0),
            Point2D::new(0.5, 0.5),
        ];
        let grid = SpatialGrid::new(&pts, 1.0);
        let got = grid.within_radius(&Point2D::new(0.0, 0.0), 1.2);
        assert_eq!(got, vec![0, 1, 4]);
    }

    #[test]
    fn query_point_need_not_be_in_grid() {
        let pts = vec![Point2D::new(10.0, 10.0)];
        let grid = SpatialGrid::new(&pts, 2.0);
        assert_eq!(grid.within_radius(&Point2D::new(9.0, 10.0), 1.5), vec![0]);
        assert!(grid.within_radius(&Point2D::new(0.0, 0.0), 1.5).is_empty());
    }

    proptest! {
        #[test]
        fn prop_grid_matches_brute_force(
            coords in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..60),
            qx in -50.0f64..50.0, qy in -50.0f64..50.0,
            radius in 0.5f64..30.0,
            cell in 0.5f64..10.0,
        ) {
            let pts: Vec<Point2D> = coords.iter().map(|&(x, y)| Point2D::new(x, y)).collect();
            let grid = SpatialGrid::new(&pts, cell);
            let q = Point2D::new(qx, qy);
            let got = grid.within_radius(&q, radius);
            let expected: Vec<usize> = (0..pts.len())
                .filter(|&i| pts[i].distance(&q) <= radius)
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}
