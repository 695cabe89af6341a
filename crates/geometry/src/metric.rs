//! Link distances for the physical model.
//!
//! The physical (SINR) model of Section 4.3 is defined over nodes "located
//! in a metric space", and the SINR constraint reads only the distances from
//! senders to receivers. [`LinkMetric`] holds exactly those. Most
//! experiments use the Euclidean plane ([`LinkMetric::from_links`]), but the
//! approximation guarantee of Theorem 17 distinguishes *fading metrics*
//! (doubling metrics, e.g. Euclidean space) from *general metrics*, so a
//! link metric can also be given as an explicit distance matrix
//! ([`LinkMetric::from_matrix`]).

use crate::link::Link;
use serde::{Deserialize, Serialize};

/// Distances between link endpoints, the exact inputs the SINR constraint
/// needs: `sender_to_receiver(i, j) = d(s_i, r_j)` and
/// `length(i) = d(s_i, r_i)`.
///
/// A `LinkMetric` can be built from Euclidean links or from an explicit
/// matrix (to model general, non-fading metrics).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkMetric {
    n: usize,
    /// Row-major: `d_sr[i * n + j] = d(s_i, r_j)`.
    d_sr: Vec<f64>,
}

impl LinkMetric {
    /// Builds the link metric of a set of Euclidean links.
    pub fn from_links(links: &[Link]) -> Self {
        let n = links.len();
        let mut d_sr = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d_sr[i * n + j] = links[i].sender.distance(&links[j].receiver);
            }
        }
        LinkMetric { n, d_sr }
    }

    /// Builds a link metric from an explicit `n × n` matrix of
    /// sender-to-receiver distances.
    ///
    /// # Panics
    /// Panics if `d_sr.len() != n * n` or any entry is negative/non-finite,
    /// or if a diagonal entry (a link length) is zero.
    pub fn from_matrix(n: usize, d_sr: Vec<f64>) -> Self {
        assert_eq!(d_sr.len(), n * n, "matrix must be n × n");
        for (idx, &v) in d_sr.iter().enumerate() {
            assert!(
                v.is_finite() && v >= 0.0,
                "entry {idx} is negative or not finite"
            );
        }
        for i in 0..n {
            assert!(d_sr[i * n + i] > 0.0, "link {i} has zero length");
        }
        LinkMetric { n, d_sr }
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.n
    }

    /// Length `d(s_i, r_i)` of link `i`.
    pub fn length(&self, i: usize) -> f64 {
        self.d_sr[i * self.n + i]
    }

    /// Distance `d(s_i, r_j)` from the sender of link `i` to the receiver of
    /// link `j`.
    pub fn sender_to_receiver(&self, i: usize, j: usize) -> f64 {
        self.d_sr[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2D;
    use proptest::prelude::*;

    #[test]
    fn link_metric_from_links() {
        let links = vec![
            Link::new(Point2D::new(0.0, 0.0), Point2D::new(1.0, 0.0)),
            Link::new(Point2D::new(10.0, 0.0), Point2D::new(12.0, 0.0)),
        ];
        let lm = LinkMetric::from_links(&links);
        assert_eq!(lm.num_links(), 2);
        assert!((lm.length(0) - 1.0).abs() < 1e-12);
        assert!((lm.length(1) - 2.0).abs() < 1e-12);
        assert!((lm.sender_to_receiver(0, 1) - 12.0).abs() < 1e-12);
        assert!((lm.sender_to_receiver(1, 0) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn link_metric_rejects_zero_length_links() {
        LinkMetric::from_matrix(1, vec![0.0]);
    }

    proptest! {
        #[test]
        fn prop_link_metric_lengths_positive(coords in prop::collection::vec(
            (-100.0f64..100.0, -100.0f64..100.0, 0.1f64..5.0, 0.1f64..5.0), 1..10)) {
            let links: Vec<Link> = coords
                .iter()
                .map(|&(x, y, dx, dy)| Link::new(Point2D::new(x, y), Point2D::new(x + dx, y + dy)))
                .collect();
            let lm = LinkMetric::from_links(&links);
            for i in 0..lm.num_links() {
                prop_assert!(lm.length(i) > 0.0);
            }
        }
    }
}
