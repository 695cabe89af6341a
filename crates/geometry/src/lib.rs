//! Planar geometry and metric spaces for wireless interference models.
//!
//! The interference models of Section 4 of the SPAA 2011 spectrum-auction
//! paper all live on top of simple geometric objects:
//!
//! * transmitters are [`Point2D`]s with a transmission-range [`Disk`]
//!   (disk graphs, distance-2 coloring),
//! * communication requests are sender/receiver [`Link`]s (protocol model,
//!   IEEE 802.11 model, distance-2 matching, SINR physical model),
//! * the physical model reads its sender-to-receiver distances from a
//!   [`LinkMetric`], built from Euclidean links or from an explicit
//!   distance matrix (the general metrics of Theorem 17),
//! * [`SpatialGrid`] accelerates neighborhood queries when building conflict
//!   graphs over thousands of nodes,
//! * [`CivilizedLayout`] models (r,s)-civilized node placements
//!   (Proposition 12).

#![warn(missing_docs)]

pub mod civilized;
pub mod disk;
pub mod grid;
pub mod link;
pub mod metric;
pub mod point;

pub use civilized::CivilizedLayout;
pub use disk::Disk;
pub use grid::SpatialGrid;
pub use link::Link;
pub use metric::LinkMetric;
pub use point::Point2D;
