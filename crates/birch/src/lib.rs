//! # walrus-birch
//!
//! A from-scratch implementation of the **pre-clustering phase of BIRCH**
//! (Zhang, Ramakrishnan, Livny; SIGMOD 1996), the clustering algorithm the
//! WALRUS paper uses to group sliding-window signatures into image regions
//! (paper §5.3).
//!
//! WALRUS's requirements, quoted from the paper, drive the scope:
//!
//! * linear time in the number of points (thousands of windows per image);
//! * a user threshold `ε_c` on the **radius** of each cluster, so windows in
//!   a cluster are guaranteed alike;
//! * cluster summaries (centroid / bounding box) usable as region
//!   signatures.
//!
//! Accordingly this crate implements:
//!
//! * [`cf`] — the clustering-feature algebra: `CF = (N, LS, SS)` with O(1)
//!   merge, centroid and radius, plus the centroid distance D0 from the BIRCH
//!   paper.
//! * [`tree`] — the CF-tree: height-balanced insertion that absorbs a point
//!   into the closest leaf entry when the merged radius stays within the
//!   threshold, leaf/node splits seeded by the farthest entry pair, and
//!   automatic threshold escalation + rebuild when a leaf-entry budget is
//!   exceeded (BIRCH's memory-bound rebuilding).
//! * [`precluster()`] — the driver WALRUS calls, over a flat row-major point
//!   matrix: fit all points, harvest leaf entries as clusters, and assign
//!   each input point to its nearest cluster so callers can recover
//!   per-cluster membership (WALRUS needs the member windows to build
//!   region bitmaps).

pub mod cf;
pub mod precluster;
pub mod tree;

pub use cf::ClusteringFeature;
pub use precluster::{precluster, precluster_flat, Cluster, Preclustering};
pub use tree::{BirchParams, CfTree};
pub use walrus_guard::{Guard, Interrupt};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BirchError {
    /// A point's dimensionality does not match the tree's.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// Invalid parameters (zero capacities, negative threshold, …).
    BadParams(String),
    /// A guarded clustering run was stopped by cancellation or deadline
    /// expiry.
    Interrupted(Interrupt),
}

impl From<Interrupt> for BirchError {
    fn from(int: Interrupt) -> Self {
        BirchError::Interrupted(int)
    }
}

impl std::fmt::Display for BirchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BirchError::DimensionMismatch { expected, got } => {
                write!(f, "point has {got} dimensions, tree expects {expected}")
            }
            BirchError::BadParams(msg) => write!(f, "bad BIRCH parameters: {msg}"),
            BirchError::Interrupted(int) => write!(f, "BIRCH pre-clustering interrupted: {int}"),
        }
    }
}

impl std::error::Error for BirchError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BirchError>;
