//! # walrus-rstar
//!
//! A from-scratch, in-memory R-tree over dynamic-dimension `f32`
//! rectangles — the spatial index WALRUS uses to store region signatures
//! (paper §5.3–5.4; the original used the libgist R-tree).
//!
//! WALRUS's usage pattern shapes the design:
//!
//! * region signatures are ~12-dimensional points (2×2 Haar corner × 3
//!   channels) or their cluster bounding boxes, so the tree takes its
//!   dimensionality at *runtime*; nodes live in an arena, each owning a
//!   fixed run of one coordinate slab and one value/child-id slab, so a
//!   probe reads an entry's rectangle beside its neighbours';
//! * the only query the paper needs is "every database region within ε of
//!   a query region". A [`Probe`] states it — an ε-ball around a point
//!   ([`Probe::within`]) or an ε-extended box ([`Probe::intersecting`]) —
//!   and [`RStarTree::search_filtered_stats`] answers it;
//! * the database builds its trees by variance-bisection packing
//!   ([`bulk_load`]) and never edits them: it repacks instead. The R\*
//!   insertion heuristics — ChooseSubtree with minimum overlap enlargement
//!   at the leaf level, forced reinsertion on first overflow, and the
//!   margin-then-overlap split — serve dynamic use outside the engine; they
//!   are implemented faithfully. Nothing is ever deleted from a tree.
//!
//! [`rect`] holds the geometry; [`tree`] the index. Tests cross-check every
//! search against linear scans.
//!
//! ## Example
//!
//! ```
//! use walrus_rstar::{bulk_load, Probe, RStarParams};
//!
//! let points: Vec<[f32; 2]> = (0..100).map(|i| [(i % 10) as f32, (i / 10) as f32]).collect();
//! let corners = |i: usize| (&points[i][..], &points[i][..]);
//! let tree = bulk_load(2, RStarParams::default(), points.len(), corners, |i| i)?;
//! // ε-ball query around (4.5, 4.5).
//! let mut ids = Vec::new();
//! let probe = Probe::within(&[4.5, 4.5], 0.8)?;
//! let stats = tree.search_filtered_stats(&probe, |_| true, |id| ids.push(*id))?;
//! ids.sort_unstable();
//! assert_eq!(ids, [44, 45, 54, 55]); // the four surrounding grid points
//! assert!(stats.nodes_visited >= 2);
//! # Ok::<(), walrus_rstar::RStarError>(())
//! ```

pub mod bulk;
pub mod rect;
pub mod tree;

pub use bulk::bulk_load;
pub use rect::Rect;
pub use tree::{Probe, RStarParams, RStarTree, SearchStats, Verdict};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum RStarError {
    /// A rectangle's dimensionality does not match the tree's.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Offending dimensionality.
        got: usize,
    },
    /// Invalid rectangle: `min[d] > max[d]`, NaN coordinate, or mismatched
    /// min/max lengths.
    InvalidRect(String),
    /// Invalid tree parameters.
    BadParams(String),
}

impl std::fmt::Display for RStarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RStarError::DimensionMismatch { expected, got } => {
                write!(f, "rectangle has {got} dimensions, tree expects {expected}")
            }
            RStarError::InvalidRect(msg) => write!(f, "invalid rectangle: {msg}"),
            RStarError::BadParams(msg) => write!(f, "bad R*-tree parameters: {msg}"),
        }
    }
}

impl std::error::Error for RStarError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RStarError>;
