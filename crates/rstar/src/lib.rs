//! # walrus-rstar
//!
//! A from-scratch, in-memory **R\*-tree** (Beckmann, Kriegel, Schneider,
//! Seeger; SIGMOD 1990) over dynamic-dimension `f32` rectangles — the
//! spatial index WALRUS uses to store region signatures (paper §5.3–5.4; the
//! original used the libgist R-tree).
//!
//! WALRUS's usage pattern shapes the design:
//!
//! * region signatures are ~12-dimensional points (2×2 Haar corner × 3
//!   channels) or their cluster bounding boxes, so the tree takes its
//!   dimensionality at *runtime*; nodes live in an arena, each owning a
//!   fixed run of one coordinate slab and one value/child-id slab, so a
//!   probe reads an entry's rectangle beside its neighbours';
//! * the only queries needed are "all rectangles intersecting an
//!   ε-extended query rectangle" and "all points within L2 distance ε",
//!   plus k-nearest-neighbors for ranked retrieval; all are provided;
//! * the database builds its trees by variance-bisection packing
//!   ([`bulk_load`]) and never edits them, so the R\* heuristics —
//!   ChooseSubtree with minimum overlap enlargement at the leaf level,
//!   forced reinsertion on first overflow, and the margin-then-overlap
//!   split — serve dynamic use outside the engine; they are implemented
//!   faithfully.
//!
//! Deletion is supported with the classic condense-and-reinsert strategy.
//!
//! [`rect`] holds the geometry; [`tree`] the index. Tests cross-check every
//! query against linear scans.
//!
//! ## Example
//!
//! ```
//! use walrus_rstar::{RStarTree, Rect};
//!
//! let mut tree = RStarTree::with_dims(2)?;
//! for i in 0..100 {
//!     let p = [(i % 10) as f32, (i / 10) as f32];
//!     tree.insert(Rect::point(&p)?, i)?;
//! }
//! // ε-ball query around (4.5, 4.5).
//! let hits = tree.search_within(&[4.5, 4.5], 0.8)?;
//! assert_eq!(hits.len(), 4); // the four surrounding grid points
//! // Nearest neighbour.
//! let nearest = tree.nearest_k(&[0.2, 0.1], 1)?;
//! assert_eq!(*nearest[0].0, 0);
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
