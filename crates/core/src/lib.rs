//! # walrus-core
//!
//! The WALRUS similarity retrieval engine (Natsev, Rastogi, Shim; SIGMOD
//! 1999): region-based content-based image retrieval that is robust to
//! translation and scaling of objects *within* images.
//!
//! ## Pipeline (paper §5.1)
//!
//! 1. **Signatures for sliding windows** — `walrus-wavelet`'s
//!    dynamic-programming sweep produces an `s×s` Haar lowest-band signature
//!    per channel for every dyadic window (paper §5.2).
//! 2. **Clustering** — `walrus-birch` pre-clusters the window signatures
//!    with radius threshold `ε_c`; each cluster is a *region* whose
//!    signature is the cluster centroid (or the bounding box of member
//!    signatures) and whose spatial extent is a coarse pixel bitmap
//!    ([`bitmap::RegionBitmap`], paper §5.3).
//! 3. **Region matching** — all database regions are indexed in a
//!    `walrus-rstar` R\*-tree; a query probes it for regions within `ε`
//!    (paper §5.4).
//! 4. **Image matching** — matched region pairs are combined into a similar
//!    region pair set and scored by Definition 4.3 ([`matching`], paper
//!    §5.5): the fast quick-union metric, the `O(n²)` greedy one-to-one
//!    heuristic, or the exact (exponential; the problem is NP-hard,
//!    Theorem 5.1) optimum for small pair counts.
//!
//! ## Entry points
//!
//! * [`extract::extract_regions`] — image → regions.
//! * [`database::ImageDatabase`] — index images, run queries, get the
//!   selectivity statistics of the paper's Table 1.
//! * [`sharded::ShardedStore`] — the same engine made durable: 1..64
//!   crash-safe shards ([`recovery::DurableDatabase`]) behind one manifest.
//! * [`params::WalrusParams`] — every knob the paper exposes, with the
//!   paper's §6.4 values as [`params::WalrusParams::paper_defaults`].
//!
//! ## Example
//!
//! ```
//! use walrus_core::{ImageDatabase, WalrusParams};
//! use walrus_imagery::{ColorSpace, Image};
//! use walrus_wavelet::SlidingParams;
//!
//! // Small windows for a small example image.
//! let params = WalrusParams {
//!     sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
//!     ..WalrusParams::paper_defaults()
//! };
//! let mut db = ImageDatabase::new(params)?;
//!
//! // A red-left/green-right image and an all-blue one.
//! let two_tone = Image::from_fn(64, 64, ColorSpace::Rgb, |x, _, c| {
//!     match (x < 32, c) {
//!         (true, 0) | (false, 1) => 0.9,
//!         _ => 0.1,
//!     }
//! })?;
//! let blue = Image::from_fn(64, 64, ColorSpace::Rgb, |_, _, c| if c == 2 { 0.9 } else { 0.1 })?;
//! db.insert_image("two_tone", &two_tone)?;
//! db.insert_image("blue", &blue)?;
//!
//! // Querying with the two-tone image ranks it first with similarity ~1.
//! let top = db.top_k(&two_tone, 1)?;
//! assert_eq!(top[0].name, "two_tone");
//! assert!(top[0].similarity > 0.99);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bitmap;
pub mod crc32;
pub mod database;
pub mod extract;
pub mod matching;
pub mod params;
pub mod persist;
pub mod recovery;
pub mod refine;
pub mod region;
pub mod scene_query;
pub mod sharded;
pub mod storage;
pub mod store;
pub mod viz;
pub mod wal;

pub use database::{
    ImageDatabase, ImageMeta, QueryOptions, QueryOutcome, QueryStats, RankedImage, ResultStatus,
};
pub use extract::{extract_regions, extract_regions_guarded, extract_regions_with_threads};
pub use params::{MatchingKind, SignatureKind, SimilarityKind, WalrusParams};
pub use recovery::{scrub_dir, DirScrub, DurableDatabase, RecoveryReport};
pub use region::Region;
pub use sharded::{
    scrub_store, Manifest, Migration, MigrationState, RebalanceReport, ShardRecovery, ShardRepair,
    ShardScrub, ShardedStore,
};
pub use storage::{DiskIo, StorageIo};
pub use store::{RebalanceStatus, ShardCheckpoint, ShardHealth};
pub use walrus_guard::{
    monotonic, Budgets, CancelToken, Clock, Deadline, Guard, Interrupt, MonotonicClock,
    RetryPolicy, SharedClock, Span, TestClock, TraceContext, TraceReport,
};
pub use walrus_wavelet::SlidingParams;

/// Errors produced by this crate.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm so the
/// engine can grow new failure classes (as this revision does with the
/// lifecycle variants) without breaking callers.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalrusError {
    /// Underlying image error.
    Image(walrus_imagery::ImageError),
    /// Underlying wavelet error.
    Wavelet(walrus_wavelet::WaveletError),
    /// Underlying clustering error.
    Birch(walrus_birch::BirchError),
    /// Underlying index error.
    Index(walrus_rstar::RStarError),
    /// Invalid engine parameters.
    BadParams(String),
    /// The referenced image id is not in the database.
    UnknownImage(usize),
    /// An underlying storage operation failed (the durable state on disk is
    /// unchanged or recoverable; retrying or re-opening is safe). `context`
    /// names the file/operation that failed when known.
    Io {
        /// What was being done to which path, e.g. `"append to …/walrus.wal"`;
        /// empty when the error was converted without context.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Stored bytes (snapshot or write-ahead log) failed validation: bad
    /// magic, checksum mismatch, torn structure, or an impossible value.
    Corrupt(String),
    /// The request's deadline passed before the operation completed. Query
    /// entry points downgrade this to a [`ResultStatus::Partial`] outcome
    /// where the paper's semantics allow a best-so-far answer.
    DeadlineExceeded,
    /// The request was cancelled through its [`CancelToken`].
    Cancelled,
    /// A per-request [`Budgets`] ceiling was exceeded.
    BudgetExceeded {
        /// Which budget tripped (e.g. `"decoded pixels"`).
        what: &'static str,
        /// The amount the request needed.
        used: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The operation needed a shard that is quarantined (its storage
    /// failed or its log is damaged). Queries degrade around a quarantined
    /// shard; mutations are refused with this error until the shard is
    /// repaired (`walrus recover <db> --shard <i>`) and the store reopened.
    ShardUnavailable {
        /// Index of the quarantined shard.
        shard: usize,
    },
    /// The store is migrating to a new shard layout (`walrus rebalance`).
    /// Queries keep answering from the source layout; mutations and
    /// checkpoints are shed with this error until the migration commits.
    Rebalancing,
}

impl std::fmt::Display for WalrusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalrusError::Image(e) => write!(f, "image error: {e}"),
            WalrusError::Wavelet(e) => write!(f, "wavelet error: {e}"),
            WalrusError::Birch(e) => write!(f, "clustering error: {e}"),
            WalrusError::Index(e) => write!(f, "index error: {e}"),
            WalrusError::BadParams(msg) => write!(f, "bad parameters: {msg}"),
            WalrusError::UnknownImage(id) => write!(f, "unknown image id {id}"),
            WalrusError::Io { context, source } if context.is_empty() => {
                write!(f, "io error: {source}")
            }
            WalrusError::Io { context, source } => write!(f, "io error ({context}): {source}"),
            WalrusError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            WalrusError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            WalrusError::Cancelled => write!(f, "request cancelled"),
            WalrusError::BudgetExceeded { what, used, limit } => {
                write!(f, "resource budget exceeded: {what} {used} > limit {limit}")
            }
            WalrusError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is quarantined; repair and reopen to restore writes")
            }
            WalrusError::Rebalancing => {
                write!(f, "store is rebalancing to a new shard layout; retry once it commits")
            }
        }
    }
}

impl std::error::Error for WalrusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalrusError::Image(e) => Some(e),
            WalrusError::Wavelet(e) => Some(e),
            WalrusError::Birch(e) => Some(e),
            WalrusError::Index(e) => Some(e),
            WalrusError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<walrus_imagery::ImageError> for WalrusError {
    fn from(e: walrus_imagery::ImageError) -> Self {
        WalrusError::Image(e)
    }
}

impl From<walrus_wavelet::WaveletError> for WalrusError {
    fn from(e: walrus_wavelet::WaveletError) -> Self {
        // Interrupts keep their identity across the crate boundary so every
        // `?` site in the pipeline surfaces Cancelled/DeadlineExceeded
        // directly instead of a wrapped wavelet error.
        match e {
            walrus_wavelet::WaveletError::Interrupted(int) => WalrusError::from(int),
            other => WalrusError::Wavelet(other),
        }
    }
}

impl From<walrus_birch::BirchError> for WalrusError {
    fn from(e: walrus_birch::BirchError) -> Self {
        match e {
            walrus_birch::BirchError::Interrupted(int) => WalrusError::from(int),
            other => WalrusError::Birch(other),
        }
    }
}

impl From<walrus_rstar::RStarError> for WalrusError {
    fn from(e: walrus_rstar::RStarError) -> Self {
        WalrusError::Index(e)
    }
}

impl From<std::io::Error> for WalrusError {
    fn from(e: std::io::Error) -> Self {
        WalrusError::Io { context: String::new(), source: e }
    }
}

impl From<Interrupt> for WalrusError {
    fn from(int: Interrupt) -> Self {
        match int {
            Interrupt::Cancelled => WalrusError::Cancelled,
            Interrupt::DeadlineExceeded => WalrusError::DeadlineExceeded,
        }
    }
}

impl WalrusError {
    /// Wraps an IO error with "what was being done to which path" context;
    /// use as `.map_err(WalrusError::io_context("read snapshot", &path))`.
    pub fn io_context(
        action: &str,
        path: &std::path::Path,
    ) -> impl FnOnce(std::io::Error) -> WalrusError {
        let context = format!("{action} {}", path.display());
        move |source| WalrusError::Io { context, source }
    }

    /// True for the two interrupt variants.
    pub fn is_interrupt(&self) -> bool {
        matches!(self, WalrusError::DeadlineExceeded | WalrusError::Cancelled)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WalrusError>;
