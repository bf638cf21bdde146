//! The WALRUS image database: region index + query processing
//! (paper §5.1 "Indexing of images", §5.4 "Region Matching", §5.5 "Image
//! Matching").
//!
//! Regions of every inserted image are indexed by their signature (centroid
//! point or signature bounding box): a packed R-tree over the image table as
//! it stood at the last pack, plus the table's unpacked tail — the images
//! added since, scanned region by region with the tree's own leaf test. A
//! mutation never edits the tree; the index is repacked once the tail and
//! the removed images' entries reach 1/16 of it. A query extracts the
//! regions of the query image the same way, probes the index with the
//! querying epsilon `ε`, groups matching regions by target image, and scores
//! each candidate by quick-union matching. Images whose similarity reaches
//! the request's floor `τ` are returned ranked.
//!
//! [`QueryStats`] carries the two selectivity measures of the paper's
//! Table 1: the average number of regions retrieved per query region, and
//! the number of distinct images containing at least one matching region.

use crate::extract::{extract_batch_guarded, extract_regions, extract_regions_guarded};
use crate::matching::{self, MatchPair, QuickScratch};
use crate::params::{SignatureKind, SimilarityKind, WalrusParams};
use crate::region::Region;
use crate::scene_query::SceneRect;
use crate::{Result, WalrusError};
use std::cell::RefCell;
use walrus_guard::{Budgets, Guard, Interrupt};
use walrus_imagery::Image;
use walrus_parallel::{parallel_map_partial, resolve_threads};
use walrus_rstar::{bulk_load, RStarParams, RStarTree, SearchStats, Verdict};
use walrus_wavelet::{BinarySignature, QueryCode};

/// Extra widening applied to the prefilter's probe interval beyond the
/// query epsilon: absorbs f32 rounding in the exact distance test plus the
/// tiny centroid-outside-bbox slop BIRCH's incremental means can accrue, so
/// the popcount test can only reject candidates the exact test would also
/// reject.
const PREFILTER_SLACK: f32 = 1e-4;

/// The index is repacked once the regions it does not answer for — the
/// unpacked tail's, plus the entries of images removed since the last pack —
/// reach `1/REPACK_FRACTION` of its entries (and at least one leaf). Measured
/// on one core at the serving parameters, one shard, 128 packed images then
/// 3 500 single ingests (≈83.6 k regions): a live R\* insert cost 0.70–1.00
/// ms per image, a repack at 1/16 growth 0.25 ms amortized (52 repacks, the
/// largest 61 ms), with identical hits. At the end the packed base plus a
/// scan of its tail probed 96 queries in 342 ms, a tree grown by inserts in
/// 992 ms.
const REPACK_FRACTION: usize = 16;

thread_local! {
    /// Quick matching's union accumulators, reused from one candidate image
    /// to the next on whichever thread scores it.
    static QUICK_SCRATCH: RefCell<QuickScratch> = RefCell::new(QuickScratch::default());
}

/// A region's address in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RegionKey {
    image: usize,
    region: usize,
}

/// An indexed image: its extracted regions plus metadata.
#[derive(Debug, Clone)]
pub struct IndexedImage {
    /// Database id (stable; ids of removed images are not reused).
    pub id: usize,
    /// Caller-supplied name.
    pub name: String,
    /// Pixel width.
    pub width: usize,
    /// Pixel height.
    pub height: usize,
    /// Extracted regions.
    pub regions: Vec<Region>,
}

/// One ranked query answer.
#[derive(Debug, Clone)]
pub struct RankedImage {
    /// Database id of the matched image.
    pub image_id: usize,
    /// Its name.
    pub name: String,
    /// Similarity under the configured [`crate::params::SimilarityKind`].
    pub similarity: f64,
    /// Number of matching region pairs between query and this image.
    pub matched_pairs: usize,
}

/// The order every ranking is in: similarity descending, ties by ascending
/// id. Each image has one id, so the order is total.
pub(crate) fn rank_order(a: &RankedImage, b: &RankedImage) -> std::cmp::Ordering {
    b.similarity
        .partial_cmp(&a.similarity)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.image_id.cmp(&b.image_id))
}

/// Selectivity statistics of one query (the measures of paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Regions extracted from the query image.
    pub query_regions: usize,
    /// Total matching database regions over all query regions.
    pub total_matching_regions: usize,
    /// `total_matching_regions / query_regions` ("Avg. No. of Regions
    /// Retrieved" in Table 1).
    pub avg_regions_per_query_region: f64,
    /// Distinct database images containing ≥ 1 matching region ("No. of
    /// Distinct Images").
    pub distinct_images: usize,
}

impl QueryStats {
    /// The statistics of `total_matching_regions` hits over `distinct_images`
    /// images for a query of `query_regions` regions.
    pub(crate) fn new(
        query_regions: usize,
        total_matching_regions: usize,
        distinct_images: usize,
    ) -> Self {
        QueryStats {
            query_regions,
            total_matching_regions,
            avg_regions_per_query_region: if query_regions == 0 {
                0.0
            } else {
                total_matching_regions as f64 / query_regions as f64
            },
            distinct_images,
        }
    }
}

/// Whether a query ran to completion or was stopped early by its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultStatus {
    /// Every query region was probed and every candidate image scored.
    Complete,
    /// The request deadline expired mid-query. `matches` ranks only the
    /// candidates scored before the interrupt and `stats` counts only the
    /// completed probes: a best-so-far answer — everything reported is
    /// correctly scored and ranked, but images the query never reached are
    /// silently absent.
    Partial,
    /// One or more shards of a [`crate::sharded::ShardedStore`] were
    /// quarantined when the query ran. `matches` covers every healthy
    /// shard completely (or partially, if a deadline also fired) but
    /// images living on the listed shards are silently absent.
    Degraded {
        /// Indices of the quarantined shards that were skipped.
        shards_unavailable: Vec<usize>,
    },
}

/// Full result of a query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Images with similarity ≥ `τ`, descending by similarity (ties broken
    /// by ascending id for determinism).
    pub matches: Vec<RankedImage>,
    /// Selectivity statistics.
    pub stats: QueryStats,
    /// Whether the result is complete or a deadline-truncated prefix.
    pub status: ResultStatus,
}

/// Per-request query knobs, the shape a serving layer assembles from request
/// parameters, and what drives the one query procedure that
/// [`ImageDatabase`] and [`ShardedStore`](crate::sharded::ShardedStore)
/// share. Every field is optional; `QueryOptions::default()` is
/// [`ImageDatabase::query_guarded`] and `k: Some(k)` alone is
/// [`ImageDatabase::top_k`] — the HTTP path and the in-process path run the
/// same code, which is what lets integration tests demand bit-identical
/// rankings across the two.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryOptions {
    /// Keep only the best `k` matches.
    pub k: Option<usize>,
    /// Override of the querying epsilon `ε` for this request only.
    pub epsilon: Option<f32>,
    /// The similarity floor `τ` of Definition 4.3: only images scoring at
    /// least this are returned. Defaults to `0.0`, every image with a
    /// matched region.
    pub min_similarity: Option<f64>,
    /// Per-request resource ceilings; defaults to the database-wide
    /// [`WalrusParams::budgets`].
    pub budgets: Option<Budgets>,
    /// Query by a user-specified scene: regions are extracted from this
    /// rectangle of the query image only and images are scored by
    /// [`SimilarityKind::QueryFraction`] — the fraction of the *scene*
    /// covered by matching regions — so `min_similarity` is a coverage and
    /// must lie in `[0, 1]`. See [`crate::scene_query`].
    pub scene: Option<SceneRect>,
}

/// Owned metadata snapshot of one indexed image — the response shape lookup
/// endpoints hand out. Unlike [`IndexedImage`] it carries no region data, so
/// cloning it out from under a shared lock is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageMeta {
    /// Database id.
    pub id: usize,
    /// Caller-supplied name.
    pub name: String,
    /// Pixel width.
    pub width: usize,
    /// Pixel height.
    pub height: usize,
    /// Number of extracted regions.
    pub regions: usize,
}

/// The database.
#[derive(Debug, Clone)]
pub struct ImageDatabase {
    params: WalrusParams,
    images: Vec<Option<IndexedImage>>,
    /// Packed from the live images below `packed_slots` at the last pack, and
    /// never edited after.
    index: RStarTree<(RegionKey, BinarySignature)>,
    /// The watermark: ids only ascend, so the slots at and above it are
    /// exactly the images the index does not hold — its unpacked tail, or
    /// delta, which every probe scans.
    packed_slots: usize,
    /// Regions of the live images at or above `packed_slots`.
    delta_regions: usize,
    /// Index entries whose image was removed since the last pack.
    dead_regions: usize,
    region_count: usize,
}

impl ImageDatabase {
    /// Creates an empty database with the given engine configuration.
    pub fn new(params: WalrusParams) -> Result<Self> {
        params.validate()?;
        let index = RStarTree::with_dims(params.signature_dims())?;
        Ok(Self {
            params,
            images: Vec::new(),
            index,
            packed_slots: 0,
            delta_regions: 0,
            dead_regions: 0,
            region_count: 0,
        })
    }

    /// The engine configuration.
    pub fn params(&self) -> &WalrusParams {
        &self.params
    }

    /// Overrides the worker-thread knob ([`WalrusParams::threads`]) on an
    /// existing database. The knob is not persisted (snapshots reload as
    /// `0` = auto), and changing it never changes results — only how many
    /// workers compute them.
    pub fn set_threads(&mut self, threads: usize) {
        self.params.threads = threads;
    }

    /// Adopts the three runtime-only knobs of `from` — `threads`, `budgets`
    /// and `prefilter`, the [`WalrusParams`] fields a snapshot does not
    /// store — leaving every persisted parameter as it is. Every reopen path
    /// calls this, so what the caller asked for survives loading a snapshot.
    pub fn set_runtime_knobs(&mut self, from: &WalrusParams) -> Result<()> {
        let merged = WalrusParams {
            threads: from.threads,
            budgets: from.budgets,
            prefilter: from.prefilter,
            ..self.params
        };
        merged.validate()?;
        self.params = merged;
        Ok(())
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.images.iter().filter(|i| i.is_some()).count()
    }

    /// True when no images are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of indexed regions across all images.
    pub fn num_regions(&self) -> usize {
        self.region_count
    }

    /// Looks up an indexed image by id.
    pub fn image(&self, id: usize) -> Option<&IndexedImage> {
        self.images.get(id).and_then(|i| i.as_ref())
    }

    /// Owned metadata snapshot for an image, or `None` when the id is
    /// unknown or removed.
    pub fn image_meta(&self, id: usize) -> Option<ImageMeta> {
        self.image(id).map(|img| ImageMeta {
            id,
            name: img.name.clone(),
            width: img.width,
            height: img.height,
            regions: img.regions.len(),
        })
    }

    /// All image slots in id order; removed images appear as `None`
    /// (tombstones). Used by persistence to round-trip id assignment.
    pub fn image_slots(&self) -> &[Option<IndexedImage>] {
        &self.images
    }

    /// Appends a tombstone slot, consuming the next id without storing an
    /// image — persistence uses this to restore id stability after
    /// removals.
    pub fn insert_tombstone(&mut self) {
        self.images.push(None);
    }

    /// Extracts regions of `image` and indexes them. Returns the new id.
    pub fn insert_image(&mut self, name: &str, image: &Image) -> Result<usize> {
        let regions = extract_regions(image, &self.params)?;
        self.insert_regions(name, image.width(), image.height(), regions)
    }

    /// Batch ingest under a lifecycle [`Guard`]: extracts regions for every
    /// image **in parallel** (`params.threads` workers; see
    /// [`WalrusParams::threads`]), then indexes them in order. Returns the
    /// new ids, which are identical to what a serial
    /// [`ImageDatabase::insert_image`] loop would assign, as are all
    /// subsequent query results. The batch joins the index's unpacked tail,
    /// which is repacked at most once, at the end: a batch into an empty
    /// index is one variance-bisection pack.
    ///
    /// Ingest is **all-or-nothing**: if any image fails extraction nothing
    /// is inserted and the error reported is the first failing image's
    /// (lowest index); every guard poll happens during extraction, before
    /// the first index mutation, plus one final poll right before applying —
    /// a cancellation or deadline that lands anywhere in the batch leaves the
    /// database untouched.
    pub fn insert_images_batch_guarded(
        &mut self,
        items: &[(&str, &Image)],
        guard: &Guard,
    ) -> Result<Vec<usize>> {
        let ingest_span = guard.span("ingest");
        if let Some(s) = &ingest_span {
            s.add("images", items.len() as u64);
        }
        let extracted = extract_batch_guarded(items, &self.params, guard)?;
        let index_span = guard.span("index");
        let mut ids = Vec::with_capacity(items.len());
        for ((name, image), regions) in items.iter().zip(extracted) {
            ids.push(self.push_image(name.to_string(), image.width(), image.height(), regions)?);
        }
        let repacked = self.repack_if_due()?;
        if let Some(s) = &index_span {
            s.add("images_indexed", ids.len() as u64);
            s.add("repacks", repacked as u64);
        }
        Ok(ids)
    }

    /// Indexes pre-extracted regions (useful when the caller already ran
    /// [`extract_regions`], e.g. to reuse extraction across parameter
    /// sweeps). The regions must have been extracted with compatible
    /// parameters (same signature dimensionality).
    pub fn insert_regions(
        &mut self,
        name: &str,
        width: usize,
        height: usize,
        regions: Vec<Region>,
    ) -> Result<usize> {
        let id = self.push_image(name.to_string(), width, height, regions)?;
        self.repack_if_due()?;
        Ok(id)
    }

    /// Removes an image and all its regions from the index.
    pub fn remove_image(&mut self, id: usize) -> Result<()> {
        self.take_image(id)?;
        self.repack_if_due()?;
        Ok(())
    }

    /// Refuses regions of another signature dimensionality than the index's.
    pub(crate) fn check_dims(&self, regions: &[Region]) -> Result<()> {
        let dims = self.params.signature_dims();
        match regions.iter().find(|r| r.dims() != dims) {
            Some(r) => Err(WalrusError::BadParams(format!(
                "region has {} dims, database expects {dims}",
                r.dims()
            ))),
            None => Ok(()),
        }
    }

    /// The table half of an insert: validates, stores the image under the
    /// next id — in the index's unpacked tail — and returns it. The caller
    /// ends the mutation with one [`Self::repack_if_due`], or with one
    /// [`Self::pack_index`] after the last table change.
    pub(crate) fn push_image(
        &mut self,
        name: String,
        width: usize,
        height: usize,
        regions: Vec<Region>,
    ) -> Result<usize> {
        self.check_dims(&regions)?;
        let id = self.images.len();
        self.region_count += regions.len();
        self.delta_regions += regions.len();
        self.images.push(Some(IndexedImage { id, name, width, height, regions }));
        Ok(id)
    }

    /// The table half of a removal: empties the slot. Below the watermark
    /// the image's index entries go dead (probes drop their hits); in the
    /// unpacked tail it simply stops being scanned.
    pub(crate) fn take_image(&mut self, id: usize) -> Result<()> {
        let slot = self.images.get_mut(id).ok_or(WalrusError::UnknownImage(id))?;
        let img = slot.take().ok_or(WalrusError::UnknownImage(id))?;
        self.region_count -= img.regions.len();
        if id < self.packed_slots {
            self.dead_regions += img.regions.len();
        } else {
            self.delta_regions -= img.regions.len();
        }
        Ok(())
    }

    /// Ends every mutation: repacks the index once the unpacked tail's
    /// regions plus the dead entries reach `1/REPACK_FRACTION` of the
    /// index's entries, or one leaf when the index is smaller than that.
    /// Returns whether it repacked.
    pub(crate) fn repack_if_due(&mut self) -> Result<bool> {
        let due = (self.index.len() / REPACK_FRACTION).max(RStarParams::default().max_entries);
        if self.delta_regions + self.dead_regions < due {
            return Ok(false);
        }
        self.pack_index()?;
        Ok(true)
    }

    /// Rebuilds the index from the image table in one variance-bisection
    /// pack ([`walrus_rstar::bulk_load`]) and empties the unpacked tail —
    /// how a snapshot load and a WAL replay get their tree, and what
    /// [`Self::repack_if_due`] runs. The tree is derived state: which tree
    /// shape answers a query never shows in the answer.
    pub(crate) fn pack_index(&mut self) -> Result<()> {
        let kind = self.params.signature_kind;
        if u32::try_from(self.images.len().max(self.region_count)).is_err() {
            return Err(WalrusError::BadParams("image table too large to index".into()));
        }
        // Entry `i` of the load, as (image, region): with the loader's own
        // 8 bytes an entry, all an open holds beside the table and the tree.
        let mut entries = Vec::with_capacity(self.region_count);
        for img in self.images.iter().flatten() {
            entries.extend((0..img.regions.len() as u32).map(|ri| (img.id as u32, ri)));
        }
        // The old tree is freed before the new one is built, so a repack
        // never holds two; until the load returns, the whole table is the
        // unpacked tail, which keeps every probe exact if it fails.
        self.index = RStarTree::with_dims(self.params.signature_dims())?;
        (self.packed_slots, self.delta_regions, self.dead_regions) = (0, self.region_count, 0);
        let entry = |i: usize| {
            let (image, region) = (entries[i].0 as usize, entries[i].1 as usize);
            let img = self.images[image].as_ref().expect("listed from live slots");
            (RegionKey { image, region }, &img.regions[region])
        };
        self.index = bulk_load(
            self.params.signature_dims(),
            RStarParams::default(),
            entries.len(),
            |i| entry(i).1.index_corners(kind),
            |i| {
                let (key, region) = entry(i);
                (key, region.signature)
            },
        )?;
        (self.packed_slots, self.delta_regions) = (self.images.len(), 0);
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        Ok(())
    }

    /// Checks (for tests; panics on violation) that the index is a
    /// well-formed tree and, with its unpacked tail, accounts for every
    /// region of the image table: tree entries − dead + tail = regions.
    /// Returns the tail's region count and the dead entries.
    pub fn check_invariants(&self) -> (usize, usize) {
        self.index.check_invariants();
        assert!(self.packed_slots <= self.images.len(), "watermark past the image table");
        let tail: usize =
            self.images[self.packed_slots..].iter().flatten().map(|img| img.regions.len()).sum();
        assert_eq!(tail, self.delta_regions, "unpacked tail and image table disagree");
        assert_eq!(
            self.index.len() + self.delta_regions,
            self.region_count + self.dead_regions,
            "index and image table disagree"
        );
        (self.delta_regions, self.dead_regions)
    }

    /// Runs a full query: extract regions of `query`, match against the
    /// database, return every image with a matched region, best first.
    pub fn query(&self, query: &Image) -> Result<QueryOutcome> {
        self.query_guarded(query, &Guard::none())
    }

    /// [`ImageDatabase::query`] under a lifecycle [`Guard`].
    ///
    /// Degradation semantics: a *deadline* that expires anywhere in the
    /// pipeline yields `Ok` with [`ResultStatus::Partial`] — the best-so-far
    /// ranked answer (empty if the deadline hit during query-region
    /// extraction, before any candidate could be scored). *Cancellation* is
    /// a caller's explicit abort and always surfaces as
    /// [`WalrusError::Cancelled`]; budget breaches surface as
    /// [`WalrusError::BudgetExceeded`].
    pub fn query_guarded(&self, query: &Image, guard: &Guard) -> Result<QueryOutcome> {
        self.query_with_options_guarded(query, &QueryOptions::default(), guard)
    }

    /// Runs a query shaped by per-request [`QueryOptions`], under a
    /// lifecycle [`Guard`] (degradation semantics as described on
    /// [`ImageDatabase::query_guarded`]). Every other `query*`/`top_k` entry
    /// point is this one with some options filled in.
    pub fn query_with_options_guarded(
        &self,
        query: &Image,
        opts: &QueryOptions,
        guard: &Guard,
    ) -> Result<QueryOutcome> {
        let probe = |params: &WalrusParams, regions: &[Region], area, min_similarity| {
            self.query_regions_with_params_guarded(params, regions, area, min_similarity, 0, guard)
        };
        Ok(opts.run(&self.params, query, guard, probe)?.0)
    }

    /// Like [`ImageDatabase::query`] but with an explicit querying epsilon,
    /// overriding `params.query_epsilon` for this query only. This is how
    /// the Table 1 selectivity sweep varies `ε` without rebuilding the
    /// index (the index itself is ε-independent).
    pub fn query_with_epsilon(&self, query: &Image, epsilon: f32) -> Result<QueryOutcome> {
        let opts = QueryOptions { epsilon: Some(epsilon), ..QueryOptions::default() };
        self.query_with_options_guarded(query, &opts, &Guard::none())
    }

    /// The `k` most similar images.
    pub fn top_k(&self, query: &Image, k: usize) -> Result<Vec<RankedImage>> {
        let opts = QueryOptions { k: Some(k), ..QueryOptions::default() };
        Ok(self.query_with_options_guarded(query, &opts, &Guard::none())?.matches)
    }

    /// Queries with pre-extracted regions and an explicit similarity floor.
    /// `query_area` is the pixel count of the query image.
    pub fn query_regions(
        &self,
        q_regions: &[Region],
        query_area: usize,
        min_similarity: f64,
    ) -> Result<QueryOutcome> {
        self.query_regions_guarded(q_regions, query_area, min_similarity, &Guard::none())
    }

    /// [`ImageDatabase::query_regions`] under a lifecycle guard, with the
    /// same degradation semantics as [`ImageDatabase::query_guarded`]: a
    /// deadline yields a best-so-far [`ResultStatus::Partial`] outcome,
    /// cancellation is an error.
    pub fn query_regions_guarded(
        &self,
        q_regions: &[Region],
        query_area: usize,
        min_similarity: f64,
        guard: &Guard,
    ) -> Result<QueryOutcome> {
        self.query_regions_with_params_guarded(
            &self.params,
            q_regions,
            query_area,
            min_similarity,
            0,
            guard,
        )
    }

    /// The query body (paper §5.4–5.5) over the image slots from `from`
    /// on, which must not pass the slot count: a full query reads from 0,
    /// a cached answer's revalidation from the slot count its mark recorded.
    /// A `from` above 0 probes the packed tree only when it holds slots at
    /// or above `from`; the unpacked tail is scanned from the later of the
    /// watermark and `from`.
    pub(crate) fn query_regions_with_params_guarded(
        &self,
        params: &WalrusParams,
        q_regions: &[Region],
        query_area: usize,
        min_similarity: f64,
        from: usize,
        guard: &Guard,
    ) -> Result<QueryOutcome> {
        let threads = resolve_threads(params.threads);
        let mut partial = false;

        // Step 1 (paper §5.4): probe the index, one independent probe per
        // query region, fanned out across the pool: the packed tree, then
        // its unpacked tail entry by entry under the same prefilter and leaf
        // test, so the hits are exactly those of one tree over every live
        // region from slot `from` on. Each probe's hit list is in a
        // deterministic order: the tree's traversal, then the tail's slots.
        // Under a deadline the probe fan-out may stop early; the merge below
        // then sees only the completed probes. The probe span is opened here
        // on the orchestrating thread and its counters are order-independent
        // sums over completed probes, so traces are thread-count-invariant.
        let probe_span = guard.span("rstar_probe");
        let prefilter_on = params.prefilter_enabled();
        let slack = params.query_epsilon + PREFILTER_SLACK;
        let kind = params.signature_kind;
        let probe_out = parallel_map_partial(
            threads,
            guard,
            q_regions,
            |_, qr| -> Result<(Vec<RegionKey>, SearchStats)> {
                let probe = qr.probe(kind, params.query_epsilon)?;
                let code = prefilter_on.then(|| match kind {
                    SignatureKind::Centroid => QueryCode::around(&qr.centroid, slack),
                    SignatureKind::BoundingBox => {
                        let lo: Vec<f32> = qr.bbox_min.iter().map(|v| v - slack).collect();
                        let hi: Vec<f32> = qr.bbox_max.iter().map(|v| v + slack).collect();
                        QueryCode::from_interval(&lo, &hi)
                    }
                });
                // A full query searches the tree even while it is empty (its
                // trace counts the root visits); a later `from` only when the
                // tree holds slots at or above it, that is after a repack.
                let (mut keys, mut stats) = if from == 0 || from < self.packed_slots {
                    // The tree's own prefilter is one of two closures, so a
                    // probe of an index with no tail and no dead entries runs
                    // the straight tree search and one exact-size collect.
                    let (hits, stats) = match &code {
                        Some(code) => self.index.search_filtered_stats(&probe, |(_, sig)| {
                            !code.certainly_disjoint(sig)
                        })?,
                        None => self.index.search_filtered_stats(&probe, |_| true)?,
                    };
                    let mut keys: Vec<RegionKey> = hits.into_iter().map(|(key, _)| *key).collect();
                    // Entries of images removed since the last pack are dead,
                    // and those below `from` are not asked for.
                    if self.dead_regions > 0 || from > 0 {
                        keys.retain(|key| key.image >= from && self.images[key.image].is_some());
                    }
                    (keys, stats)
                } else {
                    (Vec::new(), SearchStats::default())
                };
                for img in self.images[from.max(self.packed_slots)..].iter().flatten() {
                    for (region, r) in img.regions.iter().enumerate() {
                        if code.as_ref().is_some_and(|code| code.certainly_disjoint(&r.signature)) {
                            stats.prefilter_rejected += 1;
                            continue;
                        }
                        stats.exact_tested += 1;
                        let (lo, hi) = r.index_corners(kind);
                        match probe.test(lo, hi) {
                            Verdict::Outside => {}
                            Verdict::Pruned => stats.pruned += 1,
                            Verdict::Hit => keys.push(RegionKey { image: img.id, region }),
                        }
                    }
                }
                Ok((keys, stats))
            },
        );
        match probe_out.interrupted {
            Some(Interrupt::Cancelled) => return Err(WalrusError::Cancelled),
            Some(Interrupt::DeadlineExceeded) => partial = true,
            None => {}
        }
        let mut probes: Vec<(usize, Vec<RegionKey>)> = Vec::with_capacity(probe_out.completed.len());
        let mut probe_stats = SearchStats::default();
        for (qi, res) in probe_out.completed {
            let (keys, stats) = res?;
            probe_stats.nodes_visited += stats.nodes_visited;
            probe_stats.pruned += stats.pruned;
            probe_stats.prefilter_rejected += stats.prefilter_rejected;
            probe_stats.exact_tested += stats.exact_tested;
            probes.push((qi, keys));
        }
        probes.sort_unstable_by_key(|(qi, _)| *qi);

        let total_hits: usize = probes.iter().map(|(_, keys)| keys.len()).sum();
        if let Some(s) = &probe_span {
            s.add("probes", probes.len() as u64);
            s.add("nodes_visited", probe_stats.nodes_visited as u64);
            s.add("pruned", probe_stats.pruned as u64);
            s.add("signatures_rejected", probe_stats.prefilter_rejected as u64);
            s.add("candidates_exact", probe_stats.exact_tested as u64);
            s.add("hits", total_hits as u64);
        }
        drop(probe_span);
        if total_hits > params.budgets.max_index_candidates {
            return Err(WalrusError::BudgetExceeded {
                what: "index candidates",
                used: total_hits,
                limit: params.budgets.max_index_candidates,
            });
        }

        // Deterministic merge: a counting sort of the hits on target image
        // id (every hit's id is in `from..images.len()`). It is stable, so an
        // image's pairs stay in (query region, hit) order and candidates
        // come out in ascending-id order, reproducible run to run.
        let mut offsets = vec![0usize; self.images.len() - from];
        for key in probes.iter().flat_map(|(_, keys)| keys) {
            offsets[key.image - from] += 1;
        }
        let mut start = 0;
        for offset in &mut offsets {
            start += std::mem::replace(offset, start);
        }
        let mut pairs = vec![MatchPair { q: 0, t: 0 }; total_hits];
        for (qi, keys) in &probes {
            for key in keys {
                pairs[offsets[key.image - from]] = MatchPair { q: *qi, t: key.region };
                offsets[key.image - from] += 1;
            }
        }
        // `offsets[id - from]` is now where image `id`'s run ends and the
        // next begins. Within a run, one query region's hits are in the order
        // the tree's traversal met them; quick matching is a union, so that
        // order reaches no score.
        let mut candidates = Vec::new();
        let mut start = 0;
        for (image_id, &end) in (from..).zip(&offsets) {
            if end > start {
                candidates.push((image_id, start..end));
            }
            start = end;
        }

        // Step 2 (paper §5.5): score each candidate image, fanned out
        // across the pool. A dead image slot would mean the index and the
        // image store desynced; that is a bug, but it degrades to an
        // impossible score (filtered below) rather than a panic inside the
        // worker pool.
        let distinct_images = candidates.len();
        let match_span = guard.span("match");
        let score_out = parallel_map_partial(threads, guard, &candidates, |_, (image_id, run)| {
            let Some(img) = self.images.get(*image_id).and_then(|s| s.as_ref()) else {
                debug_assert!(false, "index points at dead image slot {image_id}");
                return (*image_id, f64::NEG_INFINITY, 0);
            };
            let pairs = &pairs[run.clone()];
            let similarity = QUICK_SCRATCH.with_borrow_mut(|scratch| {
                matching::similarity(
                    params.similarity,
                    scratch,
                    q_regions,
                    &img.regions,
                    pairs,
                    query_area,
                    img.width * img.height,
                )
            });
            (*image_id, similarity, pairs.len())
        });
        match score_out.interrupted {
            Some(Interrupt::Cancelled) => return Err(WalrusError::Cancelled),
            Some(Interrupt::DeadlineExceeded) => partial = true,
            None => {}
        }
        let mut matches = Vec::new();
        for (_, (image_id, similarity, matched_pairs)) in score_out.completed {
            if similarity >= min_similarity {
                if let Some(img) = self.images.get(image_id).and_then(|s| s.as_ref()) {
                    matches.push(RankedImage {
                        image_id,
                        name: img.name.clone(),
                        similarity,
                        matched_pairs,
                    });
                }
            }
        }
        matches.sort_by(rank_order);
        if let Some(s) = &match_span {
            s.add("candidates", distinct_images as u64);
            s.add("matches", matches.len() as u64);
        }
        drop(match_span);

        let stats = QueryStats::new(q_regions.len(), total_hits, distinct_images);
        let status = if partial { ResultStatus::Partial } else { ResultStatus::Complete };
        Ok(QueryOutcome { matches, stats, status })
    }
}

impl QueryOptions {
    /// The query procedure (paper §5.4–5.5), written once for every engine:
    /// resolve this request's parameters, crop to the marked scene if there
    /// is one, extract the query's regions — a deadline that expires there
    /// is an empty [`ResultStatus::Partial`] answer, not an error — hand
    /// them to `probe` (one index for [`ImageDatabase`], a scatter-gather
    /// over the shards for the store) with the query's pixel area and the
    /// similarity floor, and keep the best `k`. The query's regions come
    /// back beside the outcome, for a caller that scores them again later.
    pub(crate) fn run(
        &self,
        base: &WalrusParams,
        query: &Image,
        guard: &Guard,
        probe: impl FnOnce(&WalrusParams, &[Region], usize, f64) -> Result<QueryOutcome>,
    ) -> Result<(QueryOutcome, Vec<Region>)> {
        let (params, min_similarity) = self.resolve(base)?;
        let cropped;
        let query = match self.scene {
            Some(scene) => {
                cropped = scene.crop(query, params.sliding.omega_min)?;
                &cropped
            }
            None => query,
        };
        let _query_span = guard.span("query");
        let regions = match extract_regions_guarded(query, &params, guard) {
            Ok(r) => r,
            Err(WalrusError::DeadlineExceeded) => {
                return Ok((QueryOutcome::empty_partial(), Vec::new()))
            }
            Err(e) => return Err(e),
        };
        let mut outcome = probe(&params, &regions, query.area(), min_similarity)?;
        if let Some(k) = self.k {
            outcome.matches.truncate(k);
        }
        Ok((outcome, regions))
    }

    /// Resolves this request's effective engine parameters and similarity
    /// floor against the database-wide configuration.
    pub(crate) fn resolve(&self, base: &WalrusParams) -> Result<(WalrusParams, f64)> {
        let mut params = *base;
        if let Some(epsilon) = self.epsilon {
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(WalrusError::BadParams(format!("epsilon {epsilon} invalid")));
            }
            params.query_epsilon = epsilon;
        }
        if let Some(budgets) = self.budgets {
            params.budgets = budgets;
        }
        if self.scene.is_some() {
            // Scored against the scene alone, so the target's extra content
            // does not dilute the coverage.
            params.similarity = SimilarityKind::QueryFraction;
        }
        let min_similarity = match self.min_similarity {
            Some(min) if self.scene.is_some() && !(0.0..=1.0).contains(&min) => {
                return Err(WalrusError::BadParams(format!(
                    "min_coverage {min} must be in [0, 1]"
                )));
            }
            Some(min) if !min.is_finite() => {
                return Err(WalrusError::BadParams(format!("min_similarity {min} invalid")));
            }
            Some(min) => min,
            None => 0.0,
        };
        Ok((params, min_similarity))
    }
}

impl QueryOutcome {
    /// The outcome of a query whose deadline expired before any candidate
    /// could be probed or scored: no matches, zeroed statistics,
    /// [`ResultStatus::Partial`].
    pub(crate) fn empty_partial() -> Self {
        QueryOutcome {
            matches: Vec::new(),
            stats: QueryStats::new(0, 0, 0),
            status: ResultStatus::Partial,
        }
    }

    /// This complete answer with `new` — the same query run over only the
    /// images this one never saw (see [`ShardedStore::score_since`]) —
    /// folded in: the matches merged in rank order and cut to `k`, the hit
    /// and image counts summed. Each image's score depends on that image
    /// alone, so the result is what the query returns over both image sets
    /// at once.
    ///
    /// [`ShardedStore::score_since`]: crate::sharded::ShardedStore::score_since
    pub fn splice(&self, new: QueryOutcome, k: Option<usize>) -> QueryOutcome {
        let mut matches = Vec::with_capacity(self.matches.len() + new.matches.len());
        matches.extend(self.matches.iter().cloned());
        matches.extend(new.matches);
        matches.sort_by(rank_order);
        if let Some(k) = k {
            matches.truncate(k);
        }
        let stats = QueryStats::new(
            self.stats.query_regions,
            self.stats.total_matching_regions + new.stats.total_matching_regions,
            self.stats.distinct_images + new.stats.distinct_images,
        );
        QueryOutcome { matches, stats, status: new.status }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use walrus_imagery::synth::scene::{Scene, SceneObject};
    use walrus_imagery::synth::shapes::Shape;
    use walrus_imagery::synth::texture::{Rgb, Texture};

    fn params() -> WalrusParams {
        WalrusParams {
            sliding: walrus_wavelet::SlidingParams { s: 2, omega_min: 16, omega_max: 16, stride: 8 },
            ..WalrusParams::paper_defaults()
        }
    }

    fn flower_at(cx: f32, cy: f32, scale: f32) -> Image {
        Scene::new(Texture::Solid(Rgb(0.1, 0.5, 0.15)))
            .with(SceneObject::new(
                Shape::Flower { petals: 6, core_radius: 0.3, petal_len: 0.95, petal_width: 0.22 },
                Texture::Solid(Rgb(0.85, 0.12, 0.18)),
                (cx, cy),
                scale,
            ))
            .render(64, 64)
            .unwrap()
    }

    fn blue_image() -> Image {
        Scene::new(Texture::Solid(Rgb(0.1, 0.15, 0.8))).render(64, 64).unwrap()
    }

    #[test]
    fn empty_database_query() {
        let db = ImageDatabase::new(params()).unwrap();
        let out = db.query(&flower_at(0.5, 0.5, 0.5)).unwrap();
        assert!(out.matches.is_empty());
        assert_eq!(out.stats.distinct_images, 0);
        assert!(out.stats.query_regions > 0);
        assert_eq!(out.stats.avg_regions_per_query_region, 0.0);
    }

    #[test]
    fn identical_image_is_top_match() {
        let mut db = ImageDatabase::new(params()).unwrap();
        let q = flower_at(0.5, 0.5, 0.5);
        db.insert_image("same", &q).unwrap();
        db.insert_image("blue", &blue_image()).unwrap();
        let top = db.top_k(&q, 2).unwrap();
        assert!(!top.is_empty());
        assert_eq!(top[0].name, "same");
        assert!(top[0].similarity > 0.9, "self-similarity {}", top[0].similarity);
    }

    #[test]
    fn translated_flower_found_blue_not() {
        // The headline WALRUS property.
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("moved", &flower_at(0.3, 0.35, 0.5)).unwrap();
        db.insert_image("blue", &blue_image()).unwrap();
        let q = flower_at(0.65, 0.6, 0.5);
        let top = db.top_k(&q, 2).unwrap();
        assert!(!top.is_empty());
        assert_eq!(top[0].name, "moved");
        let blue = top.iter().find(|r| r.name == "blue");
        if let Some(b) = blue {
            assert!(top[0].similarity > b.similarity);
        }
    }

    #[test]
    fn tau_filters_matches() {
        let mut db = ImageDatabase::new(params()).unwrap();
        let q = flower_at(0.5, 0.5, 0.5);
        db.insert_image("same", &q).unwrap();
        db.insert_image("different", &flower_at(0.3, 0.3, 0.25)).unwrap();
        let opts = QueryOptions { min_similarity: Some(0.95), ..QueryOptions::default() };
        let out = db.query_with_options_guarded(&q, &opts, &Guard::none()).unwrap();
        // Only the (near-)identical image clears τ = 0.95.
        assert!(out.matches.iter().all(|m| m.similarity >= 0.95));
        assert!(out.matches.iter().any(|m| m.name == "same"));
    }

    #[test]
    fn stats_reflect_selectivity() {
        let mut db = ImageDatabase::new(params()).unwrap();
        for i in 0..4 {
            db.insert_image(&format!("f{i}"), &flower_at(0.4 + 0.05 * i as f32, 0.5, 0.5)).unwrap();
        }
        db.insert_image("blue", &blue_image()).unwrap();
        let out = db.query(&flower_at(0.5, 0.5, 0.5)).unwrap();
        assert!(out.stats.query_regions >= 1);
        assert!(out.stats.distinct_images >= 4, "flowers should all match");
        assert!(out.stats.avg_regions_per_query_region > 0.0);
        assert_eq!(
            out.stats.avg_regions_per_query_region,
            out.stats.total_matching_regions as f64 / out.stats.query_regions as f64
        );
    }

    #[test]
    fn larger_epsilon_retrieves_more() {
        // Table 1's monotone trend.
        let build = |eps: f32| {
            let mut db = ImageDatabase::new(WalrusParams { query_epsilon: eps, ..params() }).unwrap();
            for i in 0..5 {
                db.insert_image(&format!("f{i}"), &flower_at(0.35 + 0.06 * i as f32, 0.5, 0.4)).unwrap();
            }
            db.insert_image("blue", &blue_image()).unwrap();
            db.query(&flower_at(0.5, 0.5, 0.5)).unwrap().stats
        };
        let tight = build(0.02);
        let loose = build(0.3);
        assert!(loose.total_matching_regions >= tight.total_matching_regions);
        assert!(loose.distinct_images >= tight.distinct_images);
    }

    #[test]
    fn remove_image_unindexes_it() {
        let mut db = ImageDatabase::new(params()).unwrap();
        let q = flower_at(0.5, 0.5, 0.5);
        let id = db.insert_image("same", &q).unwrap();
        db.insert_image("other", &flower_at(0.4, 0.4, 0.5)).unwrap();
        assert_eq!(db.len(), 2);
        let regions_before = db.num_regions();
        db.remove_image(id).unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.num_regions() < regions_before);
        assert!(db.image(id).is_none());
        let top = db.top_k(&q, 5).unwrap();
        assert!(top.iter().all(|m| m.image_id != id));
        // Double removal errors.
        assert!(matches!(db.remove_image(id), Err(WalrusError::UnknownImage(_))));
        assert!(matches!(db.remove_image(99), Err(WalrusError::UnknownImage(99))));
    }

    #[test]
    fn bounding_box_signatures_also_work() {
        let mut db = ImageDatabase::new(WalrusParams {
            signature_kind: SignatureKind::BoundingBox,
            ..params()
        })
        .unwrap();
        let q = flower_at(0.5, 0.5, 0.5);
        db.insert_image("same", &q).unwrap();
        db.insert_image("blue", &blue_image()).unwrap();
        let top = db.top_k(&q, 1).unwrap();
        assert_eq!(top[0].name, "same");
        assert!(top[0].similarity > 0.9);
    }

    #[test]
    fn batch_insert_matches_serial_inserts() {
        let images: Vec<(String, Image)> = (0..5)
            .map(|i| (format!("f{i}"), flower_at(0.3 + 0.08 * i as f32, 0.5, 0.45)))
            .collect();
        let items: Vec<(&str, &Image)> =
            images.iter().map(|(n, i)| (n.as_str(), i)).collect();

        let mut serial = ImageDatabase::new(params()).unwrap();
        for (name, img) in &images {
            serial.insert_image(name, img).unwrap();
        }
        for threads in [1usize, 4] {
            let mut batch = ImageDatabase::new(WalrusParams { threads, ..params() }).unwrap();
            let ids = batch.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
            assert_eq!(ids, vec![0, 1, 2, 3, 4]);
            assert_eq!(batch.len(), serial.len());
            assert_eq!(batch.num_regions(), serial.num_regions());
            let q = flower_at(0.5, 0.5, 0.45);
            let a = serial.top_k(&q, 5).unwrap();
            let b = batch.top_k(&q, 5).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.image_id, y.image_id);
                assert_eq!(x.name, y.name);
                assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "threads={threads}");
                assert_eq!(x.matched_pairs, y.matched_pairs);
            }
        }
    }

    #[test]
    fn batch_insert_extends_nonempty_index() {
        // Second batch exercises the incremental path (index non-empty).
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("first", &blue_image()).unwrap();
        let a = flower_at(0.5, 0.5, 0.5);
        let b = flower_at(0.3, 0.35, 0.4);
        let ids = db.insert_images_batch_guarded(&[("a", &a), ("b", &b)], &Guard::none()).unwrap();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(db.len(), 3);
        let top = db.top_k(&a, 1).unwrap();
        assert_eq!(top[0].name, "a");
        // Removal still works on batch-inserted images.
        db.remove_image(1).unwrap();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn batch_insert_is_atomic_on_extraction_failure() {
        let mut db = ImageDatabase::new(params()).unwrap();
        let good = flower_at(0.5, 0.5, 0.5);
        let tiny = Scene::new(Texture::Solid(Rgb(0.5, 0.5, 0.5))).render(4, 4).unwrap();
        let err =
            db.insert_images_batch_guarded(&[("good", &good), ("tiny", &tiny)], &Guard::none());
        assert!(err.is_err());
        assert_eq!(db.len(), 0, "no partial batch visible");
        assert_eq!(db.num_regions(), 0);
        assert!(db.index.is_empty());
        assert_eq!(db.check_invariants(), (0, 0));
    }

    #[test]
    fn parallel_query_identical_to_serial() {
        let build = |threads: usize| {
            let mut db = ImageDatabase::new(WalrusParams { threads, ..params() }).unwrap();
            for i in 0..6 {
                db.insert_image(&format!("f{i}"), &flower_at(0.3 + 0.07 * i as f32, 0.5, 0.45))
                    .unwrap();
            }
            db.insert_image("blue", &blue_image()).unwrap();
            db
        };
        let serial = build(1);
        let q = flower_at(0.5, 0.5, 0.45);
        let base = serial.query(&q).unwrap();
        for threads in [2usize, 8] {
            let par_db = build(threads);
            let out = par_db.query(&q).unwrap();
            assert_eq!(out.stats, base.stats, "threads={threads}");
            assert_eq!(out.matches.len(), base.matches.len());
            for (x, y) in out.matches.iter().zip(&base.matches) {
                assert_eq!(x.image_id, y.image_id);
                assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "threads={threads}");
                assert_eq!(x.matched_pairs, y.matched_pairs);
            }
        }
    }

    #[test]
    fn insert_regions_dimension_check() {
        let mut db = ImageDatabase::new(params()).unwrap();
        let bad = Region::new(
            vec![0.0; 5],
            vec![0.0; 5],
            vec![0.0; 5],
            crate::bitmap::RegionBitmap::new(64, 64, 16),
            1,
        );
        assert!(db.insert_regions("bad", 64, 64, vec![bad]).is_err());
    }

    #[test]
    fn unguarded_queries_report_complete() {
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("a", &flower_at(0.5, 0.5, 0.5)).unwrap();
        let out = db.query(&flower_at(0.5, 0.5, 0.5)).unwrap();
        assert_eq!(out.status, ResultStatus::Complete);
        let out = db.query_guarded(&flower_at(0.5, 0.5, 0.5), &Guard::none()).unwrap();
        assert_eq!(out.status, ResultStatus::Complete);
        assert!(!out.matches.is_empty());
    }

    #[test]
    fn expired_deadline_query_returns_empty_partial() {
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("a", &flower_at(0.5, 0.5, 0.5)).unwrap();
        // A deadline that already passed: extraction trips on its first
        // poll, and the query degrades to an empty Partial outcome.
        let guard = Guard::with_timeout(std::time::Duration::ZERO);
        let out = db.query_guarded(&flower_at(0.5, 0.5, 0.5), &guard).unwrap();
        assert_eq!(out.status, ResultStatus::Partial);
        assert!(out.matches.is_empty());
        assert_eq!(out.stats.query_regions, 0);
    }

    #[test]
    fn cancelled_query_is_an_error_not_partial() {
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("a", &flower_at(0.5, 0.5, 0.5)).unwrap();
        let token = walrus_guard::CancelToken::new();
        token.cancel();
        let guard = Guard::with_token(token);
        match db.query_guarded(&flower_at(0.5, 0.5, 0.5), &guard) {
            Err(WalrusError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn candidate_budget_enforced_at_probe_merge() {
        let mut db = ImageDatabase::new(params()).unwrap();
        for i in 0..4 {
            db.insert_image(&format!("f{i}"), &flower_at(0.4 + 0.05 * i as f32, 0.5, 0.5))
                .unwrap();
        }
        let q = flower_at(0.5, 0.5, 0.5);
        let hits = db.query(&q).unwrap().stats.total_matching_regions;
        assert!(hits >= 2);
        db.params.budgets.max_index_candidates = hits - 1;
        match db.query(&q) {
            Err(WalrusError::BudgetExceeded { what, used, limit }) => {
                assert_eq!(what, "index candidates");
                assert_eq!(used, hits);
                assert_eq!(limit, hits - 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_batch_ingest_leaves_database_untouched() {
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("pre", &blue_image()).unwrap();
        let regions_before = db.num_regions();
        let a = flower_at(0.5, 0.5, 0.5);
        let b = flower_at(0.3, 0.35, 0.4);
        let token = walrus_guard::CancelToken::new();
        token.cancel();
        let guard = Guard::with_token(token);
        match db.insert_images_batch_guarded(&[("a", &a), ("b", &b)], &guard) {
            Err(WalrusError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(db.len(), 1, "cancelled batch must not insert");
        assert_eq!(db.num_regions(), regions_before);
        assert_eq!(db.image_slots().len(), 1);
    }

    #[test]
    fn tripped_serial_query_yields_ranked_prefix() {
        // threads = 1 makes partial results an exact prefix: with the trip
        // armed after the probes, scoring stops after a deterministic number
        // of candidates and the reported ranking is the ranking of exactly
        // those candidates.
        let mut db = ImageDatabase::new(WalrusParams { threads: 1, ..params() }).unwrap();
        for i in 0..6 {
            db.insert_image(&format!("f{i}"), &flower_at(0.3 + 0.07 * i as f32, 0.5, 0.45))
                .unwrap();
        }
        let q = flower_at(0.5, 0.5, 0.45);
        let q_regions = extract_regions(&q, db.params()).unwrap();
        let full = db.query_regions(&q_regions, q.area(), 0.0).unwrap();
        assert_eq!(full.status, ResultStatus::Complete);
        assert!(full.stats.distinct_images >= 3);

        // Allow every probe poll plus two scoring polls, then trip as a
        // deadline: exactly two candidates (ids 0 and 1, ascending order)
        // get scored.
        let polls = q_regions.len() + 2;
        let guard = Guard::none().trip_after(polls, Interrupt::DeadlineExceeded);
        let part = db
            .query_regions_with_params_guarded(db.params(), &q_regions, q.area(), 0.0, 0, &guard)
            .unwrap();
        assert_eq!(part.status, ResultStatus::Partial);
        assert_eq!(part.stats.total_matching_regions, full.stats.total_matching_regions);
        assert_eq!(part.matches.len(), 2);
        let mut expect: Vec<RankedImage> = full
            .matches
            .iter()
            .filter(|m| m.image_id < 2)
            .cloned()
            .collect();
        expect.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.image_id.cmp(&b.image_id))
        });
        for (got, want) in part.matches.iter().zip(&expect) {
            assert_eq!(got.image_id, want.image_id);
            assert_eq!(got.similarity.to_bits(), want.similarity.to_bits());
        }
    }

    /// Everything a query answer says, bit for bit.
    fn fingerprint(out: &QueryOutcome) -> (Vec<(usize, u64, usize)>, QueryStats, ResultStatus) {
        let matches =
            out.matches.iter().map(|m| (m.image_id, m.similarity.to_bits(), m.matched_pairs));
        (matches.collect(), out.stats, out.status.clone())
    }

    #[test]
    fn unpacked_tail_and_dead_entries_answer_like_a_packed_index() {
        // A seeded run of single inserts, batches and removals. After every
        // step: the accounting holds, a repack fired exactly when the step
        // crossed the threshold, and every answer equals a packed copy's.
        let images: Vec<Image> = (0..24)
            .map(|i| match i % 5 {
                4 => blue_image(),
                _ => {
                    let t = i as f32;
                    flower_at(0.3 + 0.017 * t, 0.35 + 0.012 * t, 0.35 + 0.02 * (i % 4) as f32)
                }
            })
            .collect();
        for kind in [SignatureKind::Centroid, SignatureKind::BoundingBox] {
            let params = WalrusParams { signature_kind: kind, query_epsilon: 0.12, ..params() };
            let queries: Vec<Vec<Region>> = [flower_at(0.5, 0.5, 0.45), blue_image()]
                .iter()
                .map(|q| extract_regions(q, &params).unwrap())
                .collect();
            let mut db = ImageDatabase::new(params).unwrap();
            let mut state = 0x5EED_u64;
            let mut below = |n: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            let (mut next, mut live) = (0, Vec::new());
            let (mut repacks, mut saw_tail, mut saw_dead) = (0, false, false);
            while next < images.len() {
                let tree_before = db.index.len();
                // The tail and the dead entries as they stand after the step
                // if it does not repack.
                let (mut tail, mut dead) = db.check_invariants();
                match below(4) {
                    0 if !live.is_empty() => {
                        let id = live.swap_remove(below(live.len()));
                        let regions = db.image(id).unwrap().regions.len();
                        if id < db.packed_slots {
                            dead += regions;
                        } else {
                            tail -= regions;
                        }
                        db.remove_image(id).unwrap();
                    }
                    1 => {
                        let batch = next..(next + 2 + below(2)).min(images.len());
                        let names: Vec<String> = batch.clone().map(|i| format!("i{i}")).collect();
                        let items: Vec<(&str, &Image)> =
                            names.iter().map(String::as_str).zip(&images[batch.clone()]).collect();
                        let ids = db.insert_images_batch_guarded(&items, &Guard::none()).unwrap();
                        for &id in &ids {
                            tail += db.image(id).unwrap().regions.len();
                        }
                        live.extend(ids);
                        next = batch.end;
                    }
                    _ => {
                        let id = db.insert_image(&format!("i{next}"), &images[next]).unwrap();
                        tail += db.image(id).unwrap().regions.len();
                        live.push(id);
                        next += 1;
                    }
                }
                let due = (tree_before / REPACK_FRACTION).max(RStarParams::default().max_entries);
                let after = db.check_invariants();
                if tail + dead >= due {
                    assert_eq!(after, (0, 0), "{kind:?}: crossing {due} must repack");
                    assert_eq!(db.packed_slots, db.images.len());
                    assert_eq!(db.index.len(), db.num_regions());
                    repacks += 1;
                } else {
                    assert_eq!(after, (tail, dead), "{kind:?}: below {due} nothing repacks");
                    assert_eq!(db.index.len(), tree_before);
                }
                saw_tail |= after.0 > 0;
                saw_dead |= after.1 > 0;

                let packed = persist::load(&persist::save(&db)).unwrap();
                assert_eq!(packed.check_invariants(), (0, 0));
                for q in &queries {
                    assert_eq!(
                        fingerprint(&db.query_regions(q, 64 * 64, 0.0).unwrap()),
                        fingerprint(&packed.query_regions(q, 64 * 64, 0.0).unwrap()),
                        "{kind:?}: tail {after:?}"
                    );
                }
            }
            // The tail's first slot is the watermark itself.
            let id = db.insert_image("edge", &blue_image()).unwrap();
            assert_eq!(db.packed_slots, id, "{kind:?}: the edge image must land in the tail");
            let (tail, dead) = db.check_invariants();
            let regions = db.image(id).unwrap().regions.len();
            db.remove_image(id).unwrap();
            assert_eq!(db.check_invariants(), (tail - regions, dead));
            assert!(repacks >= 2, "{kind:?}: only {repacks} repack(s)");
            assert!(saw_tail && saw_dead, "{kind:?}: tail seen {saw_tail}, dead seen {saw_dead}");
        }
    }

    #[test]
    fn results_sorted_descending() {
        let mut db = ImageDatabase::new(params()).unwrap();
        for i in 0..6 {
            db.insert_image(&format!("f{i}"), &flower_at(0.3 + 0.07 * i as f32, 0.5, 0.45)).unwrap();
        }
        let out = db.query(&flower_at(0.5, 0.5, 0.45)).unwrap();
        for w in out.matches.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }
}
