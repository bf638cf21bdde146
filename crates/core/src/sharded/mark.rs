//! What an answer was computed over, and how to bring it up to date.
//!
//! A query's answer is built per target image (paper §5.4–5.5): the probe
//! finds the database regions within `ε` of each query region, and each
//! target image with a matching region is scored from its own pairs alone.
//! So committing an image can add at most one entry to a ranking and never
//! changes another image's score. [`ShardedStore::content_mark`] records
//! enough of the store to tell whether *only* inserts happened since, and
//! each shard's image-slot count; [`ShardedStore::score_since`] then runs
//! the shard query from those slots on, over the images committed after the
//! mark and nothing else. [`QueryOutcome::splice`] folds that into the
//! earlier answer.

use super::{read, ShardSlot, ShardedStore};
use crate::bitmap::RegionBitmap;
use crate::database::{QueryOptions, QueryOutcome};
use crate::params::{SignatureKind, WalrusParams};
use crate::region::Region;
use crate::Result;
use std::sync::atomic::Ordering;
use walrus_guard::Guard;

/// One shard's part of a [`ContentMark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardMark {
    healthy: bool,
    /// Moves whenever the shard's slot is replaced: quarantine, recovery.
    generation: u64,
    last_lsn: u64,
    /// The shard's image-slot count. Ids reach a shard in ascending order,
    /// so every image committed after the mark sits at or above it.
    slots: usize,
    last_removal_lsn: u64,
}

impl ShardMark {
    fn of(generation: u64, slot: &ShardSlot) -> Self {
        match slot {
            ShardSlot::Healthy(db) => ShardMark {
                healthy: true,
                generation,
                last_lsn: db.last_lsn(),
                slots: db.db().image_slots().len(),
                last_removal_lsn: db.last_removal_lsn(),
            },
            ShardSlot::Quarantined { .. } => ShardMark {
                healthy: false,
                generation,
                last_lsn: 0,
                slots: 0,
                last_removal_lsn: 0,
            },
        }
    }

    /// True when a healthy shard marked `was` can have become this one by
    /// inserts alone.
    fn grew_from(&self, was: &ShardMark) -> bool {
        was.healthy
            && self.healthy
            && was.generation == self.generation
            && was.last_removal_lsn == self.last_removal_lsn
            && was.slots <= self.slots
    }
}

/// The store's queryable content at one instant, as far as an answer can
/// tell: the layout epoch, the rebalancing flag, the shard count, and per
/// shard its health, slot generation, last LSN, image-slot high-water and
/// last removal's LSN. A checkpoint moves none of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentMark {
    epoch: u64,
    rebalancing: bool,
    shards: Vec<ShardMark>,
}

impl ContentMark {
    /// The store's content stamp at this mark
    /// ([`ShardedStore::content_stamp`]): an FNV-1a 64 fold of every field.
    pub fn stamp(&self) -> u64 {
        fn fold(hash: u64, value: u64) -> u64 {
            value.to_le_bytes().iter().fold(hash, |hash, byte| {
                (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3)
            })
        }
        // FNV-1a 64 offset basis, so an empty store's stamp is nonzero.
        let mut h = 0xcbf2_9ce4_8422_2325;
        h = fold(h, self.epoch);
        h = fold(h, self.rebalancing as u64);
        h = fold(h, self.shards.len() as u64);
        for shard in &self.shards {
            h = fold(h, shard.healthy as u64);
            h = fold(h, shard.generation);
            h = fold(h, shard.last_lsn);
            h = fold(h, shard.slots as u64);
            h = fold(h, shard.last_removal_lsn);
        }
        h
    }
}

/// What [`ShardedStore::score_since`] keeps of a query's regions, in one
/// allocation: each region's index corners (its centroid for centroid
/// signatures, its signature box otherwise) and its bitmap words, beside
/// the query's pixel area and the layout its bitmaps share. At the serving
/// configuration that is 80 bytes a region, about a quarter of what a
/// [`Region`] holds.
#[derive(Debug, Clone)]
pub struct CompactRegions {
    kind: SignatureKind,
    dims: usize,
    query_area: usize,
    /// Image width, image height, grid columns, grid rows.
    layout: [usize; 4],
    /// Per region: the corner coordinates as `f32` bit patterns, two to a
    /// word, then the bitmap words.
    slab: Box<[u64]>,
}

impl CompactRegions {
    /// The compact copy of `regions`, extracted from a query of
    /// `query_area` pixels and indexed under `kind` signatures.
    pub fn new(regions: &[Region], kind: SignatureKind, query_area: usize) -> Self {
        let dims = regions.first().map_or(0, Region::dims);
        let layout = regions.first().map_or([0; 4], |r| {
            let b = &r.bitmap;
            [b.width(), b.height(), b.grid_width(), b.grid_height()]
        });
        let mut compact = CompactRegions { kind, dims, query_area, layout, slab: Box::default() };
        let mut slab = Vec::with_capacity(regions.len() * compact.stride());
        for region in regions {
            let b = &region.bitmap;
            debug_assert_eq!(layout, [b.width(), b.height(), b.grid_width(), b.grid_height()]);
            let (lo, hi) = region.index_corners(kind);
            let hi = if kind == SignatureKind::Centroid { &[] } else { hi };
            let mut coords = lo.iter().chain(hi).map(|v| u64::from(v.to_bits()));
            while let Some(low) = coords.next() {
                slab.push(low | coords.next().unwrap_or(0) << 32);
            }
            slab.extend_from_slice(b.words());
        }
        compact.slab = slab.into_boxed_slice();
        compact
    }

    /// Coordinates of one region's index corners.
    fn floats(&self) -> usize {
        match self.kind {
            SignatureKind::Centroid => self.dims,
            SignatureKind::BoundingBox => 2 * self.dims,
        }
    }

    /// Words of one region: its corners, then its bitmap.
    fn stride(&self) -> usize {
        let [_, _, gw, gh] = self.layout;
        self.floats().div_ceil(2) + (gw * gh).div_ceil(64)
    }

    /// The regions again, as the shard query reads them: index corners and
    /// bitmap. A centroid-indexed region's box is its centroid, a
    /// box-indexed region's centroid is its lower corner, and no window
    /// count is kept — none of these is read by the probe or the scorer.
    fn regions(&self) -> Vec<Region> {
        let [width, height, gw, gh] = self.layout;
        self.slab
            .chunks(self.stride().max(1))
            .map(|chunk| {
                let (corners, words) = chunk.split_at(self.floats().div_ceil(2));
                let coords: Vec<f32> = corners
                    .iter()
                    .flat_map(|w| [f32::from_bits(*w as u32), f32::from_bits((w >> 32) as u32)])
                    .take(self.floats())
                    .collect();
                let bitmap = RegionBitmap::from_words(width, height, gw, gh, words.to_vec())
                    .expect("the layout the words were copied with");
                let (lo, hi) = coords.split_at(self.dims);
                let hi = if hi.is_empty() { lo } else { hi };
                Region::new(lo.to_vec(), lo.to_vec(), hi.to_vec(), bitmap, 0)
            })
            .collect()
    }
}

impl ShardedStore {
    /// The store's [`ContentMark`] now.
    pub fn content_mark(&self) -> ContentMark {
        let set = self.layout();
        let shards = set
            .shards
            .iter()
            .zip(&set.generations)
            .map(|(slot, generation)| {
                let slot = read(slot);
                ShardMark::of(generation.load(Ordering::Acquire), &slot)
            })
            .collect();
        let rebalancing = self.rebalancing.load(Ordering::Acquire);
        ContentMark { epoch: set.epoch, rebalancing, shards }
    }

    /// An opaque fingerprint of the store's queryable content, for result
    /// caching: two calls return the same value **only if** every query
    /// answers identically in between. It is [`ContentMark::stamp`] of
    /// [`ShardedStore::content_mark`], so it moves on every committed
    /// ingest or removal, on a shard's quarantine or recovery, and on every
    /// rebalance epoch or migration-state change — and not on a
    /// checkpoint, which rewrites bytes, not answers.
    pub fn content_stamp(&self) -> u64 {
        self.content_mark().stamp()
    }

    /// Scores `query` under `opts` against only the images committed since
    /// `since`: the shard query itself, each shard read from the slot count
    /// the mark recorded for it. The outcome ranks the best `k` of the new
    /// images at or above the similarity floor and counts all their hits
    /// and images; [`QueryOutcome::splice`] folds it into the answer
    /// recorded at `since`, which is cut to the same `k`.
    ///
    /// `None` when anything but inserts happened since the mark: a removal,
    /// a quarantine or recovery, a rebalance. Each shard is checked under
    /// the lock it is read under, and the first shard that fails the check
    /// ends the gather. A deadline gives a [`crate::ResultStatus::Partial`]
    /// outcome, cancellation an error.
    pub fn score_since(
        &self,
        since: &ContentMark,
        opts: &QueryOptions,
        query: &CompactRegions,
        guard: &Guard,
    ) -> Option<Result<QueryOutcome>> {
        let (params, min_similarity) = opts.resolve(&self.params).ok()?;
        let set = self.layout();
        if set.epoch != since.epoch
            || set.shards.len() != since.shards.len()
            || self.rebalancing.load(Ordering::Acquire) != since.rebalancing
            || params.signature_kind != query.kind
        {
            return None;
        }
        let regions = query.regions();
        // The slots since a mark are a few images: a scan of them on this
        // thread costs less than waking the pool for it.
        let params = WalrusParams { threads: 1, ..params };
        let from = |i: usize, slot: &ShardSlot| {
            let was = &since.shards[i];
            let now = ShardMark::of(set.generations[i].load(Ordering::Acquire), slot);
            now.grew_from(was).then_some(was.slots)
        };
        let (area, k) = (query.query_area, opts.k);
        self.scatter_gather(&set, &params, &regions, area, min_similarity, k, guard, from)
            .transpose()
    }
}
