//! The R\*-tree index.
//!
//! Faithful to Beckmann et al. (SIGMOD 1990) in the heuristics that matter
//! for query quality:
//!
//! * **ChooseSubtree** — at the level above the leaves, pick the child whose
//!   *overlap enlargement* is minimal (ties: area enlargement, then area);
//!   higher up, minimal area enlargement.
//! * **Forced reinsertion** — on the first leaf overflow of an insertion,
//!   the `p` entries farthest from the node centre are removed and
//!   reinserted, which defers splits and improves packing. (Reinsertion is
//!   applied at the leaf level, where WALRUS's workload concentrates.)
//! * **R\* split** — choose the split axis by minimal margin sum over all
//!   `(m…M+1−m)` distributions of both sortings, then the distribution with
//!   minimal overlap (ties: minimal combined area).
//!
//! Deletion condenses underflowing nodes by reinserting their entries, the
//! classic R-tree strategy, so the tree stays height-balanced.

use crate::rect::{self, Rect};
use crate::{RStarError, Result};

/// Tree shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RStarParams {
    /// Maximum entries per node (`M`), ≥ 4.
    pub max_entries: usize,
    /// Minimum entries per node (`m`), in `[2, M/2]`.
    pub min_entries: usize,
    /// Entries removed by forced reinsertion (`p`), in `[1, M − m]`;
    /// the R\* paper recommends 30% of `M`.
    pub reinsert_count: usize,
}

impl Default for RStarParams {
    fn default() -> Self {
        Self { max_entries: 16, min_entries: 6, reinsert_count: 5 }
    }
}

impl RStarParams {
    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<()> {
        if self.max_entries < 4 {
            return Err(RStarError::BadParams("max_entries must be >= 4".into()));
        }
        if self.min_entries < 2 || self.min_entries > self.max_entries / 2 {
            return Err(RStarError::BadParams(format!(
                "min_entries {} must be in [2, {}]",
                self.min_entries,
                self.max_entries / 2
            )));
        }
        if self.reinsert_count < 1 || self.reinsert_count > self.max_entries - self.min_entries {
            return Err(RStarError::BadParams(format!(
                "reinsert_count {} must be in [1, {}]",
                self.reinsert_count,
                self.max_entries - self.min_entries
            )));
        }
        Ok(())
    }

    /// How many of `rest` ordered siblings the next packed node takes: up to
    /// `M`, fewer when that would leave a tail shorter than `m` (possible
    /// whenever `rest ≥ m`, which packing guarantees).
    pub(crate) fn next_run(&self, rest: usize) -> usize {
        let take = self.max_entries.min(rest);
        let left = rest - take;
        if left > 0 && left < self.min_entries {
            rest - self.min_entries
        } else {
            take
        }
    }
}

/// Per-node header: how many of the node's `M + 1` entry slots are live, and
/// whether they hold values (leaf) or child ids.
#[derive(Debug, Clone, Copy)]
struct NodeHead {
    len: u32,
    leaf: bool,
}

/// What an entry slot holds beside its rectangle.
#[derive(Debug, Clone)]
enum Slot<V> {
    Vacant,
    Value(V),
    Child(u32),
}

impl<V> Slot<V> {
    fn take(&mut self) -> Slot<V> {
        std::mem::replace(self, Slot::Vacant)
    }

    fn into_value(self) -> V {
        match self {
            Slot::Value(v) => v,
            _ => unreachable!("leaf entries hold values"),
        }
    }
}

/// Leaf entries lifted out of the tree — a forced-reinsert set, or the
/// contents of condensed subtrees — as one coordinate run and the values
/// beside it.
#[derive(Debug)]
struct Detached<V> {
    coords: Vec<f32>,
    values: Vec<V>,
}

impl<V> Detached<V> {
    fn new() -> Self {
        Self { coords: Vec::new(), values: Vec::new() }
    }
}

/// An in-memory R\*-tree mapping rectangles (or points) to values.
///
/// Nodes live in an arena: a node is a `u32` id, and node `n` owns a fixed
/// run of `M + 1` entry slots (one more than a node may keep, for the
/// overflowing entry a split or forced reinsert then takes out) in each of
/// two parallel slabs — `coords`, `2·dims` floats per entry (lower corner
/// then upper), and `slots`, the value or child id the entry points at.
/// Live entries are packed at the front of the run in the node's entry
/// order, so scanning a node is one slice walk. Dissolved nodes go on a free
/// list and are handed out again before the slabs grow.
#[derive(Debug, Clone)]
pub struct RStarTree<V> {
    dims: usize,
    params: RStarParams,
    len: usize,
    root: u32,
    heads: Vec<NodeHead>,
    coords: Vec<f32>,
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
}

impl<V> RStarTree<V> {
    /// Creates an empty tree over `dims`-dimensional rectangles.
    pub fn new(dims: usize, params: RStarParams) -> Result<Self> {
        params.validate()?;
        if dims == 0 {
            return Err(RStarError::BadParams("dimensionality must be >= 1".into()));
        }
        let mut tree = Self::bare(dims, params);
        tree.root = tree.alloc(true);
        Ok(tree)
    }

    /// A tree with no nodes at all; the caller installs a root.
    fn bare(dims: usize, params: RStarParams) -> Self {
        Self {
            dims,
            params,
            len: 0,
            root: 0,
            heads: Vec::new(),
            coords: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Creates an empty tree with default parameters.
    pub fn with_dims(dims: usize) -> Result<Self> {
        Self::new(dims, RStarParams::default())
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        while !self.heads[node as usize].leaf {
            h += 1;
            node = self.child(node, 0);
        }
        h
    }

    /// Floats per entry rectangle.
    #[inline]
    fn width(&self) -> usize {
        2 * self.dims
    }

    /// Entry slots per node.
    #[inline]
    fn cap(&self) -> usize {
        self.params.max_entries + 1
    }

    /// Floats per node in the coordinate slab.
    #[inline]
    fn stride(&self) -> usize {
        self.cap() * self.width()
    }

    #[inline]
    fn count(&self, node: u32) -> usize {
        self.heads[node as usize].len as usize
    }

    /// The rectangles of `node`'s live entries, back to back.
    #[inline]
    fn rects(&self, node: u32) -> &[f32] {
        &self.coords[node as usize * self.stride()..][..self.count(node) * self.width()]
    }

    /// What `node`'s live entries point at, parallel to [`Self::rects`].
    #[inline]
    fn entries(&self, node: u32) -> &[Slot<V>] {
        &self.slots[node as usize * self.cap()..][..self.count(node)]
    }

    /// `node`'s live entries: each rectangle with what it points at.
    #[inline]
    fn pairs(&self, node: u32) -> impl Iterator<Item = (&[f32], &Slot<V>)> {
        self.rects(node).chunks_exact(self.width()).zip(self.entries(node))
    }

    #[inline]
    fn rect(&self, node: u32, i: usize) -> &[f32] {
        &self.coords[node as usize * self.stride() + i * self.width()..][..self.width()]
    }

    fn slot_mut(&mut self, node: u32, i: usize) -> &mut Slot<V> {
        let at = node as usize * self.cap() + i;
        &mut self.slots[at]
    }

    fn child(&self, node: u32, i: usize) -> u32 {
        match self.entries(node)[i] {
            Slot::Child(c) => c,
            _ => unreachable!("internal entries hold child ids"),
        }
    }

    /// Hands out an empty node: a recycled one if any, else a new run at the
    /// end of both slabs.
    fn alloc(&mut self, leaf: bool) -> u32 {
        let head = NodeHead { len: 0, leaf };
        if let Some(node) = self.free.pop() {
            self.heads[node as usize] = head;
            return node;
        }
        let node = u32::try_from(self.heads.len()).expect("node ids fit in u32");
        self.heads.push(head);
        self.coords.resize(self.coords.len() + self.stride(), 0.0);
        self.slots.resize_with(self.slots.len() + self.cap(), || Slot::Vacant);
        node
    }

    /// Puts an emptied node on the free list.
    fn release(&mut self, node: u32) {
        self.heads[node as usize].len = 0;
        self.free.push(node);
    }

    /// Appends an entry, its rectangle given as lower and upper corner, to
    /// `node`.
    fn push(&mut self, node: u32, lo: &[f32], hi: &[f32], slot: Slot<V>) {
        let (i, dims) = (self.count(node), self.dims);
        let at = node as usize * self.stride() + i * self.width();
        self.coords[at..at + dims].copy_from_slice(lo);
        self.coords[at + dims..at + 2 * dims].copy_from_slice(hi);
        *self.slot_mut(node, i) = slot;
        self.heads[node as usize].len += 1;
    }

    /// Appends `child` to `node` under the bounding rectangle of its entries.
    fn push_child(&mut self, node: u32, child: u32) {
        let i = self.count(node);
        self.refresh_bound(node, i, child);
        *self.slot_mut(node, i) = Slot::Child(child);
        self.heads[node as usize].len += 1;
    }

    /// Recomputes entry `i` of `parent` as the bounding rectangle of
    /// `child`'s entries (which cannot be empty).
    fn refresh_bound(&mut self, parent: u32, i: usize, child: u32) {
        let (w, stride) = (self.width(), self.stride());
        let dst = parent as usize * stride + i * w;
        let src = child as usize * stride;
        let run = self.count(child) * w;
        debug_assert_ne!(parent, child);
        let (bound, entries) = if dst < src {
            let (head, tail) = self.coords.split_at_mut(src);
            (&mut head[dst..dst + w], &tail[..run])
        } else {
            let (head, tail) = self.coords.split_at_mut(dst);
            (&mut tail[..w], &head[src..src + run])
        };
        bound.copy_from_slice(&entries[..w]);
        for e in entries[w..].chunks_exact(w) {
            rect::union_into(bound, e);
        }
    }

    /// Moves entry `from` to position `to` (an unused slot), across nodes or
    /// within one.
    fn move_entry(&mut self, from: (u32, usize), to: (u32, usize)) {
        let (w, stride) = (self.width(), self.stride());
        let src = from.0 as usize * stride + from.1 * w;
        self.coords.copy_within(src..src + w, to.0 as usize * stride + to.1 * w);
        let slot = self.slot_mut(from.0, from.1).take();
        *self.slot_mut(to.0, to.1) = slot;
    }

    /// Removes entry `i` of `node` by moving the last entry into its place.
    fn swap_remove(&mut self, node: u32, i: usize) -> Slot<V> {
        let last = self.count(node) - 1;
        let taken = self.slot_mut(node, i).take();
        if i != last {
            self.move_entry((node, last), (node, i));
        }
        self.heads[node as usize].len -= 1;
        taken
    }

    /// Removes entry `i` of `node`, keeping the order of the rest.
    fn remove_at(&mut self, node: u32, i: usize) -> Slot<V> {
        let (n, w) = (self.count(node), self.width());
        let base = node as usize * self.stride();
        self.coords.copy_within(base + (i + 1) * w..base + n * w, base + i * w);
        let first = node as usize * self.cap();
        self.slots[first + i..first + n].rotate_left(1);
        self.heads[node as usize].len -= 1;
        self.slots[first + n - 1].take()
    }

    /// Assembles a tree from STR-ordered entries (see [`crate::bulk`]): each
    /// run of `order` that `cuts` measures off becomes one leaf, its
    /// rectangles and values produced by `corners` / `value` as they are
    /// written; upper levels are packed from runs of sibling nodes,
    /// rebalancing tails so occupancy stays within `[m, M]`. The slabs are
    /// reserved once, to the exact node count.
    pub(crate) fn from_leaf_runs<'a>(
        dims: usize,
        params: RStarParams,
        order: &[u32],
        cuts: &[u32],
        corners: impl Fn(usize) -> (&'a [f32], &'a [f32]),
        mut value: impl FnMut(usize) -> V,
    ) -> Self {
        debug_assert!(!cuts.is_empty());
        let mut tree = Self::bare(dims, params);
        // Chopping `k` siblings into runs of at most `M` makes `⌈k / M⌉`
        // parents, whatever the tail rebalancing does to their sizes.
        let (mut nodes, mut level) = (cuts.len(), cuts.len());
        while level > 1 {
            level = level.div_ceil(params.max_entries);
            nodes += level;
        }
        tree.heads.reserve_exact(nodes);
        tree.coords.reserve_exact(nodes * tree.stride());
        tree.slots.reserve_exact(nodes * tree.cap());
        tree.len = order.len();
        let mut rest = order;
        for &cut in cuts {
            let (run, tail) = rest.split_at(cut as usize);
            let leaf = tree.alloc(true);
            for &entry in run {
                let (lo, hi) = corners(entry as usize);
                tree.push(leaf, lo, hi, Slot::Value(value(entry as usize)));
            }
            rest = tail;
        }
        debug_assert!(rest.is_empty(), "cuts must measure off all of order");
        // Node ids are handed out in order, so a level is a range of ids.
        let mut level = 0..tree.heads.len() as u32;
        while level.len() > 1 {
            let first = tree.heads.len() as u32;
            while !level.is_empty() {
                let take = params.next_run(level.len());
                let parent = tree.alloc(false);
                for child in level.by_ref().take(take) {
                    tree.push_child(parent, child);
                }
            }
            level = first..tree.heads.len() as u32;
        }
        tree.root = level.start;
        debug_assert_eq!(tree.heads.len(), nodes, "exact reservation miscounted");
        tree
    }

    /// Inserts `rect → value`.
    pub fn insert(&mut self, rect: Rect, value: V) -> Result<()> {
        if rect.dims() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: rect.dims() });
        }
        self.insert_entry(rect.flat(), value, true);
        self.len += 1;
        Ok(())
    }

    fn insert_entry(&mut self, rect: &[f32], value: V, allow_reinsert: bool) {
        let mut allow = allow_reinsert;
        let (split, reinserts) = self.insert_rec(self.root, rect, value, &mut allow);
        if let Some(sibling) = split {
            self.grow_root(sibling);
        }
        let w = self.width();
        for (rect, value) in reinserts.coords.chunks_exact(w).zip(reinserts.values) {
            let mut no_reinsert = false;
            let (split, extra) = self.insert_rec(self.root, rect, value, &mut no_reinsert);
            debug_assert!(extra.values.is_empty());
            if let Some(sibling) = split {
                self.grow_root(sibling);
            }
        }
    }

    fn grow_root(&mut self, sibling: u32) {
        let old = self.root;
        self.root = self.alloc(false);
        self.push_child(self.root, old);
        self.push_child(self.root, sibling);
    }

    /// Descends to a leaf by ChooseSubtree and appends the entry there.
    /// Returns the sibling id when `node` split, and the forced-reinsert
    /// set when the leaf overflowed for the first time in this insertion.
    fn insert_rec(
        &mut self,
        node: u32,
        rect: &[f32],
        value: V,
        allow_reinsert: &mut bool,
    ) -> (Option<u32>, Detached<V>) {
        let max = self.params.max_entries;
        if self.heads[node as usize].leaf {
            let (lo, hi) = rect::corners(rect);
            self.push(node, lo, hi, Slot::Value(value));
            if self.count(node) <= max {
                return (None, Detached::new());
            }
            if *allow_reinsert {
                *allow_reinsert = false;
                return (None, self.take_farthest(node));
            }
            return (Some(self.split(node)), Detached::new());
        }
        let i = self.choose_subtree(node, rect);
        let child = self.child(node, i);
        let (split, reinserts) = self.insert_rec(child, rect, value, allow_reinsert);
        self.refresh_bound(node, i, child);
        let mut my_split = None;
        if let Some(sibling) = split {
            self.push_child(node, sibling);
            if self.count(node) > max {
                my_split = Some(self.split(node));
            }
        }
        (my_split, reinserts)
    }

    /// R\* ChooseSubtree: minimum overlap enlargement when children are
    /// leaves, otherwise minimum area enlargement (ties broken by area).
    fn choose_subtree(&self, node: u32, rect: &[f32]) -> usize {
        let w = self.width();
        let children = self.rects(node);
        let leaf_level = self.heads[self.child(node, 0) as usize].leaf;
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, c) in children.chunks_exact(w).enumerate() {
            let area = rect::area(c);
            let area_enl = rect::union_area(c, rect) - area;
            let overlap_enl = if leaf_level {
                let mut delta = 0.0;
                for (j, o) in children.chunks_exact(w).enumerate() {
                    if i != j {
                        delta += rect::union_overlap_area(c, rect, o) - rect::overlap_area(c, o);
                    }
                }
                delta
            } else {
                0.0
            };
            let key = (overlap_enl, area_enl, area);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Takes out of an overflowing leaf the `p` entries whose centres are
    /// farthest from the node centre (the R\* forced-reinsert set). They come
    /// back in node order, which is the order they are reinserted in.
    fn take_farthest(&mut self, node: u32) -> Detached<V> {
        let w = self.width();
        let entries = self.rects(node);
        let mut bounding = entries[..w].to_vec();
        for e in entries[w..].chunks_exact(w) {
            rect::union_into(&mut bounding, e);
        }
        let dist: Vec<f64> =
            entries.chunks_exact(w).map(|e| rect::center_dist_sq(&bounding, e)).collect();
        let mut picked: Vec<usize> = (0..dist.len()).collect();
        picked.sort_by(|&a, &b| {
            dist[b].partial_cmp(&dist[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        picked.truncate(self.params.reinsert_count);
        picked.sort_unstable();
        let mut coords = Vec::with_capacity(picked.len() * w);
        for &i in &picked {
            coords.extend_from_slice(self.rect(node, i));
        }
        // Highest position first, so each `swap_remove` moves an entry that
        // stays and the positions still to be taken are not disturbed.
        let mut values: Vec<V> =
            picked.iter().rev().map(|&i| self.swap_remove(node, i).into_value()).collect();
        values.reverse();
        Detached { coords, values }
    }

    /// The R\* split, for leaves and internal nodes alike: the retained half
    /// stays in `node`, the other moves to a new sibling whose id is
    /// returned; both keep their entries' relative order.
    fn split(&mut self, node: u32) -> u32 {
        let (m, w) = (self.params.min_entries, self.width());
        let total = self.count(node);
        debug_assert!(total >= 2 * m);
        let entries = self.rects(node);
        let mut bounds = vec![0.0f32; 2 * w];
        let (bb1, bb2) = bounds.split_at_mut(w);
        let mut order = Vec::with_capacity(total);

        // Choose the split axis: the one minimizing the margin sum over all
        // legal distributions of both (by-min and by-max) sortings. A
        // sorting is named by the coordinate column it sorts on.
        let mut best_axis = 0usize;
        let mut best_margin = f64::INFINITY;
        for axis in 0..self.dims {
            let mut margin_sum = 0.0;
            for column in [axis, self.dims + axis] {
                sort_by_column(&mut order, entries, w, column);
                for k in m..=total - m {
                    group_bounds(entries, w, &order, k, bb1, bb2);
                    margin_sum += rect::margin(bb1) + rect::margin(bb2);
                }
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }

        // Choose the distribution on that axis: minimal overlap, then area.
        let mut best = (best_axis, m);
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for column in [best_axis, self.dims + best_axis] {
            sort_by_column(&mut order, entries, w, column);
            for k in m..=total - m {
                group_bounds(entries, w, &order, k, bb1, bb2);
                let key = (rect::overlap_area(bb1, bb2), rect::area(bb1) + rect::area(bb2));
                if key < best_key {
                    best_key = key;
                    best = (column, k);
                }
            }
        }
        let (column, k) = best;
        sort_by_column(&mut order, entries, w, column);

        // Partition according to the winning distribution.
        let mut in_second = vec![false; total];
        for &i in &order[k..] {
            in_second[i] = true;
        }
        let sibling = self.alloc(self.heads[node as usize].leaf);
        let (mut kept, mut moved) = (0, 0);
        for (i, &second) in in_second.iter().enumerate() {
            if second {
                self.move_entry((node, i), (sibling, moved));
                moved += 1;
            } else {
                if kept != i {
                    self.move_entry((node, i), (node, kept));
                }
                kept += 1;
            }
        }
        self.heads[node as usize].len = kept as u32;
        self.heads[sibling as usize].len = moved as u32;
        sibling
    }

    /// All values whose rectangle intersects `query`, in traversal order.
    pub fn search_intersecting(&self, query: &Rect) -> Result<Vec<&V>> {
        self.search_intersecting_stats(query).map(|(out, _)| out)
    }

    /// [`search_intersecting`](RStarTree::search_intersecting) plus probe
    /// statistics for observability.
    pub fn search_intersecting_stats(&self, query: &Rect) -> Result<(Vec<&V>, SearchStats)> {
        self.search_intersecting_filtered_stats(query, |_| true)
    }

    /// [`search_intersecting_stats`](RStarTree::search_intersecting_stats)
    /// with a per-entry prefilter applied to each scanned leaf value
    /// *before* the exact rectangle test. Entries the prefilter rejects are
    /// counted in [`SearchStats::prefilter_rejected`] and never reach the
    /// geometry test; survivors are counted in
    /// [`SearchStats::exact_tested`]. For the result set to be correct the
    /// prefilter must be admissible: it may only reject entries the exact
    /// test would also reject.
    pub fn search_intersecting_filtered_stats(
        &self,
        query: &Rect,
        mut prefilter: impl FnMut(&V) -> bool,
    ) -> Result<(Vec<&V>, SearchStats)> {
        if query.dims() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: query.dims() });
        }
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        self.search_rec(self.root, query.flat(), None, &mut out, &mut stats, &mut prefilter);
        Ok((out, stats))
    }

    /// All values whose rectangle lies within L2 distance `eps` of `point`
    /// (for point entries this is the exact ε-ball query WALRUS issues for
    /// centroid signatures; for box entries it is the ε-extended overlap
    /// test of Definition 4.1), in traversal order.
    pub fn search_within(&self, point: &[f32], eps: f32) -> Result<Vec<&V>> {
        self.search_within_stats(point, eps).map(|(out, _)| out)
    }

    /// [`search_within`](RStarTree::search_within) plus probe statistics:
    /// nodes visited during the rectangle descent, and how many rectangle
    /// candidates the exact ε-ball distance test then pruned.
    pub fn search_within_stats(&self, point: &[f32], eps: f32) -> Result<(Vec<&V>, SearchStats)> {
        self.search_within_filtered_stats(point, eps, |_| true)
    }

    /// [`search_within_stats`](RStarTree::search_within_stats) with a
    /// per-entry prefilter applied to each scanned leaf value *before* the
    /// rectangle and ε-ball tests. Rejections are counted in
    /// [`SearchStats::prefilter_rejected`], survivors in
    /// [`SearchStats::exact_tested`]. The prefilter must be admissible: it
    /// may only reject entries the exact distance test would also reject.
    pub fn search_within_filtered_stats(
        &self,
        point: &[f32],
        eps: f32,
        mut prefilter: impl FnMut(&V) -> bool,
    ) -> Result<(Vec<&V>, SearchStats)> {
        if point.len() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: point.len() });
        }
        let probe = Rect::point(point)?.extended(eps);
        let ball = Some((point, (eps as f64) * (eps as f64)));
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        self.search_rec(self.root, probe.flat(), ball, &mut out, &mut stats, &mut prefilter);
        Ok((out, stats))
    }

    /// The rectangle descent. A leaf entry that passes the prefilter is
    /// tested against the `query` box in `f32` and then, when `ball` gives a
    /// centre and a squared radius, against that ball in `f64`.
    fn search_rec<'a>(
        &'a self,
        node: u32,
        query: &[f32],
        ball: Option<(&[f32], f64)>,
        out: &mut Vec<&'a V>,
        stats: &mut SearchStats,
        prefilter: &mut impl FnMut(&V) -> bool,
    ) {
        stats.nodes_visited += 1;
        if !self.heads[node as usize].leaf {
            for (rect, slot) in self.pairs(node) {
                match slot {
                    Slot::Child(child) if rect::intersects(rect, query) => {
                        self.search_rec(*child, query, ball, out, stats, prefilter);
                    }
                    _ => {}
                }
            }
            return;
        }
        for (rect, slot) in self.pairs(node) {
            let Slot::Value(value) = slot else { continue };
            if !prefilter(value) {
                stats.prefilter_rejected += 1;
                continue;
            }
            stats.exact_tested += 1;
            if !rect::intersects(rect, query) {
                continue;
            }
            match ball {
                Some((centre, eps_sq)) if rect::min_dist_sq(rect, centre) > eps_sq => {
                    stats.pruned += 1;
                }
                _ => out.push(value),
            }
        }
    }

    /// The `k` values nearest to `point` by minimum L2 distance to their
    /// rectangle, ascending, with that distance (best-first
    /// branch-and-bound).
    pub fn nearest_k(&self, point: &[f32], k: usize) -> Result<Vec<(&V, f64)>> {
        if point.len() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: point.len() });
        }
        if k == 0 || self.len == 0 {
            return Ok(Vec::new());
        }
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Min-heap over (distance, frontier item).
        enum Item<'a, V> {
            Node(u32),
            Entry(&'a V),
        }
        struct Keyed<'a, V>(f64, Item<'a, V>);
        impl<V> PartialEq for Keyed<'_, V> {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl<V> Eq for Keyed<'_, V> {}
        impl<V> PartialOrd for Keyed<'_, V> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<V> Ord for Keyed<'_, V> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.partial_cmp(&other.0).unwrap_or(std::cmp::Ordering::Equal)
            }
        }

        let mut heap: BinaryHeap<Reverse<Keyed<V>>> = BinaryHeap::new();
        heap.push(Reverse(Keyed(0.0, Item::Node(self.root))));
        let mut out = Vec::with_capacity(k);
        while let Some(Reverse(Keyed(dist, item))) = heap.pop() {
            match item {
                Item::Node(node) => {
                    for (rect, slot) in self.pairs(node) {
                        let item = match slot {
                            Slot::Value(value) => Item::Entry(value),
                            Slot::Child(child) => Item::Node(*child),
                            Slot::Vacant => continue,
                        };
                        heap.push(Reverse(Keyed(rect::min_dist_sq(rect, point), item)));
                    }
                }
                Item::Entry(value) => {
                    out.push((value, dist.sqrt()));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Removes one entry matching `rect` exactly whose value equals `value`.
    /// Returns true when an entry was removed.
    pub fn remove(&mut self, rect: &Rect, value: &V) -> Result<bool>
    where
        V: PartialEq,
    {
        if rect.dims() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: rect.dims() });
        }
        let mut orphans = Detached::new();
        let removed = self.remove_rec(self.root, rect.flat(), value, &mut orphans);
        if removed {
            self.len -= 1;
            // Shrink the root while it is an internal node with one child.
            loop {
                let root = self.root;
                let head = self.heads[root as usize];
                if head.leaf || head.len > 1 {
                    break;
                }
                if head.len == 0 {
                    self.heads[root as usize].leaf = true;
                    break;
                }
                self.root = self.child(root, 0);
                self.slot_mut(root, 0).take();
                self.release(root);
            }
            let w = self.width();
            for (rect, value) in orphans.coords.chunks_exact(w).zip(orphans.values) {
                self.insert_entry(rect, value, false);
            }
        }
        Ok(removed)
    }

    /// Removes one matching entry below `node`; the entries of condensed
    /// (underflowed) subtrees go to `orphans`. Returns whether it was found.
    fn remove_rec(&mut self, node: u32, rect: &[f32], value: &V, orphans: &mut Detached<V>) -> bool
    where
        V: PartialEq,
    {
        if self.heads[node as usize].leaf {
            let found = self
                .pairs(node)
                .position(|(r, slot)| r == rect && matches!(slot, Slot::Value(v) if v == value));
            if let Some(i) = found {
                self.remove_at(node, i);
            }
            return found.is_some();
        }
        for i in 0..self.count(node) {
            if !rect::intersects(self.rect(node, i), rect) {
                continue;
            }
            let child = self.child(node, i);
            if self.remove_rec(child, rect, value, orphans) {
                if self.count(child) < self.params.min_entries {
                    // Condense: dissolve the child, reinsert its entries.
                    self.remove_at(node, i);
                    self.dissolve(child, orphans);
                } else {
                    self.refresh_bound(node, i, child);
                }
                return true;
            }
        }
        false
    }

    /// Lifts every leaf entry below `node` into `out`, in traversal order,
    /// and frees the subtree's nodes.
    fn dissolve(&mut self, node: u32, out: &mut Detached<V>) {
        let leaf = self.heads[node as usize].leaf;
        if leaf {
            out.coords.extend_from_slice(self.rects(node));
        }
        for i in 0..self.count(node) {
            match self.slot_mut(node, i).take() {
                Slot::Child(child) => self.dissolve(child, out),
                slot => out.values.push(slot.into_value()),
            }
        }
        self.release(node);
    }

    /// Checks structural invariants (used by tests): bounding rectangles
    /// contain their subtrees, all leaves at the same depth, node occupancy
    /// within `[m, M]` except the root, every arena node either reachable
    /// exactly once or on the free list, and no slot outside a node's live
    /// run occupied. Panics on violation.
    pub fn check_invariants(&self) {
        let mut reached = vec![false; self.heads.len()];
        let counted = self.check_node(self.root, true, self.height(), &mut reached);
        assert_eq!(counted, self.len, "length bookkeeping diverged");
        for &node in &self.free {
            let seen = std::mem::replace(&mut reached[node as usize], true);
            assert!(!seen, "node {node} freed twice or still linked");
        }
        assert!(reached.iter().all(|&r| r), "arena node neither reachable nor free");
        assert_eq!(self.coords.len(), self.heads.len() * self.stride());
        assert_eq!(self.slots.len(), self.heads.len() * self.cap());
    }

    fn check_node(&self, node: u32, is_root: bool, depth: usize, reached: &mut [bool]) -> usize {
        let seen = std::mem::replace(&mut reached[node as usize], true);
        assert!(!seen, "node {node} linked twice");
        let (params, n) = (&self.params, self.count(node));
        let run = &self.slots[node as usize * self.cap()..][..self.cap()];
        assert!(run[n..].iter().all(|s| matches!(s, Slot::Vacant)), "slot past a node's live run");
        assert!(n <= params.max_entries, "node overflow");
        if self.heads[node as usize].leaf {
            assert_eq!(depth, 1, "leaves must share a depth");
            assert!(is_root || n >= params.min_entries, "leaf underflow");
            assert!(run[..n].iter().all(|s| matches!(s, Slot::Value(_))), "leaf holds a non-value");
            return n;
        }
        assert!(n >= if is_root { 2 } else { params.min_entries }, "internal underflow");
        let mut count = 0;
        for i in 0..n {
            let child = self.child(node, i);
            let entries = self.rects(child);
            let mut sub = entries[..self.width()].to_vec();
            for e in entries[self.width()..].chunks_exact(self.width()) {
                rect::union_into(&mut sub, e);
            }
            assert!(rect::contains(self.rect(node, i), &sub), "stale child bounding rect");
            count += self.check_node(child, false, depth - 1, reached);
        }
        count
    }
}

/// Counters a rectangle search accumulates, reported by the `_stats` search
/// variants and surfaced in query traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes (leaf + internal) the descent touched.
    pub nodes_visited: usize,
    /// Coarse rectangle hits discarded by the exact ε-ball distance test.
    pub pruned: usize,
    /// Scanned leaf entries rejected by the value prefilter before any
    /// exact geometry test (0 when no prefilter is in use).
    pub prefilter_rejected: usize,
    /// Scanned leaf entries that reached the exact geometry test (all
    /// scanned entries when no prefilter is in use).
    pub exact_tested: usize,
}

/// Fills `order` with the positions of `entries` (rectangles `w` floats
/// wide) stably sorted on coordinate `column` of each.
fn sort_by_column(order: &mut Vec<usize>, entries: &[f32], w: usize, column: usize) {
    order.clear();
    order.extend(0..entries.len() / w);
    order.sort_by(|&a, &b| {
        let (ka, kb) = (entries[a * w + column], entries[b * w + column]);
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Bounding rectangles of the first `k` entries in `order` and of the rest.
fn group_bounds(
    entries: &[f32],
    w: usize,
    order: &[usize],
    k: usize,
    bb1: &mut [f32],
    bb2: &mut [f32],
) {
    for (bound, group) in [(bb1, &order[..k]), (bb2, &order[k..])] {
        bound.copy_from_slice(&entries[group[0] * w..][..w]);
        for &i in &group[1..] {
            rect::union_into(bound, &entries[i * w..][..w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f32]) -> Rect {
        Rect::point(coords).unwrap()
    }

    fn grid_points(n: usize) -> Vec<(Rect, usize)> {
        // n² points on an integer grid, ids row-major.
        let mut out = Vec::new();
        for y in 0..n {
            for x in 0..n {
                out.push((pt(&[x as f32, y as f32]), y * n + x));
            }
        }
        out
    }

    fn build(points: &[(Rect, usize)]) -> RStarTree<usize> {
        let mut t = RStarTree::with_dims(points[0].0.dims()).unwrap();
        for (r, v) in points {
            t.insert(r.clone(), *v).unwrap();
        }
        t
    }

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 100_000) as f32 / 100_000.0
        }
    }

    /// 5 000 seeded 12-d points in 40 tight clusters — the shape WALRUS
    /// signatures have, so an ε = 0.085 probe returns dozens of hits.
    fn pin_points() -> Vec<Vec<f32>> {
        let mut next = lcg(0x5EED_0013);
        let centres: Vec<Vec<f32>> = (0..40).map(|_| (0..12).map(|_| next()).collect()).collect();
        (0..5_000)
            .map(|i| centres[i % 40].iter().map(|c| c + (next() - 0.5) * 0.06).collect())
            .collect()
    }

    /// 100 seeded ε = 0.085 probes: summed `nodes_visited`, `exact_tested`,
    /// `pruned`, hit count, and an FNV-1a of the hit values in order.
    fn pin_probe(tree: &RStarTree<usize>, pts: &[Vec<f32>]) -> (usize, usize, usize, usize, u64) {
        let mut next = lcg(0xBEEF_0013);
        let (mut nodes, mut exact, mut pruned, mut hits) = (0, 0, 0, 0);
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: usize| {
            for b in (v as u64).to_le_bytes() {
                fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for _ in 0..100 {
            let base = &pts[(next() * 4_999.0) as usize];
            let q: Vec<f32> = base.iter().map(|c| c + (next() - 0.5) * 0.02).collect();
            let (found, stats) = tree.search_within_stats(&q, 0.085).unwrap();
            nodes += stats.nodes_visited;
            exact += stats.exact_tested;
            pruned += stats.pruned;
            hits += found.len();
            mix(found.len());
            found.into_iter().for_each(|&v| mix(v));
        }
        (nodes, exact, pruned, hits, fnv)
    }

    /// The constants were captured from the boxed-node tree this arena
    /// replaced (commit 3ec4089): the same heuristics on the same inputs
    /// must build the same tree, entry order inside every node included.
    #[test]
    fn shape_is_pinned_to_the_boxed_tree() {
        let pts = pin_points();
        let every_third = || pts.iter().enumerate().filter(|(i, _)| i % 3 == 0);
        let mut inc = RStarTree::with_dims(12).unwrap();
        for (i, p) in pts.iter().enumerate() {
            inc.insert(pt(p), i).unwrap();
        }
        assert_eq!(inc.height(), 4);
        assert_eq!(pin_probe(&inc, &pts), (1646, 13503, 6805, 5695, 2064370187531075296));
        let mut packed =
            crate::bulk_load(12, RStarParams::default(), pts.len(), |i| (&pts[i], &pts[i]), |i| i)
                .unwrap();
        assert_eq!(packed.height(), 4);
        assert_eq!(pin_probe(&packed, &pts), (1840, 14107, 6805, 5695, 3184819318344533176));
        // Condense-and-reinsert shapes the tree too.
        for (i, p) in every_third() {
            assert!(inc.remove(&pt(p), &i).unwrap());
        }
        inc.check_invariants();
        assert_eq!(pin_probe(&inc, &pts), (1402, 9018, 4549, 3785, 1870522267695697345));
        for (i, p) in every_third() {
            assert!(packed.remove(&pt(p), &i).unwrap());
        }
        for (i, p) in every_third() {
            packed.insert(pt(p), i).unwrap();
        }
        packed.check_invariants();
        assert_eq!(pin_probe(&packed, &pts), (1655, 14000, 6805, 5695, 3147418192351728580));
    }

    /// Rounds of insert-everything / remove-everything, each removing in a
    /// different order: dissolved nodes must come back off the free list, so
    /// the arena never outgrows what the first round needed.
    #[test]
    fn arena_reuses_freed_nodes() {
        let mut next = lcg(0xA4E7A);
        let points: Vec<(Rect, usize)> =
            (0..1_000).map(|i| (pt(&[next(), next(), next()]), i)).collect();
        let mut t = RStarTree::with_dims(3).unwrap();
        let mut high_water = 0;
        for round in 0..10 {
            for (r, v) in &points {
                t.insert(r.clone(), *v).unwrap();
            }
            t.check_invariants();
            // Round-specific removal order: a stride coprime to 1 000.
            let stride = [1, 3, 7, 9, 11, 13, 17, 19, 21, 999][round];
            for k in 0..points.len() {
                let (r, v) = &points[k * stride % points.len()];
                assert!(t.remove(r, v).unwrap());
                if round == 0 {
                    high_water = high_water.max(t.heads.len());
                }
            }
            t.check_invariants();
            assert!(t.is_empty());
            assert!(t.heads.len() <= high_water, "round {round}: {} > {high_water}", t.heads.len());
            assert_eq!(t.free.len(), t.heads.len() - 1, "all but the root leaf are free");
        }
    }

    #[test]
    fn empty_tree_queries() {
        let t: RStarTree<usize> = RStarTree::with_dims(2).unwrap();
        assert!(t.is_empty());
        assert!(t.search_intersecting(&pt(&[0.0, 0.0])).unwrap().is_empty());
        assert!(t.search_within(&[0.0, 0.0], 10.0).unwrap().is_empty());
        assert!(t.nearest_k(&[0.0, 0.0], 3).unwrap().is_empty());
    }

    #[test]
    fn intersection_query_matches_linear_scan() {
        let points = grid_points(12);
        let t = build(&points);
        t.check_invariants();
        let query = Rect::new(vec![2.5, 3.5], vec![7.0, 9.0]).unwrap();
        let mut got: Vec<usize> =
            t.search_intersecting(&query).unwrap().into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points
            .iter()
            .filter(|(r, _)| r.intersects(&query))
            .map(|(_, v)| *v)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn within_query_matches_linear_scan() {
        let points = grid_points(10);
        let t = build(&points);
        for (center, eps) in [([4.2f32, 4.8], 1.5f32), ([0.0, 0.0], 3.0), ([9.0, 9.0], 0.5)] {
            let mut got: Vec<usize> =
                t.search_within(&center, eps).unwrap().into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = points
                .iter()
                .filter(|(r, _)| r.min_dist_sq(&center) <= (eps as f64) * (eps as f64))
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "center {center:?} eps {eps}");
        }
    }

    #[test]
    fn nearest_k_matches_linear_scan() {
        let points = grid_points(9);
        let t = build(&points);
        let q = [3.3f32, 6.1];
        let got = t.nearest_k(&q, 5).unwrap();
        assert_eq!(got.len(), 5);
        // Distances ascend.
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let mut want: Vec<(f64, usize)> = points
            .iter()
            .map(|(r, v)| (r.min_dist_sq(&q).sqrt(), *v))
            .collect();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let got_dists: Vec<f64> = got.iter().map(|g| g.1).collect();
        let want_dists: Vec<f64> = want.iter().take(5).map(|w| w.0).collect();
        for (a, b) in got_dists.iter().zip(&want_dists) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn box_entries_intersection() {
        let mut t = RStarTree::with_dims(2).unwrap();
        let boxes = [
            (Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]).unwrap(), 0usize),
            (Rect::new(vec![1.0, 1.0], vec![4.0, 3.0]).unwrap(), 1),
            (Rect::new(vec![5.0, 5.0], vec![6.0, 6.0]).unwrap(), 2),
        ];
        for (r, v) in &boxes {
            t.insert(r.clone(), *v).unwrap();
        }
        let hits = t.search_intersecting(&Rect::new(vec![1.5, 1.5], vec![1.6, 1.6]).unwrap()).unwrap();
        let mut ids: Vec<usize> = hits.iter().map(|&&v| v).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn invariants_hold_under_bulk_insertion() {
        // Pseudo-random 12-d points — the WALRUS signature shape.
        let mut t = RStarTree::with_dims(12).unwrap();
        let mut state = 1u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 1000.0
        };
        for i in 0..800 {
            let p: Vec<f32> = (0..12).map(|_| next()).collect();
            t.insert(Rect::point(&p).unwrap(), i).unwrap();
        }
        assert_eq!(t.len(), 800);
        assert!(t.height() > 1);
        t.check_invariants();
    }

    #[test]
    fn duplicate_rects_allowed() {
        let mut t = RStarTree::with_dims(2).unwrap();
        for i in 0..50 {
            t.insert(pt(&[1.0, 1.0]), i).unwrap();
        }
        assert_eq!(t.len(), 50);
        t.check_invariants();
        assert_eq!(t.search_within(&[1.0, 1.0], 0.0).unwrap().len(), 50);
    }

    #[test]
    fn remove_and_requery() {
        let points = grid_points(8);
        let mut t = build(&points);
        assert!(t.remove(&pt(&[3.0, 3.0]), &(3 * 8 + 3)).unwrap());
        assert!(!t.remove(&pt(&[3.0, 3.0]), &(3 * 8 + 3)).unwrap(), "already gone");
        assert_eq!(t.len(), 63);
        t.check_invariants();
        let hits = t.search_within(&[3.0, 3.0], 0.1).unwrap();
        assert!(hits.is_empty());
        // Every other point is still findable.
        for (r, v) in &points {
            if *v != 3 * 8 + 3 {
                let found = t.search_within(r.min(), 0.0).unwrap();
                assert!(found.iter().any(|&&got| got == *v), "lost point {v}");
            }
        }
    }

    #[test]
    fn remove_everything_empties_tree() {
        let points = grid_points(6);
        let mut t = build(&points);
        for (r, v) in &points {
            assert!(t.remove(r, v).unwrap());
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        // Insert again after emptying.
        t.insert(pt(&[0.5, 0.5]), 999).unwrap();
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut t: RStarTree<usize> = RStarTree::with_dims(3).unwrap();
        assert!(t.insert(pt(&[1.0, 2.0]), 0).is_err());
        assert!(t.search_within(&[1.0], 0.5).is_err());
        assert!(t.nearest_k(&[1.0, 2.0, 3.0, 4.0], 1).is_err());
    }

    #[test]
    fn bad_params_rejected() {
        assert!(RStarParams { max_entries: 3, min_entries: 2, reinsert_count: 1 }.validate().is_err());
        assert!(RStarParams { max_entries: 16, min_entries: 9, reinsert_count: 1 }.validate().is_err());
        assert!(RStarParams { max_entries: 16, min_entries: 6, reinsert_count: 11 }
            .validate()
            .is_err());
        assert!(RStarParams::default().validate().is_ok());
    }

    #[test]
    fn filtered_search_counts_and_matches_unfiltered() {
        let points = grid_points(7);
        let t = build(&points);
        let center = [3.0, 3.0];
        let eps = 1.5;
        let (plain, plain_stats) = t.search_within_stats(&center, eps).unwrap();
        // Unfiltered: every scanned entry reaches the exact test.
        assert_eq!(plain_stats.prefilter_rejected, 0);
        assert!(plain_stats.exact_tested >= plain.len());
        // An admissible prefilter (accept-all) yields identical results.
        let (same, same_stats) =
            t.search_within_filtered_stats(&center, eps, |_| true).unwrap();
        let ids = |v: &[&usize]| {
            let mut out: Vec<usize> = v.iter().map(|&&id| id).collect();
            out.sort_unstable();
            out
        };
        assert_eq!(ids(&plain), ids(&same));
        assert_eq!(plain_stats, same_stats);
        // A value-keyed prefilter skips rejected entries before the
        // geometry test and counts them.
        let keep = |v: &usize| *v % 2 == 0;
        let (filtered, fstats) = t.search_within_filtered_stats(&center, eps, keep).unwrap();
        assert!(fstats.prefilter_rejected > 0);
        assert_eq!(fstats.prefilter_rejected + fstats.exact_tested, plain_stats.exact_tested);
        let expected: Vec<usize> = ids(&plain).into_iter().filter(|v| v % 2 == 0).collect();
        assert_eq!(ids(&filtered), expected);
        // Same contract for the intersecting variant.
        let query = Rect::new(vec![2.0, 2.0], vec![4.0, 4.0]).unwrap();
        let (inter, _) = t.search_intersecting_stats(&query).unwrap();
        let (inter_f, istats) = t.search_intersecting_filtered_stats(&query, keep).unwrap();
        assert!(istats.prefilter_rejected > 0);
        let expected: Vec<usize> = ids(&inter).into_iter().filter(|v| v % 2 == 0).collect();
        assert_eq!(ids(&inter_f), expected);
    }

    #[test]
    fn clustered_data_still_balanced() {
        // Two tight clusters far apart: splits must not degenerate.
        let mut t = RStarTree::with_dims(2).unwrap();
        for i in 0..200 {
            let off = (i % 14) as f32 * 0.001;
            t.insert(pt(&[off, off]), i).unwrap();
            t.insert(pt(&[100.0 + off, 100.0 - off]), 1000 + i).unwrap();
        }
        t.check_invariants();
        let near_origin = t.search_within(&[0.0, 0.0], 1.0).unwrap();
        assert_eq!(near_origin.len(), 200);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Differential test against a linear scan under interleaved insert
        /// / remove / re-insert, over point and box entries.
        #[test]
        fn interleaved_edits_agree_with_a_linear_scan(
            dims in proptest::sample::select(vec![2usize, 3, 12]),
            seed in proptest::any::<u64>(),
        ) {
            let mut next = lcg(seed);
            let mut random_rect = |boxed: bool| {
                let lo: Vec<f32> = (0..dims).map(|_| next()).collect();
                let hi = lo.iter().map(|v| v + if boxed { next() * 0.2 } else { 0.0 }).collect();
                Rect::new(lo, hi).unwrap()
            };
            let mut tree = RStarTree::with_dims(dims).unwrap();
            // Every rectangle ever inserted, and whether it is in the tree.
            let mut known: Vec<(Rect, bool)> = Vec::new();
            let mut pick = lcg(seed ^ 0x9E37_79B9);
            for step in 0..160 {
                let at = (pick() * known.len() as f32) as usize;
                match (pick() * 4.0) as usize {
                    // Twice as many inserts as removals, so the tree grows.
                    0 | 1 => {
                        known.push((random_rect(step % 3 == 0), true));
                        tree.insert(known.last().unwrap().0.clone(), known.len() - 1).unwrap();
                    }
                    2 if !known.is_empty() => {
                        let removed = tree.remove(&known[at].0, &at).unwrap();
                        proptest::prop_assert_eq!(removed, known[at].1);
                        known[at].1 = false;
                    }
                    _ if !known.is_empty() && !known[at].1 => {
                        tree.insert(known[at].0.clone(), at).unwrap();
                        known[at].1 = true;
                    }
                    _ => {}
                }
                tree.check_invariants();
                proptest::prop_assert_eq!(tree.len(), known.iter().filter(|k| k.1).count());

                let probe = random_rect(true);
                let eps = 0.05 + pick() * 0.4;
                let live = || known.iter().enumerate().filter(|(_, k)| k.1);
                let within = tree.search_within(probe.min(), eps).unwrap();
                let boxed = tree.search_intersecting(&probe).unwrap();
                // The same probe twice returns the same hits in the same order.
                proptest::prop_assert_eq!(&within, &tree.search_within(probe.min(), eps).unwrap());
                proptest::prop_assert_eq!(&boxed, &tree.search_intersecting(&probe).unwrap());
                let sorted = |hits: Vec<&usize>| {
                    let mut ids: Vec<usize> = hits.into_iter().copied().collect();
                    ids.sort_unstable();
                    ids
                };
                let eps_sq = (eps as f64) * (eps as f64);
                let want_within: Vec<usize> = live()
                    .filter(|(_, k)| k.0.min_dist_sq(probe.min()) <= eps_sq)
                    .map(|(i, _)| i)
                    .collect();
                let want_boxed: Vec<usize> =
                    live().filter(|(_, k)| k.0.intersects(&probe)).map(|(i, _)| i).collect();
                proptest::prop_assert_eq!(sorted(within), want_within);
                proptest::prop_assert_eq!(sorted(boxed), want_boxed);
            }
        }

        /// The same differential test for a packed tree — as loaded, then
        /// under edits that land in its full leaves — at the sizes where the
        /// tiling is delicate: none, one, a full leaf (`M` = 16), one more,
        /// `2M − 1`, tails the `m`-rebalancing has to borrow for, and many.
        #[test]
        fn packed_trees_agree_with_a_linear_scan(
            dims in proptest::sample::select(vec![2usize, 3, 12]),
            n in proptest::sample::select(vec![0usize, 1, 16, 17, 31, 33, 37, 101, 257, 4097, 5000]),
            boxed in proptest::sample::select(vec![false, true]),
            seed in proptest::any::<u64>(),
        ) {
            let mut next = lcg(seed);
            let mut random_rect = |boxed: bool| {
                let lo: Vec<f32> = (0..dims).map(|_| next()).collect();
                let hi = lo.iter().map(|v| v + if boxed { next() * 0.2 } else { 0.0 }).collect();
                Rect::new(lo, hi).unwrap()
            };
            let mut known: Vec<(Rect, bool)> = (0..n).map(|_| (random_rect(boxed), true)).collect();
            let corners = |i: usize| (known[i].0.min(), known[i].0.max());
            let mut tree =
                crate::bulk_load(dims, RStarParams::default(), n, corners, |i| i).unwrap();
            if n > tree.params.max_entries {
                // The slabs were reserved once, to the node.
                proptest::prop_assert_eq!(tree.heads.capacity(), tree.heads.len());
                proptest::prop_assert_eq!(tree.coords.capacity(), tree.coords.len());
                proptest::prop_assert_eq!(tree.slots.capacity(), tree.slots.len());
            }
            let mut pick = lcg(seed ^ 0x9E37_79B9);
            for step in 0..48 {
                tree.check_invariants();
                proptest::prop_assert_eq!(tree.len(), known.iter().filter(|k| k.1).count());
                let probe = random_rect(true);
                let eps = 0.05 + pick() * if dims == 12 { 0.8 } else { 0.2 };
                let sorted = |hits: Vec<&usize>| {
                    let mut ids: Vec<usize> = hits.into_iter().copied().collect();
                    ids.sort_unstable();
                    ids
                };
                let live = || known.iter().enumerate().filter(|(_, k)| k.1);
                let eps_sq = (eps as f64) * (eps as f64);
                let want_within: Vec<usize> = live()
                    .filter(|(_, k)| k.0.min_dist_sq(probe.min()) <= eps_sq)
                    .map(|(i, _)| i)
                    .collect();
                let want_boxed: Vec<usize> =
                    live().filter(|(_, k)| k.0.intersects(&probe)).map(|(i, _)| i).collect();
                let within = tree.search_within(probe.min(), eps).unwrap();
                proptest::prop_assert_eq!(sorted(within), want_within);
                let hits = tree.search_intersecting(&probe).unwrap();
                proptest::prop_assert_eq!(sorted(hits), want_boxed);
                // Step 0 probed the tree as packed; from here on, edit it.
                let at = (pick() * known.len() as f32) as usize;
                if step % 3 == 2 && !known.is_empty() {
                    let removed = tree.remove(&known[at].0, &at).unwrap();
                    proptest::prop_assert_eq!(removed, known[at].1);
                    known[at].1 = false;
                } else {
                    // Near an existing entry when there is one, so the insert
                    // descends into a leaf the loader filled.
                    let rect = match known.get(at) {
                        Some((near, _)) => near.clone(),
                        None => random_rect(boxed),
                    };
                    known.push((rect.clone(), true));
                    tree.insert(rect, known.len() - 1).unwrap();
                }
            }
        }
    }
}
