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
//! Nothing is ever taken out of a tree: the engine rebuilds by packing
//! ([`crate::bulk`]) instead of editing one.

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

/// Leaf entries lifted out of the tree — a forced-reinsert set — as one
/// coordinate run and the values beside it.
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
/// order, so scanning a node is one slice walk. Nodes are only ever added,
/// so every node in the arena is reachable from the root.
#[derive(Debug, Clone)]
pub struct RStarTree<V> {
    dims: usize,
    params: RStarParams,
    len: usize,
    root: u32,
    heads: Vec<NodeHead>,
    coords: Vec<f32>,
    slots: Vec<Slot<V>>,
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
        }
    }

    /// Creates an empty tree with default parameters. Kept for
    /// `bench/src/bin/layers.rs`, which grows its trees by [`Self::insert`].
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

    /// Hands out an empty node: a new run at the end of both slabs.
    fn alloc(&mut self, leaf: bool) -> u32 {
        let node = u32::try_from(self.heads.len()).expect("node ids fit in u32");
        self.heads.push(NodeHead { len: 0, leaf });
        self.coords.resize(self.coords.len() + self.stride(), 0.0);
        self.slots.resize_with(self.slots.len() + self.cap(), || Slot::Vacant);
        node
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

    /// Assembles a tree from entries in leaf order (see [`crate::bulk`]):
    /// each run of `order` that `cuts` measures off becomes one leaf, its
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

    /// Inserts `rect → value` (ChooseSubtree, forced reinsert, split). The
    /// engine never calls this; `bench/src/bin/layers.rs` grows its trees
    /// with it, and [`crate::bulk_load`] fills a lone leaf with it.
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

    /// [`Self::search_filtered_stats`] with [`Probe::within`]`(point, eps)`.
    /// Kept for `bench/src/bin/layers.rs`, which probes its trees with it.
    pub fn search_within_filtered_stats(
        &self,
        point: &[f32],
        eps: f32,
        prefilter: impl FnMut(&V) -> bool,
    ) -> Result<(Vec<&V>, SearchStats)> {
        if point.len() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: point.len() });
        }
        let mut hits = Vec::new();
        let stats =
            self.search_filtered_stats(&Probe::within(point, eps)?, prefilter, |v| hits.push(v))?;
        Ok((hits, stats))
    }

    /// Hands every value `probe` hits ([`Probe::test`]) that passes
    /// `prefilter` to `sink`, in traversal order, and returns the probe
    /// statistics. The prefilter runs on each scanned leaf value *before*
    /// the geometry test: rejections are counted in
    /// [`SearchStats::prefilter_rejected`], survivors in
    /// [`SearchStats::exact_tested`]. It must be admissible: it may only
    /// reject entries the exact test would also reject.
    pub fn search_filtered_stats<'a>(
        &'a self,
        probe: &Probe,
        mut prefilter: impl FnMut(&V) -> bool,
        mut sink: impl FnMut(&'a V),
    ) -> Result<SearchStats> {
        if probe.dims() != self.dims {
            return Err(RStarError::DimensionMismatch { expected: self.dims, got: probe.dims() });
        }
        let mut stats = SearchStats::default();
        self.search_rec(self.root, probe, &mut stats, &mut prefilter, &mut sink);
        Ok(stats)
    }

    /// The descent: a child is entered when [`Probe::enters`] its bound, and
    /// a leaf entry that passes the prefilter is judged by [`Probe::test`].
    fn search_rec<'a>(
        &'a self,
        node: u32,
        probe: &Probe,
        stats: &mut SearchStats,
        prefilter: &mut impl FnMut(&V) -> bool,
        sink: &mut impl FnMut(&'a V),
    ) {
        stats.nodes_visited += 1;
        if !self.heads[node as usize].leaf {
            for (rect, slot) in self.pairs(node) {
                match slot {
                    Slot::Child(child) if probe.enters(rect) => {
                        self.search_rec(*child, probe, stats, prefilter, sink);
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
            let (lo, hi) = rect::corners(rect);
            match probe.test(lo, hi) {
                Verdict::Outside => {}
                Verdict::Pruned => stats.pruned += 1,
                Verdict::Hit => sink(value),
            }
        }
    }

    /// Checks structural invariants (used by tests): bounding rectangles
    /// contain their subtrees, all leaves at the same depth, node occupancy
    /// within `[m, M]` except the root, every arena node reachable exactly
    /// once, and no slot outside a node's live run occupied. Panics on
    /// violation; returns each leaf's entry count, in depth-first order.
    pub fn check_invariants(&self) -> Vec<usize> {
        let (mut reached, mut leaves) = (vec![false; self.heads.len()], Vec::new());
        self.check_node(self.root, self.height(), &mut reached, &mut leaves);
        assert_eq!(leaves.iter().sum::<usize>(), self.len, "length bookkeeping diverged");
        assert!(reached.iter().all(|&r| r), "arena node not reachable from the root");
        assert_eq!(self.coords.len(), self.heads.len() * self.stride());
        assert_eq!(self.slots.len(), self.heads.len() * self.cap());
        leaves
    }

    fn check_node(&self, node: u32, depth: usize, reached: &mut [bool], leaves: &mut Vec<usize>) {
        let seen = std::mem::replace(&mut reached[node as usize], true);
        assert!(!seen, "node {node} linked twice");
        let (params, n, root) = (&self.params, self.count(node), node == self.root);
        let run = &self.slots[node as usize * self.cap()..][..self.cap()];
        assert!(run[n..].iter().all(|s| matches!(s, Slot::Vacant)), "slot past a node's live run");
        assert!(n <= params.max_entries, "node overflow");
        if self.heads[node as usize].leaf {
            assert_eq!(depth, 1, "leaves must share a depth");
            assert!(root || n >= params.min_entries, "leaf underflow");
            assert!(run[..n].iter().all(|s| matches!(s, Slot::Value(_))), "leaf holds a non-value");
            leaves.push(n);
            return;
        }
        assert!(n >= if root { 2 } else { params.min_entries }, "internal underflow");
        for i in 0..n {
            let child = self.child(node, i);
            let entries = self.rects(child);
            let mut sub = entries[..self.width()].to_vec();
            for e in entries[self.width()..].chunks_exact(self.width()) {
                rect::union_into(&mut sub, e);
            }
            assert!(rect::contains(self.rect(node, i), &sub), "stale child bounding rect");
            self.check_node(child, depth - 1, reached, leaves);
        }
    }
}

/// What a search tests every leaf entry against: a box, compared in `f32`,
/// and for an ε-ball search the ball's centre and squared radius, compared
/// in `f64`. [`Probe::test`] is the one leaf test. The tree's descent
/// applies it to each leaf entry it reaches, and to each child bound, so it
/// skips a subtree the box misses or whose bound lies farther than ε from
/// the centre (MINDIST). A caller holding entries outside any tree applies
/// it to get exactly the hits a search returns.
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    /// Lower corner then upper, `2·d` floats.
    bounds: Vec<f32>,
    ball: Option<(&'a [f32], f64)>,
}

/// Where one entry stands against a [`Probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Outside the probe's box.
    Outside,
    /// Inside the box, outside the ε-ball: [`SearchStats::pruned`].
    Pruned,
    /// A hit.
    Hit,
}

impl<'a> Probe<'a> {
    /// The ε-ball probe of centroid signatures: the box `point ± eps`, then
    /// the ε-ball around `point`.
    pub fn within(point: &'a [f32], eps: f32) -> Result<Self> {
        let bounds = Rect::point(point)?.extended(eps).into_flat();
        Ok(Probe { bounds, ball: Some((point, (eps as f64) * (eps as f64))) })
    }

    /// The overlap probe of bounding-box signatures: `query` itself.
    pub fn intersecting(query: Rect) -> Self {
        Probe { bounds: query.into_flat(), ball: None }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.bounds.len() / 2
    }

    /// Judges the entry with corners `lo` and `hi`: its box against the
    /// probe's box in `f32` (closed boxes: touching counts), then its
    /// minimum distance to the ball's centre against the radius in `f64`.
    #[inline]
    pub fn test(&self, lo: &[f32], hi: &[f32]) -> Verdict {
        let (qlo, qhi) = rect::corners(&self.bounds);
        if !rect::intersects_corners(lo, hi, qlo, qhi) {
            return Verdict::Outside;
        }
        match self.ball {
            Some((centre, eps_sq)) if rect::min_dist_sq_corners(lo, hi, centre) > eps_sq => {
                Verdict::Pruned
            }
            _ => Verdict::Hit,
        }
    }

    /// Whether the descent enters a child whose bound is `rect`: [`Probe::test`]
    /// would hit the bound itself. This never refuses a subtree holding a hit:
    /// the bound contains the entry, so each `f32` gap `max(lo − p, p − hi, 0)`
    /// is no larger for the bound, and rounding keeps the `f64` squares and
    /// their sum, taken in dimension order, just as ordered.
    #[inline]
    fn enters(&self, rect: &[f32]) -> bool {
        let (lo, hi) = rect::corners(rect);
        self.test(lo, hi) == Verdict::Hit
    }
}

/// Counters a rectangle search accumulates, reported by
/// [`RStarTree::search_filtered_stats`] and surfaced in query traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes (leaf + internal) the descent entered: the root, and each
    /// node whose bound meets the probe's box and, for an ε-ball probe, lies
    /// within ε of its centre.
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

    /// The hits of `probe` that pass `prefilter`, in traversal order, and
    /// the search's statistics.
    fn search(
        t: &RStarTree<usize>,
        probe: &Probe,
        prefilter: impl FnMut(&usize) -> bool,
    ) -> (Vec<usize>, SearchStats) {
        let mut hits = Vec::new();
        let stats = t.search_filtered_stats(probe, prefilter, |id| hits.push(*id)).unwrap();
        (hits, stats)
    }

    /// The hits of `probe`, unfiltered, in traversal order.
    fn hits(t: &RStarTree<usize>, probe: &Probe) -> Vec<usize> {
        search(t, probe, |_| true).0
    }

    fn sorted(mut ids: Vec<usize>) -> Vec<usize> {
        ids.sort_unstable();
        ids
    }

    /// The ε-ball hits around `centre`, sorted.
    fn within(t: &RStarTree<usize>, centre: &[f32], eps: f32) -> Vec<usize> {
        sorted(hits(t, &Probe::within(centre, eps).unwrap()))
    }

    /// The entries `query` overlaps, sorted.
    fn crossing(t: &RStarTree<usize>, query: &Rect) -> Vec<usize> {
        sorted(hits(t, &Probe::intersecting(query.clone())))
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
            let probe = Probe::within(&q, 0.085).unwrap();
            let (found, stats) = search(tree, &probe, |_| true);
            nodes += stats.nodes_visited;
            exact += stats.exact_tested;
            pruned += stats.pruned;
            hits += found.len();
            mix(found.len());
            found.into_iter().for_each(&mut mix);
        }
        (nodes, exact, pruned, hits, fnv)
    }

    /// The grown tree is pinned to the boxed-node tree this arena replaced
    /// (commit 3ec4089): the same heuristics on the same inputs must build
    /// the same tree, entry order inside every node included, so the hit
    /// counts and ordered-hit hashes are that tree's. Nodes entered, entries
    /// tested and entries pruned were re-pinned when the descent began
    /// refusing subtrees farther than ε from the probe, which changes the
    /// walk, not the tree.
    #[test]
    fn grown_shape_is_pinned() {
        let pts = pin_points();
        let mut inc = RStarTree::with_dims(12).unwrap();
        for (i, p) in pts.iter().enumerate() {
            inc.insert(pt(p), i).unwrap();
        }
        assert_eq!(inc.height(), 4);
        assert_eq!(pin_probe(&inc, &pts), (1632, 13449, 6798, 5695, 2064370187531075296));
    }

    /// The packed tree is pinned to the variance-bisection loader: the
    /// loader must stay a pure function of its input.
    #[test]
    fn packed_shape_is_pinned() {
        let pts = pin_points();
        let packed =
            crate::bulk_load(12, RStarParams::default(), pts.len(), |i| (&pts[i], &pts[i]), |i| i)
                .unwrap();
        assert_eq!(packed.height(), 4);
        assert_eq!(pin_probe(&packed, &pts), (1388, 14308, 6802, 5695, 9349982608175779256));
    }

    /// Inserts into a packed tree split its full leaves and grow its root:
    /// every node the arena then holds hangs off the root exactly once, and
    /// every entry is still found.
    #[test]
    fn inserts_into_a_packed_tree_keep_every_node_reachable() {
        let mut next = lcg(0xB01D_1A5E);
        let points: Vec<Vec<f32>> = (0..1_200).map(|_| vec![next(), next(), next()]).collect();
        let (packed, grown) = points.split_at(40);
        let corners = |i: usize| (packed[i].as_slice(), packed[i].as_slice());
        let mut t = crate::bulk_load(3, RStarParams::default(), packed.len(), corners, |i| i)
            .unwrap();
        let (nodes, height) = (t.heads.len(), t.height());
        for (i, p) in grown.iter().enumerate() {
            t.insert(pt(p), packed.len() + i).unwrap();
        }
        assert!(t.heads.len() > nodes && t.height() > height, "the inserts must split");
        t.check_invariants();
        for (i, p) in points.iter().enumerate() {
            assert!(within(&t, p, 0.0).contains(&i), "lost entry {i}");
        }
    }

    #[test]
    fn empty_tree_queries() {
        let t: RStarTree<usize> = RStarTree::with_dims(2).unwrap();
        assert!(t.is_empty());
        assert!(crossing(&t, &pt(&[0.0, 0.0])).is_empty());
        assert!(within(&t, &[0.0, 0.0], 10.0).is_empty());
    }

    #[test]
    fn intersection_query_matches_linear_scan() {
        let points = grid_points(12);
        let t = build(&points);
        t.check_invariants();
        let query = Rect::new(vec![2.5, 3.5], vec![7.0, 9.0]).unwrap();
        let got = crossing(&t, &query);
        let want: Vec<usize> = points
            .iter()
            .filter(|(r, _)| r.intersects(&query))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(got, sorted(want));
        assert!(!got.is_empty());
    }

    #[test]
    fn within_query_matches_linear_scan() {
        let points = grid_points(10);
        let t = build(&points);
        for (center, eps) in [([4.2f32, 4.8], 1.5f32), ([0.0, 0.0], 3.0), ([9.0, 9.0], 0.5)] {
            let want: Vec<usize> = points
                .iter()
                .filter(|(r, _)| r.min_dist_sq(&center) <= (eps as f64) * (eps as f64))
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(within(&t, &center, eps), sorted(want), "center {center:?} eps {eps}");
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
        let ids = crossing(&t, &Rect::new(vec![1.5, 1.5], vec![1.6, 1.6]).unwrap());
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
        assert_eq!(within(&t, &[1.0, 1.0], 0.0).len(), 50);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut t: RStarTree<usize> = RStarTree::with_dims(3).unwrap();
        assert!(t.insert(pt(&[1.0, 2.0]), 0).is_err());
        let narrow = Probe::within(&[1.0], 0.5).unwrap();
        assert!(t.search_filtered_stats(&narrow, |_| true, |_| {}).is_err());
        let wide = Probe::intersecting(pt(&[1.0, 2.0, 3.0, 4.0]));
        assert!(t.search_filtered_stats(&wide, |_| true, |_| {}).is_err());
        assert!(t.search_within_filtered_stats(&[1.0], 0.5, |_| true).is_err());
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
        let ball = Probe::within(&center, eps).unwrap();
        let (plain, plain_stats) = search(&t, &ball, |_| true);
        // Unfiltered: every scanned entry reaches the exact test.
        assert_eq!(plain_stats.prefilter_rejected, 0);
        assert!(plain_stats.exact_tested >= plain.len());
        // The point-and-ε form is the same search.
        let (same, same_stats) =
            t.search_within_filtered_stats(&center, eps, |_| true).unwrap();
        let ids = |v: &[usize]| sorted(v.to_vec());
        assert_eq!(ids(&plain), sorted(same.into_iter().copied().collect()));
        assert_eq!(plain_stats, same_stats);
        // A value-keyed prefilter skips rejected entries before the
        // geometry test and counts them.
        let keep = |v: &usize| *v % 2 == 0;
        let (filtered, fstats) = search(&t, &ball, keep);
        assert!(fstats.prefilter_rejected > 0);
        assert_eq!(fstats.prefilter_rejected + fstats.exact_tested, plain_stats.exact_tested);
        let expected: Vec<usize> = ids(&plain).into_iter().filter(|v| v % 2 == 0).collect();
        assert_eq!(ids(&filtered), expected);
        // Same contract for a box probe.
        let square = Probe::intersecting(Rect::new(vec![2.0, 2.0], vec![4.0, 4.0]).unwrap());
        let (inter, _) = search(&t, &square, |_| true);
        let (inter_f, istats) = search(&t, &square, keep);
        assert!(istats.prefilter_rejected > 0);
        let expected: Vec<usize> = ids(&inter).into_iter().filter(|v| v % 2 == 0).collect();
        assert_eq!(ids(&inter_f), expected);
    }

    /// [`Probe::test`] over a flat list of entries is the whole search:
    /// on seeded random points and boxes, the entries it calls hits are
    /// exactly what the tree's search returns for the same probe.
    #[test]
    fn the_leaf_test_over_a_flat_list_is_the_search() {
        let mut next = lcg(0x1EAF_7E57);
        let dims = 6;
        let mut corners = Vec::new();
        for i in 0..600 {
            let lo: Vec<f32> = (0..dims).map(|_| next()).collect();
            // Every other entry is a box, the rest are points.
            let hi: Vec<f32> =
                lo.iter().map(|&v| if i % 2 == 0 { v } else { v + next() * 0.1 }).collect();
            corners.push((lo, hi));
        }
        let mut tree = RStarTree::with_dims(dims).unwrap();
        for (i, (lo, hi)) in corners.iter().enumerate() {
            tree.insert(Rect::new(lo.clone(), hi.clone()).unwrap(), i).unwrap();
        }
        let scan = |probe: &Probe| -> Vec<usize> {
            let hits = corners.iter().enumerate();
            let hits = hits.filter(|(_, (lo, hi))| probe.test(lo, hi) == Verdict::Hit);
            sorted(hits.map(|(i, _)| i).collect())
        };
        let mut nonempty = 0;
        for _ in 0..40 {
            let centre: Vec<f32> = (0..dims).map(|_| next()).collect();
            let eps = 0.1 + next() * 0.4;
            let near = within(&tree, &centre, eps);
            assert_eq!(scan(&Probe::within(&centre, eps).unwrap()), near, "{centre:?} ± {eps}");
            let query = Rect::point(&centre).unwrap().extended(eps);
            assert_eq!(scan(&Probe::intersecting(query.clone())), crossing(&tree, &query));
            nonempty += usize::from(!near.is_empty());
        }
        assert!(nonempty > 10, "the probes must find something");
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
        assert_eq!(within(&t, &[0.0, 0.0], 1.0).len(), 200);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Differential test against a linear scan, probing after every
        /// insert of a grown tree: new point and box entries, and copies of
        /// entries already in the tree.
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
            // Every rectangle inserted, in insertion order.
            let mut known: Vec<Rect> = Vec::new();
            let mut pick = lcg(seed ^ 0x9E37_79B9);
            for step in 0..160 {
                let at = (pick() * known.len() as f32) as usize;
                let rect = match known.get(at) {
                    // One insert in four repeats an entry already there.
                    Some(copy) if pick() < 0.25 => copy.clone(),
                    _ => random_rect(step % 3 == 0),
                };
                known.push(rect.clone());
                tree.insert(rect, known.len() - 1).unwrap();
                tree.check_invariants();
                proptest::prop_assert_eq!(tree.len(), known.len());

                let probe = random_rect(true);
                let eps = 0.05 + pick() * 0.4;
                let ball = Probe::within(probe.min(), eps).unwrap();
                let square = Probe::intersecting(probe.clone());
                // The same probe twice returns the same hits in the same order.
                proptest::prop_assert_eq!(hits(&tree, &ball), hits(&tree, &ball));
                proptest::prop_assert_eq!(hits(&tree, &square), hits(&tree, &square));
                let eps_sq = (eps as f64) * (eps as f64);
                let all = || known.iter().enumerate();
                let want_within: Vec<usize> = all()
                    .filter(|(_, r)| r.min_dist_sq(probe.min()) <= eps_sq)
                    .map(|(i, _)| i)
                    .collect();
                let want_boxed: Vec<usize> =
                    all().filter(|(_, r)| r.intersects(&probe)).map(|(i, _)| i).collect();
                proptest::prop_assert_eq!(sorted(hits(&tree, &ball)), want_within);
                proptest::prop_assert_eq!(crossing(&tree, &probe), want_boxed);
            }
        }

        /// The same differential test for a packed tree — as loaded, then
        /// under inserts that land in its full leaves — at the sizes where
        /// the tiling is delicate: none, one, a full leaf (`M` = 16), one
        /// more, `2M − 1`, tails the `m`-rebalancing has to borrow for, and
        /// many.
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
            let mut known: Vec<Rect> = (0..n).map(|_| random_rect(boxed)).collect();
            let corners = |i: usize| (known[i].min(), known[i].max());
            let mut tree =
                crate::bulk_load(dims, RStarParams::default(), n, corners, |i| i).unwrap();
            if n > tree.params.max_entries {
                // The slabs were reserved once, to the node.
                proptest::prop_assert_eq!(tree.heads.capacity(), tree.heads.len());
                proptest::prop_assert_eq!(tree.coords.capacity(), tree.coords.len());
                proptest::prop_assert_eq!(tree.slots.capacity(), tree.slots.len());
            }
            let mut pick = lcg(seed ^ 0x9E37_79B9);
            for _ in 0..48 {
                tree.check_invariants();
                proptest::prop_assert_eq!(tree.len(), known.len());
                let probe = random_rect(true);
                let eps = 0.05 + pick() * if dims == 12 { 0.8 } else { 0.2 };
                let all = || known.iter().enumerate();
                let eps_sq = (eps as f64) * (eps as f64);
                let want_within: Vec<usize> = all()
                    .filter(|(_, r)| r.min_dist_sq(probe.min()) <= eps_sq)
                    .map(|(i, _)| i)
                    .collect();
                let want_boxed: Vec<usize> =
                    all().filter(|(_, r)| r.intersects(&probe)).map(|(i, _)| i).collect();
                proptest::prop_assert_eq!(within(&tree, probe.min(), eps), want_within);
                proptest::prop_assert_eq!(crossing(&tree, &probe), want_boxed);
                // The first round probed the tree as packed; from here on,
                // grow it, near an existing entry when there is one, so the
                // insert descends into a leaf the loader filled.
                let at = (pick() * known.len() as f32) as usize;
                let rect = match known.get(at) {
                    Some(near) => near.clone(),
                    None => random_rect(boxed),
                };
                known.push(rect.clone());
                tree.insert(rect, known.len() - 1).unwrap();
            }
        }
    }
}
