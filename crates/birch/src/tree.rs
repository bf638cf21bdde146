//! The CF-tree: BIRCH's height-balanced incremental clustering index.
//!
//! Each leaf holds up to `L` clustering features (sub-clusters); each
//! internal node holds up to `B` children, each summarized by the CF of its
//! subtree. Inserting a point descends to the closest leaf entry (by
//! centroid distance at every level), absorbs the point when the merged
//! radius stays within the threshold `T`, and otherwise starts a new entry —
//! splitting nodes on overflow with farthest-pair seeding, exactly the
//! BIRCH phase-1 insertion.
//!
//! When an optional budget on the number of leaf entries is exceeded, the
//! tree *rebuilds*: the threshold is escalated and all leaf entries are
//! reinserted (CFs merge with the same radius test), shrinking the tree —
//! BIRCH's answer to a fixed memory budget. WALRUS passes the cluster
//! threshold `ε_c` straight through as `T`, so each harvested cluster's
//! radius is (by construction) at most `ε_c`.

use crate::cf::ClusteringFeature;
use crate::{BirchError, Result};

/// CF-tree parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirchParams {
    /// Maximum children per internal node (`B`), ≥ 2.
    pub branching: usize,
    /// Maximum entries per leaf (`L`), ≥ 2.
    pub leaf_capacity: usize,
    /// Radius threshold `T` (WALRUS's `ε_c`), ≥ 0.
    pub threshold: f64,
    /// Optional cap on total leaf entries; exceeding it triggers threshold
    /// escalation + rebuild.
    pub max_leaf_entries: Option<usize>,
}

impl Default for BirchParams {
    /// Defaults in the spirit of the BIRCH paper's suggested configuration.
    fn default() -> Self {
        Self { branching: 8, leaf_capacity: 8, threshold: 0.0, max_leaf_entries: None }
    }
}

impl BirchParams {
    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<()> {
        if self.branching < 2 {
            return Err(BirchError::BadParams("branching factor must be >= 2".into()));
        }
        if self.leaf_capacity < 2 {
            return Err(BirchError::BadParams("leaf capacity must be >= 2".into()));
        }
        if !self.threshold.is_finite() || self.threshold < 0.0 {
            return Err(BirchError::BadParams(format!("threshold {} invalid", self.threshold)));
        }
        if let Some(m) = self.max_leaf_entries {
            if m < 2 {
                return Err(BirchError::BadParams("max_leaf_entries must be >= 2".into()));
            }
        }
        Ok(())
    }
}

/// Per-node header: how many of the node's entry slots are live, and whether
/// they are leaf entries (sub-clusters) or summaries of child nodes.
#[derive(Debug, Clone, Copy)]
struct NodeHead {
    len: u32,
    leaf: bool,
}

/// The CF being inserted, with its centroid `LS / N` computed once.
#[derive(Debug, Clone)]
struct Probe {
    n: u64,
    ss: f64,
    ls: Vec<f64>,
    centroid: Vec<f64>,
}

/// The CF-tree.
///
/// Nodes live in an arena: a node is a `u32` id, and node `k` owns a fixed
/// run of `cap = max(B, L) + 1` entry slots (one more than a node may keep,
/// for the overflowing entry a split then takes out) in parallel slabs. An
/// entry is a clustering feature — `n[slot]`, `ss[slot]` and the `dims`-long
/// run `ls[slot·dims..]` — plus its cached centroid `centroid[slot·dims..]`
/// (`LS / N`, the same division [`ClusteringFeature::centroid`] performs,
/// redone only when the entry changes) and, in an internal node, the child it
/// summarizes. Live entries are packed at the front of the run in the node's
/// entry order. Nodes are never freed one at a time; a rebuild clears the
/// whole arena.
#[derive(Debug, Clone)]
pub struct CfTree {
    dims: usize,
    params: BirchParams,
    threshold: f64,
    leaf_entries: usize,
    points: u64,
    rebuilds: usize,
    splits: usize,
    root: u32,
    cap: usize,
    heads: Vec<NodeHead>,
    n: Vec<u64>,
    ss: Vec<f64>,
    ls: Vec<f64>,
    centroid: Vec<f64>,
    child: Vec<u32>,
    probe: Probe,
    /// Scratch: `(node, chosen entry)` per internal level of the descent.
    path: Vec<(u32, usize)>,
    /// Scratch: one distance per entry of the node being scanned.
    dist: Vec<f64>,
    /// Scratch: which entries of a splitting node move to the sibling.
    moves: Vec<bool>,
}

impl CfTree {
    /// Creates an empty tree over `dims`-dimensional points.
    pub fn new(dims: usize, params: BirchParams) -> Result<Self> {
        params.validate()?;
        if dims == 0 {
            return Err(BirchError::BadParams("dimensionality must be >= 1".into()));
        }
        let cap = params.branching.max(params.leaf_capacity) + 1;
        let mut tree = Self {
            dims,
            threshold: params.threshold,
            params,
            leaf_entries: 0,
            points: 0,
            rebuilds: 0,
            splits: 0,
            root: 0,
            cap,
            heads: Vec::new(),
            n: Vec::new(),
            ss: Vec::new(),
            ls: Vec::new(),
            centroid: Vec::new(),
            child: Vec::new(),
            probe: Probe { n: 0, ss: 0.0, ls: vec![0.0; dims], centroid: vec![0.0; dims] },
            path: Vec::new(),
            dist: vec![0.0; cap],
            moves: vec![false; cap],
        };
        tree.root = tree.alloc(true);
        Ok(tree)
    }

    /// Inserts one point.
    pub fn insert(&mut self, point: &[f32]) -> Result<()> {
        if point.len() != self.dims {
            return Err(BirchError::DimensionMismatch { expected: self.dims, got: point.len() });
        }
        // The CF of a single point, accumulated exactly as
        // `ClusteringFeature::add_point` does from an empty CF.
        self.probe.n = 1;
        for (s, &p) in self.probe.ls.iter_mut().zip(point) {
            *s = 0.0 + p as f64;
        }
        self.probe.ss = 0.0 + point.iter().map(|&p| (p as f64) * (p as f64)).sum::<f64>();
        // `LS / 1` is `LS`.
        self.probe.centroid.copy_from_slice(&self.probe.ls);
        self.insert_probe_within_budget();
        Ok(())
    }

    fn insert_probe_within_budget(&mut self) {
        self.insert_probe();
        if let Some(budget) = self.params.max_leaf_entries {
            while self.leaf_entries > budget {
                self.rebuild();
            }
        }
    }

    /// Escalates the threshold and reinserts every leaf entry, shrinking the
    /// tree. Public so callers can compact explicitly.
    pub fn rebuild(&mut self) {
        // The old slabs are set aside whole and read by slot, in leaf order,
        // while a fresh arena grows.
        let mut slots = Vec::with_capacity(self.leaf_entries);
        self.leaf_slots(self.root, &mut slots);
        let dims = self.dims;
        let (n, ss) = (std::mem::take(&mut self.n), std::mem::take(&mut self.ss));
        let (ls, centroid) = (std::mem::take(&mut self.ls), std::mem::take(&mut self.centroid));
        let run = |slot: usize| slot * dims..(slot + 1) * dims;

        self.threshold = escalate_threshold(self.threshold, &slots, |s| &centroid[run(s)]);
        self.rebuilds += 1;
        self.heads.clear();
        self.child.clear();
        self.root = self.alloc(true);
        self.leaf_entries = 0;
        self.points = 0;
        for &s in &slots {
            // Reinsertion cannot trigger a nested rebuild loop: this is the
            // core insertion path, without the budget check.
            self.probe.n = n[s];
            self.probe.ss = ss[s];
            self.probe.ls.copy_from_slice(&ls[run(s)]);
            self.probe.centroid.copy_from_slice(&centroid[run(s)]);
            self.insert_probe();
        }
    }

    /// All leaf entries (the clusters), cloned out of the tree.
    pub fn leaf_entry_clones(&self) -> Vec<ClusteringFeature> {
        let mut slots = Vec::with_capacity(self.leaf_entries);
        self.leaf_slots(self.root, &mut slots);
        slots
            .into_iter()
            .map(|s| {
                let ls = self.ls[s * self.dims..(s + 1) * self.dims].to_vec();
                ClusteringFeature::from_parts(self.n[s], ls, self.ss[s])
            })
            .collect()
    }

    /// The leaf entries' cached centroids, in leaf order, as one
    /// `clusters × dims` row-major run.
    pub(crate) fn leaf_centroids(&self) -> Vec<f64> {
        let mut slots = Vec::with_capacity(self.leaf_entries);
        self.leaf_slots(self.root, &mut slots);
        let mut out = Vec::with_capacity(slots.len() * self.dims);
        for s in slots {
            out.extend_from_slice(&self.centroid[s * self.dims..(s + 1) * self.dims]);
        }
        out
    }

    /// Number of leaf entries (= clusters).
    pub fn num_clusters(&self) -> usize {
        self.leaf_entries
    }

    /// Number of points inserted (counting CF weights).
    pub fn num_points(&self) -> u64 {
        self.points
    }

    /// Current radius threshold (may exceed the initial `T` after rebuilds).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// How many threshold-escalation rebuilds have happened.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Cumulative node splits (leaf + internal) over the tree's lifetime,
    /// including splits replayed during rebuilds.
    pub fn split_count(&self) -> usize {
        self.splits
    }

    /// Tree height (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        while !self.heads[node as usize].leaf {
            h += 1;
            node = self.child[node as usize * self.cap];
        }
        h
    }

    /// A fresh empty node at the end of every slab.
    fn alloc(&mut self, leaf: bool) -> u32 {
        let id = self.heads.len();
        self.heads.push(NodeHead { len: 0, leaf });
        let slots = (id + 1) * self.cap;
        self.n.resize(slots, 0);
        self.ss.resize(slots, 0.0);
        self.ls.resize(slots * self.dims, 0.0);
        self.centroid.resize(slots * self.dims, 0.0);
        self.child.resize(slots, 0);
        id as u32
    }

    #[inline]
    fn len(&self, node: u32) -> usize {
        self.heads[node as usize].len as usize
    }

    /// First entry slot of `node`.
    #[inline]
    fn base(&self, node: u32) -> usize {
        debug_assert!((node as usize) < self.heads.len());
        node as usize * self.cap
    }

    /// Appends the slots of every leaf entry under `node`, in entry order.
    fn leaf_slots(&self, node: u32, out: &mut Vec<usize>) {
        let base = self.base(node);
        for slot in base..base + self.len(node) {
            if self.heads[node as usize].leaf {
                out.push(slot);
            } else {
                self.leaf_slots(self.child[slot], out);
            }
        }
    }

    /// The core insertion path for the CF held in `self.probe`: descend to
    /// the closest leaf entry by centroid distance, absorb or append, and
    /// split back up the path on overflow.
    fn insert_probe(&mut self) {
        self.points += self.probe.n;
        self.path.clear();
        let mut node = self.root;
        while !self.heads[node as usize].leaf {
            let i = self.closest_entry(node).expect("internal nodes are never empty");
            self.path.push((node, i));
            node = self.child[self.base(node) + i];
        }

        let absorbed = match self.closest_entry(node) {
            Some(i) if self.merged_radius(self.base(node) + i) <= self.threshold => {
                self.absorb(self.base(node) + i);
                true
            }
            _ => false,
        };
        let mut sibling = None;
        if !absorbed {
            self.leaf_entries += 1;
            let slot = self.base(node) + self.len(node);
            self.n[slot] = self.probe.n;
            self.ss[slot] = self.probe.ss;
            self.ls[slot * self.dims..(slot + 1) * self.dims].copy_from_slice(&self.probe.ls);
            self.centroid[slot * self.dims..(slot + 1) * self.dims]
                .copy_from_slice(&self.probe.centroid);
            self.heads[node as usize].len += 1;
            if self.len(node) > self.params.leaf_capacity {
                sibling = Some(self.split(node));
            }
        }

        while let Some((parent, i)) = self.path.pop() {
            let slot = self.base(parent) + i;
            let Some(sib) = sibling.take() else {
                self.absorb(slot);
                continue;
            };
            // The child split: both summaries are recomputed from their
            // entries, and the sibling takes the entry position after it.
            self.summarize(node, slot);
            let end = self.base(parent) + self.len(parent);
            let dims = self.dims;
            self.n.copy_within(slot + 1..end, slot + 2);
            self.ss.copy_within(slot + 1..end, slot + 2);
            self.child.copy_within(slot + 1..end, slot + 2);
            self.ls.copy_within((slot + 1) * dims..end * dims, (slot + 2) * dims);
            self.centroid.copy_within((slot + 1) * dims..end * dims, (slot + 2) * dims);
            self.heads[parent as usize].len += 1;
            self.summarize(sib, slot + 1);
            self.child[slot + 1] = sib;
            if self.len(parent) > self.params.branching {
                sibling = Some(self.split(parent));
            }
            node = parent;
        }
        // `node` is the root here whenever a sibling is still pending.
        if let Some(sib) = sibling {
            let old = self.root;
            self.root = self.alloc(false);
            let base = self.base(self.root);
            self.heads[self.root as usize].len = 2;
            for (slot, child) in [(base, old), (base + 1, sib)] {
                self.summarize(child, slot);
                self.child[slot] = child;
            }
        }
    }

    /// Index of the entry of `node` whose centroid is closest to the
    /// probe's — the first one on ties, and a NaN distance never displaces
    /// the incumbent (`Iterator::min_by` with `partial_cmp` or `Equal`).
    /// Every distance is computed once, from the cached centroids; a lone
    /// entry wins whatever its distance, so none is computed for it.
    fn closest_entry(&mut self, node: u32) -> Option<usize> {
        let len = self.len(node);
        if len == 1 {
            return Some(0);
        }
        let dims = self.dims;
        let base = self.base(node) * dims;
        let centroids = &self.centroid[base..base + len * dims];
        for (d, c) in self.dist.iter_mut().zip(centroids.chunks_exact(dims)) {
            *d = distance(c, &self.probe.centroid);
        }
        let dist = &self.dist[..len];
        let mut best = 0;
        for k in 1..len {
            if dist[k] < dist[best] {
                best = k;
            }
        }
        (len > 0).then_some(best)
    }

    /// Radius the entry at `slot` would have after absorbing the probe —
    /// [`ClusteringFeature::radius`] of the merged CF, from the sums alone
    /// (N, LS, SS are additive). Neither side is empty, so `N ≥ 2`.
    fn merged_radius(&self, slot: usize) -> f64 {
        debug_assert!(self.n[slot] >= 1 && self.probe.n >= 1);
        let n = (self.n[slot] + self.probe.n) as f64;
        let ls = &self.ls[slot * self.dims..(slot + 1) * self.dims];
        let centroid_sq: f64 = ls
            .iter()
            .zip(&self.probe.ls)
            .map(|(a, b)| {
                let c = (a + b) / n;
                c * c
            })
            .sum();
        ((self.ss[slot] + self.probe.ss) / n - centroid_sq).max(0.0).sqrt()
    }

    /// Merges the probe into the entry at `slot` and refreshes its centroid.
    fn absorb(&mut self, slot: usize) {
        self.n[slot] += self.probe.n;
        self.ss[slot] += self.probe.ss;
        let n = self.n[slot] as f64;
        let at = slot * self.dims;
        let ls = &mut self.ls[at..at + self.dims];
        let centroid = &mut self.centroid[at..at + self.dims];
        for ((s, c), p) in ls.iter_mut().zip(centroid).zip(&self.probe.ls) {
            *s += p;
            *c = *s / n;
        }
    }

    /// Writes the summary of `node` — the sum of its entries, in entry order,
    /// from an empty CF — into the entry at `slot` (of another node).
    fn summarize(&mut self, node: u32, slot: usize) {
        let dims = self.dims;
        let base = self.base(node);
        debug_assert!(slot < base || slot >= base + self.cap);
        self.n[slot] = 0;
        self.ss[slot] = 0.0;
        self.ls[slot * dims..(slot + 1) * dims].fill(0.0);
        for e in base..base + self.len(node) {
            self.n[slot] += self.n[e];
            self.ss[slot] += self.ss[e];
            for d in 0..dims {
                self.ls[slot * dims + d] += self.ls[e * dims + d];
            }
        }
        debug_assert!(self.n[slot] > 0, "only occupied nodes are summarized");
        let n = self.n[slot] as f64;
        for d in 0..dims {
            self.centroid[slot * dims + d] = self.ls[slot * dims + d] / n;
        }
    }

    /// Splits an over-full node: seeds are the farthest entry pair by
    /// centroid distance; each entry joins the nearer seed (the first on
    /// ties), keeping its relative order. The sibling's id is returned.
    fn split(&mut self, node: u32) -> u32 {
        self.splits += 1;
        let dims = self.dims;
        let len = self.len(node);
        let base = self.base(node);
        // Every entry's side is decided before any entry moves, so the two
        // seed centroids are read in place.
        let centroid = |e: usize| &self.centroid[(base + e) * dims..(base + e + 1) * dims];
        let (i, j) = farthest_pair(len, |a, b| distance(centroid(a), centroid(b)));
        for e in 0..len {
            let stays = e == i
                || (e != j
                    && distance(centroid(i), centroid(e)) <= distance(centroid(j), centroid(e)));
            self.moves[e] = !stays;
        }

        let sibling = self.alloc(self.heads[node as usize].leaf);
        let (mut left, mut right) = (base, self.base(sibling));
        for e in base..base + len {
            let to = if self.moves[e - base] { &mut right } else { &mut left };
            if *to != e {
                self.n[*to] = self.n[e];
                self.ss[*to] = self.ss[e];
                self.child[*to] = self.child[e];
                self.ls.copy_within(e * dims..(e + 1) * dims, *to * dims);
                self.centroid.copy_within(e * dims..(e + 1) * dims, *to * dims);
            }
            *to += 1;
        }
        self.heads[node as usize].len = (left - base) as u32;
        self.heads[sibling as usize].len = (right - self.base(sibling)) as u32;
        sibling
    }
}

/// D0 metric between two centroids: `sqrt(Σ (a − b)²)`, summed left to right.
#[inline]
fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

fn farthest_pair(len: usize, dist: impl Fn(usize, usize) -> f64) -> (usize, usize) {
    debug_assert!(len >= 2);
    let mut best = (0usize, 1usize);
    let mut best_d = -1.0f64;
    for i in 0..len {
        for j in i + 1..len {
            let d = dist(i, j);
            if d > best_d {
                best_d = d;
                best = (i, j);
            }
        }
    }
    best
}

/// New threshold after a budget overflow: double the old one, or — when the
/// old threshold is zero/tiny — the smallest nonzero distance between the
/// centroids of the first 256 leaf entries, so the next pass is guaranteed to
/// merge *something*.
fn escalate_threshold<'a>(old: f64, entries: &[usize], centroid: impl Fn(usize) -> &'a [f64]) -> f64 {
    let entries = &entries[..entries.len().min(256)];
    let mut min_dist = f64::INFINITY;
    for (i, &a) in entries.iter().enumerate() {
        for &b in &entries[i + 1..] {
            let d = distance(centroid(a), centroid(b));
            if d > 0.0 && d < min_dist {
                min_dist = d;
            }
        }
    }
    let floor = if min_dist.is_finite() { min_dist } else { 1e-6 };
    (old * 2.0).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(threshold: f64) -> CfTree {
        CfTree::new(2, BirchParams { threshold, ..BirchParams::default() }).unwrap()
    }

    /// Arena consistency: every node is reachable exactly once, holds at
    /// most its capacity, every cached centroid is bitwise `LS / N`, and
    /// every internal entry counts exactly the points below it.
    fn check_arena(t: &CfTree) {
        fn visit(t: &CfTree, node: u32, seen: &mut [bool]) -> u64 {
            assert!(!std::mem::replace(&mut seen[node as usize], true), "node {node} reached twice");
            let head = t.heads[node as usize];
            let limit = if head.leaf { t.params.leaf_capacity } else { t.params.branching };
            assert!(head.len as usize <= limit, "node {node} over capacity");
            assert!(head.len > 0 || node == t.root);
            let mut total = 0;
            for slot in t.base(node)..t.base(node) + head.len as usize {
                for d in 0..t.dims {
                    let want = t.ls[slot * t.dims + d] / t.n[slot] as f64;
                    assert_eq!(t.centroid[slot * t.dims + d].to_bits(), want.to_bits());
                }
                if !head.leaf {
                    assert_eq!(visit(t, t.child[slot], seen), t.n[slot]);
                }
                total += t.n[slot];
            }
            total
        }
        let mut seen = vec![false; t.heads.len()];
        assert_eq!(visit(t, t.root, &mut seen), t.points);
        assert!(seen.iter().all(|&s| s), "arena holds an unreachable node");
    }

    #[test]
    fn arena_stays_consistent_through_splits_and_rebuilds() {
        let params = BirchParams { threshold: 0.01, max_leaf_entries: Some(40), ..Default::default() };
        let mut t = CfTree::new(3, params).unwrap();
        for i in 0..600u32 {
            let v = |k: u32| (i.wrapping_mul(k) % 1000) as f32 / 1000.0;
            t.insert(&[v(2654435761), v(40503), v(7919)]).unwrap();
            if i % 50 == 0 {
                check_arena(&t);
            }
        }
        check_arena(&t);
        assert!(t.rebuild_count() > 0 && t.split_count() > 0 && t.height() > 1);
        assert_eq!(t.num_points(), 600);
        // A rebuild starts a fresh arena: no node of the old tree survives.
        let nodes = t.heads.len();
        t.rebuild();
        check_arena(&t);
        assert!(t.heads.len() <= nodes);
    }

    #[test]
    fn nan_entry_keeps_the_boxed_trees_behaviour() {
        // A NaN distance never displaces the incumbent of the "closest"
        // scan, and `f64::max` drops a NaN radicand to 0, so a NaN entry in
        // front absorbs whatever reaches its leaf. Odd, but it is what the
        // comparison and radius formulas have always done, and finite
        // signatures never get here.
        let mut t = tree(0.5);
        t.insert(&[f32::NAN, 0.0]).unwrap();
        t.insert(&[1.0, 1.0]).unwrap();
        t.insert(&[9.0, 9.0]).unwrap();
        let counts: Vec<u64> = t.leaf_entry_clones().iter().map(|e| e.count()).collect();
        assert_eq!(counts, vec![3]);
    }

    #[test]
    fn empty_tree() {
        let t = tree(0.1);
        assert_eq!(t.num_clusters(), 0);
        assert_eq!(t.num_points(), 0);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn two_well_separated_blobs_become_two_clusters() {
        let mut t = tree(0.5);
        for i in 0..20 {
            let eps = (i % 5) as f32 * 0.01;
            t.insert(&[0.0 + eps, 0.0 - eps]).unwrap();
            t.insert(&[10.0 + eps, 10.0 - eps]).unwrap();
        }
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.num_points(), 40);
        let mut centroids: Vec<Vec<f64>> =
            t.leaf_entry_clones().iter().map(|c| c.centroid()).collect();
        centroids.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!(centroids[0][0] < 1.0 && centroids[1][0] > 9.0);
    }

    #[test]
    fn every_cluster_radius_within_threshold() {
        let mut t = tree(0.2);
        // A pseudo-random scatter.
        for i in 0..500u32 {
            let x = ((i.wrapping_mul(2654435761)) % 1000) as f32 / 1000.0;
            let y = ((i.wrapping_mul(40503)) % 1000) as f32 / 1000.0;
            t.insert(&[x, y]).unwrap();
        }
        for cf in t.leaf_entry_clones() {
            assert!(cf.radius() <= 0.2 + 1e-9, "radius {} exceeds threshold", cf.radius());
        }
        // Point count is conserved across splits.
        let total: u64 = t.leaf_entry_clones().iter().map(|c| c.count()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn zero_threshold_keeps_distinct_points_distinct() {
        let mut t = tree(0.0);
        for i in 0..20 {
            t.insert(&[i as f32, 0.0]).unwrap();
        }
        assert_eq!(t.num_clusters(), 20);
        // Identical points still merge (radius stays 0).
        t.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(t.num_clusters(), 20);
        assert_eq!(t.num_points(), 21);
    }

    #[test]
    fn equidistant_entries_resolve_to_the_first() {
        // [1, 0] is exactly 1.0 from both leaf entries; the first one must
        // absorb it (`min_by` keeps the incumbent on `Equal`), in either
        // insertion order of the two entries.
        for (first, second) in [([0.0f32, 0.0], [2.0f32, 0.0]), ([2.0, 0.0], [0.0, 0.0])] {
            let mut t = tree(0.6);
            t.insert(&first).unwrap();
            t.insert(&second).unwrap();
            assert_eq!(t.num_clusters(), 2);
            let probe = ClusteringFeature::from_point(&[1.0, 0.0]);
            let entries = t.leaf_entry_clones();
            assert_eq!(
                entries[0].centroid_distance(&probe).to_bits(),
                entries[1].centroid_distance(&probe).to_bits()
            );
            t.insert(&[1.0, 0.0]).unwrap();
            let entries = t.leaf_entry_clones();
            assert_eq!(entries.iter().map(|e| e.count()).collect::<Vec<_>>(), vec![2, 1]);
            assert_eq!(entries[0].centroid(), vec![(first[0] as f64 + 1.0) / 2.0, 0.0]);
        }
    }

    #[test]
    fn tree_grows_in_height_under_load() {
        let mut t = tree(0.0);
        for i in 0..200 {
            t.insert(&[(i * 7 % 199) as f32, (i * 13 % 197) as f32]).unwrap();
        }
        assert!(t.height() > 1, "200 singleton clusters need internal nodes");
        assert_eq!(t.num_clusters(), 200);
    }

    #[test]
    fn large_threshold_collapses_everything() {
        let mut t = tree(1000.0);
        for i in 0..100 {
            t.insert(&[i as f32, -(i as f32)]).unwrap();
        }
        assert_eq!(t.num_clusters(), 1);
        assert_eq!(t.leaf_entry_clones()[0].count(), 100);
    }

    #[test]
    fn budget_triggers_rebuild_and_respects_budget() {
        let params = BirchParams {
            threshold: 0.0,
            max_leaf_entries: Some(16),
            ..BirchParams::default()
        };
        let mut t = CfTree::new(1, params).unwrap();
        for i in 0..200 {
            t.insert(&[i as f32]).unwrap();
        }
        assert!(t.num_clusters() <= 16, "got {} clusters", t.num_clusters());
        assert!(t.rebuild_count() > 0);
        assert!(t.threshold() > 0.0);
        assert_eq!(t.num_points(), 200);
    }

    #[test]
    fn explicit_rebuild_shrinks_cluster_count() {
        let mut t = tree(0.0);
        for i in 0..50 {
            t.insert(&[i as f32 * 0.01, 0.0]).unwrap();
        }
        let before = t.num_clusters();
        t.rebuild();
        assert!(t.num_clusters() < before);
        assert_eq!(t.num_points(), 50);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut t = tree(0.1);
        assert!(matches!(
            t.insert(&[1.0, 2.0, 3.0]),
            Err(BirchError::DimensionMismatch { expected: 2, got: 3 })
        ));
    }

    #[test]
    fn bad_params_rejected() {
        assert!(CfTree::new(0, BirchParams::default()).is_err());
        assert!(CfTree::new(2, BirchParams { branching: 1, ..Default::default() }).is_err());
        assert!(CfTree::new(2, BirchParams { leaf_capacity: 1, ..Default::default() }).is_err());
        assert!(CfTree::new(2, BirchParams { threshold: -1.0, ..Default::default() }).is_err());
        assert!(CfTree::new(2, BirchParams { threshold: f64::NAN, ..Default::default() }).is_err());
        assert!(CfTree::new(2, BirchParams { max_leaf_entries: Some(1), ..Default::default() })
            .is_err());
    }

    #[test]
    fn insertion_order_independence_of_point_totals() {
        // Cluster *shapes* may depend on order (BIRCH is incremental), but
        // conservation laws must hold for any order.
        let pts: Vec<[f32; 2]> =
            (0..100).map(|i| [((i * 37) % 100) as f32 / 10.0, ((i * 61) % 100) as f32 / 10.0]).collect();
        let mut fwd = tree(0.3);
        let mut rev = tree(0.3);
        for p in &pts {
            fwd.insert(p).unwrap();
        }
        for p in pts.iter().rev() {
            rev.insert(p).unwrap();
        }
        assert_eq!(fwd.num_points(), rev.num_points());
        let sum = |t: &CfTree| -> f64 {
            t.leaf_entry_clones().iter().map(|c| c.centroid()[0] * c.count() as f64).sum()
        };
        assert!((sum(&fwd) - sum(&rev)).abs() < 1e-6, "mass centroids must agree");
    }
}
