//! The LSN-invalidated query-result cache.
//!
//! Repeat queries are the dominant production pattern, and a WALRUS query
//! is pure: the answer depends only on (query image bytes, request
//! parameters, store content). The first two are folded into a 64-bit
//! FNV-1a key; the third is the [`ShardedStore::content_stamp`] — an opaque
//! fingerprint that moves on every committed ingest, quarantine
//! transition, and rebalance epoch, and stays put across checkpoints.
//!
//! Correctness rules (proven by `tests/cache_props.rs`):
//!
//! * an entry is served **only** when the stamp it was recorded under
//!   equals the store's stamp *right now* — a stale entry is removed on
//!   sight and counted as an invalidation;
//! * an entry is inserted only if the stamp captured *before* the query
//!   ran still matches the store afterwards — a mutation racing the query
//!   window can never publish a result under the new stamp;
//! * only `Complete` (HTTP 200) rankings are cached; partial and degraded
//!   answers depend on deadline timing and shard health, not content
//!   alone.
//!
//! The cached value is the response body **without** the trailing
//! `request_id` field — every response (hit or miss) carries a fresh id,
//! spliced in by the router, so a cached body is byte-identical to what
//! the engine would have produced for that request id.
//!
//! [`ShardedStore::content_stamp`]: walrus_core::ShardedStore::content_stamp

use std::collections::HashMap;
use std::sync::Mutex;

/// Seed/offset basis for FNV-1a 64.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a 64 hasher for building cache keys out of the query
/// body and the request-parameter fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(FNV_BASIS)
    }
}

impl KeyHasher {
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write_bytes(&value.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Why a lookup did not return a body.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Entry found under the current content stamp.
    Hit(String),
    /// Entry found, but recorded under an older stamp; it has been
    /// removed.
    Stale,
    /// No entry under this key.
    Absent,
}

#[derive(Debug)]
struct Entry {
    stamp: u64,
    body: String,
    /// Logical access time for LRU eviction.
    used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// Bounded LRU cache of rendered query-response bodies keyed by
/// (query hash, params fingerprint) with stamp-checked entries. Capacity 0
/// disables caching entirely (every lookup is [`Lookup::Absent`], inserts
/// are dropped).
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl QueryCache {
    /// Default entry budget; bodies are small (top-k rankings), so this is
    /// a few MB at worst.
    pub const DEFAULT_CAPACITY: usize = 256;

    pub fn new(capacity: usize) -> Self {
        QueryCache { capacity, inner: Mutex::new(Inner::default()) }
    }

    /// Maximum entries (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key` under the store's current `stamp`. A stamp mismatch
    /// removes the entry (the content it described no longer exists).
    pub fn lookup(&self, key: u64, stamp: u64) -> Lookup {
        if self.capacity == 0 {
            return Lookup::Absent;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) if entry.stamp == stamp => {
                entry.used = tick;
                Lookup::Hit(entry.body.clone())
            }
            Some(_) => {
                inner.map.remove(&key);
                Lookup::Stale
            }
            None => Lookup::Absent,
        }
    }

    /// Inserts a body recorded under `stamp`, evicting the least-recently
    /// used entry when full. Returns true when an eviction happened.
    pub fn insert(&self, key: u64, stamp: u64, body: String) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let mut evicted = false;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some((&lru, _)) = inner.map.iter().min_by_key(|(_, e)| e.used) {
                inner.map.remove(&lru);
                evicted = true;
            }
        }
        inner.map.insert(key, Entry { stamp, body, used: tick });
        evicted
    }

    /// Drops every entry (used when the store is mutated through admin
    /// surfaces where a stamp check alone should not be trusted to race).
    pub fn clear(&self) {
        self.inner.lock().expect("cache lock").map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hasher_is_stable_and_order_sensitive() {
        let mut a = KeyHasher::default();
        a.write_bytes(b"body").write_u64(5);
        let mut b = KeyHasher::default();
        b.write_bytes(b"body").write_u64(5);
        assert_eq!(a.finish(), b.finish());
        let mut c = KeyHasher::default();
        c.write_u64(5).write_bytes(b"body");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn hit_requires_matching_stamp() {
        let cache = QueryCache::new(4);
        cache.insert(1, 10, "body".into());
        assert_eq!(cache.lookup(1, 10), Lookup::Hit("body".into()));
        // Stamp moved on: entry is invalidated and removed.
        assert_eq!(cache.lookup(1, 11), Lookup::Stale);
        assert_eq!(cache.lookup(1, 11), Lookup::Absent);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = QueryCache::new(2);
        assert!(!cache.insert(1, 0, "a".into()));
        assert!(!cache.insert(2, 0, "b".into()));
        // Touch 1 so 2 is the LRU.
        assert_eq!(cache.lookup(1, 0), Lookup::Hit("a".into()));
        assert!(cache.insert(3, 0, "c".into()));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(2, 0), Lookup::Absent);
        assert_eq!(cache.lookup(1, 0), Lookup::Hit("a".into()));
        assert_eq!(cache.lookup(3, 0), Lookup::Hit("c".into()));
    }

    #[test]
    fn reinsert_under_same_key_does_not_evict() {
        let cache = QueryCache::new(1);
        cache.insert(1, 0, "a".into());
        assert!(!cache.insert(1, 1, "b".into()), "overwrite is not an eviction");
        assert_eq!(cache.lookup(1, 1), Lookup::Hit("b".into()));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = QueryCache::new(0);
        assert!(!cache.insert(1, 0, "a".into()));
        assert_eq!(cache.lookup(1, 0), Lookup::Absent);
        assert_eq!(cache.len(), 0);
    }
}
