//! The query-result cache, kept fresh by the store's content stamp.
//!
//! Repeat queries are the dominant production pattern, and a WALRUS query
//! is pure: the answer depends only on (query image bytes, request
//! parameters, store content). The first two are folded into a 64-bit key
//! by [`KeyHasher`]; the third is the [`ShardedStore::content_stamp`] — an
//! opaque fingerprint that moves on every committed ingest or removal,
//! quarantine transition, and rebalance epoch, and stays put across
//! checkpoints.
//!
//! The key hash reads the body eight bytes at a time into four independent
//! multiply lanes, so a hit costs memory bandwidth rather than a
//! byte-at-a-time dependency chain. It is seeded once per process from
//! [`RandomState`], so a client cannot compute two bodies that share a key
//! offline; it is not a cryptographic hash.
//!
//! Correctness rules (proven by `tests/cache_props.rs`):
//!
//! * an entry is served as it is **only** when the stamp it was recorded
//!   under equals the store's stamp *right now*;
//! * a stale entry is never served as it is: it leaves the cache on sight,
//!   and is either revalidated or dropped. An entry with a [`Recorded`]
//!   answer, when only inserts happened since its
//!   [`ContentMark`], is revalidated: the router runs the shard query
//!   over just the image slots committed since
//!   ([`ShardedStore::score_since`]), splices them into the recorded
//!   ranking, and serves and re-inserts that — the answer a fresh run
//!   gives, because each image's score depends on that image alone.
//!   Anything else (a removal, a quarantine or recovery, a rebalance, a
//!   run cut short, a tripped candidate budget) drops the entry, counted
//!   as an invalidation, and the query runs;
//! * an entry is inserted only if the stamp captured *before* the query
//!   (or the revalidation) ran still matches the store afterwards — a
//!   mutation racing that window can never publish a result under the new
//!   stamp;
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
//! [`ShardedStore::score_since`]: walrus_core::ShardedStore::score_since

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Mutex, OnceLock};

use walrus_core::{CompactRegions, ContentMark, QueryOptions, QueryOutcome};

/// Independent multiply chains; each absorbs two words of every block.
const LANES: usize = 4;
/// Bytes absorbed per round: two 8-byte words per lane.
const BLOCK: usize = LANES * 16;
/// Odd 64-bit constants with well-spread bits (the wyhash primes), used to
/// expand the seed into lane keys and to frame write lengths.
const P: [u64; LANES] =
    [0xa076_1d64_78bd_642f, 0xe703_7ed1_a0b4_28db, 0x8ebc_6af0_9c88_c6e3, 0x5899_65cc_7537_4cc3];

/// The full 64×64→128-bit product, folded back to 64 bits.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = (a as u128) * (b as u128);
    (product as u64) ^ ((product >> 64) as u64)
}

/// An 8-byte little-endian word.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// One seed per process, drawn from the OS-keyed [`RandomState`].
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5741_4c52_5553_u64))
}

/// Incremental, seeded hasher for building cache keys out of the query body
/// and the request-parameter fingerprint.
///
/// Each `write_bytes` absorbs its input in 64-byte blocks, lane `i` taking
/// words `2i` and `2i + 1`; the tail is zero-padded into one more block and
/// the write's length is then mixed in, so `b"ab", b"c"` and `b"a", b"bc"`,
/// or a body and the same body plus a trailing zero, hash apart. Every
/// multiply has a seed-derived operand on both sides, so no input word can
/// cancel a lane without knowing the seed. [`finish`](Self::finish) folds
/// the lanes together and ends with an avalanche step.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    lanes: [u64; LANES],
    keys: [u64; LANES],
}

impl Default for KeyHasher {
    /// A hasher under this process's seed: every default hasher in one
    /// process agrees, two processes almost surely do not.
    fn default() -> Self {
        KeyHasher::with_seed(process_seed())
    }
}

impl KeyHasher {
    /// A hasher under an explicit seed; [`Default`] uses the process seed.
    pub(crate) fn with_seed(seed: u64) -> Self {
        let keys = P.map(|p| fold_mul(seed ^ p, P[0]));
        let lanes = keys.map(|k| fold_mul(k, P[3]));
        KeyHasher { lanes, keys }
    }

    /// Absorbs one `BLOCK`-byte block into the four lanes.
    #[inline(always)]
    fn absorb(&mut self, block: &[u8]) {
        let pairs = block.chunks_exact(16);
        for ((lane, key), pair) in self.lanes.iter_mut().zip(self.keys).zip(pairs) {
            let (a, b) = pair.split_at(8);
            *lane = fold_mul(word(a) ^ *lane, word(b) ^ key);
        }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            self.absorb(block);
        }
        let tail = blocks.remainder();
        let mut last = [0u8; BLOCK];
        last[..tail.len()].copy_from_slice(tail);
        self.absorb(&last);
        // The length goes through a keyed multiply, not a plain XOR, so no
        // choice of the next write's first word can cancel it.
        self.lanes[0] = fold_mul(self.lanes[0] ^ bytes.len() as u64, self.keys[1] ^ P[1]);
        self
    }

    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write_bytes(&value.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        let [l0, l1, l2, l3] = self.lanes;
        let [k0, k1, k2, k3] = self.keys;
        let mut h = fold_mul(l0 ^ k0, l1 ^ k1) ^ fold_mul(l2 ^ k2, l3 ^ k3);
        // Avalanche (MurmurHash3's fmix64): every bit of `h` reaches every
        // output bit.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// What a lookup found.
#[derive(Debug)]
pub enum Lookup {
    /// Entry found under the current content stamp.
    Hit(String),
    /// Entry found, but recorded under an older stamp, with a [`Recorded`]
    /// answer to bring up to date; it has been removed.
    Revalidate(Box<Recorded>),
    /// Entry found, but recorded under an older stamp and body only; it has
    /// been removed.
    Stale,
    /// No entry under this key.
    Absent,
}

/// A cached answer in the form a revalidation reads: what a stale entry
/// needs to be brought up to date instead of dropped.
#[derive(Debug)]
pub struct Recorded {
    /// The store's content when the answer was computed; its stamp is the
    /// entry's.
    pub mark: ContentMark,
    /// The answer, structured: top-k ranking and statistics.
    pub outcome: QueryOutcome,
    /// The options the query ran with (`k`, `ε`, similarity floor,
    /// budgets); they resolve against the store's parameters the same way
    /// every time.
    pub opts: QueryOptions,
    /// The query's regions, compact.
    pub query: CompactRegions,
}

#[derive(Debug)]
struct Entry {
    stamp: u64,
    body: String,
    /// `None` for a body-only entry, which a stamp change drops.
    recorded: Option<Box<Recorded>>,
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
    /// removes the entry (the content it described no longer exists) and
    /// hands out its [`Recorded`] answer, if it has one.
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
            Some(_) => match inner.map.remove(&key).and_then(|e| e.recorded) {
                Some(recorded) => Lookup::Revalidate(recorded),
                None => Lookup::Stale,
            },
            None => Lookup::Absent,
        }
    }

    /// Inserts a body recorded under `stamp`, evicting the least-recently
    /// used entry when full. Returns true when an eviction happened. The
    /// entry is body only: a stamp change drops it.
    pub fn insert(&self, key: u64, stamp: u64, body: String) -> bool {
        self.insert_entry(key, stamp, body, None)
    }

    /// [`QueryCache::insert`] of `body` under the stamp of
    /// `recorded.mark`, keeping `recorded` so that a stamp change moved by
    /// inserts alone revalidates the entry instead of dropping it.
    pub fn insert_recorded(&self, key: u64, body: String, recorded: Recorded) -> bool {
        self.insert_entry(key, recorded.mark.stamp(), body, Some(Box::new(recorded)))
    }

    fn insert_entry(
        &self,
        key: u64,
        stamp: u64,
        mut body: String,
        recorded: Option<Box<Recorded>>,
    ) -> bool {
        if self.capacity == 0 {
            return false;
        }
        // Rendering grew the body by doubling; an entry keeps what it holds.
        body.shrink_to_fit();
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
        inner.map.insert(key, Entry { stamp, body, recorded, used: tick });
        evicted
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

    fn key(seed: u64, body: &[u8]) -> u64 {
        KeyHasher::with_seed(seed).write_bytes(body).finish()
    }

    /// A deterministic, non-repeating test body.
    fn body(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8).collect()
    }

    /// Lengths 0..=72 cover every residue of the 8-byte word and the
    /// 64-byte block, empty tails and a second block included: all prefix
    /// keys are distinct, and flipping any one byte of any of them moves
    /// the key.
    #[test]
    fn every_length_and_every_byte_reaches_the_key() {
        let full = body(72);
        let mut seen = std::collections::HashSet::new();
        for len in 0..=72 {
            let original = key(7, &full[..len]);
            assert!(seen.insert(original), "length {len} collides with a shorter prefix");
            for at in 0..len {
                let mut flipped = full[..len].to_vec();
                flipped[at] ^= 0x01;
                assert_ne!(key(7, &flipped), original, "flip at {at} of {len} unseen");
            }
        }
    }

    #[test]
    fn flipping_the_first_a_middle_or_the_last_byte_of_a_query_body_moves_the_key() {
        let original = body(36_878);
        let reference = KeyHasher::default().write_bytes(&original).finish();
        for at in [0, original.len() / 2, original.len() - 1] {
            let mut flipped = original.clone();
            flipped[at] ^= 0x80;
            assert_ne!(KeyHasher::default().write_bytes(&flipped).finish(), reference, "at {at}");
        }
    }

    /// The classic zero-padded-tail bug: padding the tail with zeros must
    /// not make a body and the body plus a trailing `0x00` hash alike, at
    /// any tail residue (including a tail that becomes a whole block).
    #[test]
    fn a_trailing_zero_byte_changes_the_key() {
        for len in [0, 1, 7, 8, 15, 63, 64, 65, 127, 36_878] {
            let short = body(len);
            let mut long = short.clone();
            long.push(0);
            assert_ne!(key(3, &short), key(3, &long), "length {len}");
        }
    }

    /// Each write is framed by its own length: moving a write boundary
    /// moves the key.
    #[test]
    fn write_boundaries_are_part_of_the_key() {
        let mut a = KeyHasher::with_seed(1);
        a.write_bytes(b"ab").write_bytes(b"c");
        let mut b = KeyHasher::with_seed(1);
        b.write_bytes(b"a").write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hashers_agree_within_a_process_and_seeds_disagree() {
        let query = body(4_099);
        let first = KeyHasher::default().write_bytes(&query).write_u64(2).finish();
        let second = KeyHasher::default().write_bytes(&query).write_u64(2).finish();
        assert_eq!(first, second, "one process, one seed");
        assert_eq!(key(11, &query), key(11, &query));
        assert_ne!(key(11, &query), key(12, &query), "the seed must reach the key");
    }

    #[test]
    fn hit_requires_matching_stamp() {
        let cache = QueryCache::new(4);
        cache.insert(1, 10, "body".into());
        assert!(matches!(cache.lookup(1, 10), Lookup::Hit(b) if b == "body"));
        // Stamp moved on: a body-only entry is invalidated and removed.
        assert!(matches!(cache.lookup(1, 11), Lookup::Stale));
        assert!(matches!(cache.lookup(1, 11), Lookup::Absent));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = QueryCache::new(2);
        assert!(!cache.insert(1, 0, "a".into()));
        assert!(!cache.insert(2, 0, "b".into()));
        // Touch 1 so 2 is the LRU.
        assert!(matches!(cache.lookup(1, 0), Lookup::Hit(b) if b == "a"));
        assert!(cache.insert(3, 0, "c".into()));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(2, 0), Lookup::Absent));
        assert!(matches!(cache.lookup(1, 0), Lookup::Hit(b) if b == "a"));
        assert!(matches!(cache.lookup(3, 0), Lookup::Hit(b) if b == "c"));
    }

    #[test]
    fn reinsert_under_same_key_does_not_evict() {
        let cache = QueryCache::new(1);
        cache.insert(1, 0, "a".into());
        assert!(!cache.insert(1, 1, "b".into()), "overwrite is not an eviction");
        assert!(matches!(cache.lookup(1, 1), Lookup::Hit(b) if b == "b"));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = QueryCache::new(0);
        assert!(!cache.insert(1, 0, "a".into()));
        assert!(matches!(cache.lookup(1, 0), Lookup::Absent));
        assert_eq!(cache.len(), 0);
    }
}
