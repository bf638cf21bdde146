//! Integration test crate for the WALRUS workspace; see `tests/` targets.
//!
//! The configuration matrix lives here, once. The engine reads its
//! configuration only from its parameters and the CLI's flags, so a suite
//! covers serial vs parallel and one shard vs many by looping over these
//! counts itself — one `cargo test` runs every combination.

/// Worker-thread counts the suites sweep: fully serial, and more workers
/// than a small host has CPUs.
pub const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Shard counts the suites sweep: the 1-shard store every command creates
/// by default, and a store whose ids scatter over four shards.
pub const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Every `(threads, shards)` pair of the matrix.
pub fn threads_by_shards() -> impl Iterator<Item = (usize, usize)> {
    THREAD_COUNTS.into_iter().flat_map(|threads| SHARD_COUNTS.map(|shards| (threads, shards)))
}
