//! What [`ShardedStore`](crate::sharded::ShardedStore) reports about its
//! shards: the per-shard checkpoint and health records and the rebalance
//! progress the serving layer renders on `/admin/checkpoint`, `/healthz`
//! and `/metrics`.

use std::time::Duration;

/// What one shard's checkpoint did. Returned per shard so a rolling
/// checkpoint over N shards reports N entries (quarantined shards are
/// skipped and absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: usize,
    /// LSN the snapshot covers — the shard's last committed operation.
    pub last_lsn: u64,
    /// Wall-clock time the checkpoint took.
    pub duration: Duration,
}

/// Health of one shard, as reported by
/// [`ShardedStore::shard_health`](crate::sharded::ShardedStore::shard_health).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// False when the shard is quarantined.
    pub healthy: bool,
    /// Why the shard was quarantined (`None` while healthy).
    pub error: Option<String>,
    /// Live images on this shard. While quarantined this is the last
    /// count observed before the failure (0 when the shard never opened,
    /// i.e. its contents are unknown), so monitoring doesn't see a failed
    /// shard as suddenly empty.
    pub images: usize,
    /// Valid WAL bytes on this shard; last-known while quarantined, like
    /// `images`.
    pub wal_bytes: u64,
}

/// Live rebalance progress, as reported by
/// [`ShardedStore::rebalance_status`](crate::sharded::ShardedStore::rebalance_status).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceStatus {
    /// Layout epoch: how many committed rebalances this store has seen.
    pub epoch: u64,
    /// True while a migration is in flight (ingest is shed).
    pub rebalancing: bool,
    /// Shard count being migrated to (0 when not rebalancing).
    pub target_shards: usize,
    /// Target shards already built and durably marked `Migrated`.
    pub shards_migrated: usize,
}
