//! Shard routing for the query-serving plane: series → shard assignment
//! that is deterministic and shard-count invariant in the answers it
//! produces.
//!
//! A series is routed by an FNV-1a hash of its *source host* (the
//! measuring end), which is stable across runs and platforms: every
//! series a host originates lands on one shard.
//!
//! Routing only decides *where* a series' battery lives; the battery
//! observes the same point sequence wherever it lives, which is why the
//! serving plane's answers are bit-identical across 1/2/4/8 shards (the
//! hard gate of `serve.rs`'s `answers_are_shard_count_invariant`).

use netsim::disk::fnv1a64;

use crate::msg::SeriesKey;

/// Deterministic series → shard routing.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// Routing over `shards` shards (0 is treated as 1) by the hash of a
    /// series' source host.
    pub fn hashed(shards: usize) -> ShardMap {
        ShardMap { shards: shards.max(1) }
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The shard holding `key`'s battery.
    pub(crate) fn shard_of(&self, key: &SeriesKey) -> usize {
        (fnv1a64(key.src.as_bytes()) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Resource;

    #[test]
    fn unknown_hosts_route_stably_within_bounds() {
        let map = ShardMap::hashed(8);
        for i in 0..50 {
            let key = SeriesKey::host(Resource::CpuLoad, &format!("ghost{i}"));
            let s = map.shard_of(&key);
            assert!(s < 8);
            assert_eq!(s, map.shard_of(&key), "routing must be stable");
        }
    }

    #[test]
    fn zero_shards_is_one() {
        let map = ShardMap::hashed(0);
        assert_eq!(map.shards(), 1);
        assert_eq!(map.shard_of(&SeriesKey::host(Resource::CpuLoad, "x")), 0);
    }
}
