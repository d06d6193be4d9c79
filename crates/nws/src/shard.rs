//! Shard routing for the query-serving plane: series → shard assignment
//! that is deterministic, clique-aligned and shard-count invariant in the
//! answers it produces.
//!
//! A series is routed by its *source host* (the measuring end): every
//! series a host originates lands on one shard, and hosts that share a
//! clique share that shard, so a clique's series co-locate — a batched
//! query for one clique's links fans out to a single shard. Hosts outside
//! any clique (and host-level series of unknown hosts) fall back to an
//! FNV-1a hash of the key, which is stable across runs and platforms.
//!
//! Routing only decides *where* a series' battery lives; the battery
//! observes the same point sequence wherever it lives, which is why the
//! serving plane's answers are bit-identical across 1/2/4/8 shards (the
//! hard gate of `serve.rs`'s `answers_are_shard_count_invariant`).

use std::collections::BTreeMap;

use netsim::disk::fnv1a64;

use crate::msg::SeriesKey;
use crate::system::CliqueSpec;

/// Deterministic series → shard routing table.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    /// host name → shard, from the clique-aligned assignment.
    host_shard: BTreeMap<String, u32>,
}

impl ShardMap {
    /// Pure-hash routing: no clique alignment, every host falls back to
    /// the FNV route. Useful for tests and clique-less workloads.
    pub fn hashed(shards: usize) -> ShardMap {
        ShardMap { shards: shards.max(1), host_shard: BTreeMap::new() }
    }

    /// Clique-aligned routing: each clique is assigned a shard (round
    /// robin in clique order — deterministic and balanced), and every
    /// member host routes to its first clique's shard, so one clique's
    /// series co-locate. A host in several cliques follows the earliest
    /// clique that lists it.
    pub(crate) fn clique_aligned(shards: usize, cliques: &[CliqueSpec]) -> ShardMap {
        let shards = shards.max(1);
        let mut host_shard = BTreeMap::new();
        for (i, c) in cliques.iter().enumerate() {
            let shard = (i % shards) as u32;
            for m in &c.members {
                host_shard.entry(m.clone()).or_insert(shard);
            }
        }
        ShardMap { shards, host_shard }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard holding `key`'s battery.
    pub(crate) fn shard_of(&self, key: &SeriesKey) -> usize {
        match self.host_shard.get(&key.src) {
            Some(&s) => s as usize,
            None => (fnv1a64(key.src.as_bytes()) % self.shards as u64) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Resource;
    use netsim::time::TimeDelta;

    fn clique(name: &str, members: &[&str]) -> CliqueSpec {
        CliqueSpec {
            name: name.to_string(),
            members: members.iter().map(|m| m.to_string()).collect(),
            gap: TimeDelta::from_millis(500.0),
        }
    }

    #[test]
    fn clique_series_co_locate() {
        let map =
            ShardMap::clique_aligned(4, &[clique("a", &["h0", "h1", "h2"]), clique("b", &["h3"])]);
        let s0 = map.shard_of(&SeriesKey::link(Resource::Bandwidth, "h0", "h1"));
        let s1 = map.shard_of(&SeriesKey::link(Resource::Bandwidth, "h1", "h2"));
        let s2 = map.shard_of(&SeriesKey::link(Resource::Latency, "h2", "h0"));
        assert_eq!(s0, s1);
        assert_eq!(s1, s2);
        // Second clique lands on the next shard.
        assert_ne!(map.shard_of(&SeriesKey::host(Resource::CpuLoad, "h3")), s0);
    }

    #[test]
    fn host_in_two_cliques_follows_the_first() {
        let map = ShardMap::clique_aligned(2, &[clique("a", &["h0"]), clique("b", &["h0", "h1"])]);
        assert_eq!(map.shard_of(&SeriesKey::host(Resource::CpuLoad, "h0")), 0);
        assert_eq!(map.shard_of(&SeriesKey::host(Resource::CpuLoad, "h1")), 1);
    }

    #[test]
    fn unknown_hosts_route_stably_within_bounds() {
        let map = ShardMap::clique_aligned(8, &[clique("a", &["h0"])]);
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
