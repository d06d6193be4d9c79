//! The sharded, concurrent query-serving plane: the subsystem that takes
//! the forecaster from "fast" (PR 3's 0.2 µs single queries) to "serves a
//! crowd".
//!
//! Layout:
//!
//! * **Shards** ([`crate::shard::ShardMap`]) partition series across N
//!   independent forecaster shards by a hash of the source host. Each
//!   shard owns the mutable per-series [`SeriesState`] (20-predictor
//!   battery + delta watermark) for its keys.
//! * **Epoch publication**: [`ServingPlane::ingest_point`] buffers the
//!   points newer than each series' ingest watermark on the owning shard
//!   (O(Δ), the forecaster's delta-fetch discipline applied out-of-sim).
//!   [`ServingPlane::publish`] then observes the buffered
//!   deltas shard-parallel on `std::thread::scope` workers and publishes
//!   one immutable [`Arc<ShardSnapshot>`] per dirty shard — the PR-7
//!   `Engine::from_snapshot` precedent applied to forecaster state.
//!   Readers holding the previous `Arc` keep a consistent view; nothing
//!   is locked, ever (rule D8 of the root `clippy.toml` bans
//!   `Mutex`/`RwLock`).
//! * **Concurrent serving**: [`ServingPlane::serve_batches`] fans a slice
//!   of batched multi-series queries across a scoped worker pool. Workers
//!   share the snapshots read-only and keep *local* counters that are
//!   merged in worker order after the join — answers and metrics are
//!   bit-identical for any worker count and any shard count, because a
//!   battery observes the same point sequence wherever it lives.
//!
//! Soundness of publication: a snapshot is reachable by readers only
//! through the `Arc` published *after* its shard's batteries observed the
//! epoch's whole delta; the worker that built it had exclusive `&mut`
//! access to the shard (disjoint `chunks_mut` borrows), so no reader can
//! observe a half-applied epoch, and an un-dirty shard keeps its previous
//! snapshot, whose content is definitionally unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::forecast::Forecast;
use crate::msg::SeriesKey;
use crate::series_state::SeriesState;
use crate::shard::ShardMap;

/// What a snapshot serves for one series: the forecast precomputed at
/// publish time and the watermark it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesView {
    pub forecast: Option<Forecast>,
    pub last_t: f64,
}

/// An immutable, shareable view of one shard at one epoch. Entries are
/// key-sorted; lookups are binary searches (deterministic, no hash maps
/// on the serving path).
#[derive(Debug)]
pub struct ShardSnapshot {
    pub epoch: u64,
    entries: Vec<(SeriesKey, SeriesView)>,
}

impl ShardSnapshot {
    fn empty() -> ShardSnapshot {
        ShardSnapshot { epoch: 0, entries: Vec::new() }
    }

    pub(crate) fn get(&self, key: &SeriesKey) -> Option<&SeriesView> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key)).ok().map(|i| &self.entries[i].1)
    }
}

/// One shard's mutable half: batteries plus the epoch's pending deltas.
struct ShardState {
    slots: BTreeMap<SeriesKey, SeriesState>,
    /// Points ingested since the last publish, in ingest order (memory
    /// stores iterate in series-id order, so this order is deterministic).
    pending: Vec<(SeriesKey, Vec<(f64, f64)>)>,
    pending_points: usize,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState { slots: BTreeMap::new(), pending: Vec::new(), pending_points: 0 }
    }

    /// Observe the pending deltas and emit the new snapshot's entries.
    fn apply_and_snapshot(&mut self) -> Vec<(SeriesKey, SeriesView)> {
        for (key, points) in self.pending.drain(..) {
            let slot = self.slots.entry(key).or_insert_with(SeriesState::fresh);
            for (t, v) in points {
                slot.observe(t, v);
            }
        }
        self.pending_points = 0;
        self.slots
            .iter()
            .map(|(k, s)| (k.clone(), SeriesView { forecast: s.forecast(), last_t: s.last_t() }))
            .collect()
    }
}

/// Serving-plane counters, exported as one structured snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Current publication epoch.
    pub epoch: u64,
    /// Publishes that actually rebuilt at least one shard.
    pub epochs_published: u64,
    pub shards: usize,
    /// Series resident across all shards.
    pub series: usize,
    pub per_shard_series: Vec<usize>,
    /// Queries routed to each shard (lifetime).
    pub per_shard_queries: Vec<u64>,
    /// Ingested-but-unpublished points per shard (the publish queue).
    pub queue_depths: Vec<usize>,
    /// Max over non-empty shards of `epoch - snapshot.epoch`: how far the
    /// oldest still-current snapshot trails the publication clock.
    pub snapshot_epoch_lag: u64,
    /// Batches served (lifetime).
    pub batches: u64,
    /// Individual key lookups served (lifetime).
    pub queries: u64,
    /// Largest batch seen.
    pub max_batch: usize,
    /// Answers served for keys that had unpublished points pending at
    /// serve time — correct per the published epoch, stale per the wire.
    pub stale_served: u64,
    /// Keys absent from the snapshot entirely.
    pub misses: u64,
}

/// The sharded query-serving plane. See the module docs for the
/// publication protocol and its soundness argument.
pub struct ServingPlane {
    map: ShardMap,
    shards: Vec<ShardState>,
    snapshots: Vec<Arc<ShardSnapshot>>,
    /// Per-series ingest watermark: newest timestamp pulled from a store,
    /// including points still pending publication.
    ingest_mark: BTreeMap<SeriesKey, f64>,
    /// Keys with pending (unpublished) points — consulted by serving
    /// workers to count stale serves.
    pending_keys: BTreeSet<SeriesKey>,
    epoch: u64,
    epochs_published: u64,
    per_shard_queries: Vec<u64>,
    batches: u64,
    queries: u64,
    max_batch: usize,
    stale_served: u64,
    misses: u64,
}

impl ServingPlane {
    pub fn new(map: ShardMap) -> ServingPlane {
        let n = map.shards();
        ServingPlane {
            map,
            shards: (0..n).map(|_| ShardState::new()).collect(),
            snapshots: (0..n).map(|_| Arc::new(ShardSnapshot::empty())).collect(),
            ingest_mark: BTreeMap::new(),
            pending_keys: BTreeSet::new(),
            epoch: 0,
            epochs_published: 0,
            per_shard_queries: vec![0; n],
            batches: 0,
            queries: 0,
            max_batch: 0,
            stale_served: 0,
            misses: 0,
        }
    }

    /// Ingest one measurement. Points at or below the series' ingest
    /// watermark are dropped.
    pub fn ingest_point(&mut self, key: &SeriesKey, t: f64, value: f64) {
        let mark = self.ingest_mark.get(key).copied().unwrap_or(f64::NEG_INFINITY);
        if t <= mark {
            return;
        }
        self.ingest_mark.insert(key.clone(), t);
        let shard = self.map.shard_of(key);
        let st = &mut self.shards[shard];
        match st.pending.last_mut() {
            Some((k, pts)) if k == key => pts.push((t, value)),
            _ => st.pending.push((key.clone(), vec![(t, value)])),
        }
        st.pending_points += 1;
        self.pending_keys.insert(key.clone());
    }

    /// Pull every series' new points (O(Δ) per series) out of one memory
    /// store, whose series `ids` names: how the tests feed the plane what
    /// an in-sim forecaster saw.
    #[cfg(test)]
    pub(crate) fn ingest_store(
        &mut self,
        store: &crate::memory::MemoryStore,
        ids: &crate::ids::SeriesTable,
    ) {
        for (id, series) in store.series.iter() {
            let key = ids.key(id);
            let mark = self.ingest_mark.get(&key).copied().unwrap_or(f64::NEG_INFINITY);
            let delta = series.pairs_since(mark);
            let Some(&(newest, _)) = delta.last() else { continue };
            self.ingest_mark.insert(key.clone(), newest);
            let shard = self.map.shard_of(&key);
            let st = &mut self.shards[shard];
            st.pending_points += delta.len();
            st.pending.push((key.clone(), delta));
            self.pending_keys.insert(key);
        }
    }

    /// Observe all pending deltas and publish fresh immutable snapshots
    /// for the dirty shards, in parallel on up to `workers` scoped
    /// threads. Untouched shards keep their current snapshot (same
    /// content, older epoch stamp — visible as `snapshot_epoch_lag`).
    /// No-op when nothing is pending. Returns the current epoch.
    pub fn publish(&mut self, workers: usize) -> u64 {
        if self.shards.iter().all(|s| s.pending.is_empty()) {
            return self.epoch;
        }
        self.epoch += 1;
        self.epochs_published += 1;
        let epoch = self.epoch;
        let n = self.shards.len();
        let per = n.div_ceil(workers.max(1)).max(1);
        let mut rebuilt: Vec<(usize, Vec<(SeriesKey, SeriesView)>)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(per)
                .enumerate()
                .map(|(ci, chunk)| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (i, st) in chunk.iter_mut().enumerate() {
                            if st.pending.is_empty() {
                                continue;
                            }
                            out.push((ci * per + i, st.apply_and_snapshot()));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                rebuilt.extend(h.join().expect("serving shard worker panicked"));
            }
        });
        rebuilt.sort_by_key(|(i, _)| *i);
        for (i, entries) in rebuilt {
            self.snapshots[i] = Arc::new(ShardSnapshot { epoch, entries });
        }
        self.pending_keys.clear();
        epoch
    }

    /// Answer one batch inline (the single-reader path).
    #[cfg(test)]
    pub(crate) fn serve_batch(&mut self, keys: &[SeriesKey]) -> Vec<(SeriesKey, Option<Forecast>)> {
        let batches = [keys.to_vec()];
        self.serve_batches(&batches, 1).pop().unwrap_or_default()
    }

    /// Serve a slice of batched multi-series queries concurrently on up
    /// to `workers` scoped reader threads. Answers are returned in batch
    /// order, each aligned with its request's keys, and are bit-identical
    /// for any `workers` and any shard count.
    pub fn serve_batches(
        &mut self,
        batches: &[Vec<SeriesKey>],
        workers: usize,
    ) -> Vec<Vec<(SeriesKey, Option<Forecast>)>> {
        struct Local {
            first: usize,
            answers: Vec<Vec<(SeriesKey, Option<Forecast>)>>,
            per_shard: Vec<u64>,
            stale: u64,
            misses: u64,
            max_batch: usize,
            keys: u64,
        }
        let map = &self.map;
        let snaps = &self.snapshots;
        let pending = &self.pending_keys;
        let shards_n = snaps.len();
        let per = batches.len().div_ceil(workers.max(1)).max(1);
        let mut locals: Vec<Local> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .chunks(per)
                .enumerate()
                .map(|(ci, chunk)| {
                    s.spawn(move || {
                        let mut l = Local {
                            first: ci * per,
                            answers: Vec::with_capacity(chunk.len()),
                            per_shard: vec![0u64; shards_n],
                            stale: 0,
                            misses: 0,
                            max_batch: 0,
                            keys: 0,
                        };
                        for batch in chunk {
                            l.max_batch = l.max_batch.max(batch.len());
                            let mut out = Vec::with_capacity(batch.len());
                            for key in batch {
                                let shard = map.shard_of(key);
                                l.per_shard[shard] += 1;
                                l.keys += 1;
                                let view = snaps[shard].get(key);
                                match view {
                                    Some(v) => {
                                        if pending.contains(key) {
                                            l.stale += 1;
                                        }
                                        out.push((key.clone(), v.forecast.clone()));
                                    }
                                    None => {
                                        l.misses += 1;
                                        out.push((key.clone(), None));
                                    }
                                }
                            }
                            l.answers.push(out);
                        }
                        l
                    })
                })
                .collect();
            for h in handles {
                locals.push(h.join().expect("serving reader worker panicked"));
            }
        });
        // Merge in worker order: counters sum associatively, answers slot
        // back by chunk offset — bit-identical regardless of which worker
        // finished first.
        let mut out: Vec<Vec<(SeriesKey, Option<Forecast>)>> = vec![Vec::new(); batches.len()];
        for l in locals {
            for (i, a) in l.answers.into_iter().enumerate() {
                out[l.first + i] = a;
            }
            for (sh, c) in l.per_shard.iter().enumerate() {
                self.per_shard_queries[sh] += c;
            }
            self.stale_served += l.stale;
            self.misses += l.misses;
            self.max_batch = self.max_batch.max(l.max_batch);
            self.queries += l.keys;
        }
        self.batches += batches.len() as u64;
        out
    }

    /// The structured metrics export: one consistent counter snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let per_shard_series: Vec<usize> = self.shards.iter().map(|s| s.slots.len()).collect();
        let queue_depths: Vec<usize> = self.shards.iter().map(|s| s.pending_points).collect();
        let lag = self
            .snapshots
            .iter()
            .zip(&per_shard_series)
            .filter(|(_, n)| **n > 0)
            .map(|(s, _)| self.epoch - s.epoch)
            .max()
            .unwrap_or(0);
        MetricsSnapshot {
            epoch: self.epoch,
            epochs_published: self.epochs_published,
            shards: self.shards.len(),
            series: per_shard_series.iter().sum(),
            per_shard_series,
            per_shard_queries: self.per_shard_queries.clone(),
            queue_depths,
            snapshot_epoch_lag: lag,
            batches: self.batches,
            queries: self.queries,
            max_batch: self.max_batch,
            stale_served: self.stale_served,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::ForecasterBattery;
    use crate::msg::Resource;

    impl ServingPlane {
        /// The current immutable snapshot of one shard; clone the `Arc` to
        /// keep reading it across later publishes.
        fn snapshot(&self, shard: usize) -> Arc<ShardSnapshot> {
            self.snapshots[shard].clone()
        }
    }

    fn key(i: usize) -> SeriesKey {
        SeriesKey::host(Resource::CpuLoad, &format!("h{i}.x"))
    }

    fn plane(shards: usize) -> ServingPlane {
        ServingPlane::new(ShardMap::hashed(shards))
    }

    /// Seeded deterministic values (splitmix-style), no entropy.
    fn value(series: usize, t: usize) -> f64 {
        let mut z = (series as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(t as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        0.5 + (z % 1000) as f64 / 1000.0
    }

    fn feed(p: &mut ServingPlane, series: usize, points: usize) {
        for i in 0..series {
            for t in 0..points {
                p.ingest_point(&key(i), t as f64, value(i, t));
            }
        }
    }

    #[test]
    fn answers_are_shard_count_invariant() {
        let keys: Vec<SeriesKey> = (0..40).map(key).collect();
        let mut baseline = None;
        for shards in [1usize, 2, 4, 8] {
            let mut p = plane(shards);
            feed(&mut p, 40, 30);
            p.publish(4);
            let got = p.serve_batch(&keys);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(b, &got, "{shards} shards diverged"),
            }
        }
    }

    #[test]
    fn answers_are_worker_count_invariant() {
        let batches: Vec<Vec<SeriesKey>> =
            (0..16).map(|b| (0..8).map(|i| key(b * 8 + i)).collect()).collect();
        let run = |workers: usize| {
            let mut p = plane(4);
            feed(&mut p, 128, 20);
            p.publish(workers);
            (p.serve_batches(&batches, workers), p.metrics())
        };
        let (a1, m1) = run(1);
        let (a8, m8) = run(8);
        assert_eq!(a1, a8);
        assert_eq!(m1, m8);
        assert_eq!(m1.misses, 0, "every key is resident");
        // Run-twice determinism, metrics included.
        assert_eq!(run(8), (a8, m8));
    }

    #[test]
    fn snapshots_match_a_fresh_battery_replay() {
        let mut p = plane(4);
        feed(&mut p, 10, 50);
        p.publish(4);
        for i in 0..10 {
            let k = key(i);
            let got = p.serve_batch(std::slice::from_ref(&k))[0].1.clone();
            let mut oracle = ForecasterBattery::classic();
            oracle.observe_all((0..50).map(|t| value(i, t)));
            assert_eq!(got, oracle.forecast(), "series {i}");
        }
    }

    #[test]
    fn old_snapshot_survives_a_new_epoch() {
        let mut p = plane(1);
        feed(&mut p, 2, 10);
        p.publish(1);
        let old = p.snapshot(0);
        let old_view = old.get(&key(0)).expect("present").clone();
        // New points, new epoch: the held Arc still serves the old view.
        p.ingest_point(&key(0), 10.0, 9.9);
        p.publish(1);
        assert_eq!(old.get(&key(0)), Some(&old_view));
        assert!(p.snapshot(0).get(&key(0)).expect("present").last_t > old_view.last_t);
    }

    #[test]
    fn delta_ingest_is_idempotent_and_epochs_lag() {
        let mut p = plane(2);
        feed(&mut p, 4, 10);
        // Double-feed: watermarks drop the duplicates.
        feed(&mut p, 4, 10);
        p.publish(2);
        let m = p.metrics();
        assert_eq!(m.series, 4);
        assert_eq!(m.epoch, 1);
        assert_eq!(m.queue_depths, vec![0, 0]);
        // Feed only series routed to one shard: the other shard's
        // snapshot stays at epoch 1 and the lag metric says so.
        p.ingest_point(&key(0), 100.0, 1.0);
        p.publish(2);
        let m = p.metrics();
        assert_eq!(m.epoch, 2);
        assert_eq!(m.snapshot_epoch_lag, 1);
        // Publishing with nothing pending is a no-op.
        assert_eq!(p.publish(2), 2);
        assert_eq!(p.metrics().epochs_published, 2);
    }

    #[test]
    fn stale_and_miss_counters() {
        let mut p = plane(2);
        feed(&mut p, 2, 5);
        p.publish(2);
        // Unpublished tail → stale serve for that key only.
        p.ingest_point(&key(0), 50.0, 1.0);
        let ghost = SeriesKey::host(Resource::CpuLoad, "ghost.x");
        let ans = p.serve_batch(&[key(0), key(1), ghost.clone()]);
        assert!(ans[0].1.is_some());
        assert!(ans[1].1.is_some());
        assert!(ans[2].1.is_none());
        let m = p.metrics();
        assert_eq!(m.stale_served, 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.queries, 3);
        assert_eq!(m.batches, 1);
        assert_eq!(m.max_batch, 3);
        assert_eq!(m.per_shard_queries.iter().sum::<u64>(), 3);
    }
}
