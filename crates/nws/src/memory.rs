//! The NWS memory server: "store the results on disk for further use"
//! (paper §2.1).
//!
//! Sensors `Store` measurements here; forecasters `FetchSince` histories.
//! On the first store of a series the memory registers itself as that
//! series' home with the name server, which is how the forecaster's
//! directory lookup (step 2 of §2.1) finds the right memory.
//!
//! Stores are acknowledged and deduplicated: every `Store` carries a
//! per-sender sequence number, the memory acks it (even when the point is
//! rejected — an ack means *received*), and a seq seen before is counted
//! in [`MemoryStore::dup_stores`] without touching `stores` or the series.
//!
//! Every memory server is **durable**: each store is written to a
//! checksummed WAL on the host's [`SimDisk`] and fsynced *before* the ack
//! goes out, so an acked store is on stable storage by the time the sensor
//! releases its buffer slot — a crash plus a sensor retry still cannot
//! double-count, because the dedup ledger is replayed along with the
//! points (see [`crate::persist`]).
//!
//! [`SimDisk`]: netsim::disk::SimDisk

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use netsim::disk::{DiskHandle, SimDisk};
use netsim::engine::{Ctx, Process, ProcessId};
use netsim::error::NetError;

use crate::msg::{NwsMsg, SeriesKey, ServerKind};
use crate::persist::{MemoryLog, DEFAULT_COMPACT_THRESHOLD};
use crate::series::Series;

/// Per-sender record of which store sequence numbers have been received:
/// a contiguous watermark plus the sparse set above it (duplicated copies
/// bypass the engine's FIFO clamp, so seqs can arrive out of order).
#[derive(Debug, Default, Clone)]
pub struct SeenSeqs {
    watermark: u64,
    above: BTreeSet<u64>,
}

impl SeenSeqs {
    /// Record `seq`; returns `true` the first time it is seen.
    fn note(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || !self.above.insert(seq) {
            return false;
        }
        while self.above.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }

    /// The contiguous watermark: every seq `<= watermark` has been seen.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The sparse seqs above the watermark, ascending.
    pub fn above(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.above.iter().copied()
    }

    /// Reassemble a ledger from its persisted parts (snapshot decode).
    pub fn from_parts(watermark: u64, above: impl IntoIterator<Item = u64>) -> Self {
        SeenSeqs { watermark, above: above.into_iter().collect() }
    }
}

/// What [`MemoryStore::apply_store`] did with one store record.
pub struct StoreOutcome {
    /// First time this (sender, seq) was seen — the point was counted.
    pub first_time: bool,
    /// The store created the series (its key should be registered).
    pub new_key: bool,
}

/// The stored series, shared with the harness for direct inspection.
#[derive(Debug, Default)]
pub struct MemoryStore {
    pub series: BTreeMap<SeriesKey, Series>,
    pub stores: u64,
    pub fetches: u64,
    /// Stores recognized as retries or network duplicates by the
    /// per-sender seq ledger: acked but never counted in `stores`, never
    /// pushed into a series.
    pub dup_stores: u64,
    /// Replies (acks, fetch replies) that bounced off a dead requester.
    pub reply_failures: u64,
    /// sender pid → received store seqs (the dedup ledger; on "disk" so it
    /// survives a supervised restart of the server process).
    pub seen: BTreeMap<ProcessId, SeenSeqs>,
    /// Stores dropped by `Series::push`: non-finite points (a sensor NaN
    /// that must never reach a forecaster's ring) and points whose
    /// timestamp is not strictly newer than the last stored one (clock
    /// skew/stalls would silently desync the delta-fetch watermark).
    pub rejected: u64,
    /// Total points shipped across all fetch replies — the observable
    /// behind the delta-fetch O(Δ) contract: in a steady-state query storm
    /// this counter stays put while `fetches` climbs.
    pub points_served: u64,
}

impl MemoryStore {
    pub fn series_len(&self, key: &SeriesKey) -> usize {
        self.series.get(key).map(Series::len).unwrap_or(0)
    }

    /// Apply one store: dedup via the per-sender seq ledger, then count
    /// and push. This is the **single** mutation path for stores — the
    /// live message handler and the WAL replay both call it, which is
    /// what makes replayed state bit-identical to live state by
    /// construction.
    pub fn apply_store(
        &mut self,
        sender: ProcessId,
        seq: u64,
        key: &SeriesKey,
        t: f64,
        value: f64,
        capacity: usize,
    ) -> StoreOutcome {
        let first_time = self.seen.entry(sender).or_default().note(seq);
        let mut new_key = false;
        if first_time {
            self.stores += 1;
            let stored = match self.series.get_mut(key) {
                Some(series) => series.push(t, value),
                None => {
                    new_key = true;
                    let mut series = Series::new(capacity);
                    let stored = series.push(t, value);
                    self.series.insert(key.clone(), series);
                    stored
                }
            };
            if !stored {
                self.rejected += 1;
            }
        } else {
            self.dup_stores += 1;
        }
        StoreOutcome { first_time, new_key }
    }

    /// Account one fetch that served `served` points (live and replay).
    pub fn apply_fetch(&mut self, served: u64) {
        self.fetches += 1;
        self.points_served += served;
    }

    /// Account one bounced reply (live and replay).
    pub fn apply_reply_failure(&mut self) {
        self.reply_failures += 1;
    }
}

/// Shared handle onto a memory server's store.
pub type MemoryHandle = Rc<RefCell<MemoryStore>>;

/// The memory server process.
pub struct MemoryServer {
    name: String,
    ns: ProcessId,
    capacity: usize,
    store: MemoryHandle,
    /// Durable WAL + snapshot state on the server's disk.
    log: MemoryLog,
}

impl MemoryServer {
    /// A memory server on a fresh disk of its own that nothing else can
    /// reach: its state dies with the process, as far as any observer can
    /// tell. Unit tests and single-epoch experiments use this; supervised
    /// deployments hand [`MemoryServer::recover`] the host's disk.
    pub fn new(name: &str, ns: ProcessId, capacity: usize) -> (Self, MemoryHandle) {
        Self::recover(name, ns, capacity, SimDisk::new(name), DEFAULT_COMPACT_THRESHOLD)
    }

    /// Rebuild the store from `disk` (snapshot + WAL replay, empty disk ⇒
    /// empty store) and keep logging to it, compacting once the WAL
    /// outgrows `compact_threshold` bytes. This is both the cold-start
    /// and the crash-recovery constructor — the two are the same code path
    /// on purpose.
    ///
    /// The on-disk file names are fixed (`memory.wal` / `memory.snap`),
    /// not derived from `name`: display names embed a deployment index
    /// that can shift across reconfigurations, and a renamed server must
    /// still find its own files.
    pub fn recover(
        name: &str,
        ns: ProcessId,
        capacity: usize,
        disk: DiskHandle,
        compact_threshold: u64,
    ) -> (Self, MemoryHandle) {
        let (store, mut log) = MemoryLog::recover(disk, "memory", capacity);
        log.set_compact_threshold(compact_threshold);
        let store = Rc::new(RefCell::new(store));
        (MemoryServer { name: name.to_string(), ns, capacity, store: store.clone(), log }, store)
    }
}

impl Process<NwsMsg> for MemoryServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        NwsMsg::Register { name: self.name.clone(), kind: ServerKind::Memory }.send(ctx, self.ns);
        // Restarted under a fresh pid: re-claim every series read off disk
        // so directory lookups stop pointing at the dead predecessor.
        let keys: Vec<SeriesKey> = self.store.borrow().series.keys().cloned().collect();
        for key in keys {
            NwsMsg::RegisterSeries { key, memory: ctx.me() }.send(ctx, self.ns);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
        match msg {
            NwsMsg::Store { key, seq, t, value } => {
                let out =
                    self.store.borrow_mut().apply_store(from, seq, &key, t, value, self.capacity);
                // Log every copy — duplicates included, so replay
                // reproduces `dup_stores` — and fsync before the ack: an
                // acked store is on stable storage, which is what keeps a
                // crash + sensor retry from double-counting.
                self.log.log_store(from, seq, &key, t, value);
                self.log.maybe_compact(&self.store.borrow());
                // Ack in every case — including duplicates and rejected
                // points — so the sender releases its buffer slot; without
                // the dup-ack a sensor whose first ack was lost would
                // retry forever.
                NwsMsg::StoreAck { seq }.send(ctx, from);
                if out.first_time && out.new_key {
                    NwsMsg::RegisterSeries { key, memory: ctx.me() }.send(ctx, self.ns);
                }
            }
            NwsMsg::Ping => {
                NwsMsg::Pong.send(ctx, from);
            }
            NwsMsg::FetchSince { key, after } => {
                let (points, latest) = {
                    let mut st = self.store.borrow_mut();
                    let points =
                        st.series.get(&key).map(|s| s.pairs_since(after)).unwrap_or_default();
                    let latest = st
                        .series
                        .get(&key)
                        .and_then(Series::last)
                        .map_or(f64::NEG_INFINITY, |p| p.t);
                    st.apply_fetch(points.len() as u64);
                    (points, latest)
                };
                self.log.log_fetch(points.len() as u64);
                NwsMsg::FetchReply { key, points, latest }.send(ctx, from);
            }
            _ => {}
        }
    }

    fn on_send_failed(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _to: ProcessId, _err: &NetError) {
        // An ack or fetch reply bounced off a requester that died while it
        // was in flight. There is nothing to resend — the requester is
        // gone — but the loss is accounted rather than silent; a retried
        // Store from a restarted sensor arrives under a fresh pid and seq
        // space, so dropping this reply cannot wedge anyone.
        self.store.borrow_mut().apply_reply_failure();
        self.log.log_reply_failure();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Resource;
    use crate::registry::NameServer;
    use netsim::prelude::*;
    use netsim::Engine;

    type GotPoints = Rc<RefCell<Option<Vec<(f64, f64)>>>>;

    fn net3() -> (Engine<NwsMsg>, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let hosts: Vec<NodeId> = (0..3)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        (Engine::new(b.build().unwrap()), hosts)
    }

    /// Stores three values, then fetches them back.
    struct StoreFetch {
        memory: ProcessId,
        got: GotPoints,
    }

    impl Process<NwsMsg> for StoreFetch {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
            let key = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
            for (seq, (t, v)) in [(1.0, 90.0), (2.0, 95.0), (3.0, 92.0)].iter().enumerate() {
                let m = NwsMsg::Store { key: key.clone(), seq: seq as u64 + 1, t: *t, value: *v };
                let size = m.wire_size();
                ctx.send(self.memory, size, m).unwrap();
            }
            let f = NwsMsg::FetchSince { key, after: f64::NEG_INFINITY };
            let size = f.wire_size();
            ctx.send(self.memory, size, f).unwrap();
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
            if let NwsMsg::FetchReply { points, .. } = msg {
                *self.got.borrow_mut() = Some(points);
            }
        }
    }

    #[test]
    fn store_then_fetch() {
        let (mut eng, hosts) = net3();
        let (ns, ns_state) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 128);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));
        let got = Rc::new(RefCell::new(None));
        eng.add_process(hosts[2], Box::new(StoreFetch { memory: mem_pid, got: got.clone() }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();

        let points = got.borrow().clone().expect("fetch replied");
        assert_eq!(points, vec![(1.0, 90.0), (2.0, 95.0), (3.0, 92.0)]);
        assert_eq!(store.borrow().stores, 3);
        assert_eq!(store.borrow().fetches, 1);
        // The series was registered with the name server exactly once.
        let key = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
        assert_eq!(ns_state.borrow().series.get(&key), Some(&mem_pid));
        // The memory registered itself as a server too.
        assert!(ns_state.borrow().servers.contains_key("mem0"));
    }

    #[test]
    fn fetch_of_unknown_series_is_empty() {
        let (mut eng, hosts) = net3();
        let (ns, _) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, _store) = MemoryServer::new("mem0", ns_pid, 128);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));

        struct FetchOnly {
            memory: ProcessId,
            got: GotPoints,
        }
        impl Process<NwsMsg> for FetchOnly {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
                let key = SeriesKey::host(Resource::CpuLoad, "nope");
                let f = NwsMsg::FetchSince { key, after: f64::NEG_INFINITY };
                let size = f.wire_size();
                ctx.send(self.memory, size, f).unwrap();
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
                if let NwsMsg::FetchReply { points, .. } = msg {
                    *self.got.borrow_mut() = Some(points);
                }
            }
        }
        let got = Rc::new(RefCell::new(None));
        eng.add_process(hosts[2], Box::new(FetchOnly { memory: mem_pid, got: got.clone() }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert_eq!(got.borrow().clone().unwrap(), vec![]);
    }

    #[test]
    fn fetch_since_serves_only_the_delta() {
        let (mut eng, hosts) = net3();
        let (ns, _) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 128);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));

        struct DeltaFetch {
            memory: ProcessId,
            got: GotPoints,
        }
        impl Process<NwsMsg> for DeltaFetch {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
                let key = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
                let points = [(1.0, 90.0), (2.0, 95.0), (3.0, 92.0), (f64::NAN, 88.0)];
                for (seq, (t, v)) in points.iter().enumerate() {
                    let m =
                        NwsMsg::Store { key: key.clone(), seq: seq as u64 + 1, t: *t, value: *v };
                    let size = m.wire_size();
                    ctx.send(self.memory, size, m).unwrap();
                }
                let f = NwsMsg::FetchSince { key, after: 1.0 };
                let size = f.wire_size();
                ctx.send(self.memory, size, f).unwrap();
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
                if let NwsMsg::FetchReply { points, .. } = msg {
                    *self.got.borrow_mut() = Some(points);
                }
            }
        }
        let got = Rc::new(RefCell::new(None));
        eng.add_process(hosts[2], Box::new(DeltaFetch { memory: mem_pid, got: got.clone() }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();

        // Strict suffix only; the NaN-timestamped store was rejected.
        assert_eq!(got.borrow().clone().unwrap(), vec![(2.0, 95.0), (3.0, 92.0)]);
        let st = store.borrow();
        assert_eq!(st.stores, 4);
        assert_eq!(st.rejected, 1);
        assert_eq!(st.points_served, 2);
    }

    /// Retried and duplicated stores are idempotent: the seq ledger routes
    /// them to `dup_stores`, so `stores`, the series contents and the
    /// rejection counter all match what the deduplicated subsequence alone
    /// would have produced — and every copy is still acked.
    #[test]
    fn duplicate_and_retried_stores_are_idempotent() {
        struct Retrier {
            memory: ProcessId,
            acks: Rc<RefCell<Vec<u64>>>,
        }
        impl Process<NwsMsg> for Retrier {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
                let key = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
                // seqs 1,2,3 delivered; 2 and 3 retried out of order; a
                // late duplicate of 1; then fresh 4.
                let sends = [(1, 1.0), (2, 2.0), (3, 3.0), (3, 3.0), (2, 2.0), (1, 1.0), (4, 4.0)];
                for (seq, t) in sends {
                    let m = NwsMsg::Store { key: key.clone(), seq, t, value: 90.0 + t };
                    let size = m.wire_size();
                    ctx.send(self.memory, size, m).unwrap();
                }
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
                if let NwsMsg::StoreAck { seq } = msg {
                    self.acks.borrow_mut().push(seq);
                }
            }
        }

        let (mut eng, hosts) = net3();
        let (ns, _) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 128);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));
        let acks = Rc::new(RefCell::new(Vec::new()));
        eng.add_process(hosts[2], Box::new(Retrier { memory: mem_pid, acks: acks.clone() }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();

        let st = store.borrow();
        assert_eq!(st.stores, 4, "each unique seq counted exactly once");
        assert_eq!(st.dup_stores, 3);
        assert_eq!(st.rejected, 0);
        let key = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
        let pairs = st.series[&key].to_pairs();
        assert_eq!(pairs, vec![(1.0, 91.0), (2.0, 92.0), (3.0, 93.0), (4.0, 94.0)]);
        // Every copy — duplicate or not — was acked.
        assert_eq!(*acks.borrow(), vec![1, 2, 3, 3, 2, 1, 4]);
    }

    #[test]
    fn capacity_bounds_series() {
        let (mut eng, hosts) = net3();
        let (ns, _) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 2);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));
        let got = Rc::new(RefCell::new(None));
        eng.add_process(hosts[2], Box::new(StoreFetch { memory: mem_pid, got: got.clone() }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        // Capacity 2: only the last two of three stores survive.
        assert_eq!(got.borrow().clone().unwrap(), vec![(2.0, 95.0), (3.0, 92.0)]);
        let key = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
        assert_eq!(store.borrow().series_len(&key), 2);
    }
}
