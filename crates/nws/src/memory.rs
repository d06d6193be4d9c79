//! The NWS memory server: "store the results on disk for further use"
//! (paper §2.1).
//!
//! Sensors `Store` measurements here; forecasters `FetchSince` histories.
//! On the first store of a series the memory registers itself as that
//! series' home with the name server, which is how the forecaster's
//! directory lookup (step 2 of §2.1) finds the right memory. Series are
//! held by [`SeriesId`]; the durable log spells their keys out.
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

use crate::ids::{IdMap, SeriesId, SeriesTableHandle};
use crate::msg::{NwsMsg, ServerKind};
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
    pub(crate) fn from_parts(watermark: u64, above: impl IntoIterator<Item = u64>) -> Self {
        SeenSeqs { watermark, above: above.into_iter().collect() }
    }
}

/// What [`MemoryStore::apply_store`] did with one store record.
pub struct StoreOutcome {
    /// First time this (sender, seq) was seen — the point was counted.
    pub first_time: bool,
    /// The store created the series (it should be registered).
    pub new_key: bool,
}

/// The stored series, shared with the harness for direct inspection.
///
/// A clone shares every ring with its original (a compaction's snapshot
/// image is one): each side copies a ring only when it next stores to it.
#[derive(Debug, Default, Clone)]
pub struct MemoryStore {
    pub series: IdMap<Rc<Series>>,
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
    /// Apply one store: dedup via the per-sender seq ledger, then count
    /// and push. This is the **single** mutation path for stores — the
    /// live message handler and the WAL replay both call it, which is
    /// what makes replayed state bit-identical to live state by
    /// construction.
    pub fn apply_store(
        &mut self,
        sender: ProcessId,
        seq: u64,
        id: SeriesId,
        t: f64,
        value: f64,
        capacity: usize,
    ) -> StoreOutcome {
        let first_time = self.seen.entry(sender).or_default().note(seq);
        let mut new_key = false;
        if first_time {
            self.stores += 1;
            let series = self.series.get_or_insert_with(id, || {
                new_key = true;
                Rc::new(Series::new(capacity))
            });
            let stored = Rc::make_mut(series).push(t, value);
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
    ids: SeriesTableHandle,
}

impl MemoryServer {
    /// A memory server on a fresh disk of its own that nothing else can
    /// reach: its state dies with the process, as far as any observer can
    /// tell. Unit tests and single-epoch experiments use this; supervised
    /// deployments hand `MemoryServer::recover` the host's disk.
    pub fn new(
        name: &str,
        ns: ProcessId,
        capacity: usize,
        ids: &SeriesTableHandle,
    ) -> (Self, MemoryHandle) {
        Self::recover(name, ns, capacity, SimDisk::new(name), DEFAULT_COMPACT_THRESHOLD, ids)
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
    pub(crate) fn recover(
        name: &str,
        ns: ProcessId,
        capacity: usize,
        disk: DiskHandle,
        compact_threshold: u64,
        ids: &SeriesTableHandle,
    ) -> (Self, MemoryHandle) {
        let (store, mut log) = MemoryLog::recover(disk, "memory", capacity, ids);
        log.set_compact_threshold(compact_threshold);
        let store = Rc::new(RefCell::new(store));
        let server = MemoryServer {
            name: name.to_string(),
            ns,
            capacity,
            store: store.clone(),
            log,
            ids: ids.clone(),
        };
        (server, store)
    }
}

impl Process<NwsMsg> for MemoryServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        NwsMsg::Register { name: self.name.clone(), kind: ServerKind::Memory }.send(ctx, self.ns);
        // Restarted under a fresh pid: re-claim every series read off disk
        // so directory lookups stop pointing at the dead predecessor. In key
        // order, not id order: the burst is one event per series, so its
        // order is part of every run's event sequence.
        let order = self.ids.borrow_mut().in_key_order();
        let store = self.store.borrow();
        for &series in order.iter().filter(|&&id| store.series.contains(id)) {
            NwsMsg::RegisterSeries { series, memory: ctx.me() }.send(ctx, self.ns);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
        match msg {
            NwsMsg::Store { series, seq, t, value } => {
                let out =
                    self.store.borrow_mut().apply_store(from, seq, series, t, value, self.capacity);
                // Log every copy — duplicates included, so replay
                // reproduces `dup_stores` — and fsync before the ack: an
                // acked store is on stable storage, which is what keeps a
                // crash + sensor retry from double-counting.
                self.log.log_store(from, seq, series, t, value);
                self.log.maybe_compact(&self.store.borrow());
                // Ack in every case — including duplicates and rejected
                // points — so the sender releases its buffer slot; without
                // the dup-ack a sensor whose first ack was lost would
                // retry forever.
                NwsMsg::StoreAck { seq }.send(ctx, from);
                if out.first_time && out.new_key {
                    NwsMsg::RegisterSeries { series, memory: ctx.me() }.send(ctx, self.ns);
                }
            }
            NwsMsg::Ping => {
                NwsMsg::Pong.send(ctx, from);
            }
            NwsMsg::FetchSince { series, after } => {
                let (points, latest) = {
                    let mut st = self.store.borrow_mut();
                    let held = st.series.get(series);
                    let points = held.map(|s| s.pairs_since(after)).unwrap_or_default();
                    let latest = held.and_then(|s| s.last()).map_or(f64::NEG_INFINITY, |p| p.t);
                    st.apply_fetch(points.len() as u64);
                    (points, latest)
                };
                self.log.log_fetch(points.len() as u64);
                NwsMsg::FetchReply { series, points, latest }.send(ctx, from);
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
    use crate::ids::SeriesTable;
    use crate::msg::{Resource, SeriesKey};
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

    /// The series every test stores to, as `ids` numbers it.
    fn ab(ids: &SeriesTableHandle) -> SeriesId {
        ids.borrow_mut().intern(&SeriesKey::link(Resource::Bandwidth, "a.x", "b.x"))
    }

    fn send(ctx: &mut Ctx<'_, NwsMsg>, to: ProcessId, m: NwsMsg) {
        let size = m.wire_size();
        ctx.send(to, size, m).unwrap();
    }

    /// Stores three values, then fetches them back.
    struct StoreFetch {
        memory: ProcessId,
        series: SeriesId,
        got: GotPoints,
    }

    impl Process<NwsMsg> for StoreFetch {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
            let series = self.series;
            for (seq, (t, v)) in [(1.0, 90.0), (2.0, 95.0), (3.0, 92.0)].iter().enumerate() {
                let m = NwsMsg::Store { series, seq: seq as u64 + 1, t: *t, value: *v };
                send(ctx, self.memory, m);
            }
            send(ctx, self.memory, NwsMsg::FetchSince { series, after: f64::NEG_INFINITY });
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
        let ids = SeriesTable::new();
        let (ns, ns_state) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 128, &ids);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));
        let got = Rc::new(RefCell::new(None));
        let series = ab(&ids);
        eng.add_process(
            hosts[2],
            Box::new(StoreFetch { memory: mem_pid, series, got: got.clone() }),
        );
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();

        let points = got.borrow().clone().expect("fetch replied");
        assert_eq!(points, vec![(1.0, 90.0), (2.0, 95.0), (3.0, 92.0)]);
        assert_eq!(store.borrow().stores, 3);
        assert_eq!(store.borrow().fetches, 1);
        // The series was registered with the name server exactly once.
        assert_eq!(ns_state.borrow().series.get(series), Some(&mem_pid));
        // The memory registered itself as a server too.
        assert!(ns_state.borrow().servers.contains_key("mem0"));
    }

    /// Sends each of `steps` to `memory` at start; records every reply.
    struct Sender {
        memory: ProcessId,
        steps: Vec<NwsMsg>,
        got: GotPoints,
        acks: Rc<RefCell<Vec<u64>>>,
    }

    impl Process<NwsMsg> for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
            for m in std::mem::take(&mut self.steps) {
                send(ctx, self.memory, m);
            }
        }
        fn on_message(&mut self, _c: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
            match msg {
                NwsMsg::FetchReply { points, .. } => *self.got.borrow_mut() = Some(points),
                NwsMsg::StoreAck { seq } => self.acks.borrow_mut().push(seq),
                _ => {}
            }
        }
    }

    /// What a [`Sender`] run leaves: the memory's store, the last fetch
    /// reply and the acks in arrival order.
    struct Sent {
        store: MemoryHandle,
        got: Option<Vec<(f64, f64)>>,
        acks: Vec<u64>,
    }

    /// Runs `steps` against a fresh memory.
    fn run_sender(ids: &SeriesTableHandle, steps: Vec<NwsMsg>) -> Sent {
        let (mut eng, hosts) = net3();
        let (ns, _) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 128, ids);
        let memory = eng.add_process(hosts[1], Box::new(mem));
        let got = Rc::new(RefCell::new(None));
        let acks = Rc::new(RefCell::new(Vec::new()));
        let sender = Sender { memory, steps, got: got.clone(), acks: acks.clone() };
        eng.add_process(hosts[2], Box::new(sender));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        let (got, acks) = (got.borrow().clone(), acks.borrow().clone());
        Sent { store, got, acks }
    }

    #[test]
    fn fetch_of_unknown_series_is_empty() {
        let ids = SeriesTable::new();
        let series = ids.borrow_mut().intern(&SeriesKey::host(Resource::CpuLoad, "nope"));
        let fetch = NwsMsg::FetchSince { series, after: f64::NEG_INFINITY };
        assert_eq!(run_sender(&ids, vec![fetch]).got.unwrap(), vec![]);
    }

    #[test]
    fn fetch_since_serves_only_the_delta() {
        let ids = SeriesTable::new();
        let series = ab(&ids);
        let points = [(1.0, 90.0), (2.0, 95.0), (3.0, 92.0), (f64::NAN, 88.0)];
        let mut steps: Vec<NwsMsg> = points
            .iter()
            .enumerate()
            .map(|(seq, (t, v))| NwsMsg::Store { series, seq: seq as u64 + 1, t: *t, value: *v })
            .collect();
        steps.push(NwsMsg::FetchSince { series, after: 1.0 });
        let sent = run_sender(&ids, steps);

        // Strict suffix only; the NaN-timestamped store was rejected.
        assert_eq!(sent.got.unwrap(), vec![(2.0, 95.0), (3.0, 92.0)]);
        let st = sent.store.borrow();
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
        let ids = SeriesTable::new();
        let series = ab(&ids);
        // seqs 1,2,3 delivered; 2 and 3 retried out of order; a late
        // duplicate of 1; then fresh 4.
        let sends = [(1, 1.0), (2, 2.0), (3, 3.0), (3, 3.0), (2, 2.0), (1, 1.0), (4, 4.0)];
        let steps = sends
            .iter()
            .map(|&(seq, t)| NwsMsg::Store { series, seq, t, value: 90.0 + t })
            .collect();
        let sent = run_sender(&ids, steps);

        let st = sent.store.borrow();
        assert_eq!(st.stores, 4, "each unique seq counted exactly once");
        assert_eq!(st.dup_stores, 3);
        assert_eq!(st.rejected, 0);
        let pairs = st.series[series].to_pairs();
        assert_eq!(pairs, vec![(1.0, 91.0), (2.0, 92.0), (3.0, 93.0), (4.0, 94.0)]);
        // Every copy — duplicate or not — was acked.
        assert_eq!(sent.acks, vec![1, 2, 3, 3, 2, 1, 4]);
    }

    #[test]
    fn capacity_bounds_series() {
        let (mut eng, hosts) = net3();
        let ids = SeriesTable::new();
        let (ns, _) = NameServer::new();
        let ns_pid = eng.add_process(hosts[0], Box::new(ns));
        let (mem, store) = MemoryServer::new("mem0", ns_pid, 2, &ids);
        let mem_pid = eng.add_process(hosts[1], Box::new(mem));
        let got = Rc::new(RefCell::new(None));
        let series = ab(&ids);
        eng.add_process(
            hosts[2],
            Box::new(StoreFetch { memory: mem_pid, series, got: got.clone() }),
        );
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        // Capacity 2: only the last two of three stores survive.
        assert_eq!(got.borrow().clone().unwrap(), vec![(2.0, 95.0), (3.0, 92.0)]);
        assert_eq!(store.borrow().series[series].len(), 2);
    }

    /// Records the series of every `RegisterSeries` it receives, in order.
    struct Directory(Rc<RefCell<Vec<SeriesId>>>);

    impl Process<NwsMsg> for Directory {
        fn on_message(&mut self, _c: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
            if let NwsMsg::RegisterSeries { series, .. } = msg {
                self.0.borrow_mut().push(series);
            }
        }
    }

    /// A memory restarted on its disk re-claims its series in key order,
    /// whatever order their ids were minted in: the burst is one event per
    /// series, so its order is part of every run's event sequence.
    #[test]
    fn a_restarted_memory_registers_its_series_in_key_order() {
        let (mut eng, hosts) = net3();
        let ids = SeriesTable::new();
        let mut keys: Vec<SeriesKey> = (0..6)
            .map(|i| SeriesKey::link(Resource::Latency, &format!("s{i}.x"), "d.x"))
            .chain([SeriesKey::host(Resource::CpuLoad, "s3.x")])
            .collect();
        // Minted in reverse key order, stored in minting order.
        keys.sort();
        let minted: Vec<SeriesId> = keys.iter().rev().map(|k| ids.borrow_mut().intern(k)).collect();
        let got = Rc::new(RefCell::new(Vec::new()));
        let ns = eng.add_process(hosts[0], Box::new(Directory(got.clone())));
        let disk = SimDisk::new("h1.x");
        let spawn = |eng: &mut Engine<NwsMsg>| {
            let (mem, _) = MemoryServer::recover("mem0", ns, 8, disk.clone(), 1 << 20, &ids);
            eng.add_process(hosts[1], Box::new(mem))
        };
        let memory = spawn(&mut eng);
        let steps = minted
            .iter()
            .enumerate()
            .map(|(i, &series)| NwsMsg::Store { series, seq: i as u64 + 1, t: 1.0, value: 2.0 })
            .collect();
        let pending = Rc::new(RefCell::new(None));
        let acks = Rc::new(RefCell::new(Vec::new()));
        eng.add_process(hosts[2], Box::new(Sender { memory, steps, got: pending, acks }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert_eq!(*got.borrow(), minted, "first stores register as they arrive");

        eng.kill_process(memory);
        got.borrow_mut().clear();
        spawn(&mut eng);
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        let t = ids.borrow();
        let burst: Vec<SeriesKey> = got.borrow().iter().map(|&id| t.key(id)).collect();
        assert_eq!(burst, keys);
    }
}
