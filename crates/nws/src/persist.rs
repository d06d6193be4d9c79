//! Snapshot + write-ahead-log persistence for NWS state: the durable
//! plane behind `crate::memory::MemoryServer::recover` and the durable
//! forecaster.
//!
//! Both state machines persist the same way (framing in [`crate::wal`]):
//!
//! * every state-changing event is appended to a per-server WAL on the
//!   host's [`SimDisk`], sequenced by one monotone counter;
//! * periodically the full state is written to `<name>.snap.new`, fsynced,
//!   **atomically renamed** over `<name>.snap`, and only then is the WAL
//!   truncated (compaction). The snapshot records the last WAL seq it
//!   folds in, so replay skips stale records if the crash lands between
//!   publish and truncate;
//! * recovery = decode snapshot (or start empty) + replay the WAL suffix
//!   through the **same apply functions the live server uses**
//!   ([`crate::memory::MemoryStore::apply_store`] & co.), then compact, so
//!   crash-torn garbage never sits in front of fresh appends.
//!
//! ## Replay soundness
//!
//! Replayed state is bit-identical to live state because (a) the live
//! handler and the replay call one shared mutation path, (b) every f64
//! rides through the codec as its IEEE-754 bit pattern, and (c) the WAL
//! scan truncates at the first torn/corrupt record, and torn tails are
//! suffixes — so what replays is exactly a prefix of what the live server
//! executed. For the memory server, store records are fsynced *before*
//! the ack, so the replayed prefix always covers every acked store: a
//! sensor retry after recovery hits the replayed dedup ledger and lands
//! in `dup_stores`, never double-counted.
//!
//! [`SimDisk`]: netsim::disk::SimDisk

use std::rc::Rc;

use netsim::disk::{DiskHandle, DiskImage};
use netsim::engine::ProcessId;

use crate::forecast::ForecasterBattery;
use crate::ids::{IdMap, SeriesId, SeriesTable, SeriesTableHandle};
use crate::memory::{MemoryStore, SeenSeqs};
use crate::msg::Resource;
use crate::series::Series;
use crate::series_state::SeriesState;
use crate::wal::{
    append_record, build_snapshot, decode_snapshot, put_f64, put_str, put_u32, put_u64, put_u8,
    scan_wal, snapshot_len, ByteReader,
};

/// Compact once the WAL grows past this many KiB, unless the deployment
/// says otherwise (`NwsSystemSpec::wal_compact_kib`, the plan's
/// `wal_compact_kib` key).
pub const DEFAULT_WAL_COMPACT_KIB: u64 = 64;

/// The compaction threshold in bytes for the KiB a spec or a plan carries;
/// `None` when it does not fit a `u64`.
pub const fn wal_compact_bytes(kib: u64) -> Option<u64> {
    kib.checked_mul(1024)
}

/// [`DEFAULT_WAL_COMPACT_KIB`] in bytes: what a log compacts at until told
/// otherwise.
pub(crate) const DEFAULT_COMPACT_THRESHOLD: u64 =
    wal_compact_bytes(DEFAULT_WAL_COMPACT_KIB).expect("64 KiB fits a u64");

// ---------------------------------------------------------------------------
// Shared file plumbing
// ---------------------------------------------------------------------------

/// The on-disk file set of one persistent server, with the WAL append
/// cursor and compaction bookkeeping both log types share.
#[derive(Debug)]
struct LogFiles {
    disk: DiskHandle,
    wal: String,
    snap: String,
    snap_new: String,
    /// Seq for the next WAL record (monotone across compactions).
    next_seq: u64,
    /// Bytes appended to the WAL since the last truncation.
    wal_bytes: u64,
    compact_threshold: u64,
    /// The record being framed; kept so an append allocates nothing.
    frame: Vec<u8>,
}

impl LogFiles {
    /// Read the file set for `name`: the decoded snapshot (if one is
    /// present and verifies) and the valid WAL record prefix. Reading a
    /// memory image the disk has not produced yet borrows the series
    /// table, so no caller may hold it borrowed across this.
    #[expect(clippy::type_complexity, reason = "private; the three parts recovery reads")]
    fn open(disk: DiskHandle, name: &str) -> (Self, Option<(u64, Vec<u8>)>, Vec<(u64, Vec<u8>)>) {
        let wal = format!("{name}.wal");
        let snap = format!("{name}.snap");
        let snap_new = format!("{name}.snap.new");
        let snapshot = disk.borrow_mut().read(&snap).and_then(|img| decode_snapshot(&img));
        let records = match disk.borrow_mut().read(&wal) {
            Some(bytes) => scan_wal(&bytes).records,
            None => Vec::new(),
        };
        let snap_seq = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let last_seq = records.iter().map(|(seq, _)| *seq).fold(snap_seq, u64::max);
        (
            LogFiles {
                disk,
                wal,
                snap,
                snap_new,
                next_seq: last_seq + 1,
                wal_bytes: 0,
                compact_threshold: DEFAULT_COMPACT_THRESHOLD,
                frame: Vec::new(),
            },
            snapshot,
            records,
        )
    }

    /// Frame one record around the payload `encode_payload` writes and
    /// append it; fsync when asked.
    fn append(&mut self, fsync: bool, encode_payload: impl FnOnce(&mut Vec<u8>)) {
        self.frame.clear();
        let n = append_record(&mut self.frame, self.next_seq, encode_payload);
        self.next_seq += 1;
        self.wal_bytes += n as u64;
        let mut d = self.disk.borrow_mut();
        d.append(&self.wal, &self.frame);
        if fsync {
            d.fsync(&self.wal);
        }
    }

    fn sync(&mut self) {
        self.disk.borrow_mut().fsync(&self.wal);
    }

    fn needs_compact(&self) -> bool {
        self.wal_bytes > self.compact_threshold
    }

    /// The seq of the last record a snapshot taken now folds in.
    fn log_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Compaction step 1: write the snapshot image to the side file and
    /// fsync it. Crash here: the half-written `.snap.new` is never read by
    /// recovery (only the published name is), so it is harmless. `false`,
    /// with the disk untouched, if there is no image — it could not be
    /// sealed: the caller must then keep the old snapshot and the WAL.
    fn write_snapshot(&mut self, image: Option<Rc<dyn DiskImage>>) -> bool {
        let Some(image) = image else { return false };
        self.disk.borrow_mut().write_image(&self.snap_new, image);
        true
    }

    /// All three compaction steps in order; a refused step 1 skips the
    /// other two, so nothing is lost.
    fn compact(&mut self, image: Option<Rc<dyn DiskImage>>) {
        if self.write_snapshot(image) {
            self.publish_snapshot();
            self.truncate_wal();
        }
    }

    /// Compaction step 2: atomically publish the side file. Crash before:
    /// old snapshot + full WAL still recover. Crash after (step 3 not yet
    /// run): new snapshot + stale WAL records, skipped by seq.
    fn publish_snapshot(&mut self) {
        self.disk.borrow_mut().rename(&self.snap_new, &self.snap);
    }

    /// Compaction step 3: empty the WAL. Record seqs keep counting up —
    /// the snapshot's `log_seq` is the fence, not the file boundary.
    fn truncate_wal(&mut self) {
        self.disk.borrow_mut().truncate(&self.wal);
        self.wal_bytes = 0;
    }
}

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

/// A series as the WAL and snapshots spell it: its whole key, never the
/// id, which is only a name within one run's table.
fn put_key(b: &mut Vec<u8>, ids: &SeriesTable, id: SeriesId) {
    let (resource, src, dst) = ids.parts(id);
    put_u8(b, resource.index() as u8);
    put_str(b, ids.host_name(src));
    put_str(b, ids.host_name(dst));
}

/// Read a spelled-out key and intern it: the decode boundary.
fn read_key(r: &mut ByteReader<'_>, ids: &mut SeriesTable) -> Option<SeriesId> {
    let resource = Resource::from_index(r.u8()? as usize)?;
    let (src, dst) = (r.str()?, r.str()?);
    let (src, dst) = (ids.host(src), ids.host(dst));
    Some(ids.id(resource, src, dst))
}

// ---------------------------------------------------------------------------
// Memory-server persistence
// ---------------------------------------------------------------------------

/// WAL record tags (memory server).
const REC_STORE: u8 = 1;
const REC_FETCH: u8 = 2;
const REC_REPLY_FAILURE: u8 = 3;

/// The memory snapshot body. Series go in key order, whatever order their
/// ids were minted in: the image's bytes are a contract (`bytes_synced`
/// counts them, recovery reads them), and ids are a name within one run.
fn encode_memory_store(
    b: &mut Vec<u8>,
    store: &MemoryStore,
    capacity: usize,
    ids: &mut SeriesTable,
) {
    let capacity =
        u32::try_from(capacity).expect("a ring bound past u32::MAX is refused at deploy");
    put_u32(b, capacity);
    put_u64(b, store.stores);
    put_u64(b, store.fetches);
    put_u64(b, store.dup_stores);
    put_u64(b, store.reply_failures);
    put_u64(b, store.rejected);
    put_u64(b, store.points_served);
    put_u32(b, store.series.len() as u32);
    let order = ids.in_key_order();
    for (id, s) in order.iter().filter_map(|&id| Some((id, store.series.get(id)?))) {
        put_key(b, ids, id);
        put_u32(b, s.capacity() as u32);
        put_u32(b, s.len() as u32);
        s.encode_points(b);
    }
    put_u32(b, store.seen.len() as u32);
    for (pid, seen) in &store.seen {
        put_u32(b, pid.index() as u32);
        put_u64(b, seen.watermark());
        put_u32(b, seen.above().len() as u32);
        for s in seen.above() {
            put_u64(b, s);
        }
    }
}

/// The length of [`encode_memory_store`]'s body, counted without encoding
/// it.
fn memory_body_len(store: &MemoryStore, ids: &SeriesTable) -> usize {
    let key_len = |id| {
        let (_, src, dst) = ids.parts(id);
        1 + 4 + ids.host_name(src).len() + 4 + ids.host_name(dst).len()
    };
    let series: usize = store.series.iter().map(|(id, s)| key_len(id) + 8 + 16 * s.len()).sum();
    let seen: usize = store.seen.values().map(|s| 16 + 8 * s.above().len()).sum();
    4 + 6 * 8 + 4 + series + 4 + seen
}

/// A memory snapshot as of one compaction: the store frozen — its rings
/// shared with the live store until the live store next writes to them —
/// and what its bytes need, which [`SimDisk`] asks for only if something
/// reads the file.
///
/// [`SimDisk`]: netsim::disk::SimDisk
#[derive(Debug)]
struct MemoryImage {
    store: MemoryStore,
    log_seq: u64,
    capacity: usize,
    ids: SeriesTableHandle,
    body_len: usize,
}

impl DiskImage for MemoryImage {
    fn len(&self) -> usize {
        snapshot_len(self.body_len)
    }

    /// Borrows the series table, as the encoder needs it.
    fn write_to(&self, out: &mut Vec<u8>) {
        let mut ids = self.ids.borrow_mut();
        let sealed = build_snapshot(out, self.log_seq, |b| {
            encode_memory_store(b, &self.store, self.capacity, &mut ids);
        });
        assert!(sealed, "the body's length was checked when the image was frozen");
    }
}

fn decode_memory_store(body: &[u8], ids: &mut SeriesTable) -> Option<(MemoryStore, usize)> {
    let mut r = ByteReader::new(body);
    let capacity = r.u32()? as usize;
    let mut store = MemoryStore {
        stores: r.u64()?,
        fetches: r.u64()?,
        dup_stores: r.u64()?,
        reply_failures: r.u64()?,
        rejected: r.u64()?,
        points_served: r.u64()?,
        ..MemoryStore::default()
    };
    let n_series = r.u32()?;
    for _ in 0..n_series {
        let id = read_key(&mut r, ids)?;
        let cap = r.u32()? as usize;
        let n = r.u32()?;
        let mut s = Series::new(cap.max(1));
        for _ in 0..n {
            let t = r.f64()?;
            let v = r.f64()?;
            // Persisted points are strictly increasing and finite
            // (Series::push enforced it before they were saved), so
            // re-pushing reproduces the ring bit-for-bit.
            s.push(t, v);
        }
        store.series.insert(id, Rc::new(s));
    }
    let n_seen = r.u32()?;
    for _ in 0..n_seen {
        let pid = ProcessId::from_raw(r.u32()?);
        let watermark = r.u64()?;
        let n_above = r.u32()?;
        // A count the bytes left cannot back must not size a reservation.
        let mut above = Vec::with_capacity((n_above as usize).min(r.remaining() / 8));
        for _ in 0..n_above {
            above.push(r.u64()?);
        }
        store.seen.insert(pid, SeenSeqs::from_parts(watermark, above));
    }
    r.done().then_some((store, capacity))
}

fn apply_memory_record(
    store: &mut MemoryStore,
    payload: &[u8],
    capacity: usize,
    ids: &mut SeriesTable,
) {
    let mut r = ByteReader::new(payload);
    let Some(tag) = r.u8() else { return };
    match tag {
        REC_STORE => {
            let (Some(sender), Some(seq), Some(id), Some(t), Some(v)) =
                (r.u32(), r.u64(), read_key(&mut r, ids), r.f64(), r.f64())
            else {
                return;
            };
            store.apply_store(ProcessId::from_raw(sender), seq, id, t, v, capacity);
        }
        REC_FETCH => {
            if let Some(served) = r.u64() {
                store.apply_fetch(served);
            }
        }
        REC_REPLY_FAILURE => store.apply_reply_failure(),
        _ => {} // unknown record kind: skip (forward compatibility)
    }
}

/// What a memory recovers from its files: the snapshot (or an empty store
/// when there is none or it does not decode), then every WAL record past
/// it, through the live server's apply functions. Returns the store and
/// the ring capacity it was saved with.
fn recovered_store(
    snapshot: Option<(u64, Vec<u8>)>,
    records: &[(u64, Vec<u8>)],
    capacity: usize,
    ids: &mut SeriesTable,
) -> (MemoryStore, usize) {
    let (mut store, cap, snap_seq) = snapshot
        .and_then(|(seq, body)| decode_memory_store(&body, ids).map(|(st, cap)| (st, cap, seq)))
        .unwrap_or_else(|| (MemoryStore::default(), capacity, 0));
    for (seq, payload) in records {
        if *seq > snap_seq {
            apply_memory_record(&mut store, payload, cap, ids);
        }
    }
    (store, cap)
}

/// Durable state of one memory server.
#[derive(Debug)]
pub struct MemoryLog {
    files: LogFiles,
    capacity: usize,
    ids: SeriesTableHandle,
}

impl MemoryLog {
    /// Rebuild a [`MemoryStore`] from `disk` (empty disk ⇒ empty store)
    /// and return it with the log handle for continued operation. Ends
    /// with a compaction: the recovered state becomes the new snapshot
    /// and the WAL restarts empty, so any crash-torn bytes at its old
    /// tail can never precede fresh appends.
    pub fn recover(
        disk: DiskHandle,
        name: &str,
        capacity: usize,
        ids: &SeriesTableHandle,
    ) -> (MemoryStore, MemoryLog) {
        let (files, snapshot, records) = LogFiles::open(disk, name);
        let (store, cap) = recovered_store(snapshot, &records, capacity, &mut ids.borrow_mut());
        let mut log = MemoryLog { files, capacity: cap, ids: ids.clone() };
        log.compact(&store);
        (store, log)
    }

    /// Log one store record — duplicate copies included, so replay
    /// reproduces the dedup split — and fsync: the caller acks only
    /// after this returns, making "acked" imply "durable".
    pub fn log_store(&mut self, sender: ProcessId, seq: u64, id: SeriesId, t: f64, value: f64) {
        let ids = self.ids.borrow();
        self.files.append(true, |p| {
            put_u8(p, REC_STORE);
            put_u32(p, sender.index() as u32);
            put_u64(p, seq);
            put_key(p, &ids, id);
            put_f64(p, t);
            put_f64(p, value);
        });
    }

    /// Log one served fetch (counter replay). Lazily written: fetch
    /// counters may legitimately roll back to the last fsync on a host
    /// crash — unlike stores, nothing was promised to anyone.
    pub(crate) fn log_fetch(&mut self, served: u64) {
        self.files.append(false, |p| {
            put_u8(p, REC_FETCH);
            put_u64(p, served);
        });
    }

    /// Log one bounced reply (lazy, like fetches).
    pub(crate) fn log_reply_failure(&mut self) {
        self.files.append(false, |p| put_u8(p, REC_REPLY_FAILURE));
    }

    /// `store` frozen as a snapshot image: a copy of its counters and
    /// ledger, and of a pointer per series. `None` if its body would not
    /// fit the image's `u32` length field.
    fn freeze(&self, store: &MemoryStore) -> Option<Rc<dyn DiskImage>> {
        let body_len = memory_body_len(store, &self.ids.borrow());
        u32::try_from(body_len).ok()?;
        Some(Rc::new(MemoryImage {
            store: store.clone(),
            log_seq: self.files.log_seq(),
            capacity: self.capacity,
            ids: self.ids.clone(),
            body_len,
        }))
    }

    /// Compaction, as three separately-callable steps so crash tests can
    /// land between them (see `LogFiles`' docs on each step's crash
    /// safety). `false` if no image was written: do not publish.
    #[cfg(test)]
    pub(crate) fn write_snapshot(&mut self, store: &MemoryStore) -> bool {
        let image = self.freeze(store);
        self.files.write_snapshot(image)
    }

    #[cfg(test)]
    pub(crate) fn publish_snapshot(&mut self) {
        self.files.publish_snapshot();
    }

    /// All three compaction steps in order.
    pub fn compact(&mut self, store: &MemoryStore) {
        let image = self.freeze(store);
        self.files.compact(image);
    }

    /// Compact if the WAL has outgrown the threshold.
    pub(crate) fn maybe_compact(&mut self, store: &MemoryStore) {
        if self.files.needs_compact() {
            self.compact(store);
        }
    }

    pub(crate) fn set_compact_threshold(&mut self, bytes: u64) {
        self.files.compact_threshold = bytes;
    }
}

// ---------------------------------------------------------------------------
// Forecaster persistence
// ---------------------------------------------------------------------------

/// WAL record tags (forecaster).
const REC_OBSERVE: u8 = 0x11;
const REC_REWIND: u8 = 0x12;

/// Durable state of one forecaster.
#[derive(Debug)]
pub struct ForecastLog {
    files: LogFiles,
    ids: SeriesTableHandle,
}

impl ForecastLog {
    /// Rebuild every series' battery + watermark from `disk`. Same shape
    /// as [`MemoryLog::recover`], including the trailing compaction.
    pub(crate) fn recover(
        disk: DiskHandle,
        name: &str,
        ids: &SeriesTableHandle,
    ) -> (IdMap<SeriesState>, Self) {
        let (files, snapshot, records) = LogFiles::open(disk, name);
        let state = recovered_forecasts(snapshot, &records, &mut ids.borrow_mut());
        let mut log = ForecastLog { files, ids: ids.clone() };
        log.compact(|id| state.get(id).map(|s| (s.battery(), s.last_t())));
        (state, log)
    }

    /// Log one observed point (battery fed a value, watermark advanced).
    /// Lazy append; call [`ForecastLog::sync`] once per fetch-reply batch.
    pub(crate) fn log_observe(&mut self, id: SeriesId, t: f64, v: f64) {
        let ids = self.ids.borrow();
        self.files.append(false, |p| {
            put_u8(p, REC_OBSERVE);
            put_key(p, &ids, id);
            put_f64(p, t);
            put_f64(p, v);
        });
    }

    /// Log a watermark rewind (battery reset because the memory came back
    /// with an older store than we had observed).
    pub(crate) fn log_rewind(&mut self, id: SeriesId) {
        let ids = self.ids.borrow();
        self.files.append(false, |p| {
            put_u8(p, REC_REWIND);
            put_key(p, &ids, id);
        });
    }

    pub(crate) fn sync(&mut self) {
        self.files.sync();
    }

    pub(crate) fn needs_compact(&self) -> bool {
        self.files.needs_compact()
    }

    /// Snapshot the full per-series state and truncate the WAL. `series`
    /// gives the battery and watermark of every series the forecaster
    /// tracks (`None` for the others); they are written in key order, the
    /// image's contract, whatever order their ids were minted in.
    pub(crate) fn compact<'a>(
        &mut self,
        series: impl Fn(SeriesId) -> Option<(&'a ForecasterBattery, f64)>,
    ) {
        let mut image = Vec::new();
        let sealed = build_snapshot(&mut image, self.files.log_seq(), |body| {
            encode_forecasts(body, &mut self.ids.borrow_mut(), series);
        });
        self.files.compact(sealed.then(|| Rc::new(image) as Rc<dyn DiskImage>));
    }

    pub(crate) fn set_compact_threshold(&mut self, bytes: u64) {
        self.files.compact_threshold = bytes;
    }
}

/// The forecaster snapshot body: `n`, then `n` × (key, [`SeriesState`]).
fn encode_forecasts<'a>(
    body: &mut Vec<u8>,
    ids: &mut SeriesTable,
    series: impl Fn(SeriesId) -> Option<(&'a ForecasterBattery, f64)>,
) {
    let order = ids.in_key_order();
    let items: Vec<_> = order.iter().filter_map(|&id| Some((id, series(id)?))).collect();
    put_u32(body, items.len() as u32);
    for (id, (battery, last_t)) in items {
        put_key(body, ids, id);
        SeriesState::encode(body, battery, last_t);
    }
}

/// What a forecaster recovers from its files: the snapshot's series up to
/// the first that does not decode, then every WAL record past it.
fn recovered_forecasts(
    snapshot: Option<(u64, Vec<u8>)>,
    records: &[(u64, Vec<u8>)],
    ids: &mut SeriesTable,
) -> IdMap<SeriesState> {
    let mut state = IdMap::new();
    let snap_seq = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
    if let Some((_, body)) = snapshot {
        let mut r = ByteReader::new(&body);
        if let Some(n) = r.u32() {
            for _ in 0..n {
                let (Some(id), Some(series)) = (read_key(&mut r, ids), SeriesState::decode(&mut r))
                else {
                    break;
                };
                state.insert(id, series);
            }
        }
    }
    for (seq, payload) in records {
        if *seq > snap_seq {
            apply_forecast_record(&mut state, payload, ids);
        }
    }
    state
}

/// Replay one forecaster WAL record through the same [`SeriesState`]
/// calls the live `FetchReply` handler makes. Observe records are written
/// post-guard (watermark-advancing points only) and a rewind record
/// resets the watermark before the re-fetched older points follow, so the
/// guarded `observe` takes every replayed point exactly as live did.
fn apply_forecast_record(state: &mut IdMap<SeriesState>, payload: &[u8], ids: &mut SeriesTable) {
    let mut r = ByteReader::new(payload);
    let Some(tag) = r.u8() else { return };
    match tag {
        REC_OBSERVE => {
            let (Some(id), Some(t), Some(v)) = (read_key(&mut r, ids), r.f64(), r.f64()) else {
                return;
            };
            state.get_or_insert_with(id, SeriesState::fresh).observe(t, v);
        }
        REC_REWIND => {
            let Some(id) = read_key(&mut r, ids) else { return };
            state.get_or_insert_with(id, SeriesState::fresh).rewind();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::SeriesKey;
    use crate::wal::append_record;
    use netsim::disk::SimDisk;
    use proptest::prelude::*;

    fn key(i: u8) -> SeriesKey {
        SeriesKey::link(Resource::Bandwidth, &format!("s{i}.x"), "d.x")
    }

    /// A table holding `key(0..n)`, minted in reverse key order, and the
    /// ids in key order.
    fn table(n: u8) -> (SeriesTableHandle, Vec<SeriesId>) {
        let ids = SeriesTable::new();
        let mut minted: Vec<SeriesId> =
            (0..n).rev().map(|i| ids.borrow_mut().intern(&key(i))).collect();
        minted.reverse();
        (ids, minted)
    }

    fn snapshot_bits(store: &MemoryStore, cap: usize, ids: &SeriesTableHandle) -> Vec<u8> {
        let mut b = Vec::new();
        encode_memory_store(&mut b, store, cap, &mut ids.borrow_mut());
        b
    }

    #[test]
    fn memory_store_codec_round_trips_bit_for_bit() {
        let (ids, k) = table(2);
        let mut store = MemoryStore::default();
        let a = ProcessId::from_raw(7);
        let b = ProcessId::from_raw(9);
        for seq in 1..=40u64 {
            store.apply_store(a, seq, k[0], seq as f64, 90.0 + seq as f64, 16);
        }
        // Out-of-order seqs leave a sparse `above` set; a duplicate and a
        // rejected (stale-t) store exercise the counters.
        store.apply_store(b, 5, k[1], 1.0, 1.0, 16);
        store.apply_store(b, 2, k[1], 2.0, 2.0, 16);
        store.apply_store(b, 2, k[1], 2.0, 2.0, 16); // dup
        store.apply_store(b, 7, k[1], 0.5, 3.0, 16); // rejected: t regressed
        store.apply_fetch(12);
        store.apply_reply_failure();

        let body = snapshot_bits(&store, 16, &ids);
        let (decoded, cap) = decode_memory_store(&body, &mut ids.borrow_mut()).expect("decodes");
        assert_eq!(cap, 16);
        assert_eq!(snapshot_bits(&decoded, cap, &ids), body, "re-encode must be bit-identical");
        assert_eq!(decoded.stores, store.stores);
        assert_eq!(decoded.dup_stores, store.dup_stores);
        assert_eq!(decoded.rejected, store.rejected);
        assert_eq!(decoded.fetches, store.fetches);
        assert_eq!(decoded.points_served, store.points_served);
        assert_eq!(decoded.reply_failures, store.reply_failures);
        // The dedup ledger survives: a replayed duplicate is still a dup.
        let mut replayed = decoded;
        let out = replayed.apply_store(b, 5, k[1], 9.0, 9.0, 16);
        assert!(!out.first_time, "seq 5 must still be remembered after decode");
    }

    #[test]
    fn a_hostile_element_count_is_refused_without_reserving_for_it() {
        // An empty store's body, then one ledger entry whose `above` claims
        // u32::MAX seqs (32 GiB to reserve) with two behind it.
        let ids = SeriesTable::new();
        let mut body = snapshot_bits(&MemoryStore::default(), 16, &ids);
        let n_seen_at = body.len() - 4;
        body[n_seen_at..].copy_from_slice(&1u32.to_le_bytes());
        put_u32(&mut body, 7); // pid
        put_u64(&mut body, 0); // watermark
        put_u32(&mut body, u32::MAX);
        put_u64(&mut body, 3);
        put_u64(&mut body, 4);
        assert!(decode_memory_store(&body, &mut ids.borrow_mut()).is_none());
    }

    #[test]
    fn recover_from_empty_disk_is_an_empty_store() {
        let disk = SimDisk::new("h");
        let (store, _log) = MemoryLog::recover(disk.clone(), "mem0", 32, &SeriesTable::new());
        assert_eq!(store.stores, 0);
        assert!(store.series.is_empty());
        // Recovery's trailing compaction published an (empty) snapshot.
        assert!(disk.borrow().exists("mem0.snap"));
    }

    #[test]
    fn wal_replay_equals_live_after_host_crash() {
        let (ids, k) = table(1);
        let disk = SimDisk::new("h");
        let (mut live, mut log) = MemoryLog::recover(disk.clone(), "mem0", 32, &ids);
        let sender = ProcessId::from_raw(3);
        for seq in 1..=25u64 {
            live.apply_store(sender, seq, k[0], seq as f64, 50.0, 32);
            log.log_store(sender, seq, k[0], seq as f64, 50.0);
        }
        // Host crash: every store was fsynced pre-ack, so recovery must
        // reproduce the live store exactly.
        disk.borrow_mut().crash();
        let (recovered, _log2) = MemoryLog::recover(disk, "mem0", 32, &ids);
        assert_eq!(snapshot_bits(&recovered, 32, &ids), snapshot_bits(&live, 32, &ids));
    }

    #[test]
    fn crash_between_compaction_steps_never_loses_or_doubles_state() {
        // Crash after publish but before truncate: the WAL still holds
        // every record, the snapshot already folds them in — replay must
        // skip them by seq, not re-apply.
        let (ids, k) = table(1);
        let disk = SimDisk::new("h");
        let (mut live, mut log) = MemoryLog::recover(disk.clone(), "mem0", 32, &ids);
        let sender = ProcessId::from_raw(3);
        for seq in 1..=10u64 {
            live.apply_store(sender, seq, k[0], seq as f64, 50.0, 32);
            log.log_store(sender, seq, k[0], seq as f64, 50.0);
        }
        log.write_snapshot(&live);
        log.publish_snapshot();
        // (no truncate) — crash here
        disk.borrow_mut().crash();
        let (recovered, _) = MemoryLog::recover(disk.clone(), "mem0", 32, &ids);
        assert_eq!(snapshot_bits(&recovered, 32, &ids), snapshot_bits(&live, 32, &ids));

        // Crash after write_snapshot but before publish: the stale-named
        // side file is ignored; old snapshot + WAL replay still match.
        let disk2 = SimDisk::new("h2");
        let (mut live2, mut log2) = MemoryLog::recover(disk2.clone(), "mem0", 32, &ids);
        for seq in 1..=10u64 {
            live2.apply_store(sender, seq, k[0], seq as f64, 50.0, 32);
            log2.log_store(sender, seq, k[0], seq as f64, 50.0);
        }
        log2.write_snapshot(&live2);
        disk2.borrow_mut().crash();
        let (recovered2, _) = MemoryLog::recover(disk2, "mem0", 32, &ids);
        assert_eq!(snapshot_bits(&recovered2, 32, &ids), snapshot_bits(&live2, 32, &ids));
    }

    #[test]
    fn lazy_fetch_records_may_roll_back_but_stores_never_do() {
        let (ids, k) = table(1);
        let disk = SimDisk::new("h");
        let (mut live, mut log) = MemoryLog::recover(disk.clone(), "mem0", 32, &ids);
        let sender = ProcessId::from_raw(3);
        live.apply_store(sender, 1, k[0], 1.0, 50.0, 32);
        log.log_store(sender, 1, k[0], 1.0, 50.0);
        live.apply_fetch(1);
        log.log_fetch(1); // lazy: not fsynced
        disk.borrow_mut().crash(); // no fault stream: cache lost entirely
        let (recovered, _) = MemoryLog::recover(disk, "mem0", 32, &ids);
        assert_eq!(recovered.stores, 1, "acked store survives");
        assert_eq!(recovered.fetches, 0, "unsynced fetch counter rolls back");
    }

    /// The `ForecastLog::compact` view of a live state map.
    fn state_view<'a>(
        state: &'a IdMap<SeriesState>,
    ) -> impl Fn(SeriesId) -> Option<(&'a ForecasterBattery, f64)> + 'a {
        move |id| state.get(id).map(|s| (s.battery(), s.last_t()))
    }

    #[test]
    fn forecast_log_round_trips_battery_and_watermark() {
        let (ids, k) = table(1);
        let disk = SimDisk::new("h");
        let (state, mut log) = ForecastLog::recover(disk.clone(), "fc", &ids);
        assert!(state.is_empty());
        let mut live: IdMap<SeriesState> = IdMap::new();
        for i in 1..=60 {
            let (t, v) = (i as f64, 40.0 + (i % 7) as f64);
            live.get_or_insert_with(k[0], SeriesState::fresh).observe(t, v);
            log.log_observe(k[0], t, v);
            if i == 30 {
                // Mid-stream compaction: snapshot + truncate.
                log.compact(state_view(&live));
            }
        }
        log.sync();
        disk.borrow_mut().crash();
        let (recovered, _) = ForecastLog::recover(disk, "fc", &ids);
        let (a, b) = (&recovered[k[0]], &live[k[0]]);
        assert_eq!(a.last_t(), b.last_t());
        assert_eq!(a.battery().save_states(), b.battery().save_states());
        assert_eq!(
            a.forecast().map(|f| f.value.to_bits()),
            b.forecast().map(|f| f.value.to_bits()),
            "recovered forecast must be bit-identical"
        );
    }

    #[test]
    fn forecast_rewind_record_resets_on_replay() {
        let (ids, k) = table(1);
        let disk = SimDisk::new("h");
        let (_, mut log) = ForecastLog::recover(disk.clone(), "fc", &ids);
        for i in 1..=5 {
            log.log_observe(k[0], i as f64, 10.0);
        }
        log.log_rewind(k[0]);
        log.log_observe(k[0], 1.0, 11.0); // post-rewind re-fetch of older data
        log.sync();
        let (state, _) = ForecastLog::recover(disk, "fc", &ids);
        let s = &state[k[0]];
        assert_eq!(s.last_t(), 1.0);
        assert_eq!(s.battery().scores().3, 1, "battery restarted after rewind");
    }

    /// `image` with `noise` written over it from `at` (wrapping), so the
    /// damage lands anywhere, headers and counts included.
    fn splice(image: &[u8], noise: &[u8], at: usize) -> Vec<u8> {
        let mut out = image.to_vec();
        if !out.is_empty() {
            let at = at % out.len();
            let end = (at + noise.len()).min(out.len());
            out[at..end].copy_from_slice(&noise[..end - at]);
        }
        out
    }

    /// A WAL image of `records`, framed as the live log frames them.
    fn wal_image(records: &[Vec<u8>]) -> Vec<u8> {
        let mut wal = Vec::new();
        for (i, payload) in records.iter().enumerate() {
            append_record(&mut wal, i as u64 + 1, |b| b.extend_from_slice(payload));
        }
        wal
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The memory server's two decoders — a snapshot body, and a WAL
        /// scanned into records and applied — answer arbitrary bytes and
        /// valid images with noise spliced in with a store or nothing,
        /// never a panic; a valid image decodes to the store that wrote
        /// it, byte for byte.
        #[test]
        fn memory_decoders_never_panic_and_round_trip(
            noise in collection::vec(0u8..=255, 0..96),
            stores in collection::vec((0u8..3, 0u8..6, 0u8..=254u8), 0..40),
            at in 0usize..1 << 16,
        ) {
            let (ids, k) = table(6);
            let mut t = ids.borrow_mut();
            let _ = decode_memory_store(&noise, &mut t);
            let mut noisy = MemoryStore::default();
            for (_, payload) in scan_wal(&noise).records {
                apply_memory_record(&mut noisy, &payload, 8, &mut t);
            }
            apply_memory_record(&mut noisy, &noise, 8, &mut t);

            // The same stores, applied live and as the WAL records that
            // log them.
            let mut live = MemoryStore::default();
            let mut records = Vec::new();
            for (i, &(sender, key_i, arg)) in stores.iter().enumerate() {
                let sender = ProcessId::from_raw(u32::from(sender));
                let (seq, tv) = (u64::from(arg % 9), f64::from(i as u32));
                live.apply_store(sender, seq, k[usize::from(key_i)], tv, f64::from(arg), 8);
                let mut p = Vec::new();
                put_u8(&mut p, REC_STORE);
                put_u32(&mut p, sender.index() as u32);
                put_u64(&mut p, seq);
                put_key(&mut p, &t, k[usize::from(key_i)]);
                put_f64(&mut p, tv);
                put_f64(&mut p, f64::from(arg));
                records.push(p);
            }
            let mut body = Vec::new();
            encode_memory_store(&mut body, &live, 8, &mut t);
            let (back, cap) = decode_memory_store(&body, &mut t).expect("a valid image decodes");
            let mut again = Vec::new();
            encode_memory_store(&mut again, &back, cap, &mut t);
            prop_assert_eq!(&again, &body);

            let wal = wal_image(&records);
            let scanned = scan_wal(&wal).records;
            let (replayed, cap) = recovered_store(None, &scanned, 8, &mut t);
            let mut replayed_body = Vec::new();
            encode_memory_store(&mut replayed_body, &replayed, cap, &mut t);
            prop_assert_eq!(&replayed_body, &body, "WAL replay rebuilds the live store");

            let _ = decode_memory_store(&splice(&body, &noise, at), &mut t);
            let torn = scan_wal(&splice(&wal, &noise, at)).records;
            let _ = recovered_store(Some((0, splice(&body, &noise, at))), &torn, 8, &mut t);
        }

        /// The forecaster's recovery decode — snapshot body, then WAL
        /// records — the same way.
        #[test]
        fn forecast_decode_never_panics_and_round_trips(
            noise in collection::vec(0u8..=255, 0..96),
            points in collection::vec((0u8..6, 0u8..=254u8), 0..40),
            at in 0usize..1 << 16,
        ) {
            let (ids, k) = table(6);
            let mut t = ids.borrow_mut();
            let _ = recovered_forecasts(Some((0, noise.clone())), &scan_wal(&noise).records, &mut t);
            let _ = recovered_forecasts(None, &[(1, noise.clone())], &mut t);

            let mut live = IdMap::new();
            let mut records = Vec::new();
            for (i, &(key_i, arg)) in points.iter().enumerate() {
                let (id, tv, v) = (k[usize::from(key_i)], f64::from(i as u32), f64::from(arg));
                let mut p = Vec::new();
                if arg % 13 == 0 {
                    live.get_or_insert_with(id, SeriesState::fresh).rewind();
                    put_u8(&mut p, REC_REWIND);
                    put_key(&mut p, &t, id);
                } else {
                    live.get_or_insert_with(id, SeriesState::fresh).observe(tv, v);
                    put_u8(&mut p, REC_OBSERVE);
                    put_key(&mut p, &t, id);
                    put_f64(&mut p, tv);
                    put_f64(&mut p, v);
                }
                records.push(p);
            }
            let mut body = Vec::new();
            encode_forecasts(&mut body, &mut t, state_view(&live));
            let back = recovered_forecasts(Some((0, body.clone())), &[], &mut t);
            let mut again = Vec::new();
            encode_forecasts(&mut again, &mut t, state_view(&back));
            prop_assert_eq!(&again, &body);

            let wal = wal_image(&records);
            let replayed = recovered_forecasts(None, &scan_wal(&wal).records, &mut t);
            let mut replayed_body = Vec::new();
            encode_forecasts(&mut replayed_body, &mut t, state_view(&replayed));
            prop_assert_eq!(&replayed_body, &body, "WAL replay rebuilds the live batteries");

            let torn = scan_wal(&splice(&wal, &noise, at)).records;
            let _ = recovered_forecasts(Some((0, splice(&body, &noise, at))), &torn, &mut t);
        }
    }
}
