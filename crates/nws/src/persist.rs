//! Snapshot + write-ahead-log persistence for NWS state: the durable
//! plane behind [`crate::memory::MemoryServer::recover`] and the durable
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

use std::collections::BTreeMap;

use netsim::disk::DiskHandle;
use netsim::engine::ProcessId;

use crate::forecast::ForecasterBattery;
use crate::memory::{MemoryStore, SeenSeqs};
use crate::msg::{Resource, SeriesKey};
use crate::series::Series;
use crate::series_state::SeriesState;
use crate::wal::{
    append_record, build_snapshot, decode_snapshot, put_f64, put_str, put_u32, put_u64, put_u8,
    scan_wal, ByteReader,
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
pub const DEFAULT_COMPACT_THRESHOLD: u64 =
    wal_compact_bytes(DEFAULT_WAL_COMPACT_KIB).expect("64 KiB fits a u64");

/// How many WALs' worth of growth a snapshot buffer reserves when it has
/// to be regrown (see [`LogFiles::write_snapshot`]).
const GROWTH_AHEAD: usize = 64;

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
    /// The buffer of the snapshot the last publish replaced; the next image
    /// is built in it, so a log cycles through two buffers instead of asking
    /// the allocator for a fresh one per compaction.
    spare: Vec<u8>,
}

impl LogFiles {
    /// Read the file set for `name`: the decoded snapshot (if one is
    /// present and verifies) and the valid WAL record prefix.
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
                spare: Vec::new(),
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

    /// Compaction step 1: build the snapshot image around the body
    /// `encode_body` writes, hand it to the side file and fsync it. Crash
    /// here: the half-written `.snap.new` is never read by recovery (only
    /// the published name is), so it is harmless. `false`, with the disk
    /// untouched, if the image cannot be sealed: the caller must then keep
    /// the old snapshot and the WAL.
    fn write_snapshot(&mut self, encode_body: impl FnOnce(&mut Vec<u8>)) -> bool {
        // The state grows by less than the WAL records that grew it, so the
        // published image plus the WAL is room enough not to regrow.
        let mut room = self.disk.borrow().len(&self.snap) + self.wal_bytes as usize;
        // Images only ever grow. Sized exactly, each is a little larger than
        // every buffer freed before it, and whether the heap then grows by
        // an image per compaction hangs on which freed neighbours happen to
        // coalesce. So once the retired buffer is this log's own earlier
        // image (within a factor of two of what is needed now, not the
        // near-empty image of a fresh log), regrowing it takes room for
        // `GROWTH_AHEAD` more WALs at once — address space, not memory,
        // until an image reaches it.
        let held = self.spare.capacity();
        if held < room && 2 * held >= room {
            room += GROWTH_AHEAD * self.wal_bytes as usize;
        }
        let spare = std::mem::take(&mut self.spare);
        let Some(img) = build_snapshot(spare, self.next_seq - 1, room, encode_body) else {
            return false;
        };
        let mut d = self.disk.borrow_mut();
        d.truncate(&self.snap_new);
        d.append_owned(&self.snap_new, img);
        d.fsync(&self.snap_new);
        true
    }

    /// All three compaction steps in order; a refused step 1 skips the
    /// other two, so nothing is lost.
    fn compact(&mut self, encode_body: impl FnOnce(&mut Vec<u8>)) {
        if self.write_snapshot(encode_body) {
            self.publish_snapshot();
            self.truncate_wal();
        }
    }

    /// Compaction step 2: atomically publish the side file. Crash before:
    /// old snapshot + full WAL still recover. Crash after (step 3 not yet
    /// run): new snapshot + stale WAL records, skipped by seq.
    fn publish_snapshot(&mut self) {
        self.spare = self.disk.borrow_mut().rename(&self.snap_new, &self.snap);
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

fn put_key(b: &mut Vec<u8>, key: &SeriesKey) {
    put_u8(b, key.resource.index() as u8);
    put_str(b, &key.src);
    put_str(b, &key.dst);
}

fn read_key(r: &mut ByteReader<'_>) -> Option<SeriesKey> {
    let resource = Resource::from_index(r.u8()? as usize)?;
    let src = r.str()?;
    let dst = r.str()?;
    Some(SeriesKey { resource, src, dst })
}

// ---------------------------------------------------------------------------
// Memory-server persistence
// ---------------------------------------------------------------------------

/// WAL record tags (memory server).
const REC_STORE: u8 = 1;
const REC_FETCH: u8 = 2;
const REC_REPLY_FAILURE: u8 = 3;

fn encode_memory_store(b: &mut Vec<u8>, store: &MemoryStore, capacity: usize) {
    put_u32(b, capacity as u32);
    put_u64(b, store.stores);
    put_u64(b, store.fetches);
    put_u64(b, store.dup_stores);
    put_u64(b, store.reply_failures);
    put_u64(b, store.rejected);
    put_u64(b, store.points_served);
    put_u32(b, store.series.len() as u32);
    for (key, s) in &store.series {
        put_key(b, key);
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

fn decode_memory_store(body: &[u8]) -> Option<(MemoryStore, usize)> {
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
        let key = read_key(&mut r)?;
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
        store.series.insert(key, s);
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

fn apply_memory_record(store: &mut MemoryStore, payload: &[u8], capacity: usize) {
    let mut r = ByteReader::new(payload);
    let Some(tag) = r.u8() else { return };
    match tag {
        REC_STORE => {
            let (Some(sender), Some(seq), Some(key), Some(t), Some(v)) =
                (r.u32(), r.u64(), read_key(&mut r), r.f64(), r.f64())
            else {
                return;
            };
            store.apply_store(ProcessId::from_raw(sender), seq, &key, t, v, capacity);
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

/// Durable state of one memory server.
#[derive(Debug)]
pub struct MemoryLog {
    files: LogFiles,
    capacity: usize,
}

impl MemoryLog {
    /// Rebuild a [`MemoryStore`] from `disk` (empty disk ⇒ empty store)
    /// and return it with the log handle for continued operation. Ends
    /// with a compaction: the recovered state becomes the new snapshot
    /// and the WAL restarts empty, so any crash-torn bytes at its old
    /// tail can never precede fresh appends.
    pub fn recover(disk: DiskHandle, name: &str, capacity: usize) -> (MemoryStore, MemoryLog) {
        let (files, snapshot, records) = LogFiles::open(disk, name);
        let (mut store, cap, snap_seq) = match snapshot {
            Some((seq, body)) => match decode_memory_store(&body) {
                Some((st, cap)) => (st, cap, seq),
                None => (MemoryStore::default(), capacity, 0),
            },
            None => (MemoryStore::default(), capacity, 0),
        };
        for (seq, payload) in &records {
            if *seq > snap_seq {
                apply_memory_record(&mut store, payload, cap);
            }
        }
        let mut log = MemoryLog { files, capacity: cap };
        log.compact(&store);
        (store, log)
    }

    /// Log one store record — duplicate copies included, so replay
    /// reproduces the dedup split — and fsync: the caller acks only
    /// after this returns, making "acked" imply "durable".
    pub fn log_store(&mut self, sender: ProcessId, seq: u64, key: &SeriesKey, t: f64, value: f64) {
        self.files.append(true, |p| {
            put_u8(p, REC_STORE);
            put_u32(p, sender.index() as u32);
            put_u64(p, seq);
            put_key(p, key);
            put_f64(p, t);
            put_f64(p, value);
        });
    }

    /// Log one served fetch (counter replay). Lazily written: fetch
    /// counters may legitimately roll back to the last fsync on a host
    /// crash — unlike stores, nothing was promised to anyone.
    pub fn log_fetch(&mut self, served: u64) {
        self.files.append(false, |p| {
            put_u8(p, REC_FETCH);
            put_u64(p, served);
        });
    }

    /// Log one bounced reply (lazy, like fetches).
    pub fn log_reply_failure(&mut self) {
        self.files.append(false, |p| put_u8(p, REC_REPLY_FAILURE));
    }

    /// Compaction, as three separately-callable steps so crash tests can
    /// land between them (see `LogFiles`' docs on each step's crash
    /// safety). `false` if no image was written: do not publish.
    pub fn write_snapshot(&mut self, store: &MemoryStore) -> bool {
        self.files.write_snapshot(|b| encode_memory_store(b, store, self.capacity))
    }

    pub fn publish_snapshot(&mut self) {
        self.files.publish_snapshot();
    }

    pub fn truncate_wal(&mut self) {
        self.files.truncate_wal();
    }

    /// All three compaction steps in order.
    pub fn compact(&mut self, store: &MemoryStore) {
        self.files.compact(|b| encode_memory_store(b, store, self.capacity));
    }

    /// Compact if the WAL has outgrown the threshold.
    pub fn maybe_compact(&mut self, store: &MemoryStore) {
        if self.files.needs_compact() {
            self.compact(store);
        }
    }

    pub fn set_compact_threshold(&mut self, bytes: u64) {
        self.files.compact_threshold = bytes;
    }

    /// Bytes currently pending in the WAL since the last compaction.
    pub fn wal_bytes(&self) -> u64 {
        self.files.wal_bytes
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
}

impl ForecastLog {
    /// Rebuild every series' battery + watermark from `disk`. Same shape
    /// as [`MemoryLog::recover`], including the trailing compaction.
    pub fn recover(disk: DiskHandle, name: &str) -> (BTreeMap<SeriesKey, SeriesState>, Self) {
        let (files, snapshot, records) = LogFiles::open(disk, name);
        let mut state: BTreeMap<SeriesKey, SeriesState> = BTreeMap::new();
        let snap_seq = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        if let Some((_, body)) = snapshot {
            let mut r = ByteReader::new(&body);
            if let Some(n) = r.u32() {
                for _ in 0..n {
                    let (Some(key), Some(series)) = (read_key(&mut r), SeriesState::decode(&mut r))
                    else {
                        break;
                    };
                    state.insert(key, series);
                }
            }
        }
        for (seq, payload) in &records {
            if *seq > snap_seq {
                apply_forecast_record(&mut state, payload);
            }
        }
        let mut log = ForecastLog { files };
        log.compact(state.iter().map(|(k, s)| (k, s.battery(), s.last_t())));
        (state, log)
    }

    /// Log one observed point (battery fed a value, watermark advanced).
    /// Lazy append; call [`ForecastLog::sync`] once per fetch-reply batch.
    pub fn log_observe(&mut self, key: &SeriesKey, t: f64, v: f64) {
        self.files.append(false, |p| {
            put_u8(p, REC_OBSERVE);
            put_key(p, key);
            put_f64(p, t);
            put_f64(p, v);
        });
    }

    /// Log a watermark rewind (battery reset because the memory came back
    /// with an older store than we had observed).
    pub fn log_rewind(&mut self, key: &SeriesKey) {
        self.files.append(false, |p| {
            put_u8(p, REC_REWIND);
            put_key(p, key);
        });
    }

    pub fn sync(&mut self) {
        self.files.sync();
    }

    pub fn needs_compact(&self) -> bool {
        self.files.needs_compact()
    }

    /// Snapshot the full per-series state and truncate the WAL.
    pub fn compact<'a, I>(&mut self, series: I)
    where
        I: Iterator<Item = (&'a SeriesKey, &'a ForecasterBattery, f64)>,
    {
        self.files.compact(|body| {
            let items: Vec<_> = series.collect();
            put_u32(body, items.len() as u32);
            for (key, battery, last_t) in items {
                put_key(body, key);
                SeriesState::encode(body, battery, last_t);
            }
        });
    }

    pub fn set_compact_threshold(&mut self, bytes: u64) {
        self.files.compact_threshold = bytes;
    }
}

/// Replay one forecaster WAL record through the same [`SeriesState`]
/// calls the live `FetchReply` handler makes. Observe records are written
/// post-guard (watermark-advancing points only) and a rewind record
/// resets the watermark before the re-fetched older points follow, so the
/// guarded `observe` takes every replayed point exactly as live did.
fn apply_forecast_record(state: &mut BTreeMap<SeriesKey, SeriesState>, payload: &[u8]) {
    let mut r = ByteReader::new(payload);
    let Some(tag) = r.u8() else { return };
    match tag {
        REC_OBSERVE => {
            let (Some(key), Some(t), Some(v)) = (read_key(&mut r), r.f64(), r.f64()) else {
                return;
            };
            state.entry(key).or_insert_with(SeriesState::fresh).observe(t, v);
        }
        REC_REWIND => {
            let Some(key) = read_key(&mut r) else { return };
            state.entry(key).or_insert_with(SeriesState::fresh).rewind();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::disk::SimDisk;

    fn key(i: u8) -> SeriesKey {
        SeriesKey::link(Resource::Bandwidth, &format!("s{i}.x"), "d.x")
    }

    fn snapshot_bits(store: &MemoryStore, cap: usize) -> Vec<u8> {
        let mut b = Vec::new();
        encode_memory_store(&mut b, store, cap);
        b
    }

    #[test]
    fn memory_store_codec_round_trips_bit_for_bit() {
        let mut store = MemoryStore::default();
        let a = ProcessId::from_raw(7);
        let b = ProcessId::from_raw(9);
        for seq in 1..=40u64 {
            store.apply_store(a, seq, &key(0), seq as f64, 90.0 + seq as f64, 16);
        }
        // Out-of-order seqs leave a sparse `above` set; a duplicate and a
        // rejected (stale-t) store exercise the counters.
        store.apply_store(b, 5, &key(1), 1.0, 1.0, 16);
        store.apply_store(b, 2, &key(1), 2.0, 2.0, 16);
        store.apply_store(b, 2, &key(1), 2.0, 2.0, 16); // dup
        store.apply_store(b, 7, &key(1), 0.5, 3.0, 16); // rejected: t regressed
        store.apply_fetch(12);
        store.apply_reply_failure();

        let body = snapshot_bits(&store, 16);
        let (decoded, cap) = decode_memory_store(&body).expect("decodes");
        assert_eq!(cap, 16);
        assert_eq!(snapshot_bits(&decoded, cap), body, "re-encode must be bit-identical");
        assert_eq!(decoded.stores, store.stores);
        assert_eq!(decoded.dup_stores, store.dup_stores);
        assert_eq!(decoded.rejected, store.rejected);
        assert_eq!(decoded.fetches, store.fetches);
        assert_eq!(decoded.points_served, store.points_served);
        assert_eq!(decoded.reply_failures, store.reply_failures);
        // The dedup ledger survives: a replayed duplicate is still a dup.
        let mut replayed = decoded;
        let out = replayed.apply_store(b, 5, &key(1), 9.0, 9.0, 16);
        assert!(!out.first_time, "seq 5 must still be remembered after decode");
    }

    #[test]
    fn a_hostile_element_count_is_refused_without_reserving_for_it() {
        // An empty store's body, then one ledger entry whose `above` claims
        // u32::MAX seqs (32 GiB to reserve) with two behind it.
        let mut body = snapshot_bits(&MemoryStore::default(), 16);
        let n_seen_at = body.len() - 4;
        body[n_seen_at..].copy_from_slice(&1u32.to_le_bytes());
        put_u32(&mut body, 7); // pid
        put_u64(&mut body, 0); // watermark
        put_u32(&mut body, u32::MAX);
        put_u64(&mut body, 3);
        put_u64(&mut body, 4);
        assert!(decode_memory_store(&body).is_none());
    }

    #[test]
    fn recover_from_empty_disk_is_an_empty_store() {
        let disk = SimDisk::new("h");
        let (store, _log) = MemoryLog::recover(disk.clone(), "mem0", 32);
        assert_eq!(store.stores, 0);
        assert!(store.series.is_empty());
        // Recovery's trailing compaction published an (empty) snapshot.
        assert!(disk.borrow().exists("mem0.snap"));
    }

    #[test]
    fn wal_replay_equals_live_after_host_crash() {
        let disk = SimDisk::new("h");
        let (mut live, mut log) = MemoryLog::recover(disk.clone(), "mem0", 32);
        let sender = ProcessId::from_raw(3);
        for seq in 1..=25u64 {
            live.apply_store(sender, seq, &key(0), seq as f64, 50.0, 32);
            log.log_store(sender, seq, &key(0), seq as f64, 50.0);
        }
        // Host crash: every store was fsynced pre-ack, so recovery must
        // reproduce the live store exactly.
        disk.borrow_mut().crash();
        let (recovered, _log2) = MemoryLog::recover(disk, "mem0", 32);
        assert_eq!(snapshot_bits(&recovered, 32), snapshot_bits(&live, 32));
    }

    #[test]
    fn crash_between_compaction_steps_never_loses_or_doubles_state() {
        // Crash after publish but before truncate: the WAL still holds
        // every record, the snapshot already folds them in — replay must
        // skip them by seq, not re-apply.
        let disk = SimDisk::new("h");
        let (mut live, mut log) = MemoryLog::recover(disk.clone(), "mem0", 32);
        let sender = ProcessId::from_raw(3);
        for seq in 1..=10u64 {
            live.apply_store(sender, seq, &key(0), seq as f64, 50.0, 32);
            log.log_store(sender, seq, &key(0), seq as f64, 50.0);
        }
        log.write_snapshot(&live);
        log.publish_snapshot();
        // (no truncate) — crash here
        disk.borrow_mut().crash();
        let (recovered, _) = MemoryLog::recover(disk.clone(), "mem0", 32);
        assert_eq!(snapshot_bits(&recovered, 32), snapshot_bits(&live, 32));

        // Crash after write_snapshot but before publish: the stale-named
        // side file is ignored; old snapshot + WAL replay still match.
        let disk2 = SimDisk::new("h2");
        let (mut live2, mut log2) = MemoryLog::recover(disk2.clone(), "mem0", 32);
        for seq in 1..=10u64 {
            live2.apply_store(sender, seq, &key(0), seq as f64, 50.0, 32);
            log2.log_store(sender, seq, &key(0), seq as f64, 50.0);
        }
        log2.write_snapshot(&live2);
        disk2.borrow_mut().crash();
        let (recovered2, _) = MemoryLog::recover(disk2, "mem0", 32);
        assert_eq!(snapshot_bits(&recovered2, 32), snapshot_bits(&live2, 32));
    }

    #[test]
    fn lazy_fetch_records_may_roll_back_but_stores_never_do() {
        let disk = SimDisk::new("h");
        let (mut live, mut log) = MemoryLog::recover(disk.clone(), "mem0", 32);
        let sender = ProcessId::from_raw(3);
        live.apply_store(sender, 1, &key(0), 1.0, 50.0, 32);
        log.log_store(sender, 1, &key(0), 1.0, 50.0);
        live.apply_fetch(1);
        log.log_fetch(1); // lazy: not fsynced
        disk.borrow_mut().crash(); // no fault stream: cache lost entirely
        let (recovered, _) = MemoryLog::recover(disk, "mem0", 32);
        assert_eq!(recovered.stores, 1, "acked store survives");
        assert_eq!(recovered.fetches, 0, "unsynced fetch counter rolls back");
    }

    #[test]
    fn forecast_log_round_trips_battery_and_watermark() {
        let disk = SimDisk::new("h");
        let (state, mut log) = ForecastLog::recover(disk.clone(), "fc");
        assert!(state.is_empty());
        let mut live: BTreeMap<SeriesKey, SeriesState> = BTreeMap::new();
        let k = key(0);
        for i in 1..=60 {
            let (t, v) = (i as f64, 40.0 + (i % 7) as f64);
            live.entry(k.clone()).or_insert_with(SeriesState::fresh).observe(t, v);
            log.log_observe(&k, t, v);
            if i == 30 {
                // Mid-stream compaction: snapshot + truncate.
                log.compact(live.iter().map(|(k, s)| (k, s.battery(), s.last_t())));
            }
        }
        log.sync();
        disk.borrow_mut().crash();
        let (recovered, _) = ForecastLog::recover(disk, "fc");
        let (a, b) = (&recovered[&k], &live[&k]);
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
        let disk = SimDisk::new("h");
        let (_, mut log) = ForecastLog::recover(disk.clone(), "fc");
        let k = key(0);
        for i in 1..=5 {
            log.log_observe(&k, i as f64, 10.0);
        }
        log.log_rewind(&k);
        log.log_observe(&k, 1.0, 11.0); // post-rewind re-fetch of older data
        log.sync();
        let (state, _) = ForecastLog::recover(disk, "fc");
        let s = &state[&k];
        assert_eq!(s.last_t(), 1.0);
        assert_eq!(s.battery().scores().3, 1, "battery restarted after rewind");
    }
}
