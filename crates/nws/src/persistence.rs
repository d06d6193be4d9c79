//! Property tests for the durable state plane (`persist`): random
//! store/fetch/crash/compact schedules × disk-fault seeds, asserting the
//! recovered state is bit-identical to the live state it replays.
//!
//! Two crash severities, with different contracts:
//!
//! * **process crash** — the server dies but the host (and its page
//!   cache, [`SimDisk`]'s unsynced bytes) survives. Recovery must
//!   reproduce the live state *exactly*, every counter included.
//! * **host crash** — `SimDisk::crash` tears a seeded-random suffix off
//!   each file's unsynced bytes. Store records are fsynced before the
//!   ack, so `stores`/`dup_stores`/`rejected`, the series contents and
//!   the SeenSeqs dedup ledger must still match the live state exactly;
//!   only the lazily-logged fetch/reply-failure counters may roll back
//!   (never forward).
//!
//! Crash-during-compaction is exercised by stopping after each of the
//! three public compaction steps (snapshot write → publish → truncate)
//! before crashing the host.
//!
//! The last section pins the bytes: the one-pass image builder against a
//! test-local reference that encodes the body into its own buffer and
//! copies it behind a header — with series ids minted in first-seen order
//! and in reverse key order, since an image lists series in key order
//! whatever their ids — and the checksum against every single-bit flip,
//! truncation and same-position pair of flips.
//!
//! [`SimDisk`]: netsim::disk::SimDisk

use std::collections::BTreeMap;

use crate::memory::MemoryStore;
use crate::msg::{Resource, SeriesKey};
use crate::persist::{ForecastLog, MemoryLog};
use crate::wal::{append_record, checksum, decode_snapshot, scan_wal};
use crate::{ForecasterBattery, IdMap, SeriesId, SeriesTable, SeriesTableHandle};
use netsim::disk::{DiskHandle, SimDisk};
use netsim::engine::ProcessId;
use proptest::prelude::*;

const CAP: usize = 16;

fn key(i: u8) -> SeriesKey {
    SeriesKey::link(Resource::Bandwidth, &format!("s{}.x", i % 3), "d.x")
}

/// One series as `(id, capacity, points-as-raw-bits)`.
type SeriesBits = (SeriesId, usize, Vec<(u64, u64)>);

/// Everything the store-durability contract covers, with floats as raw
/// bit patterns so "equal" means bit-identical.
#[derive(Debug, PartialEq, Eq)]
struct DurableFingerprint {
    stores: u64,
    dup_stores: u64,
    rejected: u64,
    series: Vec<SeriesBits>,
    seen: Vec<(usize, u64, Vec<u64>)>,
}

fn fingerprint(store: &MemoryStore) -> DurableFingerprint {
    DurableFingerprint {
        stores: store.stores,
        dup_stores: store.dup_stores,
        rejected: store.rejected,
        series: store
            .series
            .iter()
            .map(|(id, s)| {
                (id, s.capacity(), s.iter().map(|p| (p.t.to_bits(), p.value.to_bits())).collect())
            })
            .collect(),
        seen: store
            .seen
            .iter()
            .map(|(pid, seqs)| (pid.index(), seqs.watermark(), seqs.above().collect()))
            .collect(),
    }
}

/// One live memory server's worth of state: the store, its log, and the
/// per-sender sequence counters a sensor fleet would hold.
struct MemHarness {
    disk: DiskHandle,
    ids: SeriesTableHandle,
    live: MemoryStore,
    log: MemoryLog,
    next_seq: [u64; 3],
    next_t: f64,
}

impl MemHarness {
    fn new(fault_seed: u64) -> Self {
        let disk = SimDisk::new("h0");
        disk.borrow_mut().set_fault_seed(fault_seed);
        let ids = SeriesTable::new();
        let (live, mut log) = MemoryLog::recover(disk.clone(), "memory", CAP, &ids);
        // Small threshold so ~100-op schedules cross it repeatedly and
        // compaction interleaves with stores organically.
        log.set_compact_threshold(512);
        MemHarness { disk, ids, live, log, next_seq: [0; 3], next_t: 0.0 }
    }

    fn id(&self, arg: u8) -> SeriesId {
        self.ids.borrow_mut().intern(&key(arg))
    }

    fn store(&mut self, arg: u8) {
        let sender_i = (arg % 3) as usize;
        let sender = ProcessId::from_raw(100 + sender_i as u32);
        // Mostly fresh seqs; every 7th draw retries the previous seq (a
        // duplicate), every 11th stores a stale timestamp (rejected).
        let seq = if arg.is_multiple_of(7) && self.next_seq[sender_i] > 0 {
            self.next_seq[sender_i]
        } else {
            self.next_seq[sender_i] += 1;
            self.next_seq[sender_i]
        };
        let t = if arg.is_multiple_of(11) && self.next_t > 1.0 {
            self.next_t - 1.5
        } else {
            self.next_t += 1.0;
            self.next_t
        };
        let k = self.id(arg);
        let v = 40.0 + f64::from(arg);
        self.live.apply_store(sender, seq, k, t, v, CAP);
        self.log.log_store(sender, seq, k, t, v);
        self.log.maybe_compact(&self.live);
    }

    /// Recover from disk and swap the recovered state in as the new live
    /// state, exactly as a restarted server would.
    fn recover(&mut self) -> &MemoryStore {
        let (store, log) = MemoryLog::recover(self.disk.clone(), "memory", CAP, &self.ids);
        let mut log = log;
        log.set_compact_threshold(512);
        self.live = store;
        self.log = log;
        &self.live
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random schedules of stores (with duplicates and rejects), fetches,
    /// reply failures, compactions, and crashes of both severities: the
    /// recovered store is always bit-identical to the live one on the
    /// durable axes, lazily-logged counters never roll *forward*, and a
    /// post-recovery retry of an already-acked seq still deduplicates.
    #[test]
    fn recovery_is_bit_identical_under_random_schedules(
        fault_seed in 0u64..1_000_000,
        ops in collection::vec((0u8..13, 0u8..=254u8), 1..120),
    ) {
        let mut h = MemHarness::new(fault_seed);
        for (op, arg) in ops {
            match op {
                // Stores dominate the mix, as they do in a real epoch.
                0..=6 => h.store(arg),
                7 => {
                    h.live.apply_fetch(u64::from(arg % 5));
                    h.log.log_fetch(u64::from(arg % 5));
                }
                8 => {
                    h.live.apply_reply_failure();
                    h.log.log_reply_failure();
                }
                9 => {
                    // Process crash: page cache survives, so recovery
                    // reproduces every counter — lazy ones included.
                    let before = fingerprint(&h.live);
                    let (fetches, served, failures) =
                        (h.live.fetches, h.live.points_served, h.live.reply_failures);
                    let rec = h.recover();
                    prop_assert_eq!(&fingerprint(rec), &before);
                    prop_assert_eq!(rec.fetches, fetches);
                    prop_assert_eq!(rec.points_served, served);
                    prop_assert_eq!(rec.reply_failures, failures);
                }
                10..=12 => {
                    // Host crash, optionally mid-compaction: stop after 0,
                    // 1 or 2 of the three compaction steps, then tear the
                    // page cache.
                    let steps = op - 10;
                    if steps >= 1 {
                        h.log.write_snapshot(&h.live);
                    }
                    if steps >= 2 {
                        h.log.publish_snapshot();
                    }
                    let before = fingerprint(&h.live);
                    let (fetches, served, failures) =
                        (h.live.fetches, h.live.points_served, h.live.reply_failures);
                    h.disk.borrow_mut().crash();
                    let rec = h.recover();
                    // Acked stores are fsynced: the durable axes are exact.
                    prop_assert_eq!(&fingerprint(rec), &before);
                    // Lazy counters may roll back, never forward.
                    prop_assert!(rec.fetches <= fetches);
                    prop_assert!(rec.points_served <= served);
                    prop_assert!(rec.reply_failures <= failures);
                }
                _ => unreachable!(),
            }
        }
        // The dedup ledger survived every crash along the way: retrying
        // each sender's newest acked seq must land in dup_stores.
        for (i, &seq) in h.next_seq.iter().enumerate() {
            if seq == 0 {
                continue;
            }
            let sender = ProcessId::from_raw(100 + i as u32);
            let k = h.id(i as u8);
            let out = h.live.apply_store(sender, seq, k, 1e9, 1.0, CAP);
            prop_assert!(!out.first_time, "acked seq {} re-counted after recovery", seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Forecaster log
// ---------------------------------------------------------------------------

fn battery_bits(b: &ForecasterBattery) -> (Vec<Vec<u64>>, u64) {
    let states: Vec<Vec<u64>> =
        b.save_states().iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect();
    (states, b.scores().3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random observe/rewind/compact/crash schedules for the forecaster
    /// log: after every synced crash the recovered batteries and
    /// watermarks are bit-identical to a shadow fed the same points.
    #[test]
    fn forecaster_recovery_matches_shadow(
        fault_seed in 0u64..1_000_000,
        ops in collection::vec((0u8..10, 0u8..=254u8), 1..100),
    ) {
        let disk = SimDisk::new("fh");
        disk.borrow_mut().set_fault_seed(fault_seed);
        let ids = SeriesTable::new();
        let (_, mut log) = ForecastLog::recover(disk.clone(), "forecaster", &ids);
        log.set_compact_threshold(512);
        let mut shadow: IdMap<(ForecasterBattery, f64)> = IdMap::new();
        let mut next_t = 0.0f64;
        for (op, arg) in ops {
            let k = ids.borrow_mut().intern(&key(arg));
            match op {
                // Observations dominate, as fetch replies do live.
                0..=6 => {
                    next_t += 1.0;
                    let v = 40.0 + f64::from(arg % 17);
                    let s = shadow
                        .get_or_insert_with(k, || (ForecasterBattery::classic(), f64::NEG_INFINITY));
                    s.0.observe(v);
                    s.1 = next_t;
                    log.log_observe(k, next_t, v);
                }
                7 => {
                    if let Some(s) = shadow.get_mut(k) {
                        s.0 = ForecasterBattery::classic();
                        s.1 = f64::NEG_INFINITY;
                        log.log_rewind(k);
                    }
                }
                8 => {
                    log.compact(|id| shadow.get(id).map(|s| (&s.0, s.1)));
                }
                9 => {
                    // Sync, then crash the host (the forecaster syncs once
                    // per fetch-reply batch, so "synced then crashed" is
                    // the steady-state crash point), then recover.
                    log.sync();
                    disk.borrow_mut().crash();
                    let (rec, new_log) = ForecastLog::recover(disk.clone(), "forecaster", &ids);
                    log = new_log;
                    log.set_compact_threshold(512);
                    prop_assert_eq!(rec.len(), shadow.len());
                    for (k, s) in shadow.iter() {
                        let r = rec.get(k).expect("series survives");
                        prop_assert_eq!(r.last_t().to_bits(), s.1.to_bits());
                        prop_assert_eq!(battery_bits(r.battery()), battery_bits(&s.0));
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Image bytes: the one-pass builder against a copy-behind-a-header reference
// ---------------------------------------------------------------------------

fn ref_u32(b: &mut Vec<u8>, v: usize) {
    b.extend_from_slice(&(v as u32).to_le_bytes());
}

fn ref_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn ref_key(b: &mut Vec<u8>, key: &SeriesKey) {
    b.push(key.resource.index() as u8);
    for s in [&key.src, &key.dst] {
        ref_u32(b, s.len());
        b.extend_from_slice(s.as_bytes());
    }
}

/// The memory snapshot body, one field and one point at a time, its series
/// sorted by key here rather than by the encoder.
fn ref_memory_body(store: &MemoryStore, capacity: usize, ids: &SeriesTableHandle) -> Vec<u8> {
    let mut b = Vec::new();
    ref_u32(&mut b, capacity);
    for counter in [
        store.stores,
        store.fetches,
        store.dup_stores,
        store.reply_failures,
        store.rejected,
        store.points_served,
    ] {
        ref_u64(&mut b, counter);
    }
    let ids = ids.borrow();
    let by_key: BTreeMap<SeriesKey, _> =
        store.series.iter().map(|(id, s)| (ids.key(id), s)).collect();
    ref_u32(&mut b, by_key.len());
    for (key, s) in &by_key {
        ref_key(&mut b, key);
        ref_u32(&mut b, s.capacity());
        ref_u32(&mut b, s.len());
        for p in s.iter() {
            ref_u64(&mut b, p.t.to_bits());
            ref_u64(&mut b, p.value.to_bits());
        }
    }
    ref_u32(&mut b, store.seen.len());
    for (pid, seen) in &store.seen {
        ref_u32(&mut b, pid.index());
        ref_u64(&mut b, seen.watermark());
        let above: Vec<u64> = seen.above().collect();
        ref_u32(&mut b, above.len());
        for seq in above {
            ref_u64(&mut b, seq);
        }
    }
    b
}

/// The forecaster snapshot body, from the battery's public state, in the
/// order given.
fn ref_forecast_body<'a>(
    series: impl ExactSizeIterator<Item = (&'a SeriesKey, &'a ForecasterBattery, f64)>,
) -> Vec<u8> {
    let mut b = Vec::new();
    ref_u32(&mut b, series.len());
    for (key, battery, last_t) in series {
        ref_key(&mut b, key);
        ref_u64(&mut b, last_t.to_bits());
        let (sq, ab, ns, samples) = battery.scores();
        let states = battery.save_states();
        ref_u64(&mut b, samples);
        ref_u32(&mut b, states.len());
        for (i, state) in states.iter().enumerate() {
            ref_u64(&mut b, sq[i].to_bits());
            ref_u64(&mut b, ab[i].to_bits());
            ref_u64(&mut b, ns[i]);
            ref_u32(&mut b, state.len());
            for v in state {
                ref_u64(&mut b, v.to_bits());
            }
        }
    }
    b
}

/// The checksum as the format defines it, over a materialised `seq‖bytes`:
/// 8-byte little-endian words through xor, rotate, multiply; the tail
/// bytes through FNV-1a's xor, multiply.
fn ref_checksum(seq: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut pre = seq.to_le_bytes().to_vec();
    pre.extend_from_slice(bytes);
    let (words, tail) = pre.split_at(pre.len() / 8 * 8);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words.chunks(8) {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).rotate_left(32).wrapping_mul(PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The image the old way: the finished body copied behind its header.
fn ref_image(log_seq: u64, body: &[u8]) -> Vec<u8> {
    let mut img = b"NWSSNAP2".to_vec();
    ref_u64(&mut img, log_seq);
    ref_u32(&mut img, body.len());
    ref_u64(&mut img, ref_checksum(log_seq, body));
    img.extend_from_slice(body);
    img
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random stores — rings of capacity 1 to 16 pushed past their bound so
    /// the deque wraps and `as_slices` returns two halves, series whose
    /// only store was rejected (an empty ring), out-of-order seqs (a sparse
    /// `above`), no series at all — snapshot to exactly the reference
    /// image, and `decode_snapshot` gives back `log_seq` and the body.
    /// With `reversed`, every series id is minted up front in reverse key
    /// order; without, in the order the stores first name them.
    ///
    /// The image is frozen, not encoded: between writing it and reading it
    /// back, the store keeps taking stores into the rings it shares with
    /// the image (and one into a series minted after it), and the bytes
    /// read are still the reference body computed at write time. The
    /// disk's length of the unread image — one host name is multi-byte
    /// UTF-8, so it must count bytes — is the length read.
    #[test]
    fn memory_image_equals_the_copying_reference(
        log_seq in 0u64..40,
        capacity in 1usize..=16,
        ops in collection::vec((0u8..4, 0u8..9, 0u8..6, 0u8..=254u8), 0..160),
        later in collection::vec((0u8..7, 0u8..=254u8), 0..24),
        reversed in proptest::bool::ANY,
    ) {
        let ids = SeriesTable::new();
        let key = |key_i: u8| {
            let src = if key_i == 4 { "hôte-4.ü.x".to_string() } else { format!("s{key_i}.x") };
            SeriesKey::link(Resource::Latency, &src, "d.x")
        };
        if reversed {
            for key_i in (0..6).rev() {
                ids.borrow_mut().intern(&key(key_i));
            }
        }
        let mut store = MemoryStore::default();
        let mut next_seq = [0u64; 4];
        let mut t = 0.0f64;
        for (sender_i, jump, key_i, arg) in ops {
            let sender = ProcessId::from_raw(50 + u32::from(sender_i));
            // Mostly the next seq; sometimes one a few ahead, which stays
            // in `above` until the gap fills (it usually never does).
            next_seq[sender_i as usize] += if jump == 0 { 3 } else { 1 };
            t += 1.0;
            // A series first seen with a NaN is created and left empty.
            let v = if arg.is_multiple_of(29) { f64::NAN } else { f64::from(arg) };
            let id = ids.borrow_mut().intern(&key(key_i));
            // The ring bound is fixed at the series' first store.
            let cap = 1 + (usize::from(key_i) * 5) % capacity;
            store.apply_store(sender, next_seq[sender_i as usize], id, t, v, cap);
        }

        let disk = SimDisk::new("h0");
        let (_, mut log) = MemoryLog::recover(disk.clone(), "memory", capacity, &ids);
        for _ in 0..log_seq {
            log.log_fetch(1);
        }
        prop_assert!(log.write_snapshot(&store));
        let body = ref_memory_body(&store, capacity, &ids);
        let len = disk.borrow().len("memory.snap.new");

        // Key 6 is first named here, after the image was frozen.
        let sender = ProcessId::from_raw(90);
        for (seq, (key_i, arg)) in later.into_iter().enumerate() {
            t += 1.0;
            let id = ids.borrow_mut().intern(&key(key_i));
            let cap = 1 + (usize::from(key_i) * 5) % capacity;
            store.apply_store(sender, seq as u64 + 1, id, t, f64::from(arg), cap);
        }

        let img = disk.borrow_mut().read("memory.snap.new").expect("written");
        prop_assert_eq!(len, img.len());
        prop_assert_eq!(&img, &ref_image(log_seq, &body));
        prop_assert_eq!(decode_snapshot(&img), Some((log_seq, body)));
    }

    /// The same for the forecaster's image.
    #[test]
    fn forecast_image_equals_the_copying_reference(
        points in collection::vec((0u8..5, 0u8..=254u8), 0..80),
        reversed in proptest::bool::ANY,
    ) {
        let disk = SimDisk::new("fh");
        let ids = SeriesTable::new();
        if reversed {
            for key_i in (0..5).rev() {
                ids.borrow_mut().intern(&key(key_i));
            }
        }
        let (_, mut log) = ForecastLog::recover(disk.clone(), "forecaster", &ids);
        let mut state: BTreeMap<SeriesKey, (ForecasterBattery, f64)> = BTreeMap::new();
        let mut by_id: IdMap<(ForecasterBattery, f64)> = IdMap::new();
        for (i, (key_i, arg)) in points.iter().enumerate() {
            let k = key(*key_i);
            let id = ids.borrow_mut().intern(&k);
            let (t, v) = (i as f64, 40.0 + f64::from(*arg));
            for s in [
                state.entry(k).or_insert_with(|| (ForecasterBattery::classic(), t)),
                by_id.get_or_insert_with(id, || (ForecasterBattery::classic(), t)),
            ] {
                s.0.observe(v);
                s.1 = t;
            }
            log.log_observe(id, t, v);
        }
        log.compact(|id| by_id.get(id).map(|s| (&s.0, s.1)));
        let img = disk.borrow_mut().read("forecaster.snap").expect("published");
        let log_seq = points.len() as u64;
        let body = ref_forecast_body(state.iter().map(|(k, s)| (k, &s.0, s.1)));
        prop_assert_eq!(&img, &ref_image(log_seq, &body));
        prop_assert_eq!(decode_snapshot(&img), Some((log_seq, body)));
    }

    /// The streaming checksum is the reference one at every length, so at
    /// every tail (0 to 7 bytes folded singly).
    #[test]
    fn streaming_checksum_equals_the_materialised_reference(
        seq in 0u64..=u64::MAX,
        bytes in collection::vec(0u8..=255u8, 0..70),
    ) {
        prop_assert_eq!(checksum(seq, &bytes), ref_checksum(seq, &bytes));
    }
}

// ---------------------------------------------------------------------------
// Checksum strength, exhaustively
// ---------------------------------------------------------------------------

/// Every damaged copy of `good` a torn write or a flipped bit can make:
/// each proper prefix, each single-bit flip, and each pair of flips at one
/// bit position of two different 8-byte words of the checksummed stream
/// (`words` are those words' byte offsets) — the pair a word-wise FNV
/// without the rotate lets cancel at bit 63. `rejected` must hold for all.
fn assert_all_damage_rejected(good: &[u8], words: &[usize], rejected: impl Fn(&[u8]) -> bool) {
    for cut in 0..good.len() {
        assert!(rejected(&good[..cut]), "truncation to {cut} bytes accepted");
    }
    let mut bad = good.to_vec();
    for bit in 0..good.len() * 8 {
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(rejected(&bad), "flip of bit {bit} accepted");
        bad[bit / 8] ^= 1 << (bit % 8);
    }
    for bit in 0..64 {
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        for (i, &a) in words.iter().enumerate() {
            for &b in &words[i + 1..] {
                bad[a + byte] ^= mask;
                bad[b + byte] ^= mask;
                assert!(rejected(&bad), "flips of bit {bit} in words at {a} and {b} accepted");
                bad[a + byte] ^= mask;
                bad[b + byte] ^= mask;
            }
        }
    }
}

fn noise(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(151).rotate_left(3) ^ 0x5a).collect()
}

#[test]
fn every_torn_or_flipped_record_is_rejected() {
    let mut log = Vec::new();
    append_record(&mut log, 7, |b| b.extend_from_slice(&noise(200)));
    assert_eq!(scan_wal(&log).records, vec![(7, noise(200))]);
    // `| len 4 | seq 8 | crc 8 | payload |`: the stream is seq, then payload.
    let words: Vec<usize> = std::iter::once(4).chain((20..220).step_by(8)).collect();
    assert_all_damage_rejected(&log, &words, |bytes| scan_wal(bytes).records.is_empty());
}

#[test]
fn every_torn_or_flipped_image_is_rejected() {
    let ids = SeriesTable::new();
    let mut store = MemoryStore::default();
    for seq in 1..=12u64 {
        let id = ids.borrow_mut().intern(&key(seq as u8));
        store.apply_store(ProcessId::from_raw(3), seq, id, seq as f64, 7.5, 4);
    }
    let disk = SimDisk::new("h0");
    let (_, mut log) = MemoryLog::recover(disk.clone(), "memory", 4, &ids);
    log.compact(&store);
    let img = disk.borrow_mut().read("memory.snap").expect("published");
    assert!(decode_snapshot(&img).is_some());
    // `| magic 8 | log_seq 8 | len 4 | crc 8 | body |`: log_seq, then body.
    let body_words = (28..img.len() - 7).step_by(8);
    let words: Vec<usize> = std::iter::once(8).chain(body_words).collect();
    assert_all_damage_rejected(&img, &words, |bytes| decode_snapshot(bytes).is_none());
}
