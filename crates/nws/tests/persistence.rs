//! Property tests for the durable state plane (`nws::persist`): random
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
//! [`SimDisk`]: netsim::disk::SimDisk

use netsim::disk::{DiskHandle, SimDisk};
use netsim::engine::ProcessId;
use nws::memory::MemoryStore;
use nws::msg::{Resource, SeriesKey};
use nws::persist::{ForecastLog, MemoryLog};
use nws::ForecasterBattery;
use proptest::prelude::*;

const CAP: usize = 16;

fn key(i: u8) -> SeriesKey {
    SeriesKey::link(Resource::Bandwidth, &format!("s{}.x", i % 3), "d.x")
}

/// One series as `(key, capacity, points-as-raw-bits)`.
type SeriesBits = (SeriesKey, usize, Vec<(u64, u64)>);

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
            .map(|(k, s)| {
                (
                    k.clone(),
                    s.capacity(),
                    s.iter().map(|p| (p.t.to_bits(), p.value.to_bits())).collect(),
                )
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
    live: MemoryStore,
    log: MemoryLog,
    next_seq: [u64; 3],
    next_t: f64,
}

impl MemHarness {
    fn new(fault_seed: u64) -> Self {
        let disk = SimDisk::new("h0");
        disk.borrow_mut().set_fault_seed(fault_seed);
        let (live, mut log) = MemoryLog::recover(disk.clone(), "memory", CAP);
        // Small threshold so ~100-op schedules cross it repeatedly and
        // compaction interleaves with stores organically.
        log.set_compact_threshold(512);
        MemHarness { disk, live, log, next_seq: [0; 3], next_t: 0.0 }
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
        let k = key(arg);
        let v = 40.0 + f64::from(arg);
        self.live.apply_store(sender, seq, &k, t, v, CAP);
        self.log.log_store(sender, seq, &k, t, v);
        self.log.maybe_compact(&self.live);
    }

    /// Recover from disk and swap the recovered state in as the new live
    /// state, exactly as a restarted server would.
    fn recover(&mut self) -> &MemoryStore {
        let (store, log) = MemoryLog::recover(self.disk.clone(), "memory", CAP);
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
            let out = h.live.apply_store(sender, seq, &key(i as u8), 1e9, 1.0, CAP);
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
        let (_, mut log) = ForecastLog::recover(disk.clone(), "forecaster");
        log.set_compact_threshold(512);
        let mut shadow: std::collections::BTreeMap<SeriesKey, (ForecasterBattery, f64)> =
            std::collections::BTreeMap::new();
        let mut next_t = 0.0f64;
        for (op, arg) in ops {
            match op {
                // Observations dominate, as fetch replies do live.
                0..=6 => {
                    let k = key(arg);
                    next_t += 1.0;
                    let v = 40.0 + f64::from(arg % 17);
                    let s = shadow
                        .entry(k.clone())
                        .or_insert_with(|| (ForecasterBattery::classic(), f64::NEG_INFINITY));
                    s.0.observe(v);
                    s.1 = next_t;
                    log.log_observe(&k, next_t, v);
                }
                7 => {
                    let k = key(arg);
                    if let Some(s) = shadow.get_mut(&k) {
                        s.0 = ForecasterBattery::classic();
                        s.1 = f64::NEG_INFINITY;
                        log.log_rewind(&k);
                    }
                }
                8 => {
                    log.compact(shadow.iter().map(|(k, s)| (k, &s.0, s.1)));
                }
                9 => {
                    // Sync, then crash the host (the forecaster syncs once
                    // per fetch-reply batch, so "synced then crashed" is
                    // the steady-state crash point), then recover.
                    log.sync();
                    disk.borrow_mut().crash();
                    let (rec, new_log) = ForecastLog::recover(disk.clone(), "forecaster");
                    log = new_log;
                    log.set_compact_threshold(512);
                    prop_assert_eq!(rec.len(), shadow.len());
                    for (k, s) in &shadow {
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
