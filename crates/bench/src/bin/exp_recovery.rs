//! Crash-recovery benchmark for the durable state plane: a deployed NWS
//! takes scheduled host/power-level memory crashes (process killed AND
//! the simulated disk's unsynced page cache torn) under 5 % message
//! loss, heals under heartbeat supervision by replaying snapshot + WAL
//! from the host's disk alone, and the recovery is scored. Emitted as
//! `BENCH_recovery.json`.
//!
//! Per tier (0 / 1 / 3 / 6 host crashes over the same 300 s window):
//!
//! * **recovery latency** is the median time from a crash to the first
//!   measurement stored by the rebuilt server;
//! * **replay bytes** are the disk reads recovery performed (snapshot +
//!   WAL images), alongside appended/synced/torn byte counters from the
//!   same [`netsim::disk::DiskStats`];
//! * **availability** is the mean over series of measured coverage —
//!   time not spent in gaps beyond 4× the series' own cadence;
//! * **double_counted** is `stores − Σ len(series) − rejected`: a retry
//!   replayed from the WAL *and* re-acked live would show up here.
//!
//! Hard gates, asserted before the JSON is written: every tier is
//! bit-for-bit deterministic (run twice, compared), every crash heals,
//! nothing is double counted, every pre-crash witness snapshot is a
//! byte-identical prefix of the final record, crashing tiers actually
//! replay bytes from disk, and availability stays ≥ 0.98.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_recovery [out.json]`.
//! `BENCH_recovery.json` is a golden file: CI regenerates and `cmp`s it.

use netsim::faults::LossModel;
use netsim::time::SimTime;
use nws::schedule::{Event, Schedule};
use nws_bench::{supervised_star, Cell, Golden, Table, GAP_FACTOR, STAR_HOSTS};

const SEED: u64 = 2027;
const WARMUP_S: f64 = 60.0;
const WINDOW_S: f64 = 300.0;
const COOLDOWN_S: f64 = 60.0;
const LOSS_PCT: f64 = 5.0;
/// A small `wal_compact_kib` so the window crosses it several times:
/// recovery replays a snapshot *plus* a WAL suffix, not one giant log.
const WAL_COMPACT_KIB: u64 = 16;

/// Loss over the warm-up and the window, and `crashes` memory-host
/// crashes evenly spaced through the window.
fn crashes_in_window(crashes: usize, names: &[String]) -> Schedule {
    let mut schedule = Schedule::default();
    let loss = LossModel::lossy(LOSS_PCT / 100.0);
    schedule.push(SimTime::ZERO, Event::LossStart { model: loss });
    for i in 0..crashes {
        let t = WARMUP_S + WINDOW_S * (i as f64 + 1.0) / (crashes as f64 + 1.0);
        schedule.push(SimTime::from_secs(t), Event::MemoryCrash { host: names[0].clone() });
    }
    schedule.push(SimTime::from_secs(WARMUP_S + WINDOW_S), Event::LossEnd);
    schedule
}

fn main() {
    println!("=== durable state plane: memory host crashes x disk recovery ===\n");
    let mut t = Table::new(&[
        "crashes",
        "healed",
        "stores",
        "dup_stores",
        "rejected",
        "availability",
        "median_recovery_s",
        "replay_bytes",
        "appended_bytes",
        "synced_bytes",
        "torn_bytes",
        "compactions",
        "double_counted",
        "prefix_intact",
        "deterministic",
    ]);
    for crashes in [0usize, 1, 3, 6] {
        let until = SimTime::from_secs(WARMUP_S + WINDOW_S + COOLDOWN_S);
        let run = supervised_star(
            &format!("{crashes} crashes"),
            SEED,
            SEED.wrapping_add(crashes as u64),
            WAL_COMPACT_KIB,
            until,
            |names| crashes_in_window(crashes, names),
        );
        let (rec, availability) = (&run.record, run.record.availability());

        // This bin's own gates; `supervised_star` asserted the shared ones.
        assert!(run.healed >= crashes, "{crashes} crashes: not every crash healed");
        if crashes > 0 {
            assert!(run.disk.bytes_read > 0, "{crashes} crashes: recovery never read the disk");
        }
        assert!(availability >= 0.98, "{crashes} crashes: availability {availability:.4} < 0.98");

        t.row(vec![
            crashes.into(),
            run.healed.into(),
            rec.stores.into(),
            rec.dup_stores.into(),
            rec.rejected.into(),
            Cell::Fixed(availability, 6),
            Cell::Fixed(rec.median_recovery(&run.crashes), 3),
            run.disk.bytes_read.into(),
            run.disk.bytes_appended.into(),
            run.disk.bytes_synced.into(),
            run.disk.bytes_torn.into(),
            run.disk.renames.into(),
            rec.double_counted.into(),
            run.prefix_intact.into(),
            true.into(),
        ]);
    }
    t.write_golden(Golden {
        bench: "recovery",
        bin: env!("CARGO_BIN_NAME"),
        file: "BENCH_recovery.json",
        seed: SEED,
        config: vec![
            ("hosts", STAR_HOSTS.into()),
            ("loss_pct", Cell::Fixed(LOSS_PCT, 0)),
            (
                "schedule",
                Cell::Map(vec![
                    ("warmup_s", Cell::Fixed(WARMUP_S, 0)),
                    ("window_s", Cell::Fixed(WINDOW_S, 0)),
                    ("cooldown_s", Cell::Fixed(COOLDOWN_S, 0)),
                    ("gap_factor", Cell::Fixed(GAP_FACTOR, 0)),
                ]),
            ),
        ],
        rows_key: "rows",
    });
}
