//! Fault-storm benchmark: a deployed NWS rides out seeded storms of
//! packet loss, duplication, link flaps, sensor crashes and a memory
//! crash — under heartbeat supervision — and the stored measurement
//! record is scored for availability, integrity and recovery latency.
//! Emitted as `BENCH_faults.json`.
//!
//! Per loss tier (0 / 1 / 5 / 15 % drop, each with duplication and
//! jitter riding along at the lossy tiers):
//!
//! * a [`Schedule::storm`] schedules lossy episodes and sensor crash /
//!   restart pairs over the sensor hosts; restarts change nothing —
//!   detection and repair is the supervisor's job;
//! * halfway through, the memory server is killed outright: sensors
//!   must buffer unacked stores and drain them (original timestamps) to
//!   the rebuilt server;
//! * **availability** is the mean over series of measured coverage —
//!   time not spent in gaps beyond 4× the series' own cadence;
//! * **double_counted** is `stores − Σ len(series) − rejected` per
//!   memory: any retry or duplicate counted twice shows up here;
//! * **recovery** is the median time from a sensor crash to that host's
//!   next stored measurement.
//!
//! Hard gates, asserted before the JSON is written: every tier is
//! bit-for-bit deterministic (each is run twice and compared), no tier
//! double-counts a single store, the pre-crash record survives the
//! memory restart byte-for-byte, and tiers at ≤ 5 % loss keep
//! availability ≥ 0.99.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_fault_storm [out.json]`.
//! `BENCH_faults.json` is a golden file: CI regenerates and `cmp`s it.

use netsim::faults::LossModel;
use netsim::time::{SimTime, TimeDelta};
use nws::persist::DEFAULT_WAL_COMPACT_KIB;
use nws::schedule::{Event, Schedule};
use nws_bench::{supervised_star, Cell, Golden, Table, GAP_FACTOR, STAR_HOSTS};

/// Fixed seed: the run is deterministic end to end.
const SEED: u64 = 2026;
const WARMUP_S: f64 = 60.0;
const STORM_S: f64 = 480.0;
const COOLDOWN_S: f64 = 60.0;

/// The storm: loss episodes with duplication and jitter riding along,
/// plus two sensor crash/restart pairs. No link flaps in the *scored*
/// storm — a severed access link is unmeasurable by any protocol, so it
/// would only blur the availability metric; flap handling is exercised by
/// the netsim fault tests and the NWS determinism test. The memory host
/// is not a storm victim: it is killed halfway through the storm, after
/// any storm event at that instant.
fn storm(loss_pct: f64, names: &[String]) -> Schedule {
    let loss = if loss_pct == 0.0 {
        LossModel::NONE
    } else {
        LossModel::degraded(loss_pct / 100.0, 0.02, TimeDelta::from_millis(5.0))
    };
    let start = SimTime::from_secs(WARMUP_S);
    let seed = SEED.wrapping_add(loss_pct.to_bits());
    let mut schedule =
        Schedule::storm(seed, &names[1..], start, TimeDelta::from_secs(STORM_S), loss, 2);
    let mem_crash_t = SimTime::from_secs(WARMUP_S + STORM_S * 0.5);
    schedule.push(mem_crash_t, Event::MemoryKill { host: names[0].clone() });
    schedule
}

fn main() {
    println!("=== fault storms: loss tiers x crashes under supervision ===\n");
    let mut t = Table::new(&[
        "loss_pct",
        "drops",
        "dups",
        "stores",
        "dup_stores",
        "rejected",
        "crashes",
        "healed",
        "availability",
        "median_recovery_s",
        "double_counted",
        "prefix_intact",
        "deterministic",
    ]);
    for loss_pct in [0.0f64, 1.0, 5.0, 15.0] {
        let until = SimTime::from_secs(WARMUP_S + STORM_S + COOLDOWN_S);
        let run = supervised_star(
            &format!("loss {loss_pct}%"),
            SEED,
            SEED ^ loss_pct.to_bits(),
            DEFAULT_WAL_COMPACT_KIB,
            until,
            |names| storm(loss_pct, names),
        );
        let (rec, availability) = (&run.record, run.record.availability());

        // This bin's own gates; `supervised_star` asserted the shared ones.
        assert!(run.healed > 0, "loss {loss_pct}%: the supervisor never healed anything");
        if loss_pct <= 5.0 {
            assert!(
                availability >= 0.99,
                "loss {loss_pct}%: availability {availability:.4} < 0.99"
            );
        }

        t.row(vec![
            Cell::Fixed(loss_pct, 0),
            rec.drops.into(),
            rec.dups.into(),
            rec.stores.into(),
            rec.dup_stores.into(),
            rec.rejected.into(),
            run.crashes.len().into(),
            run.healed.into(),
            Cell::Fixed(availability, 6),
            Cell::Fixed(rec.median_recovery(&run.crashes), 3),
            rec.double_counted.into(),
            run.prefix_intact.into(),
            true.into(),
        ]);
    }
    t.write_golden(Golden {
        bench: "fault_storm",
        bin: env!("CARGO_BIN_NAME"),
        file: "BENCH_faults.json",
        seed: SEED,
        config: vec![
            ("hosts", STAR_HOSTS.into()),
            (
                "schedule",
                Cell::Map(vec![
                    ("warmup_s", Cell::Fixed(WARMUP_S, 0)),
                    ("storm_s", Cell::Fixed(STORM_S, 0)),
                    ("cooldown_s", Cell::Fixed(COOLDOWN_S, 0)),
                    ("gap_factor", Cell::Fixed(GAP_FACTOR, 0)),
                ]),
            ),
        ],
        rows_key: "rows",
    });
}
