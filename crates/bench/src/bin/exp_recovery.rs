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

use netsim::disk::DiskStats;
use netsim::faults::LossModel;
use netsim::scenarios::star_hub;
use netsim::time::{SimTime, TimeDelta};
use netsim::units::Bandwidth;
use netsim::Engine;
use nws::supervisor::SupervisorConfig;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec};
use nws_bench::{
    dump_series, prefix_intact, supervised_until, Cell, Golden, SeriesDump, StoredRecord, Table,
    GAP_FACTOR,
};

const SEED: u64 = 2027;
const HOSTS: usize = 6;
const WARMUP_S: f64 = 60.0;
const WINDOW_S: f64 = 300.0;
const COOLDOWN_S: f64 = 60.0;
const LOSS_PCT: f64 = 5.0;

/// Everything one run observes; the determinism gate compares two whole.
#[derive(PartialEq)]
struct Run {
    record: StoredRecord,
    crashes: Vec<(Option<String>, f64)>,
    healed: usize,
    disk: DiskStats,
    prefix_intact: bool,
}

fn run_tier(crashes: usize) -> Run {
    let net = star_hub(HOSTS, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.seed = SEED;
    // A small compaction threshold so the window crosses it several
    // times: recovery replays a snapshot *plus* a WAL suffix, not one
    // giant log.
    spec.wal_compact_kib = 16;
    // A host-level heal restarts the co-located sensor too, killing the
    // clique token; an aggressive watchdog regenerates it quickly, so
    // recovery latency measures the state plane, not the token timeout.
    spec.watchdog = TimeDelta::from_secs(8.0);
    let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    sys.attach_supervisor(
        &mut eng,
        SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 },
    );
    eng.set_fault_seed(SEED.wrapping_add(crashes as u64));
    eng.set_default_loss(Some(LossModel::lossy(LOSS_PCT / 100.0)));

    let mut healed = supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S));

    // Crashes evenly spaced through the window, each preceded by a
    // witness snapshot of the whole stored record.
    let mut witnesses: Vec<SeriesDump> = Vec::new();
    let mut crash_times = Vec::new();
    for i in 0..crashes {
        let t = WARMUP_S + WINDOW_S * (i as f64 + 1.0) / (crashes as f64 + 1.0);
        healed += supervised_until(&mut eng, &mut sys, SimTime::from_secs(t));
        witnesses.push(dump_series(&sys));
        crash_times.push((None, eng.now().as_secs()));
        sys.crash_memory(&mut eng, &names[0]);
    }
    healed += supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S + WINDOW_S));
    eng.set_default_loss(None);
    healed +=
        supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S + WINDOW_S + COOLDOWN_S));

    let record = StoredRecord::of(&eng, &sys);
    let prefix_intact = witnesses.iter().all(|w| prefix_intact(w, &record.series));
    Run { record, crashes: crash_times, healed, disk: sys.disks.total_stats(), prefix_intact }
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
        let run = run_tier(crashes);
        let (rec, availability) = (&run.record, run.record.availability());

        // Hard gates — a regression in the durable state plane fails the bench.
        assert!(run == run_tier(crashes), "{crashes} crashes: two identical runs diverged");
        assert_eq!(
            rec.double_counted, 0,
            "{crashes} crashes: a replayed or retried store was counted twice"
        );
        assert!(run.prefix_intact, "{crashes} crashes: recovery rewrote stored history");
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
            ("hosts", HOSTS.into()),
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
