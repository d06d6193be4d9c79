//! Fault-storm benchmark: a deployed NWS rides out seeded storms of
//! packet loss, duplication, link flaps, sensor crashes and a memory
//! crash — under heartbeat supervision — and the stored measurement
//! record is scored for availability, integrity and recovery latency.
//! Emitted as `BENCH_faults.json`.
//!
//! Per loss tier (0 / 1 / 5 / 15 % drop, each with duplication and
//! jitter riding along at the lossy tiers):
//!
//! * a [`FaultPlan::storm`] schedules lossy episodes, sensor crash /
//!   restart pairs and a link flap over the sensor hosts; restarts are
//!   *skipped* — detection and repair is the supervisor's job;
//! * halfway through, the memory server is crashed outright: sensors
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

use netsim::faults::{apply_link_fault, FaultEvent, FaultPlan, LossModel, StormConfig};
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

/// Fixed seed: the run is deterministic end to end.
const SEED: u64 = 2026;
const HOSTS: usize = 6;
const WARMUP_S: f64 = 60.0;
const STORM_S: f64 = 480.0;
const COOLDOWN_S: f64 = 60.0;

/// Everything one run observes; the determinism gate compares two whole.
#[derive(PartialEq)]
struct Run {
    record: StoredRecord,
    crashes: Vec<(Option<String>, f64)>,
    healed: usize,
    prefix_intact: bool,
}

fn run_storm(loss_pct: f64) -> Run {
    let net = star_hub(HOSTS, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.seed = SEED;
    // A supervised deployment can afford an aggressive token watchdog:
    // false regenerations are cheap (the clique dedups token seqs), slow
    // ones stall every series behind a dead token holder.
    spec.watchdog = TimeDelta::from_secs(8.0);
    let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    sys.attach_supervisor(
        &mut eng,
        SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 },
    );
    eng.set_fault_seed(SEED ^ loss_pct.to_bits());

    let mut healed = supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S));

    // The storm: loss episodes with duplication and jitter riding along,
    // plus two sensor crash/restart pairs. No link flaps in the *scored*
    // storm — a severed access link is unmeasurable by any protocol, so
    // it would only blur the availability metric; flap handling is
    // exercised by the netsim fault tests and the NWS determinism test.
    // The memory host is not a storm victim — it gets its own scripted
    // crash below.
    let loss = if loss_pct == 0.0 {
        LossModel::NONE
    } else {
        LossModel::degraded(loss_pct / 100.0, 0.02, TimeDelta::from_millis(5.0))
    };
    let victims: Vec<String> = names[1..].to_vec();
    let cfg = StormConfig {
        duration: STORM_S,
        loss,
        episodes: if loss.is_none() { 0 } else { 2 },
        crashes: 2,
        flaps: 0,
        outage: (STORM_S * 0.05, STORM_S * 0.15),
    };
    let plan = FaultPlan::storm(SEED.wrapping_add(loss_pct.to_bits()), &victims, &cfg);
    let mem_crash_t = SimTime::from_secs(WARMUP_S + STORM_S * 0.5);

    let mut crashes = Vec::new();
    // The stored record as it stood when the memory server was killed.
    let mut witness: Option<SeriesDump> = None;
    let mut crash_memory = |eng: &mut Engine<NwsMsg>, sys: &mut NwsSystem| {
        let healed = supervised_until(eng, sys, mem_crash_t);
        witness = Some(dump_series(sys));
        eng.kill_process(sys.memories[&names[0]].0);
        healed
    };

    let mut mem_crashed = false;
    for ev in &plan.events {
        let t = SimTime::from_secs(WARMUP_S + ev.t);
        if !mem_crashed && t > mem_crash_t {
            healed += crash_memory(&mut eng, &mut sys);
            mem_crashed = true;
        }
        healed += supervised_until(&mut eng, &mut sys, t);
        match &ev.event {
            FaultEvent::Crash { host } => {
                if let Some(&pid) = sys.sensors.get(host) {
                    eng.kill_process(pid);
                    crashes.push((Some(host.clone()), eng.now().as_secs()));
                }
            }
            FaultEvent::Restart { .. } => {} // the supervisor's job
            FaultEvent::LinkDown { host } => {
                apply_link_fault(&mut eng, host, false);
            }
            FaultEvent::LinkUp { host } => {
                apply_link_fault(&mut eng, host, true);
            }
            FaultEvent::LossStart { model } => eng.set_default_loss(Some(*model)),
            FaultEvent::LossEnd => eng.set_default_loss(None),
        }
    }
    if !mem_crashed {
        healed += crash_memory(&mut eng, &mut sys);
    }
    eng.set_default_loss(None);
    healed +=
        supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S + STORM_S + COOLDOWN_S));

    let record = StoredRecord::of(&eng, &sys);
    let prefix_intact = prefix_intact(&witness.expect("the memory crashed"), &record.series);
    Run { record, crashes, healed, prefix_intact }
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
    for loss_pct in [0.0, 1.0, 5.0, 15.0] {
        let run = run_storm(loss_pct);
        let (rec, availability) = (&run.record, run.record.availability());

        // Hard gates — a regression in the reliability layer fails the bench.
        assert!(run == run_storm(loss_pct), "loss {loss_pct}%: two identical runs diverged");
        assert_eq!(
            rec.double_counted, 0,
            "loss {loss_pct}%: a retried or duplicated store was counted twice"
        );
        assert!(run.prefix_intact, "loss {loss_pct}%: memory restart rewrote stored history");
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
            ("hosts", HOSTS.into()),
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
