//! Fault injection against the full NWS stack: lossy links, duplicated
//! packets, crashed processes — and the self-healing machinery (ack/retry
//! buffers, idempotent stores, heartbeat supervision) that keeps the
//! measurement record intact through all of it.

use netsim::engine::Engine;
use netsim::faults::LossModel;
use netsim::prelude::*;
use netsim::scenarios::star_hub;
use nws::schedule::{Event, Schedule};
use nws::supervisor::SupervisorConfig;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec, Resource, SeriesKey};
use proptest::prelude::*;

fn deploy(n: usize, seed: u64) -> (Engine<NwsMsg>, NwsSystem, Vec<String>) {
    let net = star_hub(n, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.seed = seed;
    let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    (eng, sys, names)
}

/// Every stored series, in key order.
type Series = Vec<(SeriesKey, Vec<(f64, f64)>)>;

/// Everything a run observes, for bit-for-bit comparison.
type Observation = (u64, u64, u64, Series);

fn snapshot(sys: &NwsSystem) -> Series {
    sys.series_keys()
        .into_iter()
        .map(|k| {
            let pts = sys.series(&k).unwrap_or_default();
            (k, pts)
        })
        .collect()
}

fn observe(eng: &Engine<NwsMsg>, sys: &NwsSystem) -> Observation {
    let stats = eng.stats();
    (sys.total_stores(), stats.messages_dropped, stats.messages_duplicated, snapshot(sys))
}

/// `stores − Σ len(series) − rejected` over the memory servers: a store
/// counted twice (retried, duplicated or replayed) shows up here.
fn double_counted(sys: &NwsSystem) -> i64 {
    sys.memories
        .values()
        .map(|(_, handle)| {
            let st = handle.borrow();
            let in_series: u64 = st.series.values().map(|s| s.len() as u64).sum();
            st.stores as i64 - in_series as i64 - st.rejected as i64
        })
        .sum()
}

proptest! {
    // Each case is two full 240 s storm runs; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The planes composed through `run_schedule`: a seeded loss storm
    /// with a sensor crash, a link flap and a torn-disk crash of the
    /// memory host. The whole faulted stack is a deterministic function of
    /// the seed — same drops, same dups, same stored series, bit for bit —
    /// no store is counted twice, and the record as it stood before the
    /// crash survives as a prefix.
    #[test]
    fn fault_storms_are_deterministic_per_seed(seed in 0u64..10_000) {
        let run = |seed: u64| {
            let (mut eng, mut sys, names) = deploy(4, 7);
            eng.set_fault_seed(seed);
            let (storm, loss) = (TimeDelta::from_secs(240.0), LossModel::lossy(0.05));
            let mut schedule = Schedule::storm(seed, &names[1..], SimTime::ZERO, storm, loss, 1);
            let flapped = names[1 + seed as usize % 3].clone();
            schedule.push(SimTime::from_secs(100.0), Event::LinkDown { host: flapped.clone() });
            schedule.push(SimTime::from_secs(130.0), Event::LinkUp { host: flapped });
            schedule.push(SimTime::from_secs(160.0), Event::MemoryCrash { host: names[0].clone() });
            sys.attach_supervisor(
                &mut eng,
                SupervisorConfig { period: TimeDelta::from_secs(2.0), miss_threshold: 3 },
            );
            let mut witness = Vec::new();
            let until = SimTime::from_secs(240.0);
            sys.run_schedule(&mut eng, &schedule, until, TimeDelta::from_secs(2.0), |_, sys, ev| {
                if matches!(ev, Event::MemoryCrash { .. }) {
                    witness = snapshot(sys);
                }
            })
            .unwrap();
            (observe(&eng, &sys), witness, double_counted(&sys))
        };
        let a = run(seed);
        prop_assert_eq!(&a, &run(seed));
        let ((_, _, _, series), witness, double_counted) = a;
        prop_assert_eq!(double_counted, 0, "a store was counted twice");
        prop_assert!(!witness.is_empty(), "the memory crash never came due");
        for (key, before) in &witness {
            let after = &series.iter().find(|(k, _)| k == key).expect("series survives").1;
            prop_assert!(after.starts_with(before), "{:?}: history rewritten", key);
        }
    }
}

/// Duplicated delivery is invisible: a run where *every* message is
/// duplicated (no drops, no jitter) produces the exact same stored record
/// as a clean run — every NWS handler is idempotent.
#[test]
fn duplicated_delivery_is_invisible_to_the_stored_record() {
    let run = |dup: bool| {
        let (mut eng, sys, _) = deploy(4, 7);
        if dup {
            eng.set_fault_seed(99);
            eng.set_default_loss(Some(LossModel::degraded(0.0, 1.0, TimeDelta::ZERO)));
        }
        eng.run_until(SimTime::from_secs(180.0));
        (observe(&eng, &sys), eng.stats().messages_duplicated)
    };
    let (clean, clean_dups) = run(false);
    let (doubled, dup_dups) = run(true);
    assert_eq!(clean_dups, 0);
    assert!(dup_dups > 0, "dup_p = 1.0 must actually duplicate");
    // Same stores, same series contents; only the transport-level dup
    // counter differs (position 2 in the observation tuple).
    assert_eq!(clean.0, doubled.0, "duplicate deliveries double-counted stores");
    assert_eq!(clean.3, doubled.3, "duplicate deliveries altered the stored series");
}

/// A crashed sensor is detected by missed heartbeats and restarted via
/// the reconfigure machinery; its measurement record resumes on the same
/// series, prefix intact.
#[test]
fn supervisor_restarts_a_dead_sensor() {
    let (mut eng, mut sys, names) = deploy(4, 7);
    sys.attach_supervisor(
        &mut eng,
        SupervisorConfig { period: TimeDelta::from_secs(2.0), miss_threshold: 3 },
    );
    sys.run_supervised(&mut eng, TimeDelta::from_secs(90.0), TimeDelta::from_secs(2.0)).unwrap();

    let victim = names[2].clone();
    let key = SeriesKey::link(Resource::Bandwidth, &victim, &names[1]);
    let before = sys.series(&key).expect("victim measured before the crash");
    assert!(!before.is_empty());
    let old_pid = sys.sensors[&victim];
    eng.kill_process(old_pid);

    let healed = sys
        .run_supervised(&mut eng, TimeDelta::from_secs(120.0), TimeDelta::from_secs(2.0))
        .unwrap();
    assert!(healed.contains(&victim), "victim host restarted: {healed:?}");
    assert_ne!(sys.sensors[&victim], old_pid, "replacement got a fresh pid");

    let after = sys.series(&key).expect("series survives the restart");
    assert!(after.len() > before.len(), "measurements resumed after restart");
    assert_eq!(&after[..before.len()], &before[..], "restart must not rewrite history");
}

/// A crashed memory server is rebuilt around its surviving store; sensors
/// buffer unacked stores during the outage and drain them (original
/// timestamps) to the replacement — no gap, no double counting.
#[test]
fn supervisor_restarts_a_memory_and_buffers_drain() {
    let (mut eng, mut sys, names) = deploy(4, 7);
    sys.attach_supervisor(
        &mut eng,
        SupervisorConfig { period: TimeDelta::from_secs(2.0), miss_threshold: 3 },
    );
    sys.run_supervised(&mut eng, TimeDelta::from_secs(90.0), TimeDelta::from_secs(2.0)).unwrap();

    let mem_host = names[0].clone();
    let (old_pid, _) = sys.memories[&mem_host].clone();
    let before_crash = snapshot(&sys);
    let stores_before = sys.total_stores();
    eng.kill_process(old_pid);

    let healed = sys
        .run_supervised(&mut eng, TimeDelta::from_secs(120.0), TimeDelta::from_secs(2.0))
        .unwrap();
    assert!(healed.contains(&mem_host), "memory host restarted: {healed:?}");
    assert_ne!(sys.memories[&mem_host].0, old_pid);

    assert!(sys.total_stores() > stores_before, "stores resumed after memory restart");
    for (key, before) in &before_crash {
        let after = sys.series(key).expect("series survives the memory restart");
        assert!(after.len() >= before.len());
        assert_eq!(&after[..before.len()], &before[..], "{key:?}: history rewritten");
        // Retried stores carry their original timestamps, so the record
        // stays strictly ordered — a drained buffer leaves no trace.
        for w in after.windows(2) {
            assert!(w[1].0 > w[0].0, "{key:?}: non-monotone timestamps after drain");
        }
    }
    // No measurement counted twice: every accepted store is either in a
    // series or in the rejected tally.
    assert_eq!(double_counted(&sys), 0, "stores double-counted");
}

/// Kill a memory at the host/power level mid-epoch, under 5% message
/// loss: the replacement is rebuilt from its host's simulated disk alone
/// (snapshot + WAL replay — no in-RAM handoff exists any more), the
/// witness series' pre-crash prefixes come back byte-identical, nothing
/// is double counted, and the whole crash-recovery run is a
/// deterministic function of its seeds.
#[test]
fn memory_host_crash_recovers_from_disk_alone() {
    let run = || {
        let (mut eng, mut sys, names) = deploy(4, 7);
        eng.set_fault_seed(41);
        eng.set_default_loss(Some(LossModel::lossy(0.05)));
        sys.attach_supervisor(
            &mut eng,
            SupervisorConfig { period: TimeDelta::from_secs(2.0), miss_threshold: 3 },
        );
        sys.run_supervised(&mut eng, TimeDelta::from_secs(90.0), TimeDelta::from_secs(2.0))
            .unwrap();

        let mem_host = names[0].clone();
        let old_pid = sys.memories[&mem_host].0;
        let witness = snapshot(&sys);
        assert!(witness.iter().any(|(_, pts)| !pts.is_empty()), "witness must have data");

        // Host crash: process dies AND the disk tears its unsynced tail.
        sys.crash_memory(&mut eng, &mem_host);

        let healed = sys
            .run_supervised(&mut eng, TimeDelta::from_secs(120.0), TimeDelta::from_secs(2.0))
            .unwrap();
        assert!(healed.contains(&mem_host), "memory host restarted: {healed:?}");
        assert_ne!(sys.memories[&mem_host].0, old_pid);

        // Recovery really read the disk: the crash was recorded and the
        // replay consumed bytes.
        let dstats = sys.disks.disk(&mem_host).borrow().stats();
        assert_eq!(dstats.crashes, 1);
        assert!(dstats.bytes_read > 0, "recovery must replay from disk");

        // Every acked store was fsynced before its ack, so the witness
        // prefix survives the torn page cache byte for byte.
        for (key, before) in &witness {
            let after = sys.series(key).expect("series survives the host crash");
            assert!(after.len() >= before.len(), "{key:?}: durable points lost");
            assert_eq!(&after[..before.len()], &before[..], "{key:?}: prefix rewritten");
        }
        assert!(sys.total_stores() > witness.iter().map(|(_, p)| p.len() as u64).sum::<u64>());

        // No measurement counted twice across crash + retry + replay.
        assert_eq!(double_counted(&sys), 0, "stores double-counted");

        observe(&eng, &sys)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "crash + disk recovery must be deterministic per seed");
}

/// Regression test for the forecaster watermark-desync bug: a memory
/// restored to an *older* state than the forecaster has already observed
/// (staged here by swapping a rolled-back store into the live server's
/// shared [`nws::memory::MemoryHandle`]) must trigger a watermark rewind
/// — battery reset + full re-fetch — instead of silently forecasting
/// across the gap from a stale watermark.
#[test]
fn forecaster_rewinds_after_memory_restores_older_state() {
    use nws::memory::MemoryStore;

    let (mut eng, sys, names) = deploy(4, 7);
    eng.run_until(SimTime::from_secs(90.0));

    let key = SeriesKey::link(Resource::Bandwidth, &names[1], &names[2]);
    let primed = sys
        .query(&mut eng, key.clone(), TimeDelta::from_secs(10.0))
        .expect("healthy system answers");
    assert!(!primed.stale);
    assert!(primed.samples > 3, "priming must observe a real history");

    // Freeze the measurement record, then roll the memory's store back to
    // a three-point prehistory — every timestamp older than anything the
    // forecaster has observed.
    for &pid in sys.sensors.values() {
        eng.kill_process(pid);
    }
    let old_values = [12.0, 14.0, 13.0];
    let mut rolled_back = MemoryStore::default();
    let sensor = sys.sensors[&names[1]];
    let id = sys.series_ids.borrow().get(&key).expect("measured");
    for (i, v) in old_values.iter().enumerate() {
        rolled_back.apply_store(sensor, i as u64 + 1, id, 10.0 * (i as f64 + 1.0), *v, 64);
    }
    *sys.memories[&names[0]].1.borrow_mut() = rolled_back;

    // The next query's delta fetch returns `latest` = 30 s, far behind the
    // forecaster's watermark: it must rewind and re-fetch from scratch.
    let rewound = sys
        .query(&mut eng, key.clone(), TimeDelta::from_secs(10.0))
        .expect("rewind must still answer the client");
    assert!(!rewound.stale, "rewind is a detour, not an outage");
    assert_eq!(
        rewound.samples,
        old_values.len() as u64,
        "battery must be rebuilt from exactly the restored store"
    );

    // Bit-identical oracle: a fresh battery fed the same three points.
    let mut oracle = nws::ForecasterBattery::classic();
    for v in old_values {
        oracle.observe(v);
    }
    let expected = oracle.forecast().expect("three points forecast");
    assert_eq!(rewound.value.to_bits(), expected.value.to_bits());
    assert_eq!(rewound.method, expected.method);
}

/// With its memory dead and no supervisor attached, the forecaster's
/// query path times out and serves the last-known prediction, tagged
/// stale — degraded answers beat no answers.
#[test]
fn dead_memory_serves_stale_forecasts() {
    let (mut eng, sys, names) = deploy(4, 7);
    eng.run_until(SimTime::from_secs(90.0));

    let key = SeriesKey::link(Resource::Bandwidth, &names[1], &names[2]);
    let fresh = sys
        .query(&mut eng, key.clone(), TimeDelta::from_secs(10.0))
        .expect("healthy system answers");
    assert!(!fresh.stale);

    let (mem_pid, _) = sys.memories[&names[0]];
    eng.kill_process(mem_pid);

    let stale = sys
        .query(&mut eng, key, TimeDelta::from_secs(12.0))
        .expect("outage must degrade the answer, not erase it");
    assert!(stale.stale, "forecast served during an outage must be tagged stale");
}

/// Run a one-event schedule naming a host nothing answers to.
fn misspelt(event: impl Fn(String) -> Event) -> NetResult<Vec<String>> {
    let (mut eng, mut sys, _) = deploy(4, 7);
    let mut schedule = Schedule::default();
    schedule.push(SimTime::from_secs(10.0), event("h1.hbu.net".to_string()));
    let until = SimTime::from_secs(20.0);
    sys.run_schedule(&mut eng, &schedule, until, TimeDelta::from_secs(2.0), |_, _, _| {})
}

fn name_not_found() -> NetResult<Vec<String>> {
    Err(NetError::NameNotFound("h1.hbu.net".to_string()))
}

#[test]
fn a_crash_of_a_misspelt_host_is_name_not_found() {
    assert_eq!(misspelt(|host| Event::Crash { host }), name_not_found());
}

#[test]
fn a_restart_of_a_misspelt_host_is_name_not_found() {
    assert_eq!(misspelt(|host| Event::Restart { host }), name_not_found());
}

#[test]
fn a_link_down_of_a_misspelt_host_is_name_not_found() {
    assert_eq!(misspelt(|host| Event::LinkDown { host }), name_not_found());
}

#[test]
fn a_link_up_of_a_misspelt_host_is_name_not_found() {
    assert_eq!(misspelt(|host| Event::LinkUp { host }), name_not_found());
}

#[test]
fn a_memory_kill_of_a_misspelt_host_is_name_not_found() {
    assert_eq!(misspelt(|host| Event::MemoryKill { host }), name_not_found());
}

#[test]
fn a_memory_crash_of_a_misspelt_host_is_name_not_found() {
    assert_eq!(misspelt(|host| Event::MemoryCrash { host }), name_not_found());
}
