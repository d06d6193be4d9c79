//! Fault injection against the full NWS stack: lossy links, duplicated
//! packets, crashed processes — and the self-healing machinery (ack/retry
//! buffers, idempotent stores, heartbeat supervision) that keeps the
//! measurement record intact through all of it.

use netsim::engine::Engine;
use netsim::faults::{apply_link_fault, FaultEvent, FaultPlan, LossModel, StormConfig};
use netsim::prelude::*;
use netsim::scenarios::star_hub;
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

/// Replay a fault plan against a live system, then run out the horizon.
/// Crash victims are killed at the NWS layer (sensor pid of the named
/// host); `Restart` events are skipped when `supervised` — detection and
/// repair is the supervisor's job — and applied as a no-op otherwise
/// (this harness exercises *loss*, not unsupervised restarts).
fn replay(
    eng: &mut Engine<NwsMsg>,
    sys: &mut NwsSystem,
    plan: &FaultPlan,
    horizon: f64,
    supervised: bool,
) {
    let step = TimeDelta::from_secs(2.0);
    for ev in &plan.events {
        let t = SimTime::from_secs(ev.t);
        if supervised {
            while eng.now() < t {
                let next = (eng.now() + step).min(t);
                eng.run_until(next);
                sys.heal(eng).unwrap();
            }
        } else {
            eng.run_until(t);
        }
        match &ev.event {
            FaultEvent::Crash { host } => {
                if let Some(&pid) = sys.sensors.get(host) {
                    eng.kill_process(pid);
                }
            }
            FaultEvent::Restart { .. } => {}
            FaultEvent::LinkDown { host } => {
                apply_link_fault(eng, host, false);
            }
            FaultEvent::LinkUp { host } => {
                apply_link_fault(eng, host, true);
            }
            FaultEvent::LossStart { model } => eng.set_default_loss(Some(*model)),
            FaultEvent::LossEnd => eng.set_default_loss(None),
        }
    }
    let deadline = SimTime::from_secs(horizon);
    if supervised {
        while eng.now() < deadline {
            let next = (eng.now() + step).min(deadline);
            eng.run_until(next);
            sys.heal(eng).unwrap();
        }
    } else {
        eng.run_until(deadline);
    }
}

/// Everything a run observes, for bit-for-bit comparison.
type Observation = (u64, u64, u64, Vec<(SeriesKey, Vec<(f64, f64)>)>);

fn observe(eng: &Engine<NwsMsg>, sys: &NwsSystem) -> Observation {
    let stats = eng.stats();
    let series: Vec<(SeriesKey, Vec<(f64, f64)>)> = sys
        .series_keys()
        .into_iter()
        .map(|k| {
            let pts = sys.series(&k).unwrap_or_default();
            (k, pts)
        })
        .collect();
    (sys.total_stores(), stats.messages_dropped, stats.messages_duplicated, series)
}

proptest! {
    // Each case is two full 240 s storm runs; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The whole faulted stack is a deterministic function of the seed:
    /// same seed → same drops, same dups, same stored series, bit for bit.
    #[test]
    fn fault_storms_are_deterministic_per_seed(seed in 0u64..10_000) {
        let run = |seed: u64| {
            let (mut eng, mut sys, names) = deploy(4, 7);
            eng.set_fault_seed(seed);
            let hosts: Vec<String> = names[1..].to_vec();
            let cfg = StormConfig::new(240.0, LossModel::lossy(0.05), 1);
            let plan = FaultPlan::storm(seed, &hosts, &cfg);
            sys.attach_supervisor(
                &mut eng,
                SupervisorConfig { period: TimeDelta::from_secs(2.0), miss_threshold: 3 },
            );
            replay(&mut eng, &mut sys, &plan, 240.0, true);
            observe(&eng, &sys)
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b);
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
    let snapshot: Vec<(SeriesKey, Vec<(f64, f64)>)> =
        sys.series_keys().into_iter().map(|k| (k.clone(), sys.series(&k).unwrap())).collect();
    let stores_before = sys.total_stores();
    eng.kill_process(old_pid);

    let healed = sys
        .run_supervised(&mut eng, TimeDelta::from_secs(120.0), TimeDelta::from_secs(2.0))
        .unwrap();
    assert!(healed.contains(&mem_host), "memory host restarted: {healed:?}");
    assert_ne!(sys.memories[&mem_host].0, old_pid);

    assert!(sys.total_stores() > stores_before, "stores resumed after memory restart");
    for (key, before) in &snapshot {
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
    let (_, handle) = &sys.memories[&mem_host];
    let st = handle.borrow();
    let in_series: u64 = st.series.values().map(|s| s.len() as u64).sum();
    assert_eq!(st.stores, in_series + st.rejected, "stores double-counted");
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
        let witness: Vec<(SeriesKey, Vec<(f64, f64)>)> =
            sys.series_keys().into_iter().map(|k| (k.clone(), sys.series(&k).unwrap())).collect();
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
        let (_, handle) = &sys.memories[&mem_host];
        let st = handle.borrow();
        let in_series: u64 = st.series.values().map(|s| s.len() as u64).sum();
        assert_eq!(st.stores, in_series + st.rejected, "stores double-counted");
        drop(st);

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
