//! Batched multi-series queries: the differential contract (`QueryBatch`
//! ≡ N sequential single queries, bit for bit), the single-flight lookup
//! discipline under batching, stale/timeout answers to batch slots, and
//! shard-count invariance of the out-of-sim serving plane against the
//! in-sim forecaster.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::engine::{Ctx, Engine, Process, ProcessId};
use netsim::prelude::*;
use nws::forecaster::ForecasterServer;
use nws::memory::{MemoryHandle, MemoryServer};
use nws::msg::{NwsMsg, SeriesKey};
use nws::registry::{NameServer, RegistryHandle};
use nws::serve::ServingPlane;
use nws::shard::ShardMap;
use nws::{Forecast, NwsSystem, NwsSystemSpec, Resource, SeriesTable, SeriesTableHandle};
use proptest::prelude::*;

/// Four hosts on a switch with 5 ms port latency (the `query_serving`
/// rig): long enough round trips to schedule deterministic interleavings.
struct Rig {
    eng: Engine<NwsMsg>,
    ids: SeriesTableHandle,
    ns_state: RegistryHandle,
    memory: ProcessId,
    store: MemoryHandle,
    forecaster: ProcessId,
    client_node: NodeId,
}

fn rig() -> Rig {
    let mut b = TopologyBuilder::new();
    let sw = b.switch("sw", Bandwidth::mbps(100.0), Latency::millis(5.0));
    let hosts: Vec<NodeId> = (0..4)
        .map(|i| {
            let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
            b.attach(h, sw);
            h
        })
        .collect();
    let mut eng: Engine<NwsMsg> = Engine::new(b.build().unwrap());
    let ids = SeriesTable::new();
    let (ns, ns_state) = NameServer::new();
    let ns_pid = eng.add_process(hosts[0], Box::new(ns));
    let forecaster = eng.add_process(hosts[1], Box::new(ForecasterServer::new("fc", ns_pid, &ids)));
    let (mem, store) = MemoryServer::new("mem0", ns_pid, 512, &ids);
    let memory = eng.add_process(hosts[2], Box::new(mem));
    Rig { eng, ids, ns_state, memory, store, forecaster, client_node: hosts[3] }
}

fn send(ctx: &mut Ctx<'_, NwsMsg>, to: ProcessId, msg: NwsMsg) {
    let size = msg.wire_size();
    ctx.send(to, size, msg).unwrap();
}

type Singles = Rc<RefCell<Vec<(SeriesKey, Option<Forecast>)>>>;
type Batches = Rc<RefCell<Vec<Vec<(SeriesKey, Option<Forecast>)>>>>;

enum Action {
    Store { key: SeriesKey, t: f64, value: f64 },
    Query { key: SeriesKey },
    Batch { keys: Vec<SeriesKey> },
}

/// Drives scripted stores/queries/batches by timer; single replies and
/// batch replies are recorded in arrival order, each answer with its key.
struct Script {
    ids: SeriesTableHandle,
    forecaster: ProcessId,
    memory: ProcessId,
    steps: Vec<(TimeDelta, Action)>,
    singles: Singles,
    batches: Batches,
}

impl Process<NwsMsg> for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        for (i, (delay, _)) in self.steps.iter().enumerate() {
            ctx.set_timer(*delay, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, NwsMsg>, tag: u64) {
        let mut ids = self.ids.borrow_mut();
        match &self.steps[tag as usize].1 {
            Action::Store { key, t, value } => {
                let seq = tag + 1; // unique per step, which is all dedup needs
                let series = ids.intern(key);
                send(ctx, self.memory, NwsMsg::Store { series, seq, t: *t, value: *value });
            }
            Action::Query { key } => {
                send(ctx, self.forecaster, NwsMsg::Query { series: ids.intern(key) });
            }
            Action::Batch { keys } => {
                let series = keys.iter().map(|k| ids.intern(k)).collect();
                send(ctx, self.forecaster, NwsMsg::QueryBatch { id: tag, series });
            }
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        match msg {
            NwsMsg::QueryReply { series, forecast } => {
                let key = self.ids.borrow().key(series);
                self.singles.borrow_mut().push((key, forecast.map(|f| *f)));
            }
            NwsMsg::QueryBatchReply { id, forecasts } => {
                let Action::Batch { keys } = &self.steps[id as usize].1 else {
                    panic!("reply to step {id}, which sent no batch")
                };
                self.batches.borrow_mut().push(keys.iter().cloned().zip(forecasts).collect());
            }
            _ => {}
        }
    }
}

struct Run {
    rig: Rig,
    singles: Vec<(SeriesKey, Option<Forecast>)>,
    batches: Vec<Vec<(SeriesKey, Option<Forecast>)>>,
}

fn run_script(mut r: Rig, steps: Vec<(TimeDelta, Action)>) -> Run {
    let singles: Singles = Rc::new(RefCell::new(Vec::new()));
    let batches: Batches = Rc::new(RefCell::new(Vec::new()));
    let script = Script {
        ids: r.ids.clone(),
        forecaster: r.forecaster,
        memory: r.memory,
        steps,
        singles: singles.clone(),
        batches: batches.clone(),
    };
    r.eng.add_process(r.client_node, Box::new(script));
    r.eng.run_until_quiescent(TimeDelta::from_secs(60.0)).unwrap();
    let singles = singles.borrow().clone();
    let batches = batches.borrow().clone();
    Run { rig: r, singles, batches }
}

fn ms(v: f64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn link(src: &str, dst: &str) -> SeriesKey {
    SeriesKey::link(Resource::Bandwidth, src, dst)
}

/// Store steps for `values[s][..]` under `keys[s]`, 10 ms apart.
fn store_steps(keys: &[SeriesKey], values: &[Vec<f64>]) -> Vec<(TimeDelta, Action)> {
    let mut steps = Vec::new();
    let mut at = 0.0;
    for (s, vs) in values.iter().enumerate() {
        for (t, v) in vs.iter().enumerate() {
            steps.push((ms(at), Action::Store { key: keys[s].clone(), t: t as f64, value: *v }));
            at += 10.0;
        }
    }
    steps
}

/// The differential contract on a fixed script: one batch over
/// {known, duplicate, unknown} keys answers bit-identically to the same
/// keys queried one at a time on an identically prepared system.
#[test]
fn batch_reply_is_bit_identical_to_sequential_singles() {
    let k0 = link("h0.x", "h1.x");
    let k1 = link("h0.x", "h2.x");
    let ghost = link("h1.x", "h2.x");
    let keys = [k0.clone(), k1.clone()];
    let values = [vec![90.0, 92.0, 88.0, 95.0], vec![10.0, 11.0, 12.0]];
    let batch = vec![k0.clone(), k1.clone(), k0.clone(), ghost.clone()];

    let mut a_steps = store_steps(&keys, &values);
    a_steps.push((ms(2000.0), Action::Batch { keys: batch.clone() }));
    let a = run_script(rig(), a_steps);

    let mut b_steps = store_steps(&keys, &values);
    for (j, key) in batch.iter().enumerate() {
        b_steps.push((ms(2000.0 + 200.0 * j as f64), Action::Query { key: key.clone() }));
    }
    let b = run_script(rig(), b_steps);

    assert_eq!(a.batches.len(), 1, "one batch reply");
    assert_eq!(a.batches[0].len(), batch.len(), "slot per key, duplicates included");
    assert_eq!(a.batches[0], b.singles, "batch ≡ sequential singles, bit for bit");
    assert!(a.batches[0][3].1.is_none(), "unknown key answers None");
}

/// Single-flight discipline: five batch slots for one unresolved series,
/// plus a concurrent single query, cost exactly one directory lookup and
/// one memory fetch between them — and all six answers agree.
#[test]
fn duplicate_unresolved_keys_share_one_lookup_and_fetch() {
    let k = link("h0.x", "h1.x");
    let mut steps = store_steps(std::slice::from_ref(&k), &[vec![90.0, 91.0, 92.0]]);
    steps.push((ms(1000.0), Action::Batch { keys: vec![k.clone(); 5] }));
    steps.push((ms(1000.0), Action::Query { key: k.clone() }));
    let r = run_script(rig(), steps);

    assert_eq!(r.batches.len(), 1);
    assert_eq!(r.singles.len(), 1);
    let f = r.singles[0].1.clone().expect("forecast");
    assert_eq!(f.samples, 3);
    for slot in &r.batches[0] {
        assert_eq!(slot.1.as_ref(), Some(&f), "every coalesced waiter gets the same answer");
    }
    assert_eq!(r.rig.ns_state.borrow().lookups, 1, "one WhereIs for six waiters");
    assert_eq!(r.rig.store.borrow().fetches, 1, "one fetch for six waiters");
}

/// An empty batch is a complete conversation: immediate empty reply.
#[test]
fn empty_batch_replies_immediately() {
    let r = run_script(rig(), vec![(ms(0.0), Action::Batch { keys: vec![] })]);
    assert_eq!(r.batches, vec![Vec::new()]);
    assert_eq!(r.rig.ns_state.borrow().lookups, 0);
}

/// A one-shot batch sender used after the scripted phase (so the test can
/// kill processes between phases).
struct BatchOnce {
    forecaster: ProcessId,
    series: Vec<nws::SeriesId>,
    result: Rc<RefCell<Vec<Vec<Option<Forecast>>>>>,
}

impl Process<NwsMsg> for BatchOnce {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let series = self.series.clone();
        send(ctx, self.forecaster, NwsMsg::QueryBatch { id: 7, series });
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryBatchReply { forecasts, .. } = msg {
            self.result.borrow_mut().push(forecasts);
        }
    }
}

/// Timeout path under batching: with the series' memory dead, the slot
/// for a warmed series is answered from the persistent battery with the
/// stale flag up, and an unknown key still resolves to a clean None from
/// the (alive) directory — the batch completes despite the outage.
#[test]
fn timeout_under_batching_serves_stale_with_flag() {
    let k = link("h0.x", "h1.x");
    let ghost = link("h1.x", "h2.x");
    // Phase 1: store + warm the forecaster's battery through one query.
    let mut steps = store_steps(std::slice::from_ref(&k), &[vec![90.0, 91.0, 92.0]]);
    steps.push((ms(1000.0), Action::Query { key: k.clone() }));
    let mut r = run_script(rig(), steps);
    assert_eq!(r.singles.len(), 1);
    let warm = r.singles[0].1.clone().expect("warm forecast");
    assert!(!warm.stale);

    // Phase 2: kill the memory, then batch {warmed, unknown}.
    r.rig.eng.kill_process(r.rig.memory);
    let result = Rc::new(RefCell::new(Vec::new()));
    let series = [&k, &ghost].map(|key| r.rig.ids.borrow_mut().intern(key)).to_vec();
    r.rig.eng.add_process(
        r.rig.client_node,
        Box::new(BatchOnce { forecaster: r.rig.forecaster, series, result: result.clone() }),
    );
    let deadline = r.rig.eng.now() + TimeDelta::from_secs(10.0);
    r.rig.eng.run_until(deadline);

    let batches = result.borrow().clone();
    assert_eq!(batches.len(), 1, "batch completes despite the dead memory");
    let slots = &batches[0];
    let stale = slots[0].clone().expect("stale forecast beats an error");
    assert!(stale.stale, "timeout answers carry the stale flag");
    assert_eq!(stale.samples, warm.samples, "served from the warmed battery");
    assert!(slots[1].is_none(), "unknown key resolves through the live directory");
}

/// Shard-count invariance, end to end: planes over {1, 2, 4, 8} shards
/// fed from the sim's memory store answer bit-identically to each other
/// *and* to the in-sim forecaster serving the same series.
#[test]
fn plane_answers_are_shard_invariant_and_match_the_sim() {
    let keys =
        [link("h0.x", "h1.x"), link("h0.x", "h2.x"), link("h1.x", "h2.x"), link("h2.x", "h0.x")];
    let values: Vec<Vec<f64>> =
        (0..4).map(|s| (0..20).map(|t| 50.0 + (s * 7 + t * 3) as f64 % 13.0).collect()).collect();
    let mut steps = store_steps(&keys, &values);
    for (j, key) in keys.iter().enumerate() {
        steps.push((ms(3000.0 + 200.0 * j as f64), Action::Query { key: key.clone() }));
    }
    let r = run_script(rig(), steps);
    assert_eq!(r.singles.len(), keys.len());

    let mut baseline: Option<Vec<(SeriesKey, Option<Forecast>)>> = None;
    for shards in [1usize, 2, 4, 8] {
        let mut plane = ServingPlane::new(ShardMap::hashed(shards));
        plane.ingest_store(&r.rig.store.borrow(), &r.rig.ids.borrow());
        plane.publish(shards);
        let got = plane.serve_batch(&keys);
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(b, &got, "{shards} shards diverged"),
        }
    }
    let plane_answers = baseline.unwrap();
    for (sim, plane) in r.singles.iter().zip(&plane_answers) {
        assert_eq!(sim, plane, "in-sim forecaster and serving plane agree bit for bit");
    }

    // Third feed: a deployed system's own wiring — clique-aligned planes
    // from `serving_plane`, filled by `publish_epoch` out of every memory
    // — against that system's forecaster. The sensors are stopped first so
    // both sides see the same stored points.
    let net = netsim::scenarios::star_hub(3, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let sys = NwsSystem::deploy(&mut eng, &NwsSystemSpec::minimal(&names[0], &refs)).unwrap();
    sys.run_for(&mut eng, TimeDelta::from_secs(90.0));
    for pid in sys.sensors.values() {
        eng.kill_process(*pid);
    }
    sys.run_for(&mut eng, TimeDelta::from_secs(5.0));
    let sys_keys = sys.series_keys();
    assert!(sys_keys.len() >= 6, "every directed pair was measured");
    let sim = sys.query_batch(&mut eng, sys_keys.clone(), TimeDelta::from_secs(10.0));
    assert!(sim.iter().all(|(_, f)| f.is_some()));
    for shards in [1usize, 2, 4, 8] {
        let mut plane = sys.serving_plane(shards);
        assert_eq!(plane.shard_map().shards(), shards);
        assert_eq!(sys.publish_epoch(&mut plane, shards), 1);
        assert_eq!(plane.serve_batch(&sys_keys), sim, "{shards} shards, system-fed");
    }
}

prop_compose! {
    /// Random per-series value histories: 2 series, 1..12 points each.
    fn arb_histories()(
        a in proptest::collection::vec(1.0f64..100.0, 1..12),
        b in proptest::collection::vec(1.0f64..100.0, 1..12),
    ) -> Vec<Vec<f64>> {
        vec![a, b]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential contract, randomized: any batch composition over
    /// {series 0, series 1, an unknown key} — duplicates included —
    /// answers bit-identically to the same keys queried sequentially on
    /// an identically prepared system.
    #[test]
    fn query_batch_equals_sequential_singles(
        histories in arb_histories(),
        picks in proptest::collection::vec(0usize..3, 1..8),
    ) {
        let k0 = link("h0.x", "h1.x");
        let k1 = link("h0.x", "h2.x");
        let ghost = link("h1.x", "h2.x");
        let keys = [k0, k1];
        let batch: Vec<SeriesKey> =
            picks.iter().map(|&p| keys.get(p).unwrap_or(&ghost).clone()).collect();

        let mut a_steps = store_steps(&keys, &histories);
        a_steps.push((ms(3000.0), Action::Batch { keys: batch.clone() }));
        let a = run_script(rig(), a_steps);

        let mut b_steps = store_steps(&keys, &histories);
        for (j, key) in batch.iter().enumerate() {
            b_steps.push((ms(3000.0 + 200.0 * j as f64), Action::Query { key: key.clone() }));
        }
        let b = run_script(rig(), b_steps);

        prop_assert_eq!(a.batches.len(), 1);
        prop_assert_eq!(&a.batches[0], &b.singles, "batch ≡ singles for picks {:?}", picks);
    }
}
