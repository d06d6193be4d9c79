//! Tests for the incremental query-serving path: the NaN-store
//! regression, the WhereIs race regression, and the delta-fetch
//! protocol's O(Δ) + bit-identical-to-replay contract. The rig and its
//! scripted client are shared with `batched_queries`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::forecaster::ForecasterServer;
use crate::memory::{MemoryHandle, MemoryServer};
use crate::msg::{NwsMsg, SeriesKey};
use crate::registry::{NameServer, RegistryHandle};
use crate::{Forecast, ForecasterBattery, Resource, SeriesTable, SeriesTableHandle};
use netsim::engine::{Ctx, Engine, Process, ProcessId};
use netsim::prelude::*;

/// Four hosts on a switch with 5 ms port latency: host→host one-way is
/// ~10 ms, which makes the directory/fetch round trips long enough to
/// schedule deterministic interleavings with millisecond timers.
pub(super) struct Rig {
    pub(super) eng: Engine<NwsMsg>,
    pub(super) ids: SeriesTableHandle,
    pub(super) ns_state: RegistryHandle,
    pub(super) memory: ProcessId,
    pub(super) store: MemoryHandle,
    pub(super) forecaster: ProcessId,
    pub(super) client_node: NodeId,
}

pub(super) fn rig() -> Rig {
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

pub(super) fn send(ctx: &mut Ctx<'_, NwsMsg>, to: ProcessId, msg: NwsMsg) {
    let size = msg.wire_size();
    ctx.send(to, size, msg).unwrap();
}

type Answers = Vec<(SeriesKey, Option<Forecast>)>;

pub(super) enum Action {
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
    /// (delay, action) pairs; actions are dispatched by timer tag.
    steps: Vec<(TimeDelta, Action)>,
    singles: Rc<RefCell<Answers>>,
    batches: Rc<RefCell<Vec<Answers>>>,
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

pub(super) struct Run {
    pub(super) rig: Rig,
    pub(super) singles: Answers,
    pub(super) batches: Vec<Answers>,
}

impl Run {
    /// The rig, and the single queries' forecasts in arrival order.
    fn replies(self) -> (Rig, Vec<Option<Forecast>>) {
        (self.rig, self.singles.into_iter().map(|(_, f)| f).collect())
    }
}

pub(super) fn run_script(mut r: Rig, steps: Vec<(TimeDelta, Action)>) -> Run {
    let singles = Rc::new(RefCell::new(Vec::new()));
    let batches = Rc::new(RefCell::new(Vec::new()));
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
    let singles = singles.take();
    let batches = batches.take();
    Run { rig: r, singles, batches }
}

pub(super) fn ms(v: f64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

/// Satellite regression: a `Query` that reaches the forecaster while a
/// soon-to-be-stale `WhereIsReply{None}` is in flight — and after the
/// series was registered — must get a forecast, not the cached negative.
///
/// Timeline (one-way host→host ≈ 10 ms): query A departs at 0 and its
/// lookup reaches the (still empty) name server at ~20 ms; the first
/// store departs at 5 ms and registers the series at ~25 ms; query B
/// departs at 8 ms and joins the waiting list at ~18 ms, before the
/// negative reply lands at ~30 ms. The fixed server answers only A from
/// the negative and re-issues the lookup for B.
#[test]
fn late_query_survives_stale_negative_lookup() {
    let key = SeriesKey::link(Resource::Bandwidth, "h0.x", "h2.x");
    let (_, replies) = run_script(
        rig(),
        vec![
            (ms(0.0), Action::Query { key: key.clone() }),
            (ms(5.0), Action::Store { key: key.clone(), t: 1.0, value: 42.0 }),
            (ms(8.0), Action::Query { key: key.clone() }),
        ],
    )
    .replies();
    assert_eq!(replies.len(), 2, "both clients answered");
    assert!(replies[0].is_none(), "pre-store query sees the negative");
    let f = replies[1].clone().expect("post-store query must get a forecast");
    assert_eq!(f.samples, 1);
    assert!((f.value - 42.0).abs() < 1e-12);
}

/// Satellite regression: a NaN measurement stored by a sensor (e.g. a
/// zero-elapsed probe) must neither enter the ring nor panic the battery.
/// This exercises the full §2.1 path in whatever build profile the test
/// runs under — including `--release`, where the old `debug_assert!` in
/// `Series::push` compiled away and the median sort panicked.
#[test]
fn nan_store_cannot_panic_the_query_path() {
    let nan_only = SeriesKey::host(Resource::CpuLoad, "h0.x");
    let mixed = SeriesKey::link(Resource::Bandwidth, "h0.x", "h2.x");
    let (r, replies) = run_script(
        rig(),
        vec![
            (ms(0.0), Action::Store { key: nan_only.clone(), t: 1.0, value: f64::NAN }),
            (ms(10.0), Action::Store { key: mixed.clone(), t: 1.0, value: 90.0 }),
            (ms(20.0), Action::Store { key: mixed.clone(), t: 2.0, value: f64::NAN }),
            (ms(30.0), Action::Store { key: mixed.clone(), t: 3.0, value: 96.0 }),
            (ms(200.0), Action::Query { key: nan_only.clone() }),
            (ms(400.0), Action::Query { key: mixed.clone() }),
        ],
    )
    .replies();
    assert_eq!(replies.len(), 2);
    // The NaN-only series exists in the directory (it was stored) but has
    // no usable points: the reply is an orderly None, not a panic.
    assert!(replies[0].is_none());
    // The mixed series forecasts over the finite points only.
    let f = replies[1].clone().expect("finite points forecast");
    assert_eq!(f.samples, 2);
    assert!(f.value.is_finite());
    assert_eq!(r.store.borrow().rejected, 2);
}

/// Tentpole contract: steady-state queries fetch only the delta (O(Δ)
/// points over the wire, zero when nothing new was measured), resolve the
/// memory through the directory exactly once per series, and produce
/// forecasts bit-identical to replaying the stored ring through a fresh
/// battery.
#[test]
fn delta_fetch_is_incremental_and_matches_replay() {
    let key = SeriesKey::link(Resource::Bandwidth, "h0.x", "h2.x");
    let mut steps = Vec::new();
    for i in 0..5 {
        steps.push((
            ms(i as f64 * 10.0),
            Action::Store { key: key.clone(), t: i as f64, value: 90.0 + i as f64 },
        ));
    }
    steps.push((ms(200.0), Action::Query { key: key.clone() }));
    steps.push((ms(400.0), Action::Store { key: key.clone(), t: 5.0, value: 80.0 }));
    steps.push((ms(410.0), Action::Store { key: key.clone(), t: 6.0, value: 81.0 }));
    steps.push((ms(600.0), Action::Query { key: key.clone() }));
    steps.push((ms(800.0), Action::Query { key: key.clone() }));

    let (r, replies) = run_script(rig(), steps).replies();
    assert_eq!(replies.len(), 3);
    let f1 = replies[0].clone().expect("first forecast");
    let f2 = replies[1].clone().expect("second forecast");
    let f3 = replies[2].clone().expect("third forecast");
    assert_eq!(f1.samples, 5);
    assert_eq!(f2.samples, 7);
    // No new points between the second and third query: identical forecast.
    assert_eq!(f2, f3);

    // Replay oracle: the stored ring through a fresh battery must equal
    // the persistent battery's answer bit for bit.
    let store = r.store.borrow();
    let mut oracle = ForecasterBattery::classic();
    let id = r.ids.borrow().get(&key).expect("stored");
    oracle.observe_all(store.series[id].iter().map(|p| p.value));
    assert_eq!(oracle.forecast(), Some(f3));

    // O(Δ) wire contract: 5 points on the cold fetch, 2 on the delta,
    // none for the steady-state query.
    assert_eq!(store.fetches, 3);
    assert_eq!(store.points_served, 7);
    // The directory was consulted exactly once; later queries used the
    // cached memory location.
    assert_eq!(r.ns_state.borrow().lookups, 1);
}
