//! Forecaster query-serving at scale: query storms against a deployed NWS
//! system on synthetic-family topologies, emitted as
//! `BENCH_forecaster.json`.
//!
//! Every storm row asserts the incremental engine's *contracts*; its speed
//! is `benches/forecaster.rs` (`query_replay` vs `query_incremental`):
//!
//! * **bit-identity** — every served forecast equals replaying the stored
//!   ring through a fresh battery (`ForecasterBattery::classic`), field
//!   for field;
//! * **O(Δ) wire** — the steady-state storm (no new measurements) ships
//!   zero history points regardless of series length; the delta phase
//!   ships exactly one point per series;
//! * **directory economy** — one `WhereIs` per series ever, then cached.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_forecast_scaling
//! [out.json]`. `BENCH_forecaster.json` is a golden file: CI regenerates
//! and `cmp`s it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::engine::{Ctx, Engine, Process, ProcessId};
use netsim::prelude::*;
use netsim::synth::{synth, SynthFamily};
use nws::msg::NwsMsg;
use nws::{Forecast, ForecasterBattery, NwsSystem, NwsSystemSpec, Resource, SeriesId, SeriesKey};
use nws_bench::{Cell, Golden, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2004;

/// Bulk-injects measurement points as `Store` messages.
struct Injector {
    memory: ProcessId,
    batch: Vec<(SeriesId, f64, f64)>,
}

impl Process<NwsMsg> for Injector {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        for (seq, (series, t, value)) in self.batch.drain(..).enumerate() {
            NwsMsg::Store { series, seq: seq as u64 + 1, t, value }.send(ctx, self.memory);
        }
    }
}

type Latest = Rc<RefCell<BTreeMap<SeriesId, Option<Forecast>>>>;

/// Issues `total` queries round-robin over `keys`, one in flight at a
/// time, recording the latest forecast per key.
struct Storm {
    forecaster: ProcessId,
    keys: Vec<SeriesId>,
    total: usize,
    issued: usize,
    latest: Latest,
}

impl Storm {
    fn next(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        if self.issued == self.total {
            return;
        }
        let series = self.keys[self.issued % self.keys.len()];
        self.issued += 1;
        NwsMsg::Query { series }.send(ctx, self.forecaster);
    }
}

impl Process<NwsMsg> for Storm {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        self.next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryReply { series, forecast } = msg {
            self.latest.borrow_mut().insert(series, forecast.map(|f| *f));
            self.next(ctx);
        }
    }
}

/// Run one storm phase to completion.
fn run_storm(
    eng: &mut Engine<NwsMsg>,
    node: NodeId,
    forecaster: ProcessId,
    keys: &[SeriesId],
    total: usize,
    latest: &Latest,
) {
    eng.add_process(
        node,
        Box::new(Storm {
            forecaster,
            keys: keys.to_vec(),
            total,
            issued: 0,
            latest: latest.clone(),
        }),
    );
    let horizon = eng.now() + TimeDelta::from_secs(1e7);
    eng.run_until(horizon);
}

/// Synthetic measurement stream for one series: a seeded random walk with
/// the flavour of a bandwidth signal.
fn series_values(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let mut x = 90.0 + rng.gen_range(-10.0..10.0);
    (0..n)
        .map(|_| {
            x += rng.gen_range(-1.0..1.0);
            x
        })
        .collect()
}

fn run_storm_tier(t: &mut Table, family: SynthFamily, hosts: usize, points: usize, queries: usize) {
    let sc = synth(family, SEED, hosts);
    let names = sc.input_names();
    let master = sc.master_name();
    let mut eng: Engine<NwsMsg> = Engine::new(sc.net.topo.clone());

    // Deploy name server + memory + forecaster on the master host; no
    // sensors — the storm injects measurements directly, so the series
    // population and history lengths are exact.
    let mut spec = NwsSystemSpec::minimal(&master, &[]);
    spec.cliques.clear();
    spec.series_capacity = points + 64;
    let sys = NwsSystem::deploy(&mut eng, &spec).expect("deploy");
    let (memory, handle) = &sys.memories[&master];
    let client_node = eng.topo().node_by_name(&master).expect("master resolves");

    // Three series per input host: CPU, free memory, bandwidth to the
    // next host — "hundreds of series" at the 100-host tiers.
    let keys: Vec<SeriesKey> = names
        .iter()
        .enumerate()
        .flat_map(|(i, h)| {
            let next = &names[(i + 1) % names.len()];
            [
                SeriesKey::host(Resource::CpuLoad, h),
                SeriesKey::host(Resource::FreeMemory, h),
                SeriesKey::link(Resource::Bandwidth, h, next),
            ]
        })
        .collect();
    let ids: Vec<SeriesId> = keys.iter().map(|k| sys.series_ids.borrow_mut().intern(k)).collect();

    // Prime: inject `points` measurements per series.
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xf0f0);
    let mut batch = Vec::with_capacity(keys.len() * points);
    let mut streams: Vec<Vec<f64>> = Vec::with_capacity(keys.len());
    for &id in &ids {
        let values = series_values(&mut rng, points + 1);
        for (i, v) in values[..points].iter().enumerate() {
            batch.push((id, i as f64, *v));
        }
        streams.push(values);
    }
    eng.add_process(client_node, Box::new(Injector { memory: *memory, batch }));
    eng.run_until(eng.now() + TimeDelta::from_secs(1e7));
    assert_eq!(handle.borrow().stores, (keys.len() * points) as u64);

    let latest: Latest = Rc::new(RefCell::new(BTreeMap::new()));

    // Cold sweep: first query per series pays the directory lookup and
    // the full-ring fetch.
    run_storm(&mut eng, client_node, sys.forecaster, &ids, keys.len(), &latest);
    let served_cold = handle.borrow().points_served;
    assert_eq!(served_cold, (keys.len() * points) as u64, "cold sweep ships every ring");

    // Steady-state storm: no new measurements → every query is a zero-
    // point delta fetch, independent of how long the rings are.
    run_storm(&mut eng, client_node, sys.forecaster, &ids, queries, &latest);
    let steady_points_served = handle.borrow().points_served - served_cold;
    assert_eq!(steady_points_served, 0, "steady-state queries must ship zero history");

    // Delta phase: one fresh point per series, then one more sweep.
    let batch: Vec<(SeriesId, f64, f64)> =
        ids.iter().zip(&streams).map(|(&id, s)| (id, points as f64, s[points])).collect();
    eng.add_process(client_node, Box::new(Injector { memory: *memory, batch }));
    eng.run_until(eng.now() + TimeDelta::from_secs(1e7));
    let before_delta = handle.borrow().points_served;
    run_storm(&mut eng, client_node, sys.forecaster, &ids, keys.len(), &latest);
    let delta_served = handle.borrow().points_served - before_delta;
    assert_eq!(delta_served, keys.len() as u64, "delta sweep ships exactly Δ = 1 per series");

    // Directory economy: exactly one lookup per series, ever.
    let lookups = sys.registry.borrow().lookups;
    assert_eq!(lookups, keys.len() as u64, "memory location must be cached after first query");

    // Replay oracle: every served forecast is bit-identical to a fresh
    // battery replay of the stored ring.
    let store = handle.borrow();
    let latest = latest.borrow();
    let mut oracle_identical = true;
    for (key, id) in keys.iter().zip(&ids) {
        let mut oracle = ForecasterBattery::classic();
        oracle.observe_all(store.series[*id].iter().map(|p| p.value));
        let served = latest[id].clone();
        if oracle.forecast() != served {
            oracle_identical = false;
            eprintln!("MISMATCH {key}: {:?} vs {:?}", oracle.forecast(), served);
        }
    }
    assert!(oracle_identical, "incremental forecasts must be bit-identical to replay");

    t.row::<Cell>(vec![
        family.name().into(),
        hosts.into(),
        keys.len().into(),
        points.into(),
        queries.into(),
        steady_points_served.into(),
        lookups.into(),
        oracle_identical.into(),
    ]);
}

fn main() {
    println!("=== forecaster scaling: incremental query engine vs replay ===\n");
    let mut t = Table::new(&[
        "family",
        "hosts",
        "series",
        "points",
        "queries",
        "steady_points_served",
        "lookups",
        "oracle_identical",
    ]);
    for (family, queries) in [
        (SynthFamily::Campus, 1_000),
        (SynthFamily::Campus, 10_000),
        (SynthFamily::Campus, 100_000),
        (SynthFamily::FatTree, 10_000),
    ] {
        run_storm_tier(&mut t, family, 100, 512, queries);
    }
    t.write_golden(Golden {
        bench: "forecaster_scaling",
        bin: env!("CARGO_BIN_NAME"),
        file: "BENCH_forecaster.json",
        seed: SEED,
        config: Vec::new(),
        rows_key: "storm_rows",
    });
}
