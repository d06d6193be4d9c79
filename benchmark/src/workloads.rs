//! The four workloads. Each drives public functions of the repository's
//! crates and times every call from outside, one span per call; each puts
//! a different layer in the majority (the README's wiring table says
//! which). A round restarts from the state `prepare` built and replays
//! the same operations, so step `i` does the same work in every round.

use std::collections::BTreeMap;
use std::sync::Arc;

use envdeploy::{
    apply_plan_delta, apply_plan_with, parse_config, plan_deployment, render_config, repair_plan,
    validate_plan_with_routes, DeploymentPlan, PlannerConfig, RepairConfig,
};
use envmap::{cluster_agreement, view_from_gridml, EnvConfig, EnvMapper, EnvRun, HostInput};
use gridml::GridDoc;
use netsim::churn::{apply_churn, ChurnState};
use netsim::faults::LossModel;
use netsim::synth::{synth, SynthFamily};
use netsim::time::TimeDelta;
use netsim::units::Bytes;
use netsim::{Engine, FlowId, NodeId, RouteTable, Sim, Topology};
use nws::supervisor::SupervisorConfig;
use nws::{NwsMsg, NwsSystem, Resource, SeriesKey, ServingPlane, ShardMap};

use crate::harness::{proc_status_mib, set_ratio, Counters, RoundOut, Tracer, Workload};

pub const NAMES: [&str; 4] = ["deploy_5k", "operate_1k", "flow_storm", "serve_mix"];

/// SplitMix64: the benchmark's own generator, so that its inputs depend
/// on the seed and on nothing the program under test can change.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn sized(full: usize, smoke: bool) -> usize {
    if smoke {
        full / 4
    } else {
        full
    }
}

/// The seed of every synthetic campus. The platform is the same in every
/// run and `--seed` drives what is done on it: across seeds the generator's
/// LAN sizes moved a round's work by 15-20 %, more than any bound, so a
/// seed-drawn platform would measure the draw and not the program.
const PLATFORM_SEED: u64 = 2004;

/// A synthetic campus and its route table, shared by every engine a
/// workload starts.
struct Platform {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    inputs: Vec<HostInput>,
    master: String,
    external: Option<String>,
    truth: Vec<Vec<String>>,
    /// Truth clusters as node ids, for choosing flow endpoints.
    lans: Vec<Vec<NodeId>>,
    churn: ChurnState,
}

impl Platform {
    /// `seed` orders the hosts handed to the mapper (master first).
    fn build(seed: u64, hosts: usize, tr: &mut Tracer) -> Platform {
        let sc = tr.time("netsim.synth.build", || synth(SynthFamily::Campus, PLATFORM_SEED, hosts));
        let before = proc_status_mib("VmRSS");
        let routes =
            tr.time("netsim.routing.build", || RouteTable::compute_with_threads(&sc.net.topo, 1));
        tr.gauge("netsim.routing.table_mb", proc_status_mib("VmRSS") - before);
        let mut inputs: Vec<HostInput> =
            sc.input_names().iter().map(|n| HostInput::new(n)).collect();
        let mut rng = Rng(seed ^ 0x6f72_6465);
        for i in (2..inputs.len()).rev() {
            inputs.swap(i, 1 + rng.below(i));
        }
        Platform {
            inputs,
            master: sc.master_name(),
            external: sc.external_name(),
            truth: sc.truth_labels(),
            lans: sc.truth.clusters.iter().map(|c| c.members.clone()).collect(),
            churn: ChurnState::new(&sc, PLATFORM_SEED ^ hosts as u64),
            routes: Arc::new(routes),
            topo: Arc::new(sc.net.topo),
        }
    }

    fn engine<M>(&self) -> Engine<M> {
        Engine::from_snapshot(self.topo.clone(), self.routes.clone())
    }

    fn map(&self, mapper: &EnvMapper, eng: &Sim) -> EnvRun {
        mapper
            .map_parallel(eng, &self.inputs, &self.master, self.external.as_deref(), 1)
            .expect("mapping a synthetic campus succeeds")
    }
}

fn engine_counters(exact: &mut Counters, eng: &Engine<NwsMsg>, sys: &NwsSystem) {
    let stats = eng.stats();
    exact.insert("netsim.engine.events", stats.events_processed as f64);
    exact.insert("netsim.engine.messages_sent", stats.messages_sent as f64);
    exact.insert("netsim.engine.flows_started", stats.flows_started as f64);
    exact.insert("netsim.faults.dropped", stats.messages_dropped as f64);
    exact.insert("netsim.faults.duplicated", stats.messages_duplicated as f64);
    let disk = sys.disks.total_stats();
    exact.insert("netsim.disk.fsyncs", disk.fsyncs as f64);
    exact.insert("netsim.disk.bytes_synced", disk.bytes_synced as f64);
    exact.insert("netsim.disk.busy_sim_s", disk.busy_s);
    exact.insert("nws.persist.replay_bytes", disk.bytes_read as f64);
    exact.insert("nws.stores", sys.total_stores() as f64);
}

// ---------------------------------------------------------------------------
// deploy_5k
// ---------------------------------------------------------------------------

/// The paper's pipeline, cold: map → publish → parse → plan → validate →
/// configure → deploy → first forecast. One step is one whole pipeline.
pub struct Deploy {
    p: Platform,
    mapper: EnvMapper,
}

impl Workload for Deploy {
    const NAME: &'static str = "deploy_5k";
    const UNIT: &'static str = "hosts deployed";
    const WARMUP: usize = 1;
    const ROUNDS: usize = 20;

    fn prepare(seed: u64, smoke: bool, tr: &mut Tracer) -> Deploy {
        Deploy {
            p: Platform::build(seed, sized(5000, smoke), tr),
            mapper: EnvMapper::new(EnvConfig::fast_batched()),
        }
    }

    fn round(&mut self, tr: &mut Tracer) -> RoundOut {
        let (p, mapper) = (&self.p, &self.mapper);
        let reset = tr.enter("harness.reset");
        let map_eng: Sim = p.engine();
        let mut eng: Engine<NwsMsg> = p.engine();
        tr.exit(reset);

        let (run, doc_bytes, plan, report, round_trip, sys, stores, forecast) = tr.step(|tr| {
            let run = tr.time("envmap.map", || p.map(mapper, &map_eng));
            let xml = tr.time("gridml.publish", || run.to_gridml().to_xml());
            let view = tr.time("gridml.parse", || {
                let doc = GridDoc::parse(&xml).expect("the published GridML parses");
                view_from_gridml(&doc).expect("the published GridML carries the ENV view")
            });
            let plan =
                tr.time("envdeploy.plan", || plan_deployment(&view, &PlannerConfig::default()));
            let report = tr.time("envdeploy.validate", || {
                validate_plan_with_routes(&plan, &view, map_eng.topo(), map_eng.routes())
            });
            let round_trip = tr.time("envdeploy.config_roundtrip", || {
                parse_config(&render_config(&plan)).expect("the rendered configuration parses")
            });
            let sys = tr
                .time("envdeploy.apply_plan", || apply_plan_with(&mut eng, &round_trip, true))
                .expect("the plan deploys");
            let first = tr.enter("nws.first_forecast");
            tr.time("netsim.engine.run", || sys.run_for(&mut eng, TimeDelta::from_secs(10.0)));
            let stores = sys.total_stores();
            // The first clique's token starts at its first member, so this
            // pair is among the first measured.
            let c = &plan.cliques[0];
            let key = SeriesKey::link(Resource::Bandwidth, &c.members[0], &c.members[1]);
            let forecast = sys.query(&mut eng, key, TimeDelta::from_secs(2.0));
            tr.exit(first);
            (run, xml.len(), plan, report, round_trip, sys, stores, forecast)
        });

        let mut out = RoundOut { units: plan.hosts.len() as f64, ..RoundOut::default() };
        let agreement = cluster_agreement(&run.view, &p.truth, &[p.master.as_str()]);
        let missing = plan.hosts.iter().filter(|h| !sys.sensors.contains_key(*h)).count();
        out.attempted = plan.hosts.len() as u64 + 1;
        out.failed = missing as u64 + u64::from(forecast.is_none());
        if !report.complete || !report.unresolved_hosts.is_empty() {
            out.broken.push("the plan is incomplete".to_string());
        }
        if agreement < 1.0 {
            out.broken.push(format!("envmap.agreement {agreement} < 1"));
        }
        if round_trip != plan {
            out.broken.push("the configuration file did not round-trip the plan".to_string());
        }
        if forecast.is_none() {
            out.broken.push("the first forecast was not served".to_string());
        }
        let x = &mut out.exact;
        x.insert("envmap.experiments", run.stats.total_experiments() as f64);
        x.insert("envmap.mapping_sim_s", run.stats.mapping_seconds);
        x.insert("envmap.agreement", agreement);
        x.insert("gridml.doc_bytes", doc_bytes as f64);
        x.insert("envdeploy.cliques", plan.cliques.len() as f64);
        x.insert("envdeploy.intrusiveness", report.intrusiveness());
        x.insert("nws.first_forecast_stores", stores as f64);
        engine_counters(x, &eng, &sys);
        out
    }

    fn derive(&self, m: &mut BTreeMap<&'static str, f64>, round_ms: f64) {
        m.insert("envdeploy.apply_plan_share", m["envdeploy.apply_plan_ms"] / round_ms);
        set_ratio(
            m,
            "netsim.engine.us_per_event",
            "netsim.engine.run_ms",
            "netsim.engine.events",
            1e3,
        );
        set_ratio(m, "nws.stores_per_wall_s", "nws.stores", "nws.first_forecast_ms", 1e3);
    }
}

// ---------------------------------------------------------------------------
// operate_1k
// ---------------------------------------------------------------------------

const OPERATE_STEPS: usize = 16;
const CHURN_STEPS: [usize; 2] = [5, 11];
const CRASH_STEP: usize = 8;
const CHURN_EVENTS: usize = 3;
const BATCH_KEYS: usize = 64;

/// A deployed NWS under churn and faults: the engine's messages and
/// timers and the NWS write path do the work.
pub struct Operate {
    p: Platform,
    mapper: EnvMapper,
    run0: EnvRun,
    plan0: DeploymentPlan,
    keys: Vec<SeriesKey>,
}

/// Simulated time one step runs for. With 15 s steps ten rounds take the
/// wall time six take with 30 s steps, and eight runs of the same code
/// spread 1.6 % between their quartiles against 4.2 %.
fn run_len() -> TimeDelta {
    TimeDelta::from_secs(15.0)
}

fn sweep() -> TimeDelta {
    TimeDelta::from_secs(1.0)
}

/// Longer than the forecaster's 5 s query timeout, so that a query it
/// cannot fetch for is answered from the last-known battery, flagged stale,
/// instead of being abandoned.
fn patience() -> TimeDelta {
    TimeDelta::from_secs(8.0)
}

impl Operate {
    fn deploy(&self, tr: &mut Tracer) -> (Engine<NwsMsg>, NwsSystem) {
        let mut eng: Engine<NwsMsg> = self.p.engine();
        let mut sys = tr
            .time("envdeploy.apply_plan", || apply_plan_with(&mut eng, &self.plan0, true))
            .expect("the plan deploys");
        sys.attach_supervisor(
            &mut eng,
            SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 },
        );
        // Which messages the 1 % loss takes is part of the platform: a lost
        // token stalls its clique until the watchdog fires, so drawing the
        // losses from `--seed` moved a round's stores by 4.5 %.
        eng.set_fault_seed(PLATFORM_SEED);
        eng.set_default_loss(Some(LossModel::lossy(0.01)));
        (eng, sys)
    }
}

impl Workload for Operate {
    const NAME: &'static str = "operate_1k";
    const UNIT: &'static str = "simulated seconds";
    const WARMUP: usize = 1;
    const ROUNDS: usize = 10;

    fn prepare(seed: u64, smoke: bool, tr: &mut Tracer) -> Operate {
        let p = Platform::build(seed, sized(1000, smoke), tr);
        let mapper = EnvMapper::new(EnvConfig::fast_batched());
        let run0 = p.map(&mapper, &p.engine());
        let plan0 = plan_deployment(&run0.view, &PlannerConfig::default());
        let mut w = Operate { p, mapper, run0, plan0, keys: Vec::new() };
        // The keys every round queries: series that exist by the first
        // query of a round, found by running a deployment that far.
        let (mut eng, mut sys) = w.deploy(tr);
        sys.run_supervised(&mut eng, run_len(), sweep()).expect("supervised run");
        let known = sys.series_keys();
        let mut rng = Rng(seed ^ 0x6b65_7973);
        w.keys = (0..BATCH_KEYS).map(|_| known[rng.below(known.len())].clone()).collect();
        w
    }

    fn round(&mut self, tr: &mut Tracer) -> RoundOut {
        let reset = tr.enter("harness.reset");
        let mut map_eng: Sim = self.p.engine();
        let (mut eng, mut sys) = self.deploy(tr);
        let mut churn = self.p.churn.clone();
        let mut prev_run = self.run0.clone();
        let mut plan = self.plan0.clone();
        tr.exit(reset);

        let memory_host = plan.memories[0].clone();
        let full_experiments = self.run0.stats.total_experiments();
        let mut out = RoundOut::default();
        let mut stale = 0u64;
        let mut healed = 0usize;
        let mut crash_at = 0.0;
        let mut remap_experiments = 0u64;
        let mut delta_actions = 0usize;
        let mut agreement = 1.0f64;

        for step in 0..OPERATE_STEPS {
            let (answers, epoch) = tr.step(|tr| {
                let mut epoch = None;
                if CHURN_STEPS.contains(&step) {
                    let events = churn.plan_epoch(CHURN_EVENTS);
                    tr.time("netsim.churn.apply", || {
                        apply_churn(&mut map_eng, &events)
                            .expect("churn applies to the map engine");
                        apply_churn(&mut eng, &events).expect("churn applies to the NWS engine");
                    });
                    let dirty = churn.commit(&events);
                    let hosts: Vec<HostInput> =
                        churn.hosts().iter().map(|h| HostInput::new(h)).collect();
                    let run = tr
                        .time("envmap.remap", || {
                            self.mapper.remap_parallel(
                                &map_eng,
                                &prev_run,
                                &hosts,
                                &dirty,
                                &self.p.master,
                                self.p.external.as_deref(),
                                1,
                            )
                        })
                        .expect("the incremental remap succeeds");
                    let repaired = tr.time("envdeploy.repair", || {
                        repair_plan(&plan, &run.view, &RepairConfig::preserving())
                    });
                    let report = tr.time("envdeploy.validate_repaired", || {
                        validate_plan_with_routes(
                            &repaired.plan,
                            &run.view,
                            map_eng.topo(),
                            map_eng.routes(),
                        )
                    });
                    tr.time("envdeploy.apply_delta", || {
                        apply_plan_delta(&mut eng, &mut sys, &repaired.delta, &repaired.plan)
                    })
                    .expect("the plan delta applies");
                    remap_experiments += run.stats.total_experiments();
                    delta_actions += repaired.delta.action_count();
                    prev_run = run;
                    plan = repaired.plan;
                    epoch = Some(report);
                }
                if step == CRASH_STEP {
                    crash_at = eng.now().as_secs();
                    sys.crash_memory(&mut eng, &memory_host);
                    // `run_supervised`, unrolled so that the heal sweeps
                    // and the time to recovery can be told apart.
                    let mut recovering = Some(tr.enter("nws.recovery_wall"));
                    let deadline = eng.now() + run_len();
                    while eng.now() < deadline {
                        let next = (eng.now() + sweep()).min(deadline);
                        tr.time("netsim.engine.run", || eng.run_until(next));
                        let hosts =
                            tr.time("nws.supervisor.heal", || sys.heal(&mut eng)).expect("heal");
                        healed += hosts.len();
                        if hosts.contains(&memory_host) {
                            if let Some(open) = recovering.take() {
                                tr.exit(open);
                            }
                        }
                    }
                    if let Some(open) = recovering.take() {
                        tr.exit(open);
                    }
                } else {
                    let hosts = tr
                        .time("netsim.engine.run", || {
                            sys.run_supervised(&mut eng, run_len(), sweep())
                        })
                        .expect("supervised run");
                    healed += hosts.len();
                }
                let answers = tr.time("nws.forecaster.query_batch", || {
                    sys.query_batch(&mut eng, self.keys.clone(), patience())
                });
                (answers, epoch)
            });

            out.attempted += self.keys.len() as u64;
            out.failed += (self.keys.len() - answers.len()) as u64;
            for (_, forecast) in &answers {
                match forecast {
                    Some(f) => stale += u64::from(f.stale),
                    None => out.failed += 1,
                }
            }
            if let Some(report) = epoch {
                if !report.complete || !report.unresolved_hosts.is_empty() {
                    out.broken.push(format!("step {step}: the repaired plan is incomplete"));
                }
                let a = cluster_agreement(
                    &prev_run.view,
                    &churn.truth_labels(),
                    &[self.p.master.as_str()],
                );
                agreement = agreement.min(a);
            }
        }

        out.units = eng.now().as_secs();
        if out.failed > 0 {
            out.broken.push(format!("{} queried known keys were not answered", out.failed));
        }
        if agreement < 1.0 {
            out.broken.push(format!("envmap.agreement {agreement} < 1 after churn"));
        }
        if healed == 0 {
            out.broken.push("the crashed memory was never healed".to_string());
        }
        let (mut dup, mut rejected, mut double_counted) = (0u64, 0u64, 0i64);
        let mut first_after_crash = f64::INFINITY;
        for (_, handle) in sys.memories.values() {
            let store = handle.borrow();
            let held: u64 = store.series.values().map(|s| s.len() as u64).sum();
            dup += store.dup_stores;
            rejected += store.rejected;
            double_counted += store.stores as i64 - held as i64 - store.rejected as i64;
            for s in store.series.values() {
                if let Some((t, _)) = s.pairs_since(crash_at).first() {
                    first_after_crash = first_after_crash.min(*t);
                }
            }
        }
        if double_counted != 0 {
            out.broken.push(format!("nws.memory.double_counted {double_counted} != 0"));
        }
        let x = &mut out.exact;
        engine_counters(x, &eng, &sys);
        x.insert("nws.memory.dup_stores", dup as f64);
        x.insert("nws.memory.rejected", rejected as f64);
        x.insert("nws.memory.double_counted", double_counted as f64);
        x.insert("nws.forecaster.stale_served", stale as f64);
        x.insert("nws.supervisor.healed", healed as f64);
        x.insert("nws.median_recovery_sim_s", first_after_crash - crash_at);
        x.insert("envmap.experiments", remap_experiments as f64);
        x.insert("envmap.agreement", agreement);
        x.insert(
            "envmap.remap_probe_ratio",
            (CHURN_STEPS.len() as u64 * full_experiments) as f64 / remap_experiments.max(1) as f64,
        );
        x.insert("envdeploy.cliques", plan.cliques.len() as f64);
        x.insert("envdeploy.delta_actions", delta_actions as f64);
        out
    }

    fn derive(&self, m: &mut BTreeMap<&'static str, f64>, round_ms: f64) {
        m.insert("envdeploy.apply_plan_share", m["envdeploy.apply_plan_ms"] / round_ms);
        set_ratio(
            m,
            "netsim.engine.us_per_event",
            "netsim.engine.run_ms",
            "netsim.engine.events",
            1e3,
        );
        m.insert("nws.stores_per_wall_s", m["nws.stores"] * 1e3 / round_ms);
    }
}

// ---------------------------------------------------------------------------
// flow_storm
// ---------------------------------------------------------------------------

/// `netsim` alone: many concurrent flows admitted at once, then drained.
pub struct FlowStorm {
    p: Platform,
    pairs: Vec<(NodeId, NodeId)>,
}

impl Workload for FlowStorm {
    const NAME: &'static str = "flow_storm";
    const UNIT: &'static str = "flows completed";
    const WARMUP: usize = 3;
    const ROUNDS: usize = 30;

    fn prepare(seed: u64, smoke: bool, tr: &mut Tracer) -> FlowStorm {
        let p = Platform::build(seed, sized(1000, smoke), tr);
        // The flows are the platform's, the same in every run: drawn afresh
        // per seed they moved the step by 10 %, because how far a change
        // ripples depends on which LANs the cross flows tie together. The
        // seed draws the order they are admitted in.
        let mut rng = Rng(PLATFORM_SEED ^ 0x666c_6f77);
        let lans: Vec<&Vec<NodeId>> = p.lans.iter().filter(|l| l.len() >= 2).collect();
        let mut pairs: Vec<(NodeId, NodeId)> = (0..sized(768, smoke))
            .map(|i| {
                let a = lans[rng.below(lans.len())];
                let src = a[rng.below(a.len())];
                // Even flows stay inside their LAN, odd ones cross LANs.
                let b = if i % 2 == 0 {
                    a
                } else {
                    loop {
                        let b = lans[rng.below(lans.len())];
                        if !std::ptr::eq(a, b) {
                            break b;
                        }
                    }
                };
                let dst = loop {
                    let dst = b[rng.below(b.len())];
                    if dst != src {
                        break dst;
                    }
                };
                (src, dst)
            })
            .collect();
        let mut order = Rng(seed ^ 0x666c_6f77);
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, order.below(i + 1));
        }
        FlowStorm { p, pairs }
    }

    fn round(&mut self, tr: &mut Tracer) -> RoundOut {
        let mut sim: Sim = tr.time("harness.reset", || self.p.engine());
        let flows: Vec<FlowId> = tr.step(|tr| {
            let flows: Vec<FlowId> = tr.time("netsim.fairness.admit", || {
                self.pairs
                    .iter()
                    .map(|&(src, dst)| {
                        sim.start_probe_flow(src, dst, Bytes::kib(256)).expect("the flow starts")
                    })
                    .collect()
            });
            tr.time("netsim.fairness.drain", || {
                sim.run_until_flows_done(&flows, TimeDelta::from_secs(36_000.0))
            })
            .expect("every flow drains within the horizon");
            flows
        });

        let unfinished = flows.iter().filter(|f| sim.outcome(**f).is_none()).count();
        let stats = sim.stats();
        let mut out = RoundOut {
            units: flows.len() as f64,
            attempted: flows.len() as u64,
            failed: unfinished as u64,
            ..RoundOut::default()
        };
        if unfinished > 0 {
            out.broken.push(format!("{unfinished} flows did not finish"));
        }
        // One completion per flow plus every queue event.
        let events = stats.flows_started + stats.events_processed;
        out.exact.insert("netsim.fairness.events", events as f64);
        out.exact.insert("netsim.fairness.sim_drain_s", sim.now().as_secs());
        out.exact.insert("netsim.engine.flows_started", stats.flows_started as f64);
        out
    }

    fn derive(&self, m: &mut BTreeMap<&'static str, f64>, round_ms: f64) {
        m.insert("netsim.fairness.events_per_wall_s", m["netsim.fairness.events"] * 1e3 / round_ms);
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// 25 hosts x 10 peers = 250 link series, so that the batteries and the
/// snapshots stay in the core's own cache. What a step does is the same
/// count whatever the series number (10 000 points in, 32 000 queries
/// answered), but how steady it reads is not: run in turns in the same
/// minutes, seven runs each, 5 000 series x 2 points ranged 19 %, 1 000 x 10
/// and 500 x 20 10 %, 250 x 40 6 % (2.8 % between quartiles), because a
/// working set that lives in the shared last-level cache follows the
/// neighbours' memory traffic from minute to minute.
const SERVE_HOSTS: usize = 25;
const SERVE_STEPS: usize = 8;
const PEERS: usize = 10;
const INITIAL_POINTS: usize = 64;
const POINTS_PER_STEP: usize = 40;
/// Batches of `BATCH_KEYS` keys served per step.
const SERVE_BATCHES: usize = 500;

/// `nws::serve` out of the simulator, writes beside reads: every step
/// ingests new points for every series, publishes, then serves batches.
/// The plane lives through the whole run; a round is the same operations
/// on it again, with the same query keys and later timestamps.
pub struct ServeMix {
    seed: u64,
    keys: Vec<SeriesKey>,
    plane: ServingPlane,
    /// Batches served per step.
    batches: usize,
    /// Points ingested per series so far: the next timestamp.
    clock: usize,
    level: Vec<f64>,
    rng: Rng,
}

impl ServeMix {
    /// The next `n` points of every series' random walk.
    fn next_points(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                self.level
                    .iter_mut()
                    .map(|x| {
                        *x += self.rng.unit() * 2.0 - 1.0;
                        *x
                    })
                    .collect()
            })
            .collect()
    }

    fn ingest(&mut self, points: &[Vec<f64>]) {
        for values in points {
            let t = self.clock as f64;
            for (key, v) in self.keys.iter().zip(values) {
                self.plane.ingest_point(key, t, *v);
            }
            self.clock += 1;
        }
    }

    /// The batches of step `step`: 80 % of keys from the hot tenth of the
    /// series, 1 % naming a series that does not exist. The same for a
    /// step in every round.
    fn batches(&self, step: usize) -> Vec<Vec<SeriesKey>> {
        let mut rng = Rng(self.seed ^ 0x7365_7276 ^ ((step as u64) << 32));
        let hot = self.keys.len() / 10;
        (0..self.batches)
            .map(|_| {
                (0..BATCH_KEYS)
                    .map(|_| {
                        let r = rng.below(100);
                        if r == 0 {
                            SeriesKey::link(Resource::Bandwidth, "nobody.grid", "nowhere.grid")
                        } else if r <= 80 {
                            self.keys[rng.below(hot)].clone()
                        } else {
                            self.keys[hot + rng.below(self.keys.len() - hot)].clone()
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const UNIT: &'static str = "queries answered";
    const WARMUP: usize = 10;
    const ROUNDS: usize = 96;

    fn prepare(seed: u64, smoke: bool, tr: &mut Tracer) -> ServeMix {
        // Each host needs `PEERS` others, so a smoke run keeps the hosts
        // and quarters the batches.
        let hosts = SERVE_HOSTS;
        let keys: Vec<SeriesKey> = (0..hosts)
            .flat_map(|h| {
                (1..=PEERS).map(move |j| {
                    SeriesKey::link(
                        Resource::Bandwidth,
                        &format!("h{h}.grid"),
                        &format!("h{}.grid", (h + j) % hosts),
                    )
                })
            })
            .collect();
        let mut rng = Rng(seed ^ 0x7761_6c6b);
        let level = keys.iter().map(|_| 80.0 + rng.unit() * 20.0).collect();
        let mut w = ServeMix {
            seed,
            keys,
            plane: ServingPlane::new(ShardMap::hashed(4)),
            batches: sized(SERVE_BATCHES, smoke),
            clock: 0,
            level,
            rng,
        };
        let points = w.next_points(INITIAL_POINTS);
        let build = tr.enter("nws.serve.build");
        w.ingest(&points);
        w.plane.publish(1);
        tr.exit(build);
        w
    }

    fn round(&mut self, tr: &mut Tracer) -> RoundOut {
        let before = self.plane.metrics();
        let mut out = RoundOut::default();
        let mut unknown_answered = 0u64;
        for step in 0..SERVE_STEPS {
            let reset = tr.enter("harness.reset");
            let points = self.next_points(POINTS_PER_STEP);
            let batches = self.batches(step);
            tr.exit(reset);
            let answers = tr.step(|tr| {
                tr.time("nws.serve.ingest", || self.ingest(&points));
                tr.time("nws.serve.publish", || self.plane.publish(1));
                tr.time("nws.serve.serve", || self.plane.serve_batches(&batches, 1))
            });
            for (key, forecast) in answers.iter().flatten() {
                out.attempted += 1;
                let known = key.src != "nobody.grid";
                if known {
                    out.units += 1.0;
                    out.failed += u64::from(forecast.is_none());
                } else {
                    unknown_answered += u64::from(forecast.is_some());
                }
            }
        }
        if out.failed > 0 {
            out.broken.push(format!("{} queried known keys were answered None", out.failed));
        }
        if unknown_answered > 0 {
            out.broken.push(format!("{unknown_answered} unknown keys were answered"));
        }
        let after = self.plane.metrics();
        let largest = after.per_shard_series.iter().copied().max().unwrap_or(0) as f64;
        let x = &mut out.exact;
        x.insert("nws.serve.stale_served", (after.stale_served - before.stale_served) as f64);
        x.insert("nws.serve.misses", (after.misses - before.misses) as f64);
        x.insert("nws.serve.epoch_lag", after.snapshot_epoch_lag as f64);
        x.insert("nws.shard.imbalance", largest * after.shards as f64 / after.series as f64);
        out
    }

    fn derive(&self, m: &mut BTreeMap<&'static str, f64>, _round_ms: f64) {
        // Per round: every series gets the step's points in every step, and
        // every batch key is one query.
        let points = (self.keys.len() * POINTS_PER_STEP * SERVE_STEPS) as f64;
        let queries = (self.batches * BATCH_KEYS * SERVE_STEPS) as f64;
        m.insert("nws.serve.ingest_us_per_point", m["nws.serve.ingest_ms"] * 1e3 / points);
        m.insert("nws.serve.us_per_query", m["nws.serve.serve_ms"] * 1e3 / queries);
    }
}
