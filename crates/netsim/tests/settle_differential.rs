//! Differential test of the engine's once-per-instant re-level: rates are
//! recomputed when the clock is about to move, not at every flow start, and
//! that must be invisible. Two engines run one schedule; the eager one calls
//! `run_until(now)` after every single start, which forces the re-level the
//! engine used to do there. Every drain and ack instant, the event count and
//! the final clock must agree to the bit.
//!
//! One corner is exempt and pinned by its own test at the end of this file: a
//! flow whose rate leaves and returns to the same bits inside one instant.
//! Counted once over 4 000 random schedules of the kind below, one in 18
//! reached it and one in 800 ended with some instant an ulp or two apart.
//! The proptest shim seeds each case from the test's name and the case
//! number, so the cases here are fixed, and none of them is one of those.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::fairness::FairnessModel;
use netsim::prelude::*;
use netsim::synth::{synth, SynthFamily};
use netsim::topology::LinkMode;
use proptest::prelude::*;

/// Something a pending re-level depends on, changed in the middle of a burst.
#[derive(Debug, Clone, Copy)]
enum Tweak {
    /// `set_fairness_model` to the model not in force.
    Model,
    /// Scale the capacity of a host's port (or of its hub) by `eighths / 8`
    /// through `topo_mut`, then `recompute_routes`.
    Capacity { host: usize, eighths: u32 },
}

/// Starts at one instant, `gap_ms` after the previous burst (earlier flows
/// are still draining), with an optional tweak after start number `at`.
#[derive(Debug, Clone)]
struct Burst {
    gap_ms: f64,
    /// `(src pick, dst pick, KiB)`.
    starts: Vec<(usize, usize, u64)>,
    tweak: Option<(usize, Tweak)>,
}

fn tweak() -> impl Strategy<Value = Tweak> {
    prop_oneof![
        Just(Tweak::Model),
        (0usize..64, 0usize..3)
            .prop_map(|(host, f)| Tweak::Capacity { host, eighths: [2, 4, 16][f] }),
    ]
}

fn bursts() -> impl Strategy<Value = Vec<Burst>> {
    let burst = (
        0.0f64..40.0,
        collection::vec((0usize..64, 0usize..64, 16u64..512), 1..13),
        proptest::option::of((0usize..12, tweak())),
    )
        .prop_map(|(gap_ms, starts, tweak)| Burst { gap_ms, starts, tweak });
    collection::vec(burst, 1..6)
}

fn apply(sim: &mut Sim, hosts: &[NodeId], tweak: Tweak, model: &mut FairnessModel) {
    match tweak {
        Tweak::Model => {
            *model = match *model {
                FairnessModel::MaxMin => FairnessModel::BottleneckEqualShare,
                FairnessModel::BottleneckEqualShare => FairnessModel::MaxMin,
            };
            sim.set_fairness_model(*model);
        }
        Tweak::Capacity { host, eighths } => {
            let (port, _) = sim.topo().neighbours(hosts[host % hosts.len()])[0];
            let factor = f64::from(eighths) / 8.0;
            let topo = sim.topo_mut();
            match &mut topo.link_mut(port).mode {
                LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                    *capacity_ab = capacity_ab.scaled(factor);
                    *capacity_ba = capacity_ba.scaled(factor);
                }
                LinkMode::Shared { medium } => {
                    let medium = *medium;
                    let m = topo.medium_mut(medium);
                    m.capacity = m.capacity.scaled(factor);
                }
            }
            sim.recompute_routes();
        }
    }
}

/// What a run leaves behind: per flow `(drained, acked)`, then
/// `events_processed` and the final clock — floats as their bits.
type Trace = (Vec<(u64, u64)>, u64, u64);

fn drive(topo: &Topology, hosts: &[NodeId], schedule: &[Burst], eager: bool) -> Trace {
    let mut sim = Sim::new(topo.clone());
    let mut model = FairnessModel::MaxMin;
    let mut flows = Vec::new();
    for burst in schedule {
        sim.run_until(sim.now() + TimeDelta::from_millis(burst.gap_ms));
        for (i, &(s, d, kib)) in burst.starts.iter().enumerate() {
            let (src, dst) = (hosts[s % hosts.len()], hosts[d % hosts.len()]);
            // src == dst is refused and changes nothing — so a tweak after
            // it is followed by no flow-set change at all.
            if let Ok(id) = sim.start_probe_flow(src, dst, Bytes::kib(kib)) {
                flows.push(id);
            }
            if eager {
                sim.run_until(sim.now());
            }
            if let Some((at, tweak)) = burst.tweak {
                if at % burst.starts.len() == i {
                    apply(&mut sim, hosts, tweak, &mut model);
                }
            }
        }
    }
    sim.run_until_flows_done(&flows, TimeDelta::from_secs(36_000.0)).expect("every flow drains");
    let outcomes = flows
        .iter()
        .map(|f| {
            let o = sim.outcome(*f).expect("done flows have outcomes");
            (o.drained.as_secs().to_bits(), o.acked.as_secs().to_bits())
        })
        .collect();
    (outcomes, sim.stats().events_processed, sim.now().as_secs().to_bits())
}

fn assert_deferred_is_eager(
    topo: &Topology,
    hosts: &[NodeId],
    schedule: &[Burst],
) -> Result<(), String> {
    let (deferred, d_events, d_now) = drive(topo, hosts, schedule, false);
    let (eager, e_events, e_now) = drive(topo, hosts, schedule, true);
    prop_assert_eq!(deferred.len(), eager.len());
    for (i, (d, e)) in deferred.iter().zip(&eager).enumerate() {
        prop_assert!(
            d == e,
            "flow {i}: drained {:e} vs {:e}, acked {:e} vs {:e}",
            f64::from_bits(d.0),
            f64::from_bits(e.0),
            f64::from_bits(d.1),
            f64::from_bits(e.1)
        );
    }
    prop_assert_eq!(d_events, e_events);
    prop_assert_eq!(d_now, e_now);
    Ok(())
}

/// One hub and one switch behind a router, `n_each` hosts on each.
fn mixed_net(n_each: usize, rate: f64) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let hub = b.hub("hub", Bandwidth::mbps(rate), Latency::micros(10.0));
    let sw = b.switch("sw", Bandwidth::mbps(rate), Latency::micros(10.0));
    let r = b.router("r.x", "10.9.0.1");
    b.attach(r, hub);
    b.attach(r, sw);
    let mut hosts = Vec::new();
    for (lan, dev) in [(1, hub), (2, sw)] {
        for i in 0..n_each {
            let h = b.host(&format!("h{lan}-{i}.x"), &format!("10.{lan}.0.{}", i + 1));
            b.attach(h, dev);
            hosts.push(h);
        }
    }
    (b.build().unwrap(), hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deferred_relevel_matches_eager_on_mixed_lans(
        n_each in 2usize..7,
        rate in 10.0f64..500.0,
        schedule in bursts(),
    ) {
        let (topo, hosts) = mixed_net(n_each, rate);
        assert_deferred_is_eager(&topo, &hosts, &schedule)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn deferred_relevel_matches_eager_on_a_campus(
        seed in 0u64..1000,
        schedule in bursts(),
    ) {
        let net = synth(SynthFamily::Campus, seed, 240).net;
        assert_deferred_is_eager(&net.topo, &net.hosts, &schedule)?;
    }
}

/// Starts `dsts.len()` flows in one callback and records how each ended.
struct Fan {
    dsts: Vec<NodeId>,
    seen: Rc<RefCell<Vec<(u64, u64, u64)>>>,
}

impl Process<NoMsg> for Fan {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NoMsg>) {
        for (tag, dst) in self.dsts.iter().enumerate() {
            ctx.start_flow(*dst, Bytes::kib(96 + 32 * tag as u64), tag as u64).unwrap();
        }
    }

    fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_, NoMsg>, o: &FlowOutcome) {
        self.seen.borrow_mut().push((
            o.tag,
            o.drained.as_secs().to_bits(),
            o.acked.as_secs().to_bits(),
        ));
    }
}

#[test]
fn flows_started_in_one_callback_drain_like_eagerly_settled_probes() {
    let (topo, hosts) = mixed_net(5, 100.0);
    let (src, dsts) = (hosts[1], vec![hosts[0], hosts[7], hosts[3], hosts[9], hosts[7], hosts[2]]);

    let mut owned: Sim = Sim::new(topo.clone());
    let seen = Rc::new(RefCell::new(Vec::new()));
    owned.add_process(src, Box::new(Fan { dsts: dsts.clone(), seen: seen.clone() }));
    owned.run_until_quiescent(TimeDelta::from_secs(600.0)).unwrap();
    let mut seen = seen.borrow().clone();
    seen.sort_unstable();

    let mut probes = Sim::new(topo);
    let flows: Vec<FlowId> = dsts
        .iter()
        .enumerate()
        .map(|(tag, dst)| {
            let f = probes.start_probe_flow(src, *dst, Bytes::kib(96 + 32 * tag as u64)).unwrap();
            probes.run_until(probes.now());
            f
        })
        .collect();
    probes.run_until_flows_done(&flows, TimeDelta::from_secs(600.0)).unwrap();
    let want: Vec<(u64, u64, u64)> = flows
        .iter()
        .enumerate()
        .map(|(tag, f)| {
            let o = probes.outcome(*f).unwrap();
            (tag as u64, o.drained.as_secs().to_bits(), o.acked.as_secs().to_bits())
        })
        .collect();
    assert_eq!(seen, want);
}

#[test]
fn a_burst_of_starts_is_one_relevel() {
    let (topo, hosts) = mixed_net(6, 100.0);
    let mut sim = Sim::new(topo);
    for i in 0..10 {
        sim.start_probe_flow(hosts[i], hosts[(i + 5) % 12], Bytes::mib(1)).unwrap();
    }
    assert_eq!(sim.active_flow_count(), 10);
    assert_eq!(sim.completion_heap_len(), 0, "no start re-levels on its own");
    sim.run_until(sim.now());
    assert_eq!(sim.completion_heap_len(), 10, "one projection per flow, none superseded");
}

/// The one place the two engines may part. `x` and `y` share a 100 Mbps
/// trunk at 50 each. At one instant `a` starts towards `x`'s 80 Mbps sink
/// (alone it would take 40 of it and push `x` down to 40), and a second
/// flow joins `a` on its 60 Mbps port (holding it to 30, so `x` is back on
/// the trunk at 50 — the same bits, every value here being a whole number
/// of bytes a second). Settled eagerly, `x` is re-materialised and
/// re-projected at that instant, twice; settled once, its rate never
/// moved and it keeps the projection it had. Both name the same real
/// instant, through different roundings. Returns when `x` and `y` drained.
fn leave_and_return(eager: bool) -> [f64; 2] {
    let mut b = TopologyBuilder::new();
    let r1 = b.router("r1.x", "10.0.1.1");
    let r2 = b.router("r2.x", "10.0.1.2");
    let mut host = |name: &str, ip: &str, at, mbps| {
        let h = b.host(name, ip);
        b.link(h, at, Bandwidth::mbps(mbps), Latency::micros(20.0));
        h
    };
    let x = host("x.x", "10.0.0.1", r1, 1000.0);
    let y = host("y.x", "10.0.0.2", r1, 1000.0);
    let a = host("a.x", "10.0.0.3", r2, 60.0);
    let x_sink = host("d1.x", "10.0.0.4", r2, 80.0);
    let y_sink = host("d2.x", "10.0.0.5", r2, 1000.0);
    let b_sink = host("d3.x", "10.0.0.6", r2, 1000.0);
    b.link(r1, r2, Bandwidth::mbps(100.0), Latency::micros(20.0));
    let mut sim = Sim::new(b.build().unwrap());
    let start = |sim: &mut Sim, src, dst, kib| {
        let f = sim.start_probe_flow(src, dst, Bytes::kib(kib)).unwrap();
        if eager {
            sim.run_until(sim.now());
        }
        f
    };
    let fx = start(&mut sim, x, x_sink, 1024);
    let fy = start(&mut sim, y, y_sink, 2048);
    sim.run_until(SimTime::from_secs(0.04056));
    let fa = start(&mut sim, a, x_sink, 64);
    let fb = start(&mut sim, a, b_sink, 64);
    sim.run_until_flows_done(&[fx, fy, fa, fb], TimeDelta::from_secs(60.0)).unwrap();
    [fx, fy].map(|f| sim.outcome(f).unwrap().drained.as_secs())
}

#[test]
fn a_rate_that_leaves_and_returns_within_an_instant_keeps_its_projection() {
    let (deferred, eager) = (leave_and_return(false), leave_and_return(true));
    for (d, e) in deferred.iter().zip(&eager) {
        assert!(d.to_bits().abs_diff(e.to_bits()) <= 1, "{d:e} vs {e:e}: more than an ulp apart");
    }
    // Not a tolerance: if the two ever agree here, the corner is gone and
    // this test with it.
    assert_ne!(deferred.map(f64::to_bits), eager.map(f64::to_bits));
}
