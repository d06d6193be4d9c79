//! Failure injection across the stack: dead sensors (token loss and
//! regeneration, §2.3's "mechanisms to handle network errors and leader
//! elections"), dead gateways, and link failures with rerouting.

use envdeploy::{apply_plan_with, plan_deployment, PlannerConfig};
use envmap::{merge_runs, EnvConfig, EnvMapper, HostInput};
use gridml::merge::GatewayAlias;
use netsim::prelude::*;
use netsim::scenarios::{
    dumbbell, ens_lyon, star_switch, Calibration, ENS_LYON_GATEWAYS, ENS_LYON_OUTSIDE,
};
use netsim::Engine;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec, Resource, SeriesKey};

#[test]
fn clique_survives_multiple_sensor_deaths() {
    let net = star_switch(5, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.watchdog = TimeDelta::from_secs(15.0);
    let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    sys.run_for(&mut eng, TimeDelta::from_secs(60.0));

    // Kill two of five sensors, one after the other.
    eng.kill_process(sys.sensors[&names[1]]);
    sys.run_for(&mut eng, TimeDelta::from_secs(120.0));
    let mid = sys.total_stores();
    eng.kill_process(sys.sensors[&names[3]]);
    sys.run_for(&mut eng, TimeDelta::from_secs(180.0));
    let end = sys.total_stores();
    assert!(end > mid + 10, "survivors must keep measuring after two deaths: {mid} → {end}");
    // Surviving pairs still get fresh measurements.
    let key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[2]);
    let series = sys.series(&key).unwrap();
    let last_t = series.last().unwrap().0;
    assert!(last_t > eng.now().as_secs() - 120.0, "stale series after failures");
}

#[test]
fn host_locking_tolerates_dead_targets() {
    // With the §6 locks on, probing a dead peer's sensor must not wedge
    // the ring: the lock request times out and the peer is skipped.
    let net = star_switch(4, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.host_locking = true;
    spec.watchdog = TimeDelta::from_secs(15.0);
    let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    sys.run_for(&mut eng, TimeDelta::from_secs(60.0));
    eng.kill_process(sys.sensors[&names[2]]);
    let before = sys.total_stores();
    sys.run_for(&mut eng, TimeDelta::from_secs(240.0));
    assert!(sys.total_stores() > before + 10, "ring must keep moving past the dead locked peer");
}

#[test]
fn link_failure_reroutes_after_recompute() {
    // A dumbbell with a second, slower path: drop the main bottleneck and
    // verify new probes take the backup (and see its lower rate).
    let mut b = TopologyBuilder::new();
    let a = b.host("a.x", "10.0.0.1");
    let c = b.host("c.x", "10.0.0.2");
    let r1 = b.router("r1.x", "10.0.1.1");
    let r2 = b.router("r2.x", "10.0.1.2");
    b.link(a, r1, Bandwidth::mbps(100.0), Latency::micros(50.0));
    b.link(r2, c, Bandwidth::mbps(100.0), Latency::micros(50.0));
    let main = b.link(r1, r2, Bandwidth::mbps(100.0), Latency::micros(50.0));
    let backup = b.link(r1, r2, Bandwidth::mbps(10.0), Latency::millis(1.0));
    b.set_weights(backup, 5.0, 5.0); // backup only used when main is down
    let mut eng: Engine<NwsMsg> = Engine::new(b.build().unwrap());

    let before = eng.measure_bandwidth(a, c, Bytes::mib(1)).unwrap();
    assert!(before.as_mbps() > 90.0);

    eng.topo_mut().set_link_up(main, false);
    eng.recompute_routes();
    let after = eng.measure_bandwidth(a, c, Bytes::mib(1)).unwrap();
    assert!((after.as_mbps() - 10.0).abs() < 0.5, "got {after}");

    // And back up again.
    eng.topo_mut().set_link_up(main, true);
    eng.recompute_routes();
    let restored = eng.measure_bandwidth(a, c, Bytes::mib(1)).unwrap();
    assert!(restored.as_mbps() > 90.0);
}

#[test]
fn partitioned_cluster_mapping_degrades_gracefully() {
    // Cut the dumbbell's waist before mapping: the far side is
    // unreachable, ENV still maps the near side and reports the far hosts
    // as unreachable singletons instead of failing.
    let net = dumbbell(3, 3, Bandwidth::mbps(10.0));
    let mut topo = net.topo.clone();
    let waist = topo
        .links()
        .find(|l| {
            let a = topo.node(l.a).label.clone();
            let b = topo.node(l.b).label.clone();
            a.starts_with("gw") && b.starts_with("gw")
        })
        .map(|l| l.id)
        .expect("waist link");
    topo.set_link_up(waist, false);
    let mut eng = netsim::Sim::new(topo);

    let inputs: Vec<HostInput> = net
        .hosts
        .iter()
        .map(|h| HostInput::new(net.topo.node(*h).ifaces[0].name.as_deref().unwrap()))
        .collect();
    let master = inputs[0].0.clone();
    let run = EnvMapper::new(EnvConfig::fast())
        .map(&mut eng, &inputs, &master, None)
        .expect("mapping still succeeds");
    // Near-side hosts form a network; far-side hosts appear with zero
    // bandwidth (unreachable singletons).
    let near = run.view.find_containing("l1.dumb.net").expect("near cluster");
    assert!(near.hosts.len() >= 2);
    let far = run.view.find_containing("r0.dumb.net").expect("far host present");
    assert_eq!(far.base_bw_mbps, 0.0, "unreachable host has no bandwidth");
}

#[test]
fn deployed_system_survives_gateway_sensor_death() {
    // Kill the sci0 gateway's sensor on the deployed ENS-Lyon system: its
    // cliques (sci + hub2-adjacent) recover; other cliques unaffected.
    let platform = ens_lyon(Calibration::Paper);
    let mut eng: Engine<NwsMsg> = Engine::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside_hosts = ENS_LYON_OUTSIDE.map(HostInput::new);
    // Six of `ENS_LYON_INSIDE`'s eleven hosts (no myri cluster, three sci
    // nodes): enough for the sci clique the dead sensor belongs to.
    let inside_hosts: Vec<HostInput> = [
        "popc0.popc.private",
        "myri0.popc.private",
        "sci0.popc.private",
        "sci1.popc.private",
        "sci2.popc.private",
        "sci3.popc.private",
    ]
    .iter()
    .map(|s| HostInput::new(s))
    .collect();
    let outside = mapper
        .map(&mut eng, &outside_hosts, "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .unwrap();
    let inside = mapper.map(&mut eng, &inside_hosts, "sci0.popc.private", None).unwrap();
    let merged = merge_runs(
        &outside,
        &inside,
        &ENS_LYON_GATEWAYS.map(|(public, private)| GatewayAlias::new(public, private)),
    );
    let plan = plan_deployment(&merged, &PlannerConfig::default());
    let sys = apply_plan_with(&mut eng, &plan, false).unwrap();
    sys.run_for(&mut eng, TimeDelta::from_secs(120.0));

    eng.kill_process(sys.sensors["sci0.popc.private"]);
    let before = sys.total_stores();
    sys.run_for(&mut eng, TimeDelta::from_secs(240.0));
    let after = sys.total_stores();
    assert!(after > before + 20, "system stalls after gateway death: {before} → {after}");

    // The hub1 clique (far from sci0) keeps its cadence.
    let key =
        SeriesKey::link(Resource::Bandwidth, "canaria.ens-lyon.fr", "moby.cri2000.ens-lyon.fr");
    let series = sys.series(&key).unwrap();
    assert!(series.last().unwrap().0 > eng.now().as_secs() - 60.0);
}
