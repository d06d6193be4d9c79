//! Scaling smoke tests: the whole pipeline on platforms larger than the
//! paper's LAN — the "WAN constellation of LAN resources" Grids of §5.

use envdeploy::{apply_plan_with, plan_deployment, validate_plan, PlannerConfig};
use envmap::{EnvConfig, EnvMapper, HostInput};
use netsim::prelude::*;
use netsim::scenarios::{grid_constellation, random_campus, CampusParams};
use netsim::Engine;
use nws::NwsMsg;

fn inputs_for(net: &netsim::scenarios::GeneratedNet) -> Vec<HostInput> {
    net.hosts
        .iter()
        .map(|h| HostInput::new(net.topo.node(*h).ifaces[0].name.as_deref().unwrap()))
        .collect()
}

#[test]
fn large_campus_maps_plans_and_validates_complete() {
    let params = CampusParams {
        lans: 8,
        hosts_per_lan: (4, 8),
        hub_fraction: 0.5,
        lan_rates_mbps: vec![100.0],
        backbone_mbps: 1000.0,
    };
    let (gen, truth) = random_campus(99, &params);
    assert!(gen.hosts.len() >= 30, "platform should be sizeable");

    let inputs = inputs_for(&gen);
    let master = inputs[0].0.clone();
    let mut eng = netsim::Sim::new(gen.topo.clone());
    let run = EnvMapper::new(EnvConfig::fast())
        .map(&mut eng, &inputs, &master, Some("well-known.example.org"))
        .expect("mapping succeeds at scale");

    // Every multi-host LAN recovered as one cluster.
    for (members, _is_hub, _) in &truth.lans {
        let names: Vec<String> = members
            .iter()
            .filter(|n| **n != gen.master)
            .map(|n| gen.topo.node(*n).ifaces[0].name.clone().unwrap())
            .collect();
        if names.len() < 2 {
            continue;
        }
        let net = run
            .view
            .find_containing(&names[0])
            .unwrap_or_else(|| panic!("no cluster contains {}", names[0]));
        for n in &names {
            assert!(net.hosts.contains(n), "{n} not clustered with its LAN");
        }
    }

    let plan = plan_deployment(&run.view, &PlannerConfig::default());
    let report = validate_plan(&plan, &run.view, &gen.topo);
    assert!(report.complete, "{}", report.render());
    assert!(
        report.intrusiveness() < 0.35,
        "large platforms must stay cheap: {:.2}",
        report.intrusiveness()
    );
}

#[test]
fn constellation_deploys_and_operates() {
    let params = CampusParams {
        lans: 2,
        hosts_per_lan: (2, 4),
        hub_fraction: 0.5,
        lan_rates_mbps: vec![100.0],
        backbone_mbps: 1000.0,
    };
    let gen = grid_constellation(23, 3, &params);
    let inputs = inputs_for(&gen);
    let master = inputs[0].0.clone();
    let mut eng: Engine<NwsMsg> = Engine::new(gen.topo.clone());
    let run = EnvMapper::new(EnvConfig::fast())
        .map(&mut eng, &inputs, &master, Some("well-known.example.org"))
        .expect("constellation maps");

    let cfg = PlannerConfig { memory_per_top_network: true };
    let plan = plan_deployment(&run.view, &cfg);
    let sys = apply_plan_with(&mut eng, &plan, true).expect("constellation deploys");
    sys.run_for(&mut eng, TimeDelta::from_secs(300.0));

    // Every clique produced measurements.
    assert!(sys.total_stores() > plan.cliques.len() as u64 * 4);
    // Stores landed on more than one memory (hierarchical placement).
    let populated = sys.memories.values().filter(|(_, h)| h.borrow().stores > 0).count();
    assert!(populated >= 2, "expected multiple active memories, got {populated}");
}

#[test]
fn mapping_cost_grows_subquadratically_in_probes_per_host() {
    // Experiments per host should stay near-linear for clustered platforms
    // (the hierarchy is what saves ENV from the naive quartic cost).
    let count_for = |lans: usize| -> (u64, usize) {
        let params = CampusParams {
            lans,
            hosts_per_lan: (3, 3),
            hub_fraction: 1.0,
            lan_rates_mbps: vec![100.0],
            backbone_mbps: 1000.0,
        };
        let (gen, _) = random_campus(5, &params);
        let inputs = inputs_for(&gen);
        let master = inputs[0].0.clone();
        let mut eng = netsim::Sim::new(gen.topo.clone());
        let run = EnvMapper::new(EnvConfig::fast())
            .map(&mut eng, &inputs, &master, Some("well-known.example.org"))
            .unwrap();
        (run.stats.total_experiments(), gen.hosts.len())
    };
    let (e_small, n_small) = count_for(2);
    let (e_big, n_big) = count_for(8);
    let per_host_small = e_small as f64 / n_small as f64;
    let per_host_big = e_big as f64 / n_big as f64;
    assert!(
        per_host_big < per_host_small * 2.0,
        "probes/host should not blow up: {per_host_small:.1} → {per_host_big:.1}"
    );
}
