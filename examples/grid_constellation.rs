//! A Grid-scale scenario: "Most common Grid testbeds are constituted of
//! several organizations inter-connected by a wide area network ... The
//! resulting platform is a WAN constellation of LAN resources" (paper §5).
//!
//! Maps a three-site constellation, plans a hierarchical deployment (one
//! memory per top-level network), deploys it and reports the monitoring
//! coverage.
//!
//! Run: `cargo run --example grid_constellation`

use envdeploy::{apply_plan_with, plan_deployment, validate_plan, PlannerConfig};
use envmap::{EnvConfig, EnvMapper, HostInput};
use netsim::prelude::*;
use netsim::scenarios::{grid_constellation, CampusParams};
use netsim::Engine;
use nws::NwsMsg;

fn main() {
    let params = CampusParams {
        lans: 2,
        hosts_per_lan: (3, 4),
        hub_fraction: 0.5,
        lan_rates_mbps: vec![100.0],
        backbone_mbps: 1000.0,
    };
    let net = grid_constellation(17, 3, &params);
    println!(
        "constellation: {} hosts, {} nodes, {} links",
        net.hosts.len(),
        net.topo.node_count(),
        net.topo.link_count()
    );

    let mut eng: Engine<NwsMsg> = Engine::new(net.topo.clone());
    let inputs: Vec<HostInput> = net
        .hosts
        .iter()
        .map(|h| HostInput::new(net.topo.node(*h).ifaces[0].name.as_deref().unwrap()))
        .collect();
    let master = inputs[0].0.clone();

    let run = EnvMapper::new(EnvConfig::fast())
        .map(&mut eng, &inputs, &master, Some("well-known.example.org"))
        .expect("mapping succeeds");
    println!(
        "\nENV from {master}: {} networks discovered with {} experiments in {:.0} simulated s",
        run.view.network_count(),
        run.stats.total_experiments(),
        run.stats.mapping_seconds
    );
    println!("{}", run.view.render());

    // Hierarchical deployment: one memory server per top-level network.
    let cfg = PlannerConfig { memory_per_top_network: true };
    let plan = plan_deployment(&run.view, &cfg);
    println!("{}", plan.render());

    let report = validate_plan(&plan, &run.view, &net.topo);
    println!("{}", report.render());

    let sys = apply_plan_with(&mut eng, &plan, true).expect("deployment succeeds");
    sys.run_for(&mut eng, TimeDelta::from_secs(300.0));
    println!(
        "after 300 simulated seconds: {} measurements across {} series on {} memory servers",
        sys.total_stores(),
        sys.series_keys().len(),
        sys.memories.len()
    );
}
