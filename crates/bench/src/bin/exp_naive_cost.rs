//! E3 — the naive-mapping cost model of paper §4.3: "This naive algorithm
//! would not scale at all ... the whole process would last about 50 days
//! for 20 hosts", versus what ENV actually spends.
//!
//! Run: `cargo run -p nws-bench --bin exp_naive_cost`

use envmap::cost::{env_experiments_for_cluster, naive_cost};
use envmap::refine::JAM_REPEATS;
use envmap::{EnvConfig, EnvMapper, HostInput};
use netsim::scenarios::star_hub;
use netsim::units::Bandwidth;
use netsim::Sim;
use nws_bench::{f, Table};

fn main() {
    println!("=== E3: naive full-mesh mapping cost (paper §4.3, 30 s per experiment) ===\n");
    let mut t = Table::new(&[
        "hosts",
        "directed links",
        "interference tests",
        "total experiments",
        "duration (days)",
    ]);
    for n in [5usize, 10, 15, 20, 30, 40] {
        let c = naive_cost(n, 30.0);
        t.row(vec![
            n.to_string(),
            c.links.to_string(),
            c.interference_tests.to_string(),
            c.total_experiments().to_string(),
            f(c.days(), 1),
        ]);
    }
    t.print();

    let c20 = naive_cost(20, 30.0);
    println!(
        "\npaper claim \"about 50 days for 20 hosts\": {:.1} days → {}",
        c20.days(),
        if (c20.days() - 50.0).abs() < 1.5 { "REPRODUCED" } else { "NOT REPRODUCED" }
    );

    println!("\n=== ENV's cost on the same single-cluster platforms (model + measured) ===\n");
    let mut t = Table::new(&[
        "hosts",
        "ENV experiments (model)",
        "ENV experiments (measured)",
        "naive/ENV ratio",
        "ENV sim-time (s)",
    ]);
    for n in [5usize, 10, 15, 20] {
        // Model: n-1 slaves in one cluster plus a traceroute per host.
        let model = env_experiments_for_cluster((n - 1) as u64, JAM_REPEATS as u64) + n as u64;
        // Measured: actually run the mapper on an n-host hub.
        let net = star_hub(n, Bandwidth::mbps(100.0));
        let hostnames: Vec<HostInput> = net
            .hosts
            .iter()
            .map(|h| HostInput::new(net.topo.node(*h).ifaces[0].name.as_deref().unwrap()))
            .collect();
        let master = hostnames[0].0.clone();
        let mut eng = Sim::new(net.topo);
        let run = EnvMapper::new(EnvConfig::fast())
            .map(&mut eng, &hostnames, &master, None)
            .expect("mapping succeeds");
        let measured = run.stats.total_experiments();
        let naive = naive_cost(n, 30.0).total_experiments();
        t.row(vec![
            n.to_string(),
            model.to_string(),
            measured.to_string(),
            f(naive as f64 / measured as f64, 0),
            f(run.stats.mapping_seconds, 1),
        ]);
    }
    t.print();

    println!(
        "\nENV's quadratic probe count vs the naive quartic one is why \"ENV does not\n\
         try to completely map the network, but only focuses on a view of the network\n\
         from a given point of view\" (§4.3)."
    );
}
