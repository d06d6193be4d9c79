//! The whole reproduction at a glance: every paper checkpoint evaluated
//! programmatically, one PASS/FAIL row each (the individual `fig_*`/`exp_*`
//! binaries show the full tables behind each row; DESIGN.md §3 says which
//! rows stand for which binary).
//!
//! Run: `cargo run --release -p nws-bench --bin repro_summary`

use envdeploy::{apply_plan_with, plan_deployment, validate_plan, CliqueRole, PlannerConfig};
use envmap::cost::naive_cost;
use envmap::NetKind;
use netsim::prelude::*;
use netsim::scenarios::{asym_pair, star_hub};
use netsim::Engine;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec, Resource, SensorMode, SensorSpec, SeriesKey};
use nws_bench::{map_ens_lyon, Table};

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn main() {
    let mut checks: Vec<Check> = Vec::new();
    let mut check = |name: &'static str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "PASS" } else { "FAIL" });
        checks.push(Check { name, pass, detail });
    };

    println!("running the full pipeline on ENS-Lyon...\n");
    let m = map_ens_lyon();

    // --- Figure 2 ----------------------------------------------------------
    check(
        "F2 structural root is 192.168.254.1",
        m.outside.structural.key == "192.168.254.1",
        format!("root = {}", m.outside.structural.key),
    );
    let c13 = m
        .outside
        .structural
        .children
        .iter()
        .find(|c| c.key == "140.77.13.1")
        .map(|c| c.hosts.len())
        .unwrap_or(0);
    check("F2 three hosts under 140.77.13.1", c13 == 3, format!("{c13} hosts"));

    // --- Figure 1(b) --------------------------------------------------------
    check(
        "F1b four effective networks",
        m.merged.network_count() == 4,
        format!("{} networks", m.merged.network_count()),
    );
    let hub2 = m.merged.find_containing("popc0.popc.private");
    check(
        "F1b Hub2 shared at ~10 Mbps",
        hub2.map(|n| n.kind == NetKind::Shared && (n.base_bw_mbps - 10.0).abs() < 1.0)
            .unwrap_or(false),
        hub2.map(|n| format!("{} @ {:.2} Mbps", n.kind, n.base_bw_mbps)).unwrap_or_default(),
    );
    let sci = m.merged.find_containing("sci1.popc.private");
    check(
        "F1b sci switched at ~32.65 Mbps",
        sci.map(|n| n.kind == NetKind::Switched && (n.base_bw_mbps - 32.65).abs() < 2.0)
            .unwrap_or(false),
        sci.map(|n| format!("{} @ {:.2} Mbps", n.kind, n.base_bw_mbps)).unwrap_or_default(),
    );
    let hub3 = m.merged.find_containing("myri1.popc.private");
    check(
        "F1b Hub3 behind myri0, local >> base",
        hub3.map(|n| {
            n.via.as_deref() == Some("myri0.popc.private")
                && n.local_bw_mbps.unwrap_or(0.0) > 5.0 * n.base_bw_mbps
        })
        .unwrap_or(false),
        hub3.map(|n| {
            format!("local {:.1} vs base {:.1}", n.local_bw_mbps.unwrap_or(0.0), n.base_bw_mbps)
        })
        .unwrap_or_default(),
    );

    // --- Figure 3 -----------------------------------------------------------
    let plan = plan_deployment(&m.merged, &PlannerConfig::default());
    check("F3 five cliques", plan.cliques.len() == 5, format!("{}", plan.cliques.len()));
    check(
        "F3 sci clique has all seven machines",
        plan.cliques.iter().any(|c| c.role == CliqueRole::SwitchedLocal && c.members.len() == 7),
        String::new(),
    );
    let report = validate_plan(&plan, &m.merged, &m.platform.topo);
    check("§2.3 completeness", report.complete, format!("{} pairs", report.full_mesh_pairs));
    check(
        "§2.3 intrusiveness < 50%",
        report.intrusiveness() < 0.5,
        format!("{:.0}%", 100.0 * report.intrusiveness()),
    );
    check(
        "§6 overlaps present (paper's admitted flaw)",
        !report.strictly_collision_free(),
        format!("{} overlapping clique pairs", report.colliding_clique_pairs.len()),
    );

    // --- E1 collisions --------------------------------------------------------
    let (free_bw, clique_bw) = collision_case();
    check(
        "E1 free-running halves (~50 Mbps)",
        (free_bw - 50.0).abs() < 10.0,
        format!("{free_bw:.1} Mbps"),
    );
    check(
        "E1 cliques restore accuracy (>85 Mbps)",
        clique_bw > 85.0,
        format!("{clique_bw:.1} Mbps"),
    );

    // --- E3 naive cost ----------------------------------------------------------
    let days = naive_cost(20, 30.0).days();
    check("E3 '50 days for 20 hosts'", (days - 50.0).abs() < 1.5, format!("{days:.1} days"));

    // --- E7 asymmetry -------------------------------------------------------------
    let (fwd, back) = asym_truth();
    check(
        "E7 asymmetric platform is 10x by direction",
        back / fwd > 8.0,
        format!("{fwd:.1} vs {back:.1} Mbps"),
    );

    // --- E9 host locking ------------------------------------------------------------
    let (unlocked, locked) = locking_case(&m);
    check(
        "E9 flaw live without locks (<7 Mbps on Hub2)",
        unlocked < 7.0,
        format!("{unlocked:.2} Mbps"),
    );
    check("E9 locks restore accuracy (>9 Mbps)", locked > 9.0, format!("{locked:.2} Mbps"));

    // --- summary ------------------------------------------------------------------
    println!();
    let mut t = Table::new(&["checkpoint", "status", "detail"]);
    let mut failed = 0;
    for c in &checks {
        if !c.pass {
            failed += 1;
        }
        t.row(vec![
            c.name.to_string(),
            if c.pass { "PASS".into() } else { "FAIL".into() },
            c.detail.clone(),
        ]);
    }
    t.print();
    println!("\n{} of {} paper checkpoints reproduced", checks.len() - failed, checks.len());
    if failed > 0 {
        std::process::exit(1);
    }
}

/// E1: mean reported bandwidth free-running vs clique on a 100 Mbps hub.
fn collision_case() -> (f64, f64) {
    let mean_for = |use_clique: bool| -> f64 {
        let net = star_hub(4, Bandwidth::mbps(100.0));
        let n: Vec<String> =
            net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
        let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
        let spec = if use_clique {
            let refs: Vec<&str> = n.iter().map(|s| s.as_str()).collect();
            NwsSystemSpec::minimal(&n[0], &refs)
        } else {
            let mut s = NwsSystemSpec::minimal(&n[0], &[]);
            s.cliques.clear();
            s.sensors = vec![
                SensorSpec {
                    host: n[0].clone(),
                    mode: SensorMode::FreeRunning {
                        targets: vec![n[1].clone()],
                        period: TimeDelta::from_secs(5.0),
                    },
                    host_sensing: false,
                    memory: None,
                },
                SensorSpec {
                    host: n[2].clone(),
                    mode: SensorMode::FreeRunning {
                        targets: vec![n[3].clone()],
                        period: TimeDelta::from_secs(5.0),
                    },
                    host_sensing: false,
                    memory: None,
                },
            ];
            s
        };
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));
        let series =
            sys.series(&SeriesKey::link(Resource::Bandwidth, &n[0], &n[1])).unwrap_or_default();
        series.iter().map(|(_, v)| v).sum::<f64>() / series.len().max(1) as f64
    };
    (mean_for(false), mean_for(true))
}

/// E7: ground-truth directional bandwidths on the asymmetric pair.
fn asym_truth() -> (f64, f64) {
    let net = asym_pair();
    let mut sim: Engine<NwsMsg> = Engine::new(net.topo);
    let fwd = sim.measure_bandwidth(net.hosts[0], net.hosts[1], Bytes::mib(1)).unwrap();
    let back = sim.measure_bandwidth(net.hosts[1], net.hosts[0], Bytes::mib(1)).unwrap();
    (fwd.as_mbps(), back.as_mbps())
}

/// E9: Hub 2 series mean without and with host locks.
fn locking_case(m: &nws_bench::MappedEnsLyon) -> (f64, f64) {
    let run = |locking: bool| -> f64 {
        let plan = plan_deployment(&m.merged, &PlannerConfig::default());
        let mut eng: Engine<NwsMsg> = Engine::new(m.platform.topo.clone());
        let sys = apply_plan_with(&mut eng, &plan, locking).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(400.0));
        let series = sys
            .series(&SeriesKey::link(
                Resource::Bandwidth,
                "myri0.popc.private",
                "popc0.popc.private",
            ))
            .unwrap_or_default();
        series.iter().map(|(_, v)| v).sum::<f64>() / series.len().max(1) as f64
    };
    (run(false), run(true))
}
