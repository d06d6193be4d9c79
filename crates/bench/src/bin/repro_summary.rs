//! The whole reproduction at a glance: every paper checkpoint evaluated
//! programmatically, one PASS/FAIL row each (the individual `fig_*`/`exp_*`
//! binaries show the full tables behind each row; DESIGN.md §3 says which
//! rows stand for which binary).
//!
//! Run: `cargo run --release -p nws-bench --bin repro_summary`

use envdeploy::{plan_deployment, validate_plan, CliqueRole, PlannerConfig};
use envmap::cost::naive_cost;
use envmap::{EnvThresholds, NetKind};
use nws_bench::experiments::{
    aggregation, asymmetry, clique_frequency, collision, gridml_listing, host_locking,
    threshold_point,
};
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

    // --- §4.2 / §4.3 listings ------------------------------------------------
    let listing = gridml_listing(&m);
    let missing: Vec<&str> =
        listing.checks.iter().filter(|(_, ok)| !ok).map(|(what, _)| *what).collect();
    check(
        "§4.3 merged GridML shows what the paper's listings show",
        missing.is_empty(),
        if missing.is_empty() {
            format!("{} of {} checks", listing.checks.len(), listing.checks.len())
        } else {
            format!("missing: {}", missing.join("; "))
        },
    );

    // --- E1 collisions --------------------------------------------------------
    let c = collision();
    check(
        "E1 free-running halves (~50 Mbps)",
        c.halved(),
        format!("{:.1} and {:.1} Mbps", c.free[0], c.free[1]),
    );
    check(
        "E1 cliques restore accuracy (>85 Mbps)",
        c.accurate(),
        format!("{:.1} and {:.1} Mbps", c.clique[0], c.clique[1]),
    );

    // --- E2 clique frequency ----------------------------------------------------
    let freq = clique_frequency();
    check(
        "E2 frequency falls with clique size",
        freq.decreases(),
        format!("every {:.1} s at 3 hosts, {:.1} s at 10", freq.interval(3), freq.interval(10)),
    );
    check(
        "E2 splitting a clique restores frequency",
        freq.split_restores(),
        format!("8 hosts every {:.1} s, two halves every {:.1} s", freq.interval(8), freq.split),
    );

    // --- E3 naive cost ----------------------------------------------------------
    let days = naive_cost(20, 30.0).days();
    check("E3 '50 days for 20 hosts'", (days - 50.0).abs() < 1.5, format!("{days:.1} days"));

    // --- E4 aggregation -----------------------------------------------------------
    let agg = aggregation(&m);
    check(
        "E4 aggregated estimates within 2.5x of capacity",
        agg.still_interesting(),
        format!("worst {:.2}x over {} unmeasured pairs", agg.worst_ratio(), agg.pairs.len()),
    );

    // --- E6 thresholds --------------------------------------------------------------
    let recovered = threshold_point(EnvThresholds::paper(), None, 1000);
    check(
        "E6 paper thresholds, quiet platform: full F1b",
        recovered == 4,
        format!("{recovered}/4 networks"),
    );

    // --- E7 asymmetry -------------------------------------------------------------
    let asym = asymmetry();
    check(
        "E7 asymmetric platform is 10x by direction",
        asym.tenfold_by_direction(),
        format!("{:.1} vs {:.1} Mbps", asym.truth_ab, asym.truth_ba),
    );
    check(
        "E7 ENV reports one figure, NWS both directions",
        asym.env_blind_nws_not(),
        format!("ENV {:.1}; NWS {:.1} vs {:.1} Mbps", asym.env, asym.nws_ab, asym.nws_ba),
    );

    // --- E9 host locking ------------------------------------------------------------
    let (unlocked, locked) = (host_locking(&m, false), host_locking(&m, true));
    check(
        "E9 flaw live without locks (<7 Mbps on Hub2)",
        unlocked.colliding(),
        format!("{:.2} Mbps", unlocked.hub2_mean),
    );
    check(
        "E9 locks restore accuracy (>9 Mbps)",
        locked.accurate(),
        format!("{:.2} Mbps", locked.hub2_mean),
    );

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
