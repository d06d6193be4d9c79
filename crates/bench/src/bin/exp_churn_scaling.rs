//! Churn scaling experiment: epochs of **mutate → detect → remap →
//! repair → reconfigure** over every synthetic family at 100 / 500 / 1000
//! / 2000 hosts, emitted as `BENCH_churn.json`.
//!
//! Each epoch applies a seeded churn schedule (joins, leaves, LAN
//! re-provisioning, partitions) to both a mapping simulator and a *live*
//! NWS engine, then drives the full incremental loop:
//!
//! * `EnvMapper::remap` re-probes only the dirty neighborhoods; a
//!   from-scratch `map` of the mutated platform is run as the differential
//!   oracle (structural equality, measurements within float noise);
//! * post-churn agreement/intactness against the maintained ground truth
//!   must be 1.000;
//! * `repair_plan` (representative-preserving) produces the migration
//!   delta; the repaired plan must validate complete under the PR-4
//!   compiled-view validator;
//! * `apply_plan_delta` retargets the running NWS in place; a witness
//!   series from the master's own (never-churned) LAN must keep its
//!   stored prefix byte-for-byte and keep growing across the transition.
//!
//! Hard gate on top of those: whenever an epoch dirties ≤ 10 % of the
//! hosts the remap must issue ≥ 10× fewer experiments than the full map at
//! ≥ 500 hosts (≥ 5× at the 100-host tier, where a single max-size LAN is
//! a visible fraction of the whole platform). What a remap costs in
//! wall-clock is `operate_1k`'s `envmap.remap_ms` in `BENCHMARK.json`.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_churn_scaling
//! [out.json]`. `BENCH_churn.json` is a golden file: CI regenerates and
//! `cmp`s it.

use envdeploy::{
    apply_plan, apply_plan_delta, plan_deployment, repair_plan, validate_plan_with_routes,
    PlannerConfig, RepairConfig,
};
use envmap::score::intact_fraction;
use envmap::{cluster_agreement, EnvConfig, EnvMapper, HostInput};
use netsim::churn::{apply_churn, ChurnState};
use netsim::synth::{synth, SynthFamily};
use netsim::time::TimeDelta;
use netsim::{Engine, Sim};
use nws::{NwsMsg, SeriesKey};
use nws_bench::{Cell, Golden, Table};

/// Fixed seed: the run is deterministic end to end.
const SEED: u64 = 2026;
const EPOCHS: usize = 5;

fn events_for(hosts: usize) -> usize {
    match hosts {
        0..=100 => 1,
        101..=500 => 2,
        501..=1000 => 3,
        _ => 4,
    }
}

fn inputs(names: &[String]) -> Vec<HostInput> {
    names.iter().map(|n| HostInput::new(n)).collect()
}

fn run_tier(family: SynthFamily, tier: usize, rows: &mut Table) {
    let sc = synth(family, SEED, tier);
    let mut st = ChurnState::new(&sc, SEED ^ tier as u64);
    let master = st.master.clone();
    let external = st.external.clone();
    let mapper = EnvMapper::new(EnvConfig::fast_batched());

    // Mapping simulator + initial full map and plan.
    let mut map_eng = Sim::new(sc.net.topo.clone());
    let mut prev_run = mapper
        .map(&mut map_eng, &inputs(st.hosts()), &master, external.as_deref())
        .unwrap_or_else(|e| panic!("{} initial map failed: {e}", family.name()));
    let mut prev_plan = plan_deployment(&prev_run.view, &PlannerConfig::default());

    // Live NWS engine, deployed wholesale once; every later change goes
    // through the in-place reconfiguration path.
    let mut nws_eng: Engine<NwsMsg> = Engine::new(sc.net.topo.clone());
    let mut sys = apply_plan(&mut nws_eng, &prev_plan).expect("initial deployment");
    sys.run_for(&mut nws_eng, TimeDelta::from_secs(40.0));

    // Witness series: a pair from the master's own LAN clique — that
    // cluster is never churned, so its series must survive every epoch.
    // The lexicographic minimum of the LAN is also the inter-network
    // delegate, and at the big tiers the inter clique's token holds are
    // long (hundreds of peers probed per hold), starving that one host's
    // local-clique turns — so the witness is the series *stored by* the
    // second-smallest member (its probes need no cooperation from the
    // busy delegate).
    let master_lan =
        st.clusters.iter().find(|c| c.members.contains(&master)).expect("master has a cluster");
    let mut lan_members: Vec<&String> =
        master_lan.members.iter().filter(|m| **m != master).collect();
    lan_members.sort();
    assert!(lan_members.len() >= 2, "{}: master LAN too small for a witness", family.name());
    let witness = SeriesKey::link(nws::Resource::Bandwidth, lan_members[1], lan_members[0]);
    let witness_start = {
        let s = sys.series(&witness).unwrap_or_default();
        assert!(!s.is_empty(), "{}: witness series must be measured before churn", family.name());
        s.len()
    };

    for epoch in 0..EPOCHS {
        // ---- mutate -------------------------------------------------------
        let evs = st.plan_epoch(events_for(tier));
        apply_churn(&mut map_eng, &evs).expect("churn applies to mapping engine");
        apply_churn(&mut nws_eng, &evs).expect("churn applies to NWS engine");
        // ---- detect -------------------------------------------------------
        let dirty = st.commit(&evs);
        let current = inputs(st.hosts());

        // ---- remap (and the full-map differential oracle) -----------------
        let run = mapper
            .remap(&mut map_eng, &prev_run, &current, &dirty, &master, external.as_deref())
            .unwrap_or_else(|e| panic!("{} epoch {epoch}: remap failed: {e}", family.name()));
        let full = mapper
            .map(&mut map_eng, &current, &master, external.as_deref())
            .unwrap_or_else(|e| panic!("{} epoch {epoch}: oracle map failed: {e}", family.name()));
        assert!(
            run.view.approx_eq(&full.view, 1e-9),
            "{} epoch {epoch}: remap diverged from the from-scratch map\nremap:\n{}\nfull:\n{}",
            family.name(),
            run.view.render(),
            full.view.render()
        );

        let truth = st.truth_labels();
        let agreement = cluster_agreement(&run.view, &truth, &[master.as_str()]);
        let intact = intact_fraction(&run.view, &truth, &[master.as_str()]);
        assert!(
            agreement >= 1.0 - 1e-12 && intact >= 1.0 - 1e-12,
            "{} epoch {epoch}: post-churn agreement {agreement:.6} / intact {intact:.6}\n{}",
            family.name(),
            run.view.render()
        );

        // ---- probe economics ---------------------------------------------
        let remap_exp = run.stats.total_experiments();
        let full_exp = full.stats.total_experiments();
        let probe_ratio =
            if remap_exp == 0 { f64::INFINITY } else { full_exp as f64 / remap_exp as f64 };
        let frac = dirty.len() as f64 / st.hosts().len() as f64;
        if frac <= 0.10 {
            let floor = if tier >= 500 { 10.0 } else { 5.0 };
            assert!(
                probe_ratio >= floor,
                "{} epoch {epoch}: dirty {:.1}% but remap ran {remap_exp} of {full_exp} \
                 experiments (ratio {probe_ratio:.1} < {floor})",
                family.name(),
                frac * 100.0
            );
        }

        // ---- repair + validate -------------------------------------------
        let out = repair_plan(&prev_plan, &run.view, &RepairConfig::preserving());
        let report =
            validate_plan_with_routes(&out.plan, &run.view, map_eng.topo(), map_eng.routes());
        assert!(
            report.complete && report.unresolved_hosts.is_empty(),
            "{} epoch {epoch}: repaired plan invalid\n{}",
            family.name(),
            report.render()
        );

        // ---- reconfigure the live system ---------------------------------
        let before = sys.series(&witness).expect("witness survives");
        let witness_before = before.len();
        apply_plan_delta(&mut nws_eng, &mut sys, &out.delta, &out.plan)
            .unwrap_or_else(|e| panic!("{} epoch {epoch}: reconfigure failed: {e}", family.name()));
        sys.run_for(&mut nws_eng, TimeDelta::from_secs(40.0));
        let after = sys.series(&witness).expect("witness survives reconfiguration");
        // Series preservation: reconfiguration never restarts the memory
        // servers, so the stored prefix is byte-for-byte intact.
        assert_eq!(
            after[..witness_before.min(after.len())],
            before[..witness_before.min(after.len())],
            "{} epoch {epoch}: witness prefix changed across reconfiguration",
            family.name()
        );
        // Per-epoch liveness where the inter-network ring is small enough
        // to keep its members responsive inside one epoch window; the big
        // tiers assert cumulative growth at tier end instead (their inter
        // token holds legitimately take longer than an epoch — the §2.3
        // frequency-vs-clique-size effect, not a reconfiguration bug).
        if tier <= 500 {
            assert!(
                after.len() > witness_before,
                "{} epoch {epoch}: witness series stalled across reconfiguration",
                family.name()
            );
        }

        rows.row(vec![
            family.name().into(),
            tier.into(),
            epoch.into(),
            st.hosts().len().into(),
            dirty.len().into(),
            remap_exp.into(),
            full_exp.into(),
            Cell::Fixed(probe_ratio, 2),
            Cell::Fixed(agreement, 6),
            Cell::Fixed(intact, 6),
            out.delta.action_count().into(),
            Cell::List(vec![witness_before.into(), after.len().into()]),
        ]);

        prev_run = run;
        prev_plan = out.plan;
    }

    // Cumulative liveness: across the whole tier the witness kept growing.
    let end = sys.series(&witness).expect("witness survives the tier").len();
    assert!(
        end > witness_start,
        "{}: witness series never grew across the tier ({witness_start} -> {end})",
        family.name()
    );
}

fn main() {
    println!("=== churn scaling: mutate -> detect -> remap -> repair -> reconfigure ===\n");
    let mut rows = Table::new(&[
        "family",
        "tier",
        "epoch",
        "hosts",
        "dirty",
        "remap_experiments",
        "full_map_experiments",
        "probe_ratio",
        "agreement",
        "intact",
        "delta_actions",
        "witness_points",
    ]);
    for family in SynthFamily::ALL {
        for tier in [100, 500, 1000, 2000] {
            run_tier(family, tier, &mut rows);
        }
    }
    rows.write_golden(Golden {
        bench: "churn_scaling",
        bin: env!("CARGO_BIN_NAME"),
        file: "BENCH_churn.json",
        seed: SEED,
        config: vec![
            ("epochs", EPOCHS.into()),
            (
                "stages",
                Cell::List(
                    ["mutate", "detect", "remap", "repair", "reconfigure"].map(Cell::from).to_vec(),
                ),
            ),
        ],
        rows_key: "rows",
    });
}
