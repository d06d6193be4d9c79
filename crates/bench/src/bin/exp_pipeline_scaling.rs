//! End-to-end pipeline scaling experiment: synth topology → structural map
//! → refinement → `plan_deployment` → `validate_plan`, across the synthetic
//! scenario families at 100 / 500 / 1000 / 2000 / 10000 hosts, emitted as
//! `BENCH_pipeline.json`.
//!
//! Every tier runs both mapping engines and emits one row per engine:
//!
//! * `engine: "serial"` — the original single-simulator oracle path
//!   (`EnvMapper::map`), `threads: 1`;
//! * `engine: "parallel"` — `EnvMapper::map_parallel` over the shared
//!   topology/route snapshot, `threads` recording the worker count.
//!
//! Every row asserts the pipeline's *quality*; its speed is the
//! `deploy_5k` workload of `BENCHMARK.json`:
//!
//! * mapper accuracy — ≥ 95 % pairwise cluster-label agreement with the
//!   family's ground truth (`envmap::score::cluster_agreement`);
//! * plan validity — the deployment plan must be complete (every host pair
//!   estimable) with no unresolved hosts;
//! * parallel == serial — the parallel view must `approx_eq` the serial
//!   oracle's at every tier, and a 1-thread and an N-thread parallel pass
//!   must produce **bit-identical** fingerprints (each cluster refines on
//!   a fresh worker simulator, so thread count cannot perturb the view);
//! * determinism — at tiers ≤ 2000 the serial engine is mapped twice and
//!   the run fingerprints must be bit-identical.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_pipeline_scaling
//! [out.json]`. `BENCH_pipeline.json` is a golden file: CI regenerates and
//! `cmp`s it.

use envdeploy::{plan_deployment, validate_plan_with_routes, PlannerConfig};
use envmap::score::intact_fraction;
use envmap::{cluster_agreement, EnvConfig, EnvMapper, EnvRun, HostInput};
use netsim::disk::fnv1a64;
use netsim::synth::{synth, SynthFamily, SynthScenario};
use netsim::Sim;
use nws_bench::{Cell, Golden, Table};

/// Fixed generator seed: the acceptance contract is bit-identical reruns.
const SEED: u64 = 2004;
/// Workers of the parallel engine's N-thread pass.
const THREADS: usize = 8;

/// Fingerprint of one run's outputs (view + plan + scored agreement).
fn fingerprint_run(run: &EnvRun, truth: &[Vec<String>], master: &str) -> u64 {
    let agreement = cluster_agreement(&run.view, truth, &[master]);
    let plan = plan_deployment(&run.view, &PlannerConfig::default());
    let rendered = format!("{}{}{agreement:.17}", run.view.render(), plan.render());
    fnv1a64(rendered.as_bytes())
}

/// One mapping pass: the serial oracle on `eng` itself (`threads` is
/// `None`), or the parallel engine over `eng`'s shared snapshot.
fn map(sc: &SynthScenario, eng: &mut Sim, threads: Option<usize>) -> EnvRun {
    let inputs: Vec<HostInput> = sc.input_names().iter().map(|n| HostInput::new(n)).collect();
    let external = sc.external_name();
    let mapper = EnvMapper::new(EnvConfig::fast_batched());
    let (master, external) = (sc.master_name(), external.as_deref());
    let run = match threads {
        None => mapper.map(eng, &inputs, &master, external),
        Some(n) => mapper.map_parallel(eng, &inputs, &master, external, n),
    };
    run.unwrap_or_else(|e| panic!("{} mapping failed ({threads:?} threads): {e}", sc.family.name()))
}

/// Quality gates shared by both engines' rows, then the row itself.
fn finish_row(
    t: &mut Table,
    sc: &SynthScenario,
    hosts: usize,
    (engine, threads): (&'static str, usize),
    run: &EnvRun,
    eng: &Sim,
    fingerprint: u64,
) {
    let family = sc.family.name();
    let (truth, master) = (sc.truth_labels(), sc.master_name());
    let agreement = cluster_agreement(&run.view, &truth, &[&master]);
    let intact = intact_fraction(&run.view, &truth, &[&master]);
    let plan = plan_deployment(&run.view, &PlannerConfig::default());
    let report = validate_plan_with_routes(&plan, &run.view, eng.topo(), eng.routes());

    assert!(
        agreement >= 0.95,
        "{family} @ {hosts} ({engine}): cluster agreement {agreement:.4} < 0.95\n{}",
        run.view.render()
    );
    // The Rand index saturates against fragmentation at scale; intactness
    // is the split detector (see envmap::score).
    assert!(
        intact >= 0.95,
        "{family} @ {hosts} ({engine}): only {intact:.4} of truth clusters mapped intact\n{}",
        run.view.render()
    );
    assert!(
        report.unresolved_hosts.is_empty(),
        "{family} @ {hosts} ({engine}): unresolved hosts {:?}",
        report.unresolved_hosts
    );
    assert!(report.complete, "{family} @ {hosts} ({engine}): incomplete plan\n{}", report.render());

    t.row(vec![
        family.into(),
        hosts.into(),
        engine.into(),
        threads.into(),
        truth.len().into(),
        run.view.network_count().into(),
        Cell::Fixed(agreement, 6),
        Cell::Fixed(intact, 6),
        run.stats.total_experiments().into(),
        plan.cliques.len().into(),
        Cell::Fixed(report.intrusiveness(), 4),
        Cell::Hex(fingerprint),
        true.into(),
    ]);
}

/// Run one (family, tier): a serial oracle pass, a 1-thread and an
/// N-thread parallel pass, cross-checked, emitted as one row per engine.
fn run_tier(t: &mut Table, family: SynthFamily, hosts: usize) {
    let sc = synth(family, SEED, hosts);
    let (truth, master) = (sc.truth_labels(), sc.master_name());

    // One engine per tier: its startup route table feeds the serial pass,
    // the validator, and (as a shared snapshot) every parallel worker.
    let mut eng = Sim::new(sc.net.topo.clone());

    let serial_run = map(&sc, &mut eng, None);
    let serial_fp = fingerprint_run(&serial_run, &truth, &master);
    // Tiers ≤ 2000 re-map and re-plan (cheap): scale-dependent
    // nondeterminism must fail the bench. The 10k tier skips the serial
    // rerun — its determinism evidence is the 1-thread vs N-thread
    // parallel fingerprint equality below.
    if hosts <= 2000 {
        let again = fingerprint_run(&map(&sc, &mut eng, None), &truth, &master);
        assert!(
            serial_fp == again,
            "{} @ {hosts}: serial rerun under the fixed seed must be bit-identical \
             ({serial_fp:016x} vs {again:016x})",
            family.name()
        );
    }

    let fp_one = fingerprint_run(&map(&sc, &mut eng, Some(1)), &truth, &master);
    let par_run = map(&sc, &mut eng, Some(THREADS));
    let fp_n = fingerprint_run(&par_run, &truth, &master);
    assert!(
        fp_one == fp_n,
        "{} @ {hosts}: 1-thread and {THREADS}-thread parallel passes must be bit-identical \
         ({fp_one:016x} vs {fp_n:016x})",
        family.name()
    );
    assert!(
        par_run.view.approx_eq(&serial_run.view, 1e-9),
        "{} @ {hosts}: parallel view diverged from the serial oracle\nparallel:\n{}\nserial:\n{}",
        family.name(),
        par_run.view.render(),
        serial_run.view.render()
    );

    finish_row(t, &sc, hosts, ("serial", 1), &serial_run, &eng, serial_fp);
    finish_row(t, &sc, hosts, ("parallel", THREADS), &par_run, &eng, fp_n);
}

fn main() {
    println!("=== pipeline scaling: synth → map (serial + parallel) → plan → validate ===\n");
    let mut t = Table::new(&[
        "family",
        "hosts",
        "engine",
        "threads",
        "truth_clusters",
        "networks",
        "agreement",
        "intact",
        "experiments",
        "cliques",
        "intrusiveness",
        "fingerprint",
        "deterministic",
    ]);
    for family in SynthFamily::ALL {
        for hosts in [100, 500, 1000, 2000, 10_000] {
            run_tier(&mut t, family, hosts);
        }
    }
    t.write_golden(Golden {
        bench: "pipeline_scaling",
        bin: env!("CARGO_BIN_NAME"),
        file: "BENCH_pipeline.json",
        seed: SEED,
        config: vec![(
            "stages",
            Cell::List(["synth", "map", "plan", "validate"].map(Cell::from).to_vec()),
        )],
        rows_key: "rows",
    });
}
