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
//! Every row asserts the pipeline's *quality*, not just its speed:
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
//!   the run fingerprints must be bit-identical;
//! * validator speed — `validate_ms` must stay under a generous per-tier
//!   regression budget (~10× the recorded cluster-granular numbers), so a
//!   relapse into per-host-pair scanning fails the build instead of
//!   silently re-pinning CI to small tiers.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_pipeline_scaling
//! [--smoke] [--tier50k] [--dry-run] [out.json]`.
//!
//! * `--smoke` keeps the 100- and 500-host tiers with a 4-thread parallel
//!   pass (the CI configuration);
//! * `--tier50k` adds the 50000-host tier (≈ 16 GB of dense route table —
//!   deliberately opt-in, never in CI);
//! * `--dry-run` appends schema-only rows for the 10k and 50k tiers
//!   without running them, and asserts their key set matches a real row's
//!   — so CI proves the big-tier row schema without paying for the runs.

use std::time::Instant;

use envdeploy::{plan_deployment, validate_plan_with_routes, PlannerConfig};
use envmap::score::intact_fraction;
use envmap::{cluster_agreement, EnvConfig, EnvMapper, EnvRun, HostInput};
use netsim::disk::fnv1a64;
use netsim::synth::{synth, SynthFamily, SynthScenario};
use netsim::Sim;
use nws_bench::{f, Table};

/// Fixed generator seed: the acceptance contract is bit-identical reruns.
const SEED: u64 = 2004;

struct Row {
    family: &'static str,
    hosts: usize,
    engine: &'static str,
    threads: usize,
    truth_clusters: usize,
    networks: usize,
    agreement: f64,
    intact: f64,
    map_ms: f64,
    plan_ms: f64,
    validate_ms: f64,
    experiments: u64,
    cliques: usize,
    intrusiveness: f64,
    fingerprint: u64,
    deterministic: bool,
    dry_run: bool,
}

/// Generous per-tier ceiling on `validate_ms` (roughly 10× the values the
/// cluster-granular validator records; the old per-pair validator was
/// ~15 000–25 000 ms at 1000 hosts, so a complexity regression trips this
/// immediately).
fn validate_budget_ms(hosts: usize) -> f64 {
    match hosts {
        0..=100 => 50.0,
        101..=500 => 200.0,
        501..=1000 => 500.0,
        1001..=2000 => 2000.0,
        2001..=10_000 => 30_000.0,
        _ => 300_000.0,
    }
}

/// Fingerprint of one run's outputs (view + plan + scored agreement).
fn fingerprint_run(run: &EnvRun, truth: &[Vec<String>], master: &str) -> (u64, f64) {
    let agreement = cluster_agreement(&run.view, truth, &[master]);
    let plan = plan_deployment(&run.view, &PlannerConfig::default());
    let rendered = format!("{}{}{agreement:.17}", run.view.render(), plan.render());
    (fnv1a64(rendered.as_bytes()), agreement)
}

/// One serial pipeline pass; returns the run, the mapping time, and the
/// engine (whose precomputed route table the validator and the parallel
/// passes reuse via its snapshot).
fn map_serial(sc: &SynthScenario, eng: &mut Sim) -> (EnvRun, f64) {
    let inputs: Vec<HostInput> = sc.input_names().iter().map(|n| HostInput::new(n)).collect();
    let external = sc.external_name();
    let mapper = EnvMapper::new(EnvConfig::fast_batched());
    let t = Instant::now();
    let run = mapper
        .map(eng, &inputs, &sc.master_name(), external.as_deref())
        .unwrap_or_else(|e| panic!("{} serial mapping failed: {e}", sc.family.name()));
    (run, t.elapsed().as_secs_f64() * 1e3)
}

/// One parallel pipeline pass over the engine's shared snapshot.
fn map_parallel(sc: &SynthScenario, eng: &Sim, threads: usize) -> (EnvRun, f64) {
    let inputs: Vec<HostInput> = sc.input_names().iter().map(|n| HostInput::new(n)).collect();
    let external = sc.external_name();
    let mapper = EnvMapper::new(EnvConfig::fast_batched());
    let t = Instant::now();
    let run = mapper
        .map_parallel(eng, &inputs, &sc.master_name(), external.as_deref(), threads)
        .unwrap_or_else(|e| {
            panic!("{} parallel mapping failed ({threads} threads): {e}", sc.family.name())
        });
    (run, t.elapsed().as_secs_f64() * 1e3)
}

/// Quality gates + plan/validate timings shared by both engines' rows.
#[allow(clippy::too_many_arguments)]
fn finish_row(
    family: SynthFamily,
    hosts: usize,
    engine: &'static str,
    threads: usize,
    run: &EnvRun,
    map_ms: f64,
    eng: &Sim,
    truth: &[Vec<String>],
    master: &str,
    fingerprint: u64,
    deterministic: bool,
) -> Row {
    let agreement = cluster_agreement(&run.view, truth, &[master]);
    let intact = intact_fraction(&run.view, truth, &[master]);

    let t = Instant::now();
    let plan = plan_deployment(&run.view, &PlannerConfig::default());
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let report = validate_plan_with_routes(&plan, &run.view, eng.topo(), eng.routes());
    let validate_ms = t.elapsed().as_secs_f64() * 1e3;

    // ---- hard gates ------------------------------------------------------
    assert!(
        agreement >= 0.95,
        "{} @ {hosts} ({engine}): cluster agreement {agreement:.4} < 0.95\n{}",
        family.name(),
        run.view.render()
    );
    // The Rand index saturates against fragmentation at scale; intactness
    // is the split detector (see envmap::score).
    assert!(
        intact >= 0.95,
        "{} @ {hosts} ({engine}): only {intact:.4} of truth clusters mapped intact\n{}",
        family.name(),
        run.view.render()
    );
    assert!(
        report.unresolved_hosts.is_empty(),
        "{} @ {hosts} ({engine}): unresolved hosts {:?}",
        family.name(),
        report.unresolved_hosts
    );
    assert!(
        report.complete,
        "{} @ {hosts} ({engine}): incomplete plan\n{}",
        family.name(),
        report.render()
    );
    assert!(
        validate_ms <= validate_budget_ms(hosts),
        "{} @ {hosts}: validate took {validate_ms:.1} ms, budget {:.0} ms — \
         the cluster-granular validator has regressed",
        family.name(),
        validate_budget_ms(hosts)
    );
    assert!(deterministic, "{} @ {hosts} ({engine}): nondeterministic run", family.name());

    Row {
        family: family.name(),
        hosts,
        engine,
        threads,
        truth_clusters: truth.len(),
        networks: run.view.network_count(),
        agreement,
        intact,
        map_ms,
        plan_ms,
        validate_ms,
        experiments: run.stats.total_experiments(),
        cliques: plan.cliques.len(),
        intrusiveness: report.intrusiveness(),
        fingerprint,
        deterministic,
        dry_run: false,
    }
}

/// Run one (family, tier): a serial oracle pass, a 1-thread and an
/// N-thread parallel pass, cross-checked, emitted as one row per engine.
fn run_tier(family: SynthFamily, hosts: usize, threads: usize) -> Vec<Row> {
    let sc = synth(family, SEED, hosts);
    let truth = sc.truth_labels();
    let master = sc.master_name();

    // One engine per tier: its startup route table feeds the serial pass,
    // the validator, and (as a shared snapshot) every parallel worker.
    let mut eng = Sim::new(sc.net.topo.clone());

    // ---- serial oracle ---------------------------------------------------
    let (serial_run, serial_ms) = map_serial(&sc, &mut eng);
    let (serial_fp, _) = fingerprint_run(&serial_run, &truth, &master);
    // Tiers ≤ 2000 re-map and re-plan (cheap): scale-dependent
    // nondeterminism must fail the bench, not ship as a null. The 10k/50k
    // tiers skip the serial rerun — their determinism evidence is the
    // 1-thread vs N-thread parallel fingerprint equality below.
    let serial_deterministic = if hosts <= 2000 {
        let (rerun, _) = map_serial(&sc, &mut eng);
        let (again, _) = fingerprint_run(&rerun, &truth, &master);
        assert!(
            serial_fp == again,
            "{} @ {hosts}: serial rerun under the fixed seed must be bit-identical \
             ({serial_fp:016x} vs {again:016x})",
            family.name()
        );
        true
    } else {
        true
    };

    // ---- parallel engine: 1-thread and N-thread passes -------------------
    let (par_one, _) = map_parallel(&sc, &eng, 1);
    let (par_run, par_ms) = map_parallel(&sc, &eng, threads);
    let (fp_one, _) = fingerprint_run(&par_one, &truth, &master);
    let (fp_n, _) = fingerprint_run(&par_run, &truth, &master);
    assert!(
        fp_one == fp_n,
        "{} @ {hosts}: 1-thread and {threads}-thread parallel passes must be bit-identical \
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

    vec![
        finish_row(
            family,
            hosts,
            "serial",
            1,
            &serial_run,
            serial_ms,
            &eng,
            &truth,
            &master,
            serial_fp,
            serial_deterministic,
        ),
        finish_row(
            family, hosts, "parallel", threads, &par_run, par_ms, &eng, &truth, &master, fp_n, true,
        ),
    ]
}

/// A schema-only row for a tier that is not being run (the `--dry-run`
/// big-tier contract): every key present, metrics zeroed, `dry_run` set.
fn dry_row(family: SynthFamily, hosts: usize, threads: usize) -> Row {
    Row {
        family: family.name(),
        hosts,
        engine: "parallel",
        threads,
        truth_clusters: 0,
        networks: 0,
        agreement: 0.0,
        intact: 0.0,
        map_ms: 0.0,
        plan_ms: 0.0,
        validate_ms: 0.0,
        experiments: 0,
        cliques: 0,
        intrusiveness: 0.0,
        fingerprint: 0,
        deterministic: true,
        dry_run: true,
    }
}

fn row_json(r: &Row) -> String {
    format!(
        "{{\"family\": \"{}\", \"hosts\": {}, \"engine\": \"{}\", \"threads\": {}, \
         \"truth_clusters\": {}, \"networks\": {}, \"agreement\": {:.6}, \"intact\": {:.6}, \
         \"map_ms\": {:.3}, \"plan_ms\": {:.3}, \"validate_ms\": {:.3}, \"experiments\": {}, \
         \"cliques\": {}, \"intrusiveness\": {:.4}, \"fingerprint\": \"{:016x}\", \
         \"deterministic\": {}, \"dry_run\": {}}}",
        r.family,
        r.hosts,
        r.engine,
        r.threads,
        r.truth_clusters,
        r.networks,
        r.agreement,
        r.intact,
        r.map_ms,
        r.plan_ms,
        r.validate_ms,
        r.experiments,
        r.cliques,
        r.intrusiveness,
        r.fingerprint,
        r.deterministic,
        r.dry_run
    )
}

/// The ordered key list of a serialized row — the `--dry-run` schema
/// contract compares these between real and schema-only rows.
fn row_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut i = 0;
    while let Some(open) = json[i..].find('"') {
        let start = i + open + 1;
        let end = start + json[start..].find('"').expect("unterminated string in row JSON");
        // A quoted string is a key iff the next non-space char is ':'
        // (string *values* are followed by ',' or '}').
        if json[end + 1..].trim_start().starts_with(':') {
            keys.push(json[start..end].to_string());
        }
        i = end + 1;
    }
    keys
}

fn to_json(rows: &[Row], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"pipeline_scaling\",\n");
    out.push_str("  \"generated_by\": \"exp_pipeline_scaling\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"stages\": [\"synth\", \"map\", \"plan\", \"validate\"],\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            row_json(r),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let tier50k = args.iter().any(|a| a == "--tier50k");
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let mut tiers: Vec<usize> =
        if smoke { vec![100, 500] } else { vec![100, 500, 1000, 2000, 10_000] };
    if tier50k {
        tiers.push(50_000);
    }
    // Smoke runs the satellite contract's 4-thread pass; full runs 8.
    let threads = if smoke { 4 } else { 8 };

    println!("=== pipeline scaling: synth → map (serial + parallel) → plan → validate ===\n");
    let mut rows = Vec::new();
    for family in SynthFamily::ALL {
        for &hosts in &tiers {
            for row in run_tier(family, hosts, threads) {
                println!(
                    "  {:>14} @ {:>5} hosts [{:>8} x{}]: agreement {:.3}, intact {:.3}, \
                     map {:.0} ms, plan {:.1} ms, validate {:.0} ms, {} experiments",
                    row.family,
                    row.hosts,
                    row.engine,
                    row.threads,
                    row.agreement,
                    row.intact,
                    row.map_ms,
                    row.plan_ms,
                    row.validate_ms,
                    row.experiments
                );
                rows.push(row);
            }
        }
    }

    // The big-tier schema contract: rows for the tiers CI never runs must
    // carry exactly the keys real rows do, so downstream consumers parse
    // a full run and a smoke run identically.
    if dry_run {
        let reference = row_keys(&row_json(&rows[0]));
        for family in SynthFamily::ALL {
            for hosts in [10_000usize, 50_000] {
                if tiers.contains(&hosts) {
                    continue; // actually ran — already a real row
                }
                let d = dry_row(family, hosts, threads);
                let keys = row_keys(&row_json(&d));
                assert!(
                    keys == reference,
                    "dry-run row schema diverged for {} @ {hosts}: {keys:?} vs {reference:?}",
                    family.name()
                );
                println!("  {:>14} @ {:>5} hosts [dry-run]: schema ok", family.name(), hosts);
                rows.push(d);
            }
        }
    }

    let mut t = Table::new(&[
        "family",
        "hosts",
        "engine",
        "threads",
        "agreement",
        "intact",
        "map ms",
        "plan ms",
        "validate ms",
        "experiments",
        "cliques",
    ]);
    for r in rows.iter().filter(|r| !r.dry_run) {
        t.row(vec![
            r.family.to_string(),
            r.hosts.to_string(),
            r.engine.to_string(),
            r.threads.to_string(),
            f(r.agreement, 3),
            f(r.intact, 3),
            f(r.map_ms, 1),
            f(r.plan_ms, 2),
            f(r.validate_ms, 1),
            r.experiments.to_string(),
            r.cliques.to_string(),
        ]);
    }
    println!();
    t.print();

    std::fs::write(&out_path, to_json(&rows, smoke)).expect("write BENCH_pipeline.json");
    println!("\nwrote {out_path}");
}
