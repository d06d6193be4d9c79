//! Differential test: the batched probe scheduler must produce the same
//! effective view as ENV's strictly serial schedule.
//!
//! Batching only co-schedules probes whose directed paths share no resource
//! (no link direction, no hub medium), so every co-scheduled flow sees
//! exactly the bandwidth it would see alone — the measured samples, and
//! therefore the whole refined view, must match the serial run.

use envmap::score::intact_fraction;
use envmap::{cluster_agreement, EnvConfig, EnvMapper, EnvView, HostInput};
use netsim::synth::{synth, SynthFamily};
use netsim::Sim;

fn map_with(
    topo: &netsim::Topology,
    inputs: &[HostInput],
    master: &str,
    external: Option<&str>,
    config: EnvConfig,
) -> EnvView {
    let mut eng = Sim::new(topo.clone());
    EnvMapper::new(config).map(&mut eng, inputs, master, external).expect("mapping succeeds").view
}

/// Structural equality plus bandwidth equality to within floating-point
/// noise (a co-scheduled max-min fill can round the last bit differently).
fn assert_views_match(serial: &EnvView, batched: &EnvView, context: &str) {
    fn nets_match(a: &[envmap::EnvNet], b: &[envmap::EnvNet], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: network count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.label, y.label, "{context}");
            assert_eq!(x.kind, y.kind, "{context}: kind of {}", x.label);
            assert_eq!(x.hosts, y.hosts, "{context}: members of {}", x.label);
            assert_eq!(x.via, y.via, "{context}");
            assert_eq!(x.router_path, y.router_path, "{context}");
            let close = |p: f64, q: f64| (p - q).abs() <= p.abs().max(q.abs()) * 1e-9 + 1e-12;
            assert!(
                close(x.base_bw_mbps, y.base_bw_mbps),
                "{context}: base {} vs {}",
                x.base_bw_mbps,
                y.base_bw_mbps
            );
            match (x.local_bw_mbps, y.local_bw_mbps) {
                (Some(p), Some(q)) => {
                    assert!(close(p, q), "{context}: local {p} vs {q}")
                }
                (p, q) => assert_eq!(p, q, "{context}"),
            }
            match (x.jam_ratio, y.jam_ratio) {
                (Some(p), Some(q)) => assert!(close(p, q), "{context}: jam {p} vs {q}"),
                (p, q) => assert_eq!(p, q, "{context}"),
            }
            nets_match(&x.children, &y.children, context);
        }
    }
    assert_eq!(serial.master, batched.master, "{context}");
    nets_match(&serial.networks, &batched.networks, context);
}

#[test]
fn batched_mapper_matches_serial_on_ens_lyon() {
    use netsim::scenarios::{ens_lyon, Calibration, ENS_LYON_INSIDE};
    let net = ens_lyon(Calibration::Paper);
    let inputs = ENS_LYON_INSIDE.map(HostInput::new);
    // The inside run exercises nested clusters, the firewall and the sci
    // switch whose internal phase is where batching actually kicks in.
    let serial = map_with(&net.topo, &inputs, "sci0.popc.private", None, EnvConfig::fast());
    let batched =
        map_with(&net.topo, &inputs, "sci0.popc.private", None, EnvConfig::fast_batched());
    assert_views_match(&serial, &batched, "ens-lyon inside");
}

#[test]
fn batched_mapper_matches_serial_on_synth_families() {
    for family in [SynthFamily::Campus, SynthFamily::FatTree] {
        let sc = synth(family, 17, 60);
        let inputs: Vec<HostInput> = sc.input_names().iter().map(|n| HostInput::new(n)).collect();
        let master = sc.master_name();
        let external = sc.external_name();
        let serial =
            map_with(&sc.net.topo, &inputs, &master, external.as_deref(), EnvConfig::fast());
        let batched = map_with(
            &sc.net.topo,
            &inputs,
            &master,
            external.as_deref(),
            EnvConfig::fast_batched(),
        );
        assert_views_match(&serial, &batched, sc.family.name());
        // And both agree with the family's ground truth.
        let truth = sc.truth_labels();
        for view in [&serial, &batched] {
            let score = cluster_agreement(view, &truth, &[master.as_str()]);
            assert!(score >= 0.95, "{} agreement {score}", sc.family.name());
        }
    }
}

#[test]
fn small_tier_pipeline_meets_accuracy_gate_on_all_families() {
    // A tier-1-sized version of the exp_pipeline_scaling gates, so mapper
    // accuracy regressions fail `cargo test`, not only the bench binary.
    use envdeploy::{plan_deployment, validate_plan, PlannerConfig};
    for family in SynthFamily::ALL {
        let sc = synth(family, 2004, 40);
        let inputs: Vec<HostInput> = sc.input_names().iter().map(|n| HostInput::new(n)).collect();
        let master = sc.master_name();
        let external = sc.external_name();
        let mut eng = Sim::new(sc.net.topo.clone());
        let run = EnvMapper::new(EnvConfig::fast_batched())
            .map(&mut eng, &inputs, &master, external.as_deref())
            .unwrap_or_else(|e| panic!("{}: {e}", sc.family.name()));
        let truth = sc.truth_labels();
        let score = cluster_agreement(&run.view, &truth, &[master.as_str()]);
        assert!(score >= 0.95, "{} agreement {score}\n{}", sc.family.name(), run.view.render());
        // The Rand index alone saturates against fragmentation; the
        // intactness gate is the split detector.
        let intact = intact_fraction(&run.view, &truth, &[master.as_str()]);
        assert!(intact >= 0.95, "{} intact {intact}\n{}", sc.family.name(), run.view.render());
        let plan = plan_deployment(&run.view, &PlannerConfig::default());
        let report = validate_plan(&plan, &run.view, &sc.net.topo);
        assert!(report.unresolved_hosts.is_empty(), "{}", sc.family.name());
        assert!(report.complete, "{}: {}", sc.family.name(), report.render());
    }
}
