//! End-to-end integration: the paper's complete workflow on ENS-Lyon —
//! ENV mapping (both sides of the firewall), merge, deployment planning,
//! validation, application, operation and querying — asserting every
//! checkpoint the paper's figures pin down.

use envdeploy::{
    apply_plan_with, plan_deployment, validate_plan, CliqueRole, Estimator, Freshness,
    PlannerConfig,
};
use envmap::{merge_runs, EnvConfig, EnvMapper, HostInput, NetKind};
use gridml::merge::GatewayAlias;
use netsim::prelude::*;
use netsim::scenarios::{
    ens_lyon, Calibration, ENS_LYON_GATEWAYS, ENS_LYON_INSIDE, ENS_LYON_OUTSIDE,
};
use netsim::Engine;
use nws::{NwsMsg, Resource, SeriesKey};

fn outside_inputs() -> [HostInput; 6] {
    ENS_LYON_OUTSIDE.map(HostInput::new)
}

fn inside_inputs() -> [HostInput; 11] {
    ENS_LYON_INSIDE.map(HostInput::new)
}

fn aliases() -> [GatewayAlias; 3] {
    ENS_LYON_GATEWAYS.map(|(public, private)| GatewayAlias::new(public, private))
}

#[test]
fn paper_pipeline_end_to_end() {
    // ---- platform (Figure 1a) -------------------------------------------
    let platform = ens_lyon(Calibration::Paper);
    let mut eng: Engine<NwsMsg> = Engine::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());

    // ---- ENV, both sides (§4.2, §4.3) --------------------------------------
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .expect("outside run");
    let inside =
        mapper.map(&mut eng, &inside_inputs(), "sci0.popc.private", None).expect("inside run");

    // Figure 2 checkpoints.
    assert_eq!(outside.structural.key, "192.168.254.1");
    assert_eq!(outside.structural.host_count(), 6);

    // ---- merge (Figure 1b) ----------------------------------------------
    let merged = merge_runs(&outside, &inside, &aliases());
    assert_eq!(merged.network_count(), 4);
    assert_eq!(merged.find_containing("sci4.popc.private").unwrap().kind, NetKind::Switched);
    assert_eq!(merged.find_containing("canaria.ens-lyon.fr").unwrap().kind, NetKind::Shared);

    // ---- plan (Figure 3) ----------------------------------------------------
    let plan = plan_deployment(&merged, &PlannerConfig::default());
    assert_eq!(plan.cliques.len(), 5);
    assert_eq!(plan.hosts.len(), 13);
    let report = validate_plan(&plan, &merged, &platform.topo);
    assert!(report.complete, "{}", report.render());
    assert!(report.intrusiveness() < 0.5);
    // The §6 caveat is visible on this platform.
    assert!(!report.strictly_collision_free());

    // ---- apply (§5.2) + operate ------------------------------------------
    let sys = apply_plan_with(&mut eng, &plan, true).expect("deploys");
    sys.run_for(&mut eng, TimeDelta::from_secs(600.0));

    // Every planned pair produced series.
    for c in &plan.cliques {
        for (a, b) in c.measured_pairs() {
            let key = SeriesKey::link(Resource::Bandwidth, &a, &b);
            assert!(
                sys.series(&key).map(|s| !s.is_empty()).unwrap_or(false),
                "missing series {key}"
            );
        }
    }

    // Representative-pair values on the 10 Mbps hub are accurate (host
    // locking avoids the §6 collisions).
    let hub2 = sys
        .series(&SeriesKey::link(Resource::Bandwidth, "myri0.popc.private", "popc0.popc.private"))
        .unwrap();
    let mean = hub2.iter().map(|(_, v)| v).sum::<f64>() / hub2.len() as f64;
    assert!((mean - 9.9).abs() < 0.8, "hub2 mean {mean}");

    // ---- the full query path (§2.1 steps 1–4) ------------------------------
    let fc = sys
        .query(
            &mut eng,
            SeriesKey::link(Resource::Bandwidth, "sci1.popc.private", "sci2.popc.private"),
            TimeDelta::from_secs(10.0),
        )
        .expect("forecast served");
    assert!((fc.value - 32.0).abs() < 3.0, "sci forecast {}", fc.value);

    // ---- aggregation for unmeasured pairs (§2.3 completeness) ---------------
    let est = Estimator::new(&merged, &plan)
        .estimate("moby.cri2000.ens-lyon.fr", "sci3.popc.private", &sys)
        .expect("estimable");
    assert_eq!(est.freshness, Freshness::Measured);
    assert!((est.bandwidth_mbps - 9.8).abs() < 1.0, "estimate {}", est.bandwidth_mbps);
    assert!(est.latency_ms.is_some());

    // The inter clique exists and the sci clique covers all seven machines.
    assert!(plan.cliques.iter().any(|c| c.role == CliqueRole::Inter));
    assert!(plan.cliques.iter().any(|c| c.members.len() == 7));
}

#[test]
fn nominal_calibration_changes_rates_not_structure() {
    // With nameplate rates the sci ports run at 100 Mbps: same tree shape,
    // different numbers (sci no longer splits from the gateways by the 3×
    // rule from the inside master — the h2h ratio is 100/10 = 10 > 3 from
    // sci0's vantage... the split remains; only base_bw changes).
    let platform = ens_lyon(Calibration::Nominal);
    let mut eng: Engine<NwsMsg> = Engine::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .expect("outside");
    let inside = mapper.map(&mut eng, &inside_inputs(), "sci0.popc.private", None).expect("inside");
    let merged = merge_runs(&outside, &inside, &aliases());
    assert_eq!(merged.network_count(), 4);
    let sci = merged.find_containing("sci1.popc.private").unwrap();
    assert_eq!(sci.kind, NetKind::Switched);
    assert!(sci.base_bw_mbps > 90.0, "nominal sci rate {}", sci.base_bw_mbps);
}

#[test]
fn plan_survives_config_round_trip_and_redeploys() {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng: Engine<NwsMsg> = Engine::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .expect("outside");
    let inside = mapper.map(&mut eng, &inside_inputs(), "sci0.popc.private", None).expect("inside");
    let merged = merge_runs(&outside, &inside, &aliases());
    let plan = plan_deployment(&merged, &PlannerConfig::default());

    // The shared §5.2 configuration file round-trips…
    let text = envdeploy::render_config(&plan);
    let parsed = envdeploy::parse_config(&text).expect("config parses");
    assert_eq!(plan, parsed);

    // …and the parsed plan deploys on a fresh platform.
    let mut eng2: Engine<NwsMsg> = Engine::new(ens_lyon(Calibration::Paper).topo);
    let sys = envdeploy::apply_plan(&mut eng2, &parsed).expect("redeploys");
    sys.run_for(&mut eng2, TimeDelta::from_secs(120.0));
    assert!(sys.total_stores() > 50);
}
