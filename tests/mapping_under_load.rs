//! Mapping robustness under platform load (paper §4.3, "Reliability and
//! accuracy"): "The results given by ENV may be corrupted if the network
//! load evolves greatly (increasing or decreasing) between tests."
//!
//! These tests put numbers on that worry: light cross-traffic must not
//! change the ENS-Lyon map; saturating traffic on the measured media is
//! allowed to corrupt it (and does — which is the paper's point).

use envmap::{merge_runs, EnvConfig, EnvMapper, HostInput, NetKind};
use gridml::merge::GatewayAlias;
use netsim::prelude::*;
use netsim::scenarios::{
    ens_lyon, Calibration, ENS_LYON_GATEWAYS, ENS_LYON_INSIDE, ENS_LYON_OUTSIDE,
};
use netsim::traffic::{attach_noise, CbrTraffic};
use netsim::Sim;

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
fn light_background_traffic_does_not_change_the_map() {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = Sim::new(platform.topo.clone());
    // Occasional 2 MiB transfers inside Hub 1 and across the backbone.
    attach_noise(
        &mut eng,
        &[(platform.moby, platform.canaria), (platform.canaria, platform.popc0)],
        Bytes::mib(2),
        TimeDelta::from_secs(15.0),
        77,
    );
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .unwrap();
    let inside = mapper.map(&mut eng, &inside_inputs(), "sci0.popc.private", None).unwrap();
    let merged = merge_runs(&outside, &inside, &aliases());

    assert_eq!(merged.network_count(), 4, "{}", merged.render());
    assert_eq!(merged.find_containing("sci2.popc.private").unwrap().kind, NetKind::Switched);
    assert_eq!(merged.find_containing("canaria.ens-lyon.fr").unwrap().kind, NetKind::Shared);
    assert_eq!(
        merged.find_containing("myri1.popc.private").unwrap().via.as_deref(),
        Some("myri0.popc.private")
    );
}

#[test]
fn saturating_traffic_corrupts_the_map_as_the_paper_warns() {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = Sim::new(platform.topo.clone());
    // A permanent bulk transfer saturating Hub 1 for the whole mapping.
    eng.add_process(
        platform.moby,
        Box::new(CbrTraffic::new(
            platform.canaria,
            Bytes::mib(64),
            TimeDelta::from_millis(300.0),
            0.0,
            5,
        )),
    );
    // Let the load build up before the mapping starts (the fast config's
    // probes could otherwise finish before the first transfer fires).
    let warm = eng.now() + TimeDelta::from_secs(5.0);
    eng.run_until(warm);
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .unwrap();

    // The master's own hub is saturated: its bandwidth view of everything
    // is depressed, so the map differs from the quiet one somewhere —
    // either memberships shift or measured rates collapse.
    let hub1 = outside.view.find_containing("canaria.ens-lyon.fr");
    let distorted = match hub1 {
        None => true,
        Some(net) => net.base_bw_mbps < 80.0 || net.hosts.len() != 2,
    };
    assert!(
        distorted,
        "a saturated medium must leave a visible mark on the map: {}",
        outside.view.render()
    );
}

#[test]
fn noise_during_operation_shows_up_in_series_not_structure() {
    // Once deployed, load shows up where it should: in the measurement
    // series (that is NWS's whole purpose), while the plan stays valid.
    use envdeploy::{apply_plan_with, plan_deployment, PlannerConfig};
    use netsim::Engine;
    use nws::{NwsMsg, Resource, SeriesKey};

    let platform = ens_lyon(Calibration::Paper);
    let mut eng: Engine<NwsMsg> = Engine::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .unwrap();
    let inside = mapper.map(&mut eng, &inside_inputs(), "sci0.popc.private", None).unwrap();
    let merged = merge_runs(&outside, &inside, &aliases());
    let plan = plan_deployment(&merged, &PlannerConfig::default());
    let sys = apply_plan_with(&mut eng, &plan, true).unwrap();

    // Quiet phase.
    sys.run_for(&mut eng, TimeDelta::from_secs(200.0));
    let key =
        SeriesKey::link(Resource::Bandwidth, "canaria.ens-lyon.fr", "moby.cri2000.ens-lyon.fr");
    let quiet_last = sys.series(&key).unwrap().last().unwrap().1;

    // Loaded phase: saturate Hub 1.
    eng.add_process(
        platform.the_doors,
        Box::new(CbrTraffic::new(
            platform.moby,
            Bytes::mib(32),
            TimeDelta::from_millis(500.0),
            0.0,
            9,
        )),
    );
    sys.run_for(&mut eng, TimeDelta::from_secs(200.0));
    let loaded_last = sys.series(&key).unwrap().last().unwrap().1;

    assert!(quiet_last > 85.0, "quiet reading {quiet_last}");
    assert!(
        loaded_last < quiet_last * 0.75,
        "the sensors must see the load: {quiet_last} → {loaded_last}"
    );
}
