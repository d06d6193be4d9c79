//! Determinism: the whole stack is a deterministic function of its seeds.
//! Two identical runs must agree bit-for-bit on every observable — the
//! property that makes the reproduction's numbers citable.

use envdeploy::{plan_deployment, PlannerConfig};
use envmap::{merge_runs, EnvConfig, EnvMapper, HostInput};
use gridml::merge::GatewayAlias;
use netsim::prelude::*;
use netsim::scenarios::{
    ens_lyon, random_campus, Calibration, CampusParams, ENS_LYON_GATEWAYS, ENS_LYON_OUTSIDE,
};
use netsim::Engine;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec};

fn map_and_plan() -> (String, String, u64) {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = netsim::Sim::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside_hosts = ENS_LYON_OUTSIDE.map(HostInput::new);
    let outside = mapper
        .map(&mut eng, &outside_hosts, "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .unwrap();
    // Six of `ENS_LYON_INSIDE`'s eleven hosts (no myri cluster, three sci
    // nodes): nested clusters and the firewall, at half the mapping cost.
    let inside_hosts: Vec<HostInput> = [
        "popc0.popc.private",
        "myri0.popc.private",
        "sci0.popc.private",
        "sci1.popc.private",
        "sci2.popc.private",
        "sci3.popc.private",
    ]
    .iter()
    .map(|s| HostInput::new(s))
    .collect();
    let inside = mapper.map(&mut eng, &inside_hosts, "sci0.popc.private", None).unwrap();
    let merged = merge_runs(
        &outside,
        &inside,
        &ENS_LYON_GATEWAYS.map(|(public, private)| GatewayAlias::new(public, private)),
    );
    let plan = plan_deployment(&merged, &PlannerConfig::default());
    (merged.render(), plan.render(), outside.stats.total_experiments())
}

#[test]
fn mapping_and_planning_are_deterministic() {
    let (view1, plan1, probes1) = map_and_plan();
    let (view2, plan2, probes2) = map_and_plan();
    assert_eq!(view1, view2);
    assert_eq!(plan1, plan2);
    assert_eq!(probes1, probes2);
}

#[test]
fn gridml_output_is_deterministic() {
    let run = || {
        let platform = ens_lyon(Calibration::Paper);
        let mut eng = netsim::Sim::new(platform.topo);
        EnvMapper::new(EnvConfig::fast())
            .map(
                &mut eng,
                &[
                    HostInput::new("the-doors.ens-lyon.fr"),
                    HostInput::new("canaria.ens-lyon.fr"),
                    HostInput::new("myri.ens-lyon.fr"),
                ],
                "the-doors.ens-lyon.fr",
                Some("well-known.example.org"),
            )
            .unwrap()
            .to_gridml()
            .to_xml()
    };
    assert_eq!(run(), run());
}

#[test]
fn nws_operation_is_deterministic_per_seed() {
    let run = |seed: u64| -> (u64, Vec<(f64, f64)>) {
        let net = random_campus(3, &CampusParams::default()).0;
        let names: Vec<String> = net
            .hosts
            .iter()
            .take(4)
            .map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.seed = seed;
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));
        let key = nws::SeriesKey::link(nws::Resource::Bandwidth, &names[0], &names[1]);
        (sys.total_stores(), sys.series(&key).unwrap_or_default())
    };
    let (stores_a, series_a) = run(7);
    let (stores_b, series_b) = run(7);
    assert_eq!(stores_a, stores_b);
    assert_eq!(series_a, series_b);
    // A different seed changes the schedule (jittered token gaps) but the
    // system still works.
    let (stores_c, series_c) = run(8);
    assert!(stores_c > 0);
    assert!(!series_c.is_empty());
}

#[test]
fn generated_platforms_are_seed_deterministic() {
    let a = random_campus(42, &CampusParams::default()).0;
    let b = random_campus(42, &CampusParams::default()).0;
    assert_eq!(a.topo.node_count(), b.topo.node_count());
    assert_eq!(a.topo.link_count(), b.topo.link_count());
    let names_a: Vec<_> = a.topo.nodes().map(|n| n.label.clone()).collect();
    let names_b: Vec<_> = b.topo.nodes().map(|n| n.label.clone()).collect();
    assert_eq!(names_a, names_b);
}

/// The determinism lints' canary (DESIGN.md §10): one never-run reference
/// per root `clippy.toml` entry, each expecting its lint. An entry that is
/// misspelt, stops resolving on a new toolchain or is deleted leaves its
/// expectation unfulfilled, and CI's clippy gate fails — clippy itself
/// only warns about a config path it cannot resolve.
#[test]
fn every_clippy_toml_entry_still_fires() {
    use std::collections::{HashMap, HashSet};
    use std::time::{Instant, SystemTime};
    use std::{fs, thread};
    macro_rules! canary {
        (methods: $($call:expr),+) => {$(
            #[expect(clippy::disallowed_methods, reason = "canary")]
            let _ = || { let _ = $call; };
        )+};
        (types: $($ty:ty),+) => {$(
            #[expect(clippy::disallowed_types, reason = "canary")]
            let _: Option<&$ty> = None;
        )+};
    }
    let (mut m, mut s) = (HashMap::<u8, u8>::new(), HashSet::<u8>::new());
    canary!(methods: Instant::now(), SystemTime::now(),
        m.iter(), m.iter_mut(), m.keys(), m.values(), m.values_mut(), m.clone().into_keys(),
        m.clone().into_values(), m.drain(), m.retain(|_, _| true), m.extract_if(|_, _| true),
        s.iter(), s.drain(), s.retain(|_| true), s.extract_if(|_| true),
        s.union(&s), s.intersection(&s), s.difference(&s), s.symmetric_difference(&s),
        thread::spawn(|| ()), thread::Builder::new().spawn(|| ()),
        fs::read(""), fs::read_to_string(""), fs::read_dir(""), fs::write("", ""),
        fs::create_dir(""), fs::create_dir_all(""), fs::remove_file(""), fs::remove_dir(""),
        fs::remove_dir_all(""), fs::rename("", ""), fs::copy("", ""), fs::metadata(""));
    canary!(types: std::fs::File, std::fs::OpenOptions, dyn std::io::Write,
        std::sync::Mutex<u8>, std::sync::RwLock<u8>);
}
