//! The paper experiments that both an `exp_*` binary and `repro_summary`
//! evaluate: each is measured by one function here, and its verdict is a
//! method on what that function returns. The binary prints the table,
//! `repro_summary` prints one row per verdict, and neither can drift from
//! the other.

use envdeploy::{apply_plan_with, plan_deployment, Estimator, PlannerConfig};
use envmap::{merge_runs, EnvConfig, EnvMapper, EnvThresholds, HostInput, NetKind};
use gridml::merge::merge_sites;
use netsim::prelude::*;
use netsim::routing::RouteTable;
use netsim::scenarios::{asym_pair, ens_lyon, star_hub, star_switch, Calibration, GeneratedNet};
use netsim::traffic::attach_noise;
use netsim::{Engine, Sim};
use nws::{
    CliqueSpec, NwsMsg, NwsSystem, NwsSystemSpec, Resource, SensorMode, SensorSpec, SeriesKey,
};

use crate::{gateway_aliases, inside_inputs, outside_inputs, MappedEnsLyon};

fn host_names(net: &GeneratedNet) -> Vec<String> {
    net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect()
}

/// The stored bandwidth values of the directed pair `a → b`.
fn bandwidths(sys: &NwsSystem, a: &str, b: &str) -> Vec<f64> {
    sys.series(&SeriesKey::link(Resource::Bandwidth, a, b))
        .unwrap_or_default()
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// E1: what two sensor pairs on one 100 Mbps hub report, in Mbps.
pub struct Collision {
    /// Pairs A and B, uncoordinated with identical periods.
    pub free: [f64; 2],
    /// The same pairs inside one NWS clique.
    pub clique: [f64; 2],
}

impl Collision {
    /// "about the half of the real value" without coordination.
    pub fn halved(&self) -> bool {
        self.free.iter().all(|bw| (bw - 50.0).abs() < 10.0)
    }

    /// Cliques restore accurate measurements.
    pub fn accurate(&self) -> bool {
        self.clique.iter().all(|bw| *bw > 85.0)
    }
}

pub fn collision() -> Collision {
    let run = |use_clique: bool| -> [f64; 2] {
        let net = star_hub(4, Bandwidth::mbps(100.0));
        let n = host_names(&net);
        let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
        let (spec, secs) = if use_clique {
            let refs: Vec<&str> = n.iter().map(|s| s.as_str()).collect();
            (NwsSystemSpec::minimal(&n[0], &refs), 240.0)
        } else {
            // Two sensor pairs with identical periods: their probes align.
            let free_running = |from: &str, to: &str| SensorSpec {
                host: from.to_string(),
                mode: SensorMode::FreeRunning {
                    targets: vec![to.to_string()],
                    period: TimeDelta::from_secs(5.0),
                },
                host_sensing: false,
                memory: None,
            };
            let mut spec = NwsSystemSpec::minimal(&n[0], &[]);
            spec.cliques.clear();
            spec.sensors = vec![free_running(&n[0], &n[1]), free_running(&n[2], &n[3])];
            (spec, 120.0)
        };
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(secs));
        [mean(&bandwidths(&sys, &n[0], &n[1])), mean(&bandwidths(&sys, &n[2], &n[3]))]
    };
    Collision { free: run(false), clique: run(true) }
}

/// E2: seconds between successive measurements of one pair of a clique.
pub struct CliqueFrequency {
    /// `(clique size, interval)` on one switch, sizes ascending.
    pub by_size: Vec<(usize, f64)>,
    /// The same pair once eight hosts are split into two 4-host cliques.
    pub split: f64,
}

impl CliqueFrequency {
    pub fn interval(&self, size: usize) -> f64 {
        self.by_size.iter().find(|(k, _)| *k == size).expect("a measured clique size").1
    }

    /// Frequency decreases with clique size.
    pub fn decreases(&self) -> bool {
        self.interval(10) > self.interval(3) * 2.0
    }

    /// "The cliques must then be split in sub-cliques."
    pub fn split_restores(&self) -> bool {
        self.split < self.interval(8) / 1.8
    }
}

pub fn clique_frequency() -> CliqueFrequency {
    // `split` replaces the one clique over all `k` hosts with two halves.
    let interval = |k: usize, split: bool| -> f64 {
        let net = star_switch(k, Bandwidth::mbps(100.0));
        let n = host_names(&net);
        let refs: Vec<&str> = n.iter().map(|s| s.as_str()).collect();
        let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
        let mut spec = NwsSystemSpec::minimal(&n[0], &refs);
        if split {
            let half = |name: &str, members: &[String]| CliqueSpec {
                name: name.to_string(),
                members: members.to_vec(),
                gap: TimeDelta::from_millis(500.0),
            };
            spec.cliques = vec![half("half-a", &n[..k / 2]), half("half-b", &n[k / 2..])];
        }
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(1200.0));
        sys.measurement_interval(&SeriesKey::link(Resource::Bandwidth, &n[0], &n[1]))
            .expect("pair measured repeatedly")
    };
    CliqueFrequency {
        by_size: [3usize, 4, 6, 8, 10].iter().map(|&k| (k, interval(k, false))).collect(),
        split: interval(8, true),
    }
}

/// E4: one pair no clique measures, estimated by aggregation and read off
/// the routing tables.
pub struct AggregatedPair {
    pub src: &'static str,
    pub dst: &'static str,
    pub estimated_mbps: f64,
    pub estimated_latency_ms: Option<f64>,
    pub capacity_mbps: f64,
    pub rtt_ms: f64,
}

impl AggregatedPair {
    pub fn ratio(&self) -> f64 {
        self.estimated_mbps / self.capacity_mbps
    }
}

pub struct Aggregation {
    pub pairs: Vec<AggregatedPair>,
}

impl Aggregation {
    /// The worst bandwidth mis-estimate, as a factor ≥ 1 either way.
    pub fn worst_ratio(&self) -> f64 {
        self.pairs.iter().map(|p| p.ratio().max(1.0 / p.ratio())).fold(1.0, f64::max)
    }

    /// "Less accurate than real tests, but still interesting."
    pub fn still_interesting(&self) -> bool {
        self.worst_ratio() < 2.5
    }
}

/// Plan ENS-Lyon from `m`, deploy it and let NWS measure for ten minutes,
/// then estimate pairs that span the tree and that no clique measures.
/// Host locking (E9) is on, so the segments feeding the estimator are
/// collision-free.
pub fn aggregation(m: &MappedEnsLyon) -> Aggregation {
    let plan = plan_deployment(&m.merged, &PlannerConfig::default());
    let mut eng: Engine<NwsMsg> = Engine::new(m.platform.topo.clone());
    let sys = apply_plan_with(&mut eng, &plan, true).expect("deployment succeeds");
    sys.run_for(&mut eng, TimeDelta::from_secs(600.0));

    let estimator = Estimator::new(&m.merged, &plan);
    // Ground truth comes from the routing tables: several pairs cross the
    // firewall and cannot be probed end-to-end at all — estimating them
    // from per-segment measurements is exactly the paper's point.
    let topo = eng.topo();
    let routes = RouteTable::compute(topo);
    let pairs = [
        ("moby.cri2000.ens-lyon.fr", "sci3.popc.private"),
        ("canaria.ens-lyon.fr", "myri1.popc.private"),
        ("moby.cri2000.ens-lyon.fr", "popc0.popc.private"),
        ("sci0.popc.private", "myri2.popc.private"),
        ("canaria.ens-lyon.fr", "sci6.popc.private"),
        ("myri1.popc.private", "sci1.popc.private"),
    ]
    .into_iter()
    .map(|(src, dst)| {
        assert!(plan.clique_measuring(src, dst).is_none(), "{src}/{dst} is directly measured");
        let est = estimator.estimate(src, dst, &sys).expect("estimable");
        let (na, nb) = (topo.node_by_name(src).unwrap(), topo.node_by_name(dst).unwrap());
        let fwd = routes.path(topo, na, nb).unwrap();
        let back = routes.path(topo, nb, na).unwrap();
        AggregatedPair {
            src,
            dst,
            estimated_mbps: est.bandwidth_mbps,
            estimated_latency_ms: est.latency_ms,
            capacity_mbps: fwd.bottleneck(topo).as_mbps(),
            rtt_ms: (fwd.latency(topo).as_secs() + back.latency(topo).as_secs()) * 1e3,
        }
    })
    .collect();
    Aggregation { pairs }
}

/// E6, one sweep point: map ENS-Lyon under `thresholds`, with cross-traffic
/// inside Hub 1 and across the bottleneck every `noise_period_s` on average,
/// and count the networks of Figure 1(b) recovered with the right members
/// and kind (of 4).
pub fn threshold_point(thresholds: EnvThresholds, noise_period_s: Option<f64>, seed: u64) -> usize {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = Sim::new(platform.topo.clone());
    if let Some(period) = noise_period_s {
        let pairs = vec![(platform.moby, platform.canaria), (platform.canaria, platform.popc0)];
        attach_noise(&mut eng, &pairs, Bytes::mib(2), TimeDelta::from_secs(period), seed);
    }
    let mapper = EnvMapper::new(EnvConfig { thresholds, ..EnvConfig::fast() });
    let Ok(outside) = mapper.map(
        &mut eng,
        &outside_inputs(),
        "the-doors.ens-lyon.fr",
        Some("well-known.example.org"),
    ) else {
        return 0;
    };
    let Ok(inside) = mapper.map(&mut eng, &inside_inputs(), "sci0.popc.private", None) else {
        return 0;
    };
    let merged = merge_runs(&outside, &inside, &gateway_aliases());
    [
        ("canaria.ens-lyon.fr", NetKind::Shared, 2),
        ("popc0.popc.private", NetKind::Shared, 3),
        ("myri1.popc.private", NetKind::Shared, 2),
        ("sci1.popc.private", NetKind::Switched, 6),
    ]
    .iter()
    .filter(|(host, kind, size)| {
        merged.find_containing(host).is_some_and(|n| n.kind == *kind && n.hosts.len() == *size)
    })
    .count()
}

/// E7: a pair whose two directions run at 10 and 100 Mbps, in Mbps as
/// each observer sees it.
pub struct Asymmetry {
    pub truth_ab: f64,
    pub truth_ba: f64,
    /// ENV's single figure, from one-way tests out of `a`.
    pub env: f64,
    /// The last values a deployed two-host clique stored.
    pub nws_ab: f64,
    pub nws_ba: f64,
}

impl Asymmetry {
    pub fn tenfold_by_direction(&self) -> bool {
        self.truth_ba / self.truth_ab > 8.0
    }

    pub fn nws_sees_it(&self) -> bool {
        self.nws_ba / self.nws_ab > 5.0
    }

    /// §4.3's limitation ("cannot detect such problems") and its §2.2
    /// remedy (n(n−1) directed tests).
    pub fn env_blind_nws_not(&self) -> bool {
        (self.env - self.truth_ab).abs() < 1.5 && self.nws_sees_it()
    }
}

pub fn asymmetry() -> Asymmetry {
    let net = asym_pair();
    let n = host_names(&net);
    let (a, b) = (&n[0], &n[1]);

    let mut sim = Engine::<NwsMsg>::new(net.topo.clone());
    let mut truth = |from: usize, to: usize| {
        sim.measure_bandwidth(net.hosts[from], net.hosts[to], Bytes::mib(1)).unwrap().as_mbps()
    };
    let (truth_ab, truth_ba) = (truth(0, 1), truth(1, 0));

    let mut eng = Sim::new(net.topo.clone());
    let run = EnvMapper::new(EnvConfig::fast())
        .map(&mut eng, &[HostInput::new(a), HostInput::new(b)], a, None)
        .expect("mapping succeeds");
    let env = run.view.find_containing(b).map(|n| n.base_bw_mbps).expect("b clustered");

    let mut eng: Engine<NwsMsg> = Engine::new(net.topo.clone());
    let sys = NwsSystem::deploy(&mut eng, &NwsSystemSpec::minimal(a, &[a, b])).unwrap();
    sys.run_for(&mut eng, TimeDelta::from_secs(120.0));
    let last =
        |from: &str, to: &str| bandwidths(&sys, from, to).last().copied().unwrap_or(f64::NAN);
    Asymmetry { truth_ab, truth_ba, env, nws_ab: last(a, b), nws_ba: last(b, a) }
}

/// E9: the paper's plan on ENS-Lyon after ten minutes, with or without
/// the §6 host locks. Bandwidths in Mbps.
pub struct HostLocking {
    /// `myri0 → popc0` on the 10 Mbps Hub 2 (true exclusive value ≈ 9.9).
    pub hub2_mean: f64,
    pub hub2_last: f64,
    /// `canaria → myri0`, the inter clique's pair at the shared member.
    pub inter_mean: f64,
    pub stores: u64,
}

impl HostLocking {
    /// Persistent ~50 % collisions at the shared member.
    pub fn colliding(&self) -> bool {
        self.hub2_mean < 7.0
    }

    pub fn accurate(&self) -> bool {
        self.hub2_mean > 9.0
    }
}

pub fn host_locking(m: &MappedEnsLyon, locks: bool) -> HostLocking {
    let plan = plan_deployment(&m.merged, &PlannerConfig::default());
    let mut eng: Engine<NwsMsg> = Engine::new(m.platform.topo.clone());
    let sys = apply_plan_with(&mut eng, &plan, locks).expect("deploys");
    sys.run_for(&mut eng, TimeDelta::from_secs(600.0));
    let hub2 = bandwidths(&sys, "myri0.popc.private", "popc0.popc.private");
    let inter = bandwidths(&sys, "canaria.ens-lyon.fr", "myri0.popc.private");
    HostLocking {
        hub2_mean: mean(&hub2),
        hub2_last: hub2.last().copied().unwrap_or(f64::NAN),
        inter_mean: mean(&inter),
        stores: sys.total_stores(),
    }
}

/// The GridML documents of paper §4.2 and §4.3 as XML, and what the
/// paper's listings show in the merged one.
pub struct GridmlListing {
    pub outside_xml: String,
    pub inside_xml: String,
    pub merged_xml: String,
    /// `(what the paper's listing shows, whether ours does)`.
    pub checks: Vec<(&'static str, bool)>,
}

pub fn gridml_listing(m: &MappedEnsLyon) -> GridmlListing {
    let (outside, inside) = (m.outside.to_gridml(), m.inside.to_gridml());
    let (outside_xml, inside_xml) = (outside.to_xml(), inside.to_xml());
    let merged = merge_sites(&[outside, inside], &gateway_aliases(), "Grid1");
    let xml = merged.to_xml();
    let checks = vec![
        ("ENV_Switched network present", xml.contains("ENV_Switched")),
        ("sci network lists ENV_base_BW (paper: 32.65 Mbps)", xml.contains("ENV_base_BW")),
        (
            "gateway carries both names as aliases",
            xml.contains(r#"<ALIAS name="myri0.popc.private" />"#)
                || xml.contains(r#"<ALIAS name="myri.ens-lyon.fr" />"#),
        ),
        (
            "document round-trips through the parser",
            gridml::GridDoc::parse(&xml).is_ok_and(|parsed| parsed == merged),
        ),
    ];
    GridmlListing { outside_xml, inside_xml, merged_xml: xml, checks }
}
