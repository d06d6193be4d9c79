//! Canned platforms, including the paper's evaluation network.
//!
//! [`ens_lyon`] encodes the ENS-Lyon LAN of the paper's Figure 1(a) — the
//! ground truth every experiment maps, plans against and deploys on. The
//! other generators build parametric platforms for scaling benchmarks:
//! star hubs/switches, dumbbells, an asymmetric-route pair, and random
//! hierarchical campuses / grid constellations.
//!
//! ## Encoding choices for ENS-Lyon (documented deltas)
//!
//! * The "10 Mbps" dashed segment of Figure 1(a) is modelled as the shared
//!   public hub (`Hub 2`) carrying `routlhpc` and the public interfaces of
//!   the three gateways. That is the only placement under which ENV's
//!   jammed-bandwidth experiment (paper thresholds 0.7/0.9) classifies the
//!   gateway cluster as *shared*, as Figure 1(b) reports: with the
//!   bottleneck *in front of* a faster hub, jamming would be invisible to
//!   the master's capped flow.
//! * The `sci` switch ports default to the paper's measured 32.65 Mbps
//!   (`Calibration::Paper`) so the regenerated GridML matches §4.2.2.4;
//!   `Calibration::Nominal` uses the nameplate 100 Mbps instead.
//! * Route asymmetry (§4.3) is not part of the base scenario — it is
//!   exercised separately by [`asym_pair`] (experiment E7), keeping the
//!   base traceroute tree identical to Figure 2.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::topology::{NodeId, Topology, TopologyBuilder};
use crate::units::{Bandwidth, Latency};

/// Whether to use nameplate link rates or the paper's measured ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// Nameplate rates (100 Mbps switched ports).
    Nominal,
    /// Rates calibrated to the paper's measurements (sci ports at
    /// 32.65 Mbps, the `ENV_base_BW` of §4.2.2.4's GridML listing).
    Paper,
}

/// The ENS-Lyon platform of Figure 1(a), with every interesting node
/// exposed by name.
pub struct EnsLyon {
    pub topo: Topology,
    // infrastructure
    pub external: NodeId,
    pub border: NodeId,
    pub r13: NodeId,
    pub backbone: NodeId,
    pub routlhpc: NodeId,
    pub hub1: NodeId,
    pub hub2: NodeId,
    pub hub3: NodeId,
    pub sci_switch: NodeId,
    // ens-lyon.fr hosts
    pub the_doors: NodeId,
    pub canaria: NodeId,
    pub moby: NodeId,
    // dual-homed gateways
    pub popc0: NodeId,
    pub myri0: NodeId,
    pub sci0: NodeId,
    // popc.private hosts
    pub myri1: NodeId,
    pub myri2: NodeId,
    /// sci1..sci6
    pub sci: Vec<NodeId>,
}

/// The six public hosts the outside ENV run of paper §4.2 maps from
/// the-doors, in the order the mapper visits them.
pub const ENS_LYON_OUTSIDE: [&str; 6] = [
    "the-doors.ens-lyon.fr",
    "canaria.ens-lyon.fr",
    "moby.cri2000.ens-lyon.fr",
    "myri.ens-lyon.fr",
    "popc.ens-lyon.fr",
    "sci.ens-lyon.fr",
];

/// The eleven private hosts the inside ENV run maps from sci0, in the
/// order the mapper visits them.
pub const ENS_LYON_INSIDE: [&str; 11] = [
    "popc0.popc.private",
    "myri0.popc.private",
    "sci0.popc.private",
    "myri1.popc.private",
    "myri2.popc.private",
    "sci1.popc.private",
    "sci2.popc.private",
    "sci3.popc.private",
    "sci4.popc.private",
    "sci5.popc.private",
    "sci6.popc.private",
];

/// The gateway aliases the user supplies for the merge of paper §4.3:
/// each dual-homed gateway's public name, then its private one.
pub const ENS_LYON_GATEWAYS: [(&str, &str); 3] = [
    ("popc.ens-lyon.fr", "popc0.popc.private"),
    ("myri.ens-lyon.fr", "myri0.popc.private"),
    ("sci.ens-lyon.fr", "sci0.popc.private"),
];

/// Build the ENS-Lyon platform.
pub fn ens_lyon(cal: Calibration) -> EnsLyon {
    let mut b = TopologyBuilder::new();
    let port_lat = Latency::micros(50.0);

    // ---- infrastructure --------------------------------------------------
    // Hub 1: the ens-lyon.fr segment with the master and two workstations.
    let hub1 = b.hub("Hub1", Bandwidth::mbps(100.0), port_lat);
    // Hub 2: the 10 Mbps public segment of the popc domain (see module
    // docs for why the bottleneck *is* the shared medium).
    let hub2 = b.hub("Hub2", Bandwidth::mbps(10.0), port_lat);
    // Hub 3: the myri cluster's private 100 Mbps hub.
    let hub3 = b.hub("Hub3", Bandwidth::mbps(100.0), port_lat);
    let sci_rate = match cal {
        Calibration::Nominal => Bandwidth::mbps(100.0),
        Calibration::Paper => Bandwidth::mbps(32.65),
    };
    let sci_switch = b.switch("SciSwitch", sci_rate, port_lat);

    let border = b.router_unnamed("192.168.254.1");
    let r13 = b.router_unnamed("140.77.13.1");
    let backbone = b.router("routeur-backbone.ens-lyon.fr", "140.77.161.1");
    let routlhpc = b.router("routlhpc.ens-lyon.fr", "140.77.12.1");
    let external = b.external("well-known.example.org", "198.51.100.1");

    // ---- ens-lyon.fr hosts ------------------------------------------------
    let the_doors = b.host("the-doors.ens-lyon.fr", "140.77.13.10");
    let canaria = b.host("canaria.ens-lyon.fr", "140.77.13.229");
    let moby = b.host("moby.cri2000.ens-lyon.fr", "140.77.13.82");

    // ---- dual-homed gateways (iface 0 public, iface 1 private) ------------
    let popc0 = b.host_multi(
        "popc0",
        &[("popc.ens-lyon.fr", "140.77.12.51"), ("popc0.popc.private", "192.168.81.51")],
    );
    let myri0 = b.host_multi(
        "myri0",
        &[("myri.ens-lyon.fr", "140.77.12.52"), ("myri0.popc.private", "192.168.81.50")],
    );
    let sci0 = b.host_multi(
        "sci0",
        &[("sci.ens-lyon.fr", "140.77.12.53"), ("sci0.popc.private", "192.168.81.53")],
    );
    for gw in [popc0, myri0, sci0] {
        b.set_forwards(gw, true);
    }

    // ---- popc.private hosts ------------------------------------------------
    let myri1 = b.host("myri1.popc.private", "192.168.81.61");
    let myri2 = b.host("myri2.popc.private", "192.168.81.62");
    let sci: Vec<NodeId> = (1..=6)
        .map(|i| b.host(&format!("sci{i}.popc.private"), &format!("192.168.81.7{i}")))
        .collect();

    // ---- wiring -------------------------------------------------------------
    b.attach(the_doors, hub1);
    b.attach(canaria, hub1);
    b.attach(moby, hub1);
    b.attach(r13, hub1);

    b.link(r13, border, Bandwidth::mbps(100.0), Latency::micros(200.0));
    b.link(backbone, border, Bandwidth::mbps(1000.0), Latency::micros(100.0));
    b.link(backbone, routlhpc, Bandwidth::mbps(100.0), Latency::micros(100.0));
    b.link(border, external, Bandwidth::mbps(100.0), Latency::millis(5.0));

    b.attach(routlhpc, hub2);
    b.attach_iface(popc0, 0, hub2);
    b.attach_iface(myri0, 0, hub2);
    b.attach_iface(sci0, 0, hub2);

    b.attach_iface(myri0, 1, hub3);
    b.attach(myri1, hub3);
    b.attach(myri2, hub3);

    b.attach_iface(sci0, 1, sci_switch);
    for s in &sci {
        b.attach(*s, sci_switch);
    }

    // ---- firewall -------------------------------------------------------------
    // Inner private hosts cannot cross to the public world; the gateways
    // (absent from the rule) can.
    let mut inner = vec![myri1, myri2];
    inner.extend(&sci);
    let outer = vec![the_doors, canaria, moby, external];
    b.firewall_deny_between(&inner, &outer);

    let topo = b.build().expect("ens-lyon scenario is well-formed");
    EnsLyon {
        topo,
        external,
        border,
        r13,
        backbone,
        routlhpc,
        hub1,
        hub2,
        hub3,
        sci_switch,
        the_doors,
        canaria,
        moby,
        popc0,
        myri0,
        sci0,
        myri1,
        myri2,
        sci,
    }
}

/// A generated platform plus the handles benchmarks need.
pub struct GeneratedNet {
    pub topo: Topology,
    pub hosts: Vec<NodeId>,
    /// A designated vantage point for ENV runs.
    pub master: NodeId,
    /// External traceroute target, when the platform has one.
    pub external: Option<NodeId>,
}

/// `n` hosts on one shared hub.
pub fn star_hub(n: usize, rate: Bandwidth) -> GeneratedNet {
    assert!(n >= 2);
    let mut b = TopologyBuilder::new();
    let hub = b.hub("hub", rate, Latency::micros(50.0));
    let hosts: Vec<NodeId> = (0..n)
        .map(|i| {
            let h = b.host(&format!("h{i}.hub.net"), &format!("10.1.{}.{}", i / 250, i % 250 + 1));
            b.attach(h, hub);
            h
        })
        .collect();
    let master = hosts[0];
    GeneratedNet { topo: b.build().unwrap(), hosts, master, external: None }
}

/// `n` hosts on one switch.
pub fn star_switch(n: usize, rate: Bandwidth) -> GeneratedNet {
    assert!(n >= 2);
    let mut b = TopologyBuilder::new();
    let sw = b.switch("sw", rate, Latency::micros(50.0));
    let hosts: Vec<NodeId> = (0..n)
        .map(|i| {
            let h = b.host(&format!("h{i}.sw.net"), &format!("10.2.{}.{}", i / 250, i % 250 + 1));
            b.attach(h, sw);
            h
        })
        .collect();
    let master = hosts[0];
    GeneratedNet { topo: b.build().unwrap(), hosts, master, external: None }
}

/// Two switched clusters joined by a bottleneck link:
/// `left` hosts — switch — router —(bottleneck)— router — switch — `right`
/// hosts.
pub fn dumbbell(left: usize, right: usize, bottleneck: Bandwidth) -> GeneratedNet {
    let mut b = TopologyBuilder::new();
    let sw_l = b.switch("swL", Bandwidth::mbps(100.0), Latency::micros(50.0));
    let sw_r = b.switch("swR", Bandwidth::mbps(100.0), Latency::micros(50.0));
    let r_l = b.router("gwL.dumb.net", "10.3.0.1");
    let r_r = b.router("gwR.dumb.net", "10.3.0.2");
    b.attach(r_l, sw_l);
    b.attach(r_r, sw_r);
    b.link(r_l, r_r, bottleneck, Latency::millis(1.0));
    let mut hosts = Vec::new();
    for i in 0..left {
        let h = b.host(&format!("l{i}.dumb.net"), &format!("10.3.1.{}", i + 1));
        b.attach(h, sw_l);
        hosts.push(h);
    }
    for i in 0..right {
        let h = b.host(&format!("r{i}.dumb.net"), &format!("10.3.2.{}", i + 1));
        b.attach(h, sw_r);
        hosts.push(h);
    }
    let master = hosts[0];
    GeneratedNet { topo: b.build().unwrap(), hosts, master, external: None }
}

/// Two hosts with asymmetric routes: the a→b direction crosses a 10 Mbps
/// link, the b→a direction 100 Mbps links only — the situation ENV's
/// one-way tests cannot detect (paper §4.3, experiment E7).
pub fn asym_pair() -> GeneratedNet {
    let mut b = TopologyBuilder::new();
    let a = b.host("a.asym.net", "10.4.0.1");
    let c = b.host("b.asym.net", "10.4.0.2");
    let r_slow = b.router("r-slow.asym.net", "10.4.1.1");
    let r_fast = b.router("r-fast.asym.net", "10.4.1.2");
    let l1 = b.link(a, r_slow, Bandwidth::mbps(10.0), Latency::millis(1.0));
    let l2 = b.link(r_slow, c, Bandwidth::mbps(10.0), Latency::millis(1.0));
    let l3 = b.link(a, r_fast, Bandwidth::mbps(100.0), Latency::millis(1.0));
    let l4 = b.link(r_fast, c, Bandwidth::mbps(100.0), Latency::millis(1.0));
    // a→b prefers the slow router; b→a prefers the fast one.
    b.set_weights(l1, 1.0, 50.0);
    b.set_weights(l2, 1.0, 50.0);
    b.set_weights(l3, 50.0, 1.0);
    b.set_weights(l4, 50.0, 1.0);
    GeneratedNet { topo: b.build().unwrap(), hosts: vec![a, c], master: a, external: None }
}

/// Parameters for [`random_campus`].
#[derive(Debug, Clone)]
pub struct CampusParams {
    /// Number of leaf LANs.
    pub lans: usize,
    /// Hosts per LAN (uniform in the given range).
    pub hosts_per_lan: (usize, usize),
    /// Probability that a LAN is a hub (vs a switch).
    pub hub_fraction: f64,
    /// LAN rate choices (picked uniformly).
    pub lan_rates_mbps: Vec<f64>,
    /// Backbone link rate.
    pub backbone_mbps: f64,
}

impl Default for CampusParams {
    fn default() -> Self {
        CampusParams {
            lans: 4,
            hosts_per_lan: (2, 6),
            hub_fraction: 0.5,
            lan_rates_mbps: vec![10.0, 100.0],
            backbone_mbps: 1000.0,
        }
    }
}

/// Ground truth for a generated campus LAN, used to score mapper output.
pub struct CampusTruth {
    /// For each LAN: (member hosts, is_hub, rate).
    pub lans: Vec<(Vec<NodeId>, bool, Bandwidth)>,
}

/// A random two-level campus: LANs (hub or switch) hang off routers on a
/// backbone, and an external destination sits behind a border router.
/// Deterministic for a given seed.
pub fn random_campus(seed: u64, params: &CampusParams) -> (GeneratedNet, CampusTruth) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let border = b.router_unnamed("192.168.254.1");
    let external = b.external("well-known.example.org", "198.51.100.1");
    b.link(border, external, Bandwidth::mbps(params.backbone_mbps), Latency::millis(5.0));
    let backbone = b.router("backbone.campus.net", "10.250.0.1");
    b.link(backbone, border, Bandwidth::mbps(params.backbone_mbps), Latency::micros(100.0));

    let mut hosts = Vec::new();
    let mut truth = Vec::new();
    for lan in 0..params.lans {
        let is_hub = rng.gen_range(0.0..1.0) < params.hub_fraction;
        let rate_mbps = params.lan_rates_mbps[rng.gen_range(0..params.lan_rates_mbps.len())];
        let rate = Bandwidth::mbps(rate_mbps);
        let n = rng.gen_range(params.hosts_per_lan.0..=params.hosts_per_lan.1);
        let router = b.router(&format!("gw{lan}.campus.net"), &format!("10.{}.0.1", lan + 1));
        b.link(router, backbone, Bandwidth::mbps(params.backbone_mbps), Latency::micros(100.0));
        let infra = if is_hub {
            b.hub(&format!("lan{lan}"), rate, Latency::micros(50.0))
        } else {
            b.switch(&format!("lan{lan}"), rate, Latency::micros(50.0))
        };
        b.attach(router, infra);
        let mut members = Vec::new();
        for h in 0..n {
            let host = b
                .host(&format!("h{h}.lan{lan}.campus.net"), &format!("10.{}.1.{}", lan + 1, h + 1));
            b.attach(host, infra);
            members.push(host);
            hosts.push(host);
        }
        truth.push((members, is_hub, rate));
    }
    let master = hosts[0];
    (
        GeneratedNet { topo: b.build().unwrap(), hosts, master, external: Some(external) },
        CampusTruth { lans: truth },
    )
}

/// A WAN constellation of campuses ("Grid testbeds are ... a WAN
/// constellation of LAN resources", paper §5): several campuses joined by
/// slow wide-area links to a core router.
pub fn grid_constellation(seed: u64, sites: usize, params: &CampusParams) -> GeneratedNet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let core = b.router_unnamed("192.0.2.1");
    let external = b.external("well-known.example.org", "198.51.100.1");
    b.link(core, external, Bandwidth::mbps(1000.0), Latency::millis(2.0));

    let mut hosts = Vec::new();
    for s in 0..sites {
        let site_router =
            b.router(&format!("border.site{s}.grid.org"), &format!("10.{}.250.1", 100 + s));
        let wan_mbps = [10.0, 34.0, 100.0][rng.gen_range(0..3)];
        b.link(
            site_router,
            core,
            Bandwidth::mbps(wan_mbps),
            Latency::millis(rng.gen_range(5.0..40.0)),
        );
        for lan in 0..params.lans {
            let is_hub = rng.gen_range(0.0..1.0) < params.hub_fraction;
            let rate = Bandwidth::mbps(
                params.lan_rates_mbps[rng.gen_range(0..params.lan_rates_mbps.len())],
            );
            let infra = if is_hub {
                b.hub(&format!("s{s}lan{lan}"), rate, Latency::micros(50.0))
            } else {
                b.switch(&format!("s{s}lan{lan}"), rate, Latency::micros(50.0))
            };
            let gw = b.router(
                &format!("gw{lan}.site{s}.grid.org"),
                &format!("10.{}.{}.1", 100 + s, lan + 1),
            );
            b.link(gw, site_router, Bandwidth::mbps(1000.0), Latency::micros(100.0));
            b.attach(gw, infra);
            let n = rng.gen_range(params.hosts_per_lan.0..=params.hosts_per_lan.1);
            for h in 0..n {
                let host = b.host(
                    &format!("h{h}.lan{lan}.site{s}.grid.org"),
                    &format!("10.{}.{}.{}", 100 + s, lan + 1, h + 2),
                );
                b.attach(host, infra);
                hosts.push(host);
            }
        }
    }
    let master = hosts[0];
    GeneratedNet { topo: b.build().unwrap(), hosts, master, external: Some(external) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::units::Bytes;

    impl EnsLyon {
        /// All end hosts of the platform (the machines ENV maps).
        fn all_hosts(&self) -> Vec<NodeId> {
            let mut v = vec![
                self.the_doors,
                self.canaria,
                self.moby,
                self.popc0,
                self.myri0,
                self.sci0,
                self.myri1,
                self.myri2,
            ];
            v.extend(&self.sci);
            v
        }

        /// Hosts visible from the public side (the outside ENV run's input).
        fn public_hosts(&self) -> Vec<NodeId> {
            vec![self.the_doors, self.canaria, self.moby, self.popc0, self.myri0, self.sci0]
        }

        /// Hosts of the private domain (the inside ENV run's input).
        fn private_hosts(&self) -> Vec<NodeId> {
            let mut v = vec![self.popc0, self.myri0, self.sci0, self.myri1, self.myri2];
            v.extend(&self.sci);
            v
        }
    }

    #[test]
    fn ens_lyon_builds_and_exposes_hosts() {
        let net = ens_lyon(Calibration::Paper);
        assert_eq!(net.all_hosts().len(), 14);
        assert_eq!(net.public_hosts().len(), 6);
        assert_eq!(net.private_hosts().len(), 11);
        assert_eq!(net.topo.hosts().count(), 14);

        // The run sets name exactly those hosts, and each gateway alias
        // names one machine twice.
        let node = |name: &str| net.topo.node_by_name(name).expect("an ENS-Lyon name");
        assert_eq!(ENS_LYON_INSIDE.map(node).to_vec(), net.private_hosts());
        let (mut outside, mut public) = (ENS_LYON_OUTSIDE.map(node).to_vec(), net.public_hosts());
        outside.sort();
        public.sort();
        assert_eq!(outside, public);
        for (public, private) in ENS_LYON_GATEWAYS {
            assert_eq!(node(public), node(private));
        }
    }

    #[test]
    fn ens_lyon_bottleneck_from_master() {
        let net = ens_lyon(Calibration::Paper);
        let mut sim = Sim::new(net.topo.clone());
        // the-doors → popc0 crosses the 10 Mbps Hub 2.
        let bw = sim.measure_bandwidth(net.the_doors, net.popc0, Bytes::mib(1)).unwrap();
        assert!((bw.as_mbps() - 10.0).abs() < 0.3, "got {bw}");
        // the-doors → canaria stays on the 100 Mbps Hub 1.
        let bw = sim.measure_bandwidth(net.the_doors, net.canaria, Bytes::mib(1)).unwrap();
        assert!((bw.as_mbps() - 100.0).abs() < 2.0, "got {bw}");
    }

    #[test]
    fn ens_lyon_sci_rate_depends_on_calibration() {
        let paper = ens_lyon(Calibration::Paper);
        let mut sim = Sim::new(paper.topo.clone());
        let bw = sim.measure_bandwidth(paper.sci[0], paper.sci[1], Bytes::mib(1)).unwrap();
        assert!((bw.as_mbps() - 32.65).abs() < 0.5, "got {bw}");

        let nominal = ens_lyon(Calibration::Nominal);
        let mut sim = Sim::new(nominal.topo.clone());
        let bw = sim.measure_bandwidth(nominal.sci[0], nominal.sci[1], Bytes::mib(1)).unwrap();
        assert!((bw.as_mbps() - 100.0).abs() < 2.0, "got {bw}");
    }

    #[test]
    fn ens_lyon_firewall_blocks_inner_hosts() {
        let net = ens_lyon(Calibration::Paper);
        let mut sim = Sim::new(net.topo.clone());
        assert!(sim.measure_bandwidth(net.the_doors, net.sci[0], Bytes::kib(64)).is_err());
        assert!(sim.measure_bandwidth(net.myri1, net.external, Bytes::kib(64)).is_err());
        // Gateways cross freely.
        assert!(sim.measure_bandwidth(net.the_doors, net.sci0, Bytes::kib(64)).is_ok());
        assert!(sim.measure_bandwidth(net.sci0, net.sci[2], Bytes::kib(64)).is_ok());
    }

    #[test]
    fn ens_lyon_traceroute_matches_figure_2() {
        let net = ens_lyon(Calibration::Paper);
        let mut sim = Sim::new(net.topo.clone());
        // From the ens-lyon.fr side: 140.77.13.1 then 192.168.254.1.
        let hops = sim.traceroute(net.the_doors, net.external).unwrap();
        let ips: Vec<String> = hops.iter().map(|h| h.ip.unwrap().to_string()).collect();
        assert_eq!(ips, vec!["140.77.13.1", "192.168.254.1"]);
        // From the gateways: routlhpc, routeur-backbone, 192.168.254.1.
        let hops = sim.traceroute(net.myri0, net.external).unwrap();
        let names: Vec<Option<&str>> = hops.iter().map(|h| h.name.as_deref()).collect();
        assert_eq!(
            names,
            vec![Some("routlhpc.ens-lyon.fr"), Some("routeur-backbone.ens-lyon.fr"), None]
        );
    }

    #[test]
    fn ens_lyon_myri_cluster_local_vs_master_bandwidth() {
        // The paper's "internal host bandwidth" motivation: myri1↔myri2 run
        // at 100 Mbps locally although the master only reaches them at 10.
        let net = ens_lyon(Calibration::Paper);
        let mut sim = Sim::new(net.topo.clone());
        let local = sim.measure_bandwidth(net.myri1, net.myri2, Bytes::mib(1)).unwrap();
        assert!((local.as_mbps() - 100.0).abs() < 2.0, "got {local}");
        let from_master = sim.measure_bandwidth(net.the_doors, net.myri0, Bytes::mib(1)).unwrap();
        assert!((from_master.as_mbps() - 10.0).abs() < 0.3, "got {from_master}");
    }

    #[test]
    fn star_generators() {
        let hub = star_hub(5, Bandwidth::mbps(100.0));
        assert_eq!(hub.hosts.len(), 5);
        let mut sim = Sim::new(hub.topo);
        let res = sim.measure_bandwidth_concurrent(
            &[(hub.hosts[1], hub.hosts[2]), (hub.hosts[3], hub.hosts[4])],
            Bytes::mib(1),
        );
        assert!((res[0].as_ref().unwrap().as_mbps() - 50.0).abs() < 1.0);

        let sw = star_switch(5, Bandwidth::mbps(100.0));
        let mut sim = Sim::new(sw.topo);
        let res = sim.measure_bandwidth_concurrent(
            &[(sw.hosts[1], sw.hosts[2]), (sw.hosts[3], sw.hosts[4])],
            Bytes::mib(1),
        );
        assert!((res[0].as_ref().unwrap().as_mbps() - 100.0).abs() < 2.0);
    }

    #[test]
    fn dumbbell_bottleneck_visible() {
        let net = dumbbell(3, 3, Bandwidth::mbps(10.0));
        let mut sim = Sim::new(net.topo);
        let bw = sim.measure_bandwidth(net.hosts[0], net.hosts[3], Bytes::mib(1)).unwrap();
        assert!((bw.as_mbps() - 10.0).abs() < 0.3);
        let bw = sim.measure_bandwidth(net.hosts[0], net.hosts[1], Bytes::mib(1)).unwrap();
        assert!(bw.as_mbps() > 90.0);
    }

    #[test]
    fn asym_pair_directions_differ() {
        let net = asym_pair();
        let mut sim = Sim::new(net.topo);
        let fwd = sim.measure_bandwidth(net.hosts[0], net.hosts[1], Bytes::mib(1)).unwrap();
        let back = sim.measure_bandwidth(net.hosts[1], net.hosts[0], Bytes::mib(1)).unwrap();
        assert!((fwd.as_mbps() - 10.0).abs() < 0.3, "fwd {fwd}");
        // The timed transfer includes 4 ms of round-trip latency, so the
        // observed figure sits a few percent under the nameplate rate.
        assert!(back.as_mbps() > 90.0, "back {back}");
        assert!(back.ratio(fwd) > 8.0, "asymmetry must be an order of magnitude");
    }

    #[test]
    fn random_campus_is_deterministic_and_mappable() {
        let (n1, t1) = random_campus(7, &CampusParams::default());
        let (n2, _) = random_campus(7, &CampusParams::default());
        assert_eq!(n1.hosts.len(), n2.hosts.len());
        assert_eq!(t1.lans.len(), 4);
        // Hosts on different LANs route via the backbone.
        let mut sim = Sim::new(n1.topo);
        let a = t1.lans[0].0[0];
        let b_ = t1.lans[1].0[0];
        assert!(sim.measure_bandwidth(a, b_, Bytes::kib(256)).is_ok());
        // Traceroute to the external target works (structural phase).
        assert!(sim.traceroute(a, n1.external.unwrap()).unwrap().len() >= 2);
    }

    #[test]
    fn grid_constellation_builds() {
        let net = grid_constellation(3, 3, &CampusParams::default());
        assert!(net.hosts.len() >= 3 * 4 * 2);
        let mut sim = Sim::new(net.topo);
        let bw = sim
            .measure_bandwidth(net.hosts[0], *net.hosts.last().unwrap(), Bytes::kib(256))
            .unwrap();
        assert!(bw.as_mbps() > 0.5);
    }
}
