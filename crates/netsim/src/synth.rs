//! Seeded synthetic scenario families for pipeline-scale experiments.
//!
//! The paper validates ENV on a single hand-built campus LAN
//! ([`crate::scenarios::ens_lyon`]). The generators here produce *families*
//! of platforms at arbitrary host counts, each with **ground-truth cluster
//! labels**, so mapper output can be scored automatically instead of being
//! checked against one hand-written figure:
//!
//! * [`synth_campus`] — star-of-stars campus LANs (ENS-Lyon-like): hub or
//!   switch leaf LANs behind per-LAN routers on a backbone;
//! * `synth_fat_tree` — a pod/edge fat-tree cluster with over-provisioned
//!   uplinks;
//! * `synth_grid` — a multi-site grid whose private subnets sit behind
//!   dual-homed gateway hosts, optionally firewalled like the paper's
//!   `popc.private` domain;
//! * `synth_wan` — an asymmetric WAN backbone chain with per-direction
//!   link capacities, sites hanging off each backbone hop.
//!
//! ## Effective versus physical truth
//!
//! The labels emitted are the **effective** clusters a correct
//! master-dependent ENV run should report, which is not always the physical
//! layer-2 partition. In the fat-tree, for example, hosts of one pod sit on
//! several edge switches, but every master→host probe bottlenecks on the
//! master's own port, so ENV's pairwise test correctly finds all pod
//! members mutually dependent: the effective truth is *one cluster per
//! pod*. This mirrors the paper's own observation that the view is relative
//! to the master (§4.2.2) — the scoring target is "what a correct mapper
//! sees", not "what the wiring diagram says".
//!
//! All generators are deterministic for a given seed and hit the requested
//! host count exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::scenarios::GeneratedNet;
use crate::topology::{NodeId, TopologyBuilder};
use crate::units::{Bandwidth, Latency};

/// The scenario families the generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthFamily {
    /// Star-of-stars campus: leaf LANs behind per-LAN routers.
    Campus,
    /// Pod/edge fat-tree cluster.
    FatTree,
    /// Multi-site grid with private subnets behind gateway hosts.
    Grid,
    /// Asymmetric WAN backbone chain.
    WanBackbone,
}

impl SynthFamily {
    pub const ALL: [SynthFamily; 4] =
        [SynthFamily::Campus, SynthFamily::FatTree, SynthFamily::Grid, SynthFamily::WanBackbone];

    pub fn name(self) -> &'static str {
        match self {
            SynthFamily::Campus => "campus",
            SynthFamily::FatTree => "fat_tree",
            SynthFamily::Grid => "grid_firewalled",
            SynthFamily::WanBackbone => "wan_backbone",
        }
    }
}

/// One ground-truth effective cluster.
#[derive(Debug, Clone)]
pub struct TruthCluster {
    /// Member hosts (mapped hosts only; may include the designated master,
    /// which scorers exclude).
    pub members: Vec<NodeId>,
    /// Whether the physical medium is a shared hub (vs switched / routed).
    pub is_hub: bool,
    /// Nominal medium rate.
    pub rate: Bandwidth,
}

/// Ground-truth labels for a generated scenario.
#[derive(Debug, Clone, Default)]
pub struct SynthTruth {
    pub clusters: Vec<TruthCluster>,
}

/// A generated scenario: the platform plus its scoring labels.
pub struct SynthScenario {
    pub family: SynthFamily,
    pub net: GeneratedNet,
    pub truth: SynthTruth,
}

impl SynthScenario {
    /// The DNS name of a mapped host (every synth host has one).
    pub fn host_name(&self, n: NodeId) -> String {
        self.net.topo.node(n).ifaces[0].name.clone().expect("synth hosts are named")
    }

    /// Names of the hosts an ENV run maps, master first.
    pub fn input_names(&self) -> Vec<String> {
        self.net.hosts.iter().map(|h| self.host_name(*h)).collect()
    }

    pub fn master_name(&self) -> String {
        self.host_name(self.net.master)
    }

    /// The external traceroute target's name, when the family has one.
    pub fn external_name(&self) -> Option<String> {
        self.net
            .external
            .map(|e| self.net.topo.node(e).ifaces[0].name.clone().expect("external is named"))
    }

    /// Ground-truth clusters as name lists (the scoring input).
    pub fn truth_labels(&self) -> Vec<Vec<String>> {
        self.truth
            .clusters
            .iter()
            .map(|c| c.members.iter().map(|m| self.host_name(*m)).collect())
            .collect()
    }
}

/// Generate one scenario of the given family with exactly `hosts` mapped
/// hosts. Deterministic per `(family, seed, hosts)`.
pub fn synth(family: SynthFamily, seed: u64, hosts: usize) -> SynthScenario {
    match family {
        SynthFamily::Campus => synth_campus(seed, hosts),
        SynthFamily::FatTree => synth_fat_tree(seed, hosts),
        SynthFamily::Grid => synth_grid(seed, hosts, true),
        SynthFamily::WanBackbone => synth_wan(seed, hosts),
    }
}

/// Split `total` into group sizes drawn from `lo..=hi`, hitting `total`
/// exactly (a too-small remainder is folded into the previous group).
fn group_sizes(rng: &mut SmallRng, total: usize, lo: usize, hi: usize) -> Vec<usize> {
    assert!(lo >= 2 && hi >= lo);
    let mut sizes = Vec::new();
    let mut left = total;
    while left > 0 {
        let mut n = rng.gen_range(lo..=hi).min(left);
        let after = left - n;
        if after > 0 && after < lo {
            // Absorb the stub so every group keeps at least `lo` members.
            n = left.min(hi + lo);
        }
        sizes.push(n);
        left -= n;
    }
    sizes
}

/// Star-of-stars campus: `hosts` end hosts over hub/switch leaf LANs, each
/// LAN behind its own router on a gigabit backbone, with a border router
/// and an external traceroute target. Effective truth: one cluster per LAN.
pub fn synth_campus(seed: u64, hosts: usize) -> SynthScenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let border = b.router_unnamed("192.168.254.1");
    let external = b.external("well-known.example.org", "198.51.100.1");
    b.link(border, external, Bandwidth::mbps(1000.0), Latency::millis(5.0));
    let backbone = b.router("backbone.campus.synth", "10.254.0.1");
    b.link(backbone, border, Bandwidth::mbps(1000.0), Latency::micros(100.0));

    let sizes = group_sizes(&mut rng, hosts, 4, 10);
    // LANs 0..248 live under 10/8 exactly as before; each further block of
    // 250 LANs spills into the next /8 (11/8, 12/8, …) — the 50k-host tier
    // needs ~7.2k LANs, i.e. first octets up to ~39, far below the 192/198
    // anchors the border and external target occupy.
    assert!(sizes.len() < 45_000, "campus IP plan supports < 45k LANs");
    let mut all_hosts = Vec::new();
    let mut clusters = Vec::new();
    for (lan, &n) in sizes.iter().enumerate() {
        let is_hub = rng.gen_range(0.0..1.0) < 0.5;
        let rate = Bandwidth::mbps([10.0, 100.0][rng.gen_range(0..2)]);
        let (net8, oct) = (10 + (lan + 1) / 250, (lan + 1) % 250);
        let gw = b.router(&format!("gw{lan}.campus.synth"), &format!("{net8}.{oct}.0.1"));
        b.link(gw, backbone, Bandwidth::mbps(1000.0), Latency::micros(100.0));
        let infra = if is_hub {
            b.hub(&format!("lan{lan}"), rate, Latency::micros(50.0))
        } else {
            b.switch(&format!("lan{lan}"), rate, Latency::micros(50.0))
        };
        b.attach(gw, infra);
        let mut members = Vec::new();
        for h in 0..n {
            let host = b
                .host(&format!("h{h}.lan{lan}.campus.synth"), &format!("{net8}.{oct}.1.{}", h + 1));
            b.attach(host, infra);
            members.push(host);
            all_hosts.push(host);
        }
        clusters.push(TruthCluster { members, is_hub, rate });
    }
    let master = all_hosts[0];
    SynthScenario {
        family: SynthFamily::Campus,
        net: GeneratedNet {
            topo: b.build().expect("campus builds"),
            hosts: all_hosts,
            master,
            external: Some(external),
        },
        truth: SynthTruth { clusters },
    }
}

/// Pod/edge fat-tree: pods of 100 Mbps edge switches behind pod routers on
/// a 1 Gbps core. Physically each edge switch is its own segment, but from
/// any master the per-pod probes all bottleneck on the master's port, so
/// the effective truth is one (switched) cluster per pod — see the module
/// docs on effective vs physical truth.
pub(crate) fn synth_fat_tree(seed: u64, hosts: usize) -> SynthScenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let border = b.router_unnamed("192.168.254.1");
    let external = b.external("well-known.example.org", "198.51.100.1");
    b.link(border, external, Bandwidth::mbps(1000.0), Latency::millis(5.0));
    let core = b.router("core.fat.synth", "10.254.0.1");
    b.link(core, border, Bandwidth::mbps(1000.0), Latency::micros(100.0));

    // Pods of 8..=24 hosts, split internally over 100 Mbps edge switches.
    // Pods 0..248 keep their historical `10.{p+1}` second octet; each
    // further block of 250 pods spills into the next /8 (11/8, 12/8, …),
    // so the second octet never reaches the core's 10.254 anchor.
    let pod_sizes = group_sizes(&mut rng, hosts, 8, 24);
    assert!(pod_sizes.len() < 45_000, "fat-tree IP plan supports < 45k pods");
    let rate = Bandwidth::mbps(100.0);
    let mut all_hosts = Vec::new();
    let mut clusters = Vec::new();
    for (p, &n) in pod_sizes.iter().enumerate() {
        let (net8, oct) = (10 + (p + 1) / 250, (p + 1) % 250);
        let pod_r = b.router(&format!("pod{p}.fat.synth"), &format!("{net8}.{oct}.0.1"));
        b.link(pod_r, core, Bandwidth::mbps(1000.0), Latency::micros(100.0));
        let edge_sizes = group_sizes(&mut rng, n, 4, 8);
        let mut members = Vec::new();
        for (e, &en) in edge_sizes.iter().enumerate() {
            let sw = b.switch(&format!("p{p}e{e}"), rate, Latency::micros(30.0));
            b.attach(pod_r, sw);
            for h in 0..en {
                let host = b.host(
                    &format!("h{h}.e{e}.pod{p}.fat.synth"),
                    &format!("{net8}.{oct}.{}.{}", e + 1, h + 2),
                );
                b.attach(host, sw);
                members.push(host);
                all_hosts.push(host);
            }
        }
        clusters.push(TruthCluster { members, is_hub: false, rate });
    }
    let master = all_hosts[0];
    SynthScenario {
        family: SynthFamily::FatTree,
        net: GeneratedNet {
            topo: b.build().expect("fat-tree builds"),
            hosts: all_hosts,
            master,
            external: Some(external),
        },
        truth: SynthTruth { clusters },
    }
}

/// Multi-site grid with firewalled private subnets. Each site hangs a
/// dual-homed gateway host off a WAN core; behind it sit private leaf LANs.
/// With `firewalled`, inner hosts of different sites cannot cross (and
/// cannot reach the external target) — only the gateways can, exactly like
/// the paper's `popc.private` domain.
///
/// The mapped host set (and the `hosts` count) is what an *inside* ENV run
/// from site 0 can see: site 0's inner hosts plus every site's gateway.
/// Effective truth: one cluster per site-0 LAN, the foreign gateways as one
/// cluster (they share the exit path and the master's-port bottleneck), and
/// site 0's own gateway as a singleton.
pub(crate) fn synth_grid(seed: u64, hosts: usize, firewalled: bool) -> SynthScenario {
    const SITES: usize = 6;
    assert!(hosts > 2 * SITES, "grid needs room for site-0 LANs beside the gateways");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let core = b.router_unnamed("192.0.2.1");
    let external = b.external("well-known.example.org", "198.51.100.1");
    b.link(core, external, Bandwidth::mbps(1000.0), Latency::millis(2.0));

    let mut gateways = Vec::new();
    let mut inner_by_site: Vec<Vec<NodeId>> = Vec::new();
    let mut site0_clusters: Vec<TruthCluster> = Vec::new();
    for s in 0..SITES {
        let gw = b.host_multi(
            &format!("gw{s}"),
            &[
                (&format!("gw.site{s}.grid.synth"), &format!("10.{}.250.1", s + 1)),
                (&format!("gw{s}.priv.site{s}.grid.synth"), &format!("172.{}.0.1", 16 + s)),
            ],
        );
        b.set_forwards(gw, true);
        let wan_mbps = [100.0, 155.0, 622.0][rng.gen_range(0..3)];
        b.link_ifaces(
            gw,
            0,
            core,
            0,
            Bandwidth::mbps(wan_mbps),
            Latency::millis(rng.gen_range(2.0..20.0)),
        );
        let site_r = b.router(&format!("r.site{s}.grid.synth"), &format!("172.{}.0.2", 16 + s));
        b.link_ifaces(gw, 1, site_r, 0, Bandwidth::mbps(1000.0), Latency::micros(100.0));

        // Site 0 carries the mapped LANs; other sites a little scenery.
        let site_hosts = if s == 0 { hosts - SITES } else { 4 };
        let sizes = group_sizes(&mut rng, site_hosts, 4, 10);
        // LANs 0..248 of a site keep their 172.{16+s} octet; each further
        // block of 250 LANs steps the second octet by 16 (172.{32+s},
        // 172.{48+s}, …, still disjoint across the <16 sites), and after
        // 15 such blocks the *first* octet spills to 173, 174, … (only
        // site 0 is ever big enough to need any of this; the 50k tier
        // reaches o1 ≈ 175, far below the 192/198 anchors).
        assert!(sizes.len() < 45_000, "grid IP plan supports < 45k LANs per site");
        let mut inner = Vec::new();
        for (lan, &n) in sizes.iter().enumerate() {
            let is_hub = rng.gen_range(0.0..1.0) < 0.5;
            let rate = Bandwidth::mbps([10.0, 100.0][rng.gen_range(0..2)]);
            let block = (lan + 1) / 250;
            let (o1, o2, o3) = (172 + block / 15, 16 + s + 16 * (block % 15), (lan + 1) % 250);
            let lr = b.router(&format!("r{lan}.site{s}.grid.synth"), &format!("{o1}.{o2}.{o3}.1"));
            b.link(lr, site_r, Bandwidth::mbps(1000.0), Latency::micros(100.0));
            let infra = if is_hub {
                b.hub(&format!("s{s}lan{lan}"), rate, Latency::micros(50.0))
            } else {
                b.switch(&format!("s{s}lan{lan}"), rate, Latency::micros(50.0))
            };
            b.attach(lr, infra);
            let mut members = Vec::new();
            for h in 0..n {
                let host = b.host(
                    &format!("h{h}.lan{lan}.site{s}.grid.synth"),
                    &format!("{o1}.{o2}.{o3}.{}", h + 2),
                );
                b.attach(host, infra);
                members.push(host);
                inner.push(host);
            }
            if s == 0 {
                site0_clusters.push(TruthCluster { members, is_hub, rate });
            }
        }
        gateways.push(gw);
        inner_by_site.push(inner);
    }

    if firewalled {
        // Inner hosts may not cross sites nor reach the outside world; the
        // gateways (absent from the rules) pass freely.
        for i in 0..SITES {
            for j in (i + 1)..SITES {
                b.firewall_deny_between(&inner_by_site[i], &inner_by_site[j]);
            }
            b.firewall_deny_between(&inner_by_site[i], &[external]);
        }
    }

    // Mapped set: site-0 inner hosts first (master leads), then gateways.
    let mut mapped = inner_by_site[0].clone();
    mapped.extend(&gateways);
    let master = mapped[0];

    let mut clusters = site0_clusters;
    // Foreign gateways share the exit chain through site 0's gateway and
    // the master's-port bottleneck: one effective cluster.
    clusters.push(TruthCluster {
        members: gateways[1..].to_vec(),
        is_hub: false,
        rate: Bandwidth::mbps(100.0),
    });
    // Site 0's own gateway stands alone between the LANs and the WAN.
    clusters.push(TruthCluster {
        members: vec![gateways[0]],
        is_hub: false,
        rate: Bandwidth::mbps(1000.0),
    });

    SynthScenario {
        family: SynthFamily::Grid,
        net: GeneratedNet {
            topo: b.build().expect("grid builds"),
            hosts: mapped,
            master,
            // Inside a firewall the external target is unreachable; the
            // structural phase falls back to the master (paper §4.2.1.3).
            external: if firewalled { None } else { Some(external) },
        },
        truth: SynthTruth { clusters },
    }
}

/// Asymmetric WAN backbone: a short chain of core routers joined by trunks
/// with *distinct per-direction capacities*, each core serving several
/// sites of one or two leaf LANs behind their own routers. Effective
/// truth: one cluster per LAN.
///
/// The backbone depth is bounded (≤ 6 cores regardless of host count) and
/// trunk latencies kept in the low milliseconds: ENV's interference ratio
/// compares probe *durations*, so once the path RTT dominates the transfer
/// time the 1.25× threshold can no longer see contention — a real ENV
/// probe-sizing limitation (§4.3) that belongs in a dedicated experiment,
/// not silently inside every scaling row.
pub(crate) fn synth_wan(seed: u64, hosts: usize) -> SynthScenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let border = b.router_unnamed("192.168.254.1");
    let external = b.external("well-known.example.org", "198.51.100.1");
    b.link(border, external, Bandwidth::mbps(1000.0), Latency::millis(5.0));

    // Sites of 3..=16 hosts (one or two LANs each), spread over the cores.
    let site_sizes = group_sizes(&mut rng, hosts, 3, 16);
    // Cores live in 172.20/16; sites 0..248 own the historical 10.1–10.249
    // range and each further block of 250 sites spills into the next /8
    // (11/8, 12/8, … — the 50k tier reaches ~77, below the anchors).
    assert!(site_sizes.len() < 45_000, "wan IP plan supports < 45k sites");
    let n_cores = site_sizes.len().div_ceil(20).min(6);
    let mut cores = Vec::new();
    let mut prev = border;
    for c in 0..n_cores {
        let core = b.router(&format!("core{c}.wan.synth"), &format!("172.20.{c}.1"));
        // Asymmetric trunk: the two directions carry different rates (the
        // §4.3 situation ENV's one-way probes cannot distinguish).
        let down = Bandwidth::mbps([155.0, 622.0, 1000.0][rng.gen_range(0..3)]);
        let up = Bandwidth::mbps([622.0, 1000.0, 2400.0][rng.gen_range(0..3)]);
        b.link_asym(prev, core, down, up, Latency::millis(rng.gen_range(1.0..5.0)));
        prev = core;
        cores.push(core);
    }

    let mut all_hosts = Vec::new();
    let mut clusters = Vec::new();
    for (s, &n) in site_sizes.iter().enumerate() {
        let (net8, oct) = (10 + (s + 1) / 250, (s + 1) % 250);
        let bb = b.router(&format!("bb{s}.wan.synth"), &format!("{net8}.{oct}.0.254"));
        // Site uplinks are asymmetric too (ADSL-like tails).
        let down = Bandwidth::mbps([34.0, 100.0, 155.0][rng.gen_range(0..3)]);
        let up = Bandwidth::mbps([100.0, 155.0, 622.0][rng.gen_range(0..3)]);
        b.link_asym(cores[s % n_cores], bb, down, up, Latency::millis(rng.gen_range(1.0..4.0)));

        let lan_sizes = group_sizes(&mut rng, n, 3, 8);
        for (l, &ln) in lan_sizes.iter().enumerate() {
            let is_hub = rng.gen_range(0.0..1.0) < 0.5;
            let rate = Bandwidth::mbps([10.0, 100.0][rng.gen_range(0..2)]);
            let gw =
                b.router(&format!("gw{l}.site{s}.wan.synth"), &format!("{net8}.{oct}.{}.1", l + 1));
            b.link(gw, bb, Bandwidth::mbps(1000.0), Latency::micros(100.0));
            let infra = if is_hub {
                b.hub(&format!("w{s}lan{l}"), rate, Latency::micros(50.0))
            } else {
                b.switch(&format!("w{s}lan{l}"), rate, Latency::micros(50.0))
            };
            b.attach(gw, infra);
            let mut members = Vec::new();
            for h in 0..ln {
                let host = b.host(
                    &format!("h{h}.lan{l}.site{s}.wan.synth"),
                    &format!("{net8}.{oct}.{}.{}", l + 1, h + 2),
                );
                b.attach(host, infra);
                members.push(host);
                all_hosts.push(host);
            }
            clusters.push(TruthCluster { members, is_hub, rate });
        }
    }
    let master = all_hosts[0];
    SynthScenario {
        family: SynthFamily::WanBackbone,
        net: GeneratedNet {
            topo: b.build().expect("wan builds"),
            hosts: all_hosts,
            master,
            external: Some(external),
        },
        truth: SynthTruth { clusters },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::topology::Topology;
    use crate::units::Bytes;

    fn names(topo: &Topology, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|n| topo.node(*n).ifaces[0].name.clone().unwrap()).collect()
    }

    #[test]
    fn families_hit_exact_host_counts() {
        for family in SynthFamily::ALL {
            for hosts in [60usize, 100] {
                let sc = synth(family, 7, hosts);
                assert_eq!(sc.net.hosts.len(), hosts, "{} at {hosts}", family.name());
                // Truth covers exactly the mapped hosts, without overlap.
                let mut covered: Vec<NodeId> =
                    sc.truth.clusters.iter().flat_map(|c| c.members.iter().copied()).collect();
                covered.sort_unstable();
                covered.dedup();
                let mut mapped = sc.net.hosts.clone();
                mapped.sort_unstable();
                assert_eq!(covered, mapped, "{} truth must partition the host set", family.name());
            }
        }
    }

    /// The 10k tier's IP plans build for every family: the first-octet
    /// spill keeps thousands of LANs/pods/sites collision-free
    /// (`Topology::build` rejects duplicate addresses).
    #[test]
    fn families_build_at_ten_thousand_hosts() {
        for family in SynthFamily::ALL {
            let sc = synth(family, 2004, 10_000);
            assert_eq!(sc.net.hosts.len(), 10_000, "{}", family.name());
        }
    }

    #[test]
    fn same_seed_same_scenario() {
        for family in SynthFamily::ALL {
            let a = synth(family, 42, 80);
            let b = synth(family, 42, 80);
            assert_eq!(names(&a.net.topo, &a.net.hosts), names(&b.net.topo, &b.net.hosts));
            assert_eq!(a.truth_labels(), b.truth_labels());
            let c = synth(family, 43, 80);
            // A different seed shifts at least the cluster plan.
            assert!(
                a.truth_labels() != c.truth_labels()
                    || names(&a.net.topo, &a.net.hosts) != names(&c.net.topo, &c.net.hosts),
                "{} should vary with the seed",
                family.name()
            );
        }
    }

    #[test]
    fn clusters_have_at_least_two_members_except_grid_gateway() {
        for family in SynthFamily::ALL {
            let sc = synth(family, 3, 90);
            let singletons = sc.truth.clusters.iter().filter(|c| c.members.len() < 2).count();
            let allowed = if family == SynthFamily::Grid { 1 } else { 0 };
            assert!(singletons <= allowed, "{}: {singletons} singleton clusters", family.name());
        }
    }

    #[test]
    fn grid_firewall_blocks_cross_site_inner_traffic() {
        let sc = synth_grid(11, 60, true);
        let mut sim = Sim::new(sc.net.topo.clone());
        let site0_inner = sc.net.hosts[0];
        // A foreign inner host is *not* in the mapped set; find one by name.
        let foreign = sc.net.topo.node_by_name("h0.lan0.site1.grid.synth").unwrap();
        assert!(sim.measure_bandwidth(site0_inner, foreign, Bytes::kib(64)).is_err());
        // Gateways cross freely in both directions.
        let gw1 = sc.net.topo.node_by_name("gw.site1.grid.synth").unwrap();
        assert!(sim.measure_bandwidth(site0_inner, gw1, Bytes::kib(64)).is_ok());
        // The external target is unreachable from inside.
        let ext = sc.net.topo.node_by_name("well-known.example.org").unwrap();
        assert!(sim.measure_bandwidth(site0_inner, ext, Bytes::kib(64)).is_err());
        // Without the firewall everything is reachable.
        let open = synth_grid(11, 60, false);
        let mut sim = Sim::new(open.net.topo.clone());
        let a = open.net.hosts[0];
        let foreign = open.net.topo.node_by_name("h0.lan0.site1.grid.synth").unwrap();
        assert!(sim.measure_bandwidth(a, foreign, Bytes::kib(64)).is_ok());
    }

    #[test]
    fn wan_backbone_is_asymmetric_end_to_end() {
        let sc = synth_wan(5, 40);
        let mut sim = Sim::new(sc.net.topo.clone());
        // Some trunk link must carry different per-direction capacities.
        let asym = sc.net.topo.links().any(|l| match l.mode {
            crate::topology::LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                (capacity_ab.as_mbps() - capacity_ba.as_mbps()).abs() > 1.0
            }
            _ => false,
        });
        assert!(asym, "wan family must produce asymmetric trunks");
        // And probes across the chain complete.
        let first = sc.net.hosts[0];
        let last = *sc.net.hosts.last().unwrap();
        assert!(sim.measure_bandwidth(first, last, Bytes::kib(256)).is_ok());
    }

    #[test]
    fn campus_traceroutes_give_per_lan_chains() {
        let sc = synth_campus(9, 40);
        let mut sim = Sim::new(sc.net.topo.clone());
        let ext = sc.net.external.unwrap();
        // Hosts of one LAN share their chain; different LANs differ.
        let c0 = &sc.truth.clusters[0].members;
        let c1 = &sc.truth.clusters[1].members;
        let hops = |sim: &mut Sim, h: NodeId| {
            sim.traceroute(h, ext)
                .unwrap()
                .iter()
                .map(|x| x.ip.map(|ip| ip.to_string()).unwrap_or_default())
                .collect::<Vec<_>>()
        };
        assert_eq!(hops(&mut sim, c0[0]), hops(&mut sim, c0[1]));
        assert_ne!(hops(&mut sim, c0[0]), hops(&mut sim, c1[0]));
    }
}
