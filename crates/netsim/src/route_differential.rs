//! Differential test of the 2-core/tree [`RouteTable`] against the plainest
//! layout: one Dijkstra from *every* node and one predecessor link per
//! ordered node pair. That n×n table lives on here, test-local, as the
//! oracle; every ordered pair of every platform below must get the same
//! `reachable`, the same `last_hop`, the same `path` and the same
//! `latency_and_bottleneck`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::prelude::*;
use crate::routing::{Path, RouteTable};
use crate::scenarios::{ens_lyon, Calibration};
use crate::synth::{synth, synth_campus, SynthFamily};
use crate::topology::{LinkMode, Medium};
use proptest::prelude::*;

const NONE: u32 = u32::MAX;

/// The all-sources table: `prev_link[src * n + node]` is the last link on
/// the best path `src → node`.
struct Reference {
    n: usize,
    prev_link: Vec<u32>,
}

impl Reference {
    fn compute(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut prev_link = vec![NONE; n * n];
        let mut dist = vec![0.0; n];
        for (s, row) in prev_link.chunks_mut(n).enumerate() {
            let src = NodeId::from_raw(s as u32);
            dist.fill(f64::INFINITY);
            dist[s] = 0.0;
            // Min-heap on (distance, node id). Distances are ≥ +0.0, where
            // the bit pattern of an f64 orders like its value.
            let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), src))]);
            while let Some(Reverse((bits, u))) = heap.pop() {
                let d = f64::from_bits(bits);
                if d > dist[u.index()] || (u != src && !topo.node(u).forwards) {
                    continue;
                }
                for &(l, v) in topo.neighbours(u) {
                    let link = topo.link(l);
                    let nd = d + link.weight_from(u);
                    if link.up && nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        row[v.index()] = l.index() as u32;
                        heap.push(Reverse((nd.to_bits(), v)));
                    }
                }
            }
        }
        Reference { n, prev_link }
    }

    /// `(from_node, link)` per hop, destination first — what
    /// `RouteTable::hops_rev` yields — or `None` when there is no route.
    fn hops_rev(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<(NodeId, LinkId)>> {
        let mut hops = Vec::new();
        let mut cur = dst;
        while cur != src {
            let raw = self.prev_link[src.index() * self.n + cur.index()];
            if raw == NONE {
                return None;
            }
            let l = LinkId::from_raw(raw);
            cur = topo.link(l).peer(cur).unwrap();
            hops.push((cur, l));
        }
        Some(hops)
    }
}

fn nodes(topo: &Topology) -> impl Iterator<Item = NodeId> {
    (0..topo.node_count() as u32).map(NodeId::from_raw)
}

/// Every ordered node pair answers as the oracle does.
fn assert_same_routes(topo: &Topology, table: &RouteTable) {
    let oracle = Reference::compute(topo);
    let mediums: Vec<Medium> = topo.mediums().cloned().collect();
    for src in nodes(topo) {
        for dst in nodes(topo) {
            let Some(hops) = oracle.hops_rev(topo, src, dst) else {
                let no_route = NetError::Unreachable { src, dst };
                assert!(!table.reachable(src, dst), "{src} → {dst}");
                assert_eq!(table.last_hop(src, dst), None, "{src} → {dst}");
                assert_eq!(table.path(topo, src, dst), Err(no_route.clone()));
                assert_eq!(table.latency_and_bottleneck(topo, src, dst), Err(no_route));
                continue;
            };
            assert!(table.reachable(src, dst), "{src} → {dst}");
            assert_eq!(table.last_hop(src, dst), hops.first().map(|&(_, l)| l), "{src} → {dst}");

            let mut path = Path { nodes: vec![dst], links: Vec::new() };
            let mut secs = 0.0;
            let mut min_cap: Option<Bandwidth> = None;
            for &(from, l) in &hops {
                path.nodes.push(from);
                path.links.push(l);
                secs += topo.link(l).latency.as_secs();
                let cap = topo.link(l).capacity_from(from, &mediums);
                min_cap = Some(min_cap.map_or(cap, |m| m.min(cap)));
            }
            path.nodes.reverse();
            path.links.reverse();
            assert_eq!(table.path(topo, src, dst), Ok(path), "{src} → {dst}");
            assert_eq!(
                table.latency_and_bottleneck(topo, src, dst),
                Ok((Latency::secs(secs), min_cap.unwrap_or(Bandwidth::ZERO))),
                "{src} → {dst}"
            );
        }
    }
}

#[test]
fn synth_families_route_as_the_all_sources_table() {
    for family in SynthFamily::ALL {
        for seed in [2004, 7] {
            let topo = synth(family, seed, 300).net.topo;
            let table = RouteTable::compute(&topo);
            assert!(
                table.table_bytes() < topo.node_count() * topo.node_count(),
                "{}: most nodes of a synth platform hang in trees",
                family.name()
            );
            assert_same_routes(&topo, &table);
        }
    }
}

#[test]
fn ens_lyon_asymmetric_routes_are_unchanged() {
    for cal in [Calibration::Nominal, Calibration::Paper] {
        let lyon = ens_lyon(cal);
        assert_same_routes(&lyon.topo, &RouteTable::compute(&lyon.topo));
    }
}

#[test]
fn table_is_the_same_for_every_worker_count() {
    // More workers than core nodes, and an uneven split of rows.
    let small = synth_campus(7, 4).net.topo;
    let large = synth(SynthFamily::Grid, 7, 150).net.topo;
    for topo in [&small, &large] {
        for threads in [1, 4, 64] {
            assert_same_routes(topo, &RouteTable::compute_with_threads(topo, threads));
        }
    }
}

#[test]
fn campus_5000_table_is_linear_in_nodes() {
    let topo = synth_campus(2004, 5000).net.topo;
    let table = RouteTable::compute(&topo);
    let (bytes, n) = (table.table_bytes(), topo.node_count());
    assert!(bytes <= 32 * n, "campus-5000 route table is {bytes} bytes for {n} nodes");
    // The all-sources layout would have been 4·n² bytes.
    assert!(4 * n * n > 150 << 20);
}

/// A 50 000-host campus, about 64 k nodes. Synthesising it is too slow for
/// the debug profile; CI runs this file under `--release` as well.
#[cfg(not(debug_assertions))]
#[test]
fn campus_50000_table_fits_in_16_mib() {
    let sc = synth_campus(2004, 50_000);
    let (topo, hosts) = (&sc.net.topo, &sc.net.hosts);
    let table = RouteTable::compute(topo);
    let mib = table.table_bytes() as f64 / (1024.0 * 1024.0);
    assert!(mib <= 16.0, "campus-50000 route table is {mib:.1} MiB");
    for &h in &hosts[1..] {
        assert!(table.reachable(hosts[0], h) && table.reachable(h, hosts[0]), "{h}");
    }
}

/// A chain of 70 routers with a host on each, hung off a two-router cycle
/// (the tree below it is 71 levels deep) and standing alone.
#[test]
fn deep_chain_routes_as_the_all_sources_table() {
    let (fast, lat) = (Bandwidth::mbps(1000.0), Latency::micros(100.0));
    for with_cycle in [true, false] {
        let mut b = TopologyBuilder::new();
        let mut above = b.router("r0.chain", "10.0.0.1");
        if with_cycle {
            let peer = b.router("peer.chain", "10.1.0.1");
            b.link(above, peer, fast, lat);
            b.link(peer, above, fast, lat);
            let host = b.host("h.peer.chain", "10.1.0.2");
            b.link(host, peer, fast, lat);
        }
        for depth in 1..=70 {
            let router = b.router(&format!("r{depth}.chain"), &format!("10.0.{depth}.1"));
            b.link(router, above, fast, lat);
            let host = b.host(&format!("h{depth}.chain"), &format!("10.0.{depth}.2"));
            b.link(host, router, fast, lat);
            above = router;
        }
        let topo = b.build().unwrap();
        assert_same_routes(&topo, &RouteTable::compute(&topo));
    }
}

#[test]
fn churn_then_recompute_routes_as_the_all_sources_table() {
    let sc = synth_campus(2004, 60);
    let hosts = sc.net.hosts.clone();
    let mut sim = Sim::new(sc.net.topo);
    for round in 0..4usize {
        // A host joins a LAN, another leaves, a joined host leaves again,
        // a LAN router drops out, and an access link is re-provisioned.
        let ip = format!("172.16.0.{}", round + 1).parse().unwrap();
        let sibling = hosts[round * 13 % hosts.len()];
        let joined =
            sim.topo_mut().add_host_like(&format!("new{round}.campus.synth"), ip, sibling).unwrap();
        assert!(!sim.routes().reachable(hosts[0], joined), "stale table must not see the host");
        sim.topo_mut().isolate_node(hosts[(round * 7 + 3) % hosts.len()]);
        if round == 2 {
            sim.topo_mut().isolate_node(joined);
        }
        if round == 3 {
            let (_, lan) = sim.topo().neighbours(sibling)[0];
            let &(_, router) = sim
                .topo()
                .neighbours(lan)
                .iter()
                .find(|(_, v)| sim.topo().node(*v).is_l3_hop())
                .unwrap();
            sim.topo_mut().isolate_node(router);
        }
        let (port, _) = sim.topo().neighbours(hosts[round + 1])[0];
        if let LinkMode::FullDuplex { capacity_ab, capacity_ba } =
            &mut sim.topo_mut().link_mut(port).mode
        {
            *capacity_ab = Bandwidth::mbps(1.0 + round as f64);
            *capacity_ba = Bandwidth::mbps(2.0 + round as f64);
        }
        sim.recompute_routes();
        assert_same_routes(sim.topo(), sim.routes());
    }
}

/// A small platform mixing every attachment the 2-core/tree rule has to
/// place: routers on a weighted ring (asymmetric weights, ties) and a
/// router joined to it by two parallel zero-weight links, hub and switch
/// LANs of plain hosts, a multi-homed host, a forwarding gateway host with
/// a private LAN behind it and a second forwarding host behind that, two
/// hosts on a direct link, a host hanging off a plain host, a tree five
/// levels below a router with a plain host in its middle, an isolated
/// host — then some links downed, among them the only link of a leaf.
fn platform(lans: &[usize], dice: &[usize]) -> Topology {
    const WEIGHTS: [f64; 5] = [1.0, 5.0, 10.0, 50.0, 100.0];
    let mut dice = dice.iter().copied().cycle();
    let mut roll = |sides: usize| dice.next().unwrap() % sides;
    let (fast, lat) = (Bandwidth::mbps(1000.0), Latency::micros(100.0));

    let mut b = TopologyBuilder::new();
    let mut links = Vec::new();
    let routers: Vec<NodeId> =
        (0..lans.len()).map(|r| b.router(&format!("r{r}.x"), &format!("10.{r}.0.1"))).collect();
    for (r, &router) in routers.iter().enumerate() {
        let l = b.link_asym(router, routers[(r + 1) % routers.len()], fast, fast / 10.0, lat);
        b.set_weights(l, WEIGHTS[roll(5)], WEIGHTS[roll(5)]);
        links.push(l);
    }
    let mut infra = Vec::new();
    let mut leaf_ports = Vec::new();
    for (r, &n_hosts) in lans.iter().enumerate() {
        let lan = if roll(2) == 0 {
            b.hub(&format!("hub{r}"), Bandwidth::mbps(10.0), lat)
        } else {
            b.switch(&format!("sw{r}"), Bandwidth::mbps(100.0), lat)
        };
        links.push(b.attach(routers[r], lan));
        for h in 0..n_hosts {
            let host = b.host(&format!("h{h}.lan{r}.x"), &format!("10.{r}.1.{}", h + 1));
            leaf_ports.push(b.attach(host, lan));
        }
        infra.push(lan);
    }
    // Multi-homed plain host: an endpoint on two LANs, a relay for neither.
    let dual = b.host_multi("dual", &[("dual.a.x", "10.200.0.1"), ("dual.b.x", "10.200.0.2")]);
    links.push(b.attach_iface(dual, 0, infra[0]));
    links.push(b.attach_iface(dual, 1, infra[infra.len() - 1]));
    // Forwarding gateway host with its own private LAN of leaves.
    let gw = b.host_multi("gw", &[("gw.x", "10.201.0.1"), ("gw.private", "192.168.0.1")]);
    b.set_forwards(gw, true);
    links.push(b.attach_iface(gw, 0, infra[roll(infra.len())]));
    let private = b.switch("private", Bandwidth::mbps(100.0), lat);
    links.push(b.attach_iface(gw, 1, private));
    for h in 0..2 {
        let host = b.host(&format!("p{h}.private"), &format!("192.168.0.{}", h + 2));
        leaf_ports.push(b.attach(host, private));
    }
    // One host straight on the gateway host: a leaf of a forwarding host.
    let behind = b.host("behind.private", "192.168.0.9");
    leaf_ports.push(b.link(behind, gw, fast, lat));
    // Two hosts on a direct link, one of them also on a LAN; the other has
    // one link, to a node that does not forward, so it is not a leaf.
    let near = b.host("near.x", "10.202.0.1");
    let far = b.host("far.x", "10.202.0.2");
    links.push(b.attach(near, infra[roll(infra.len())]));
    links.push(b.link(near, far, fast, lat));
    b.host("alone.x", "10.203.0.1");
    // A switch behind a switch behind a LAN router, a host on each; behind
    // the plain host `mid` on the inner one, a switch of two hosts, which
    // reach `mid` and each other but nothing beyond it.
    let outer = b.switch("outer", Bandwidth::mbps(100.0), lat);
    let inner = b.switch("inner", Bandwidth::mbps(100.0), lat);
    links.push(b.attach(routers[roll(routers.len())], outer));
    links.push(b.attach(inner, outer));
    let on_outer = b.host("o.x", "10.204.0.1");
    leaf_ports.push(b.attach(on_outer, outer));
    let mid = b.host("mid.x", "10.204.0.2");
    links.push(b.attach(mid, inner));
    let under = b.switch("under", Bandwidth::mbps(100.0), lat);
    links.push(b.link(mid, under, fast, lat));
    for h in 0..2 {
        let host = b.host(&format!("u{h}.x"), &format!("10.204.1.{}", h + 1));
        leaf_ports.push(b.attach(host, under));
    }
    // A forwarding host behind the gateway host, with a host behind it.
    let gw2 = b.host("gw2.private", "192.168.0.20");
    b.set_forwards(gw2, true);
    links.push(b.attach(gw2, private));
    let behind2 = b.host("behind2.private", "192.168.1.2");
    leaf_ports.push(b.link(behind2, gw2, fast, lat));
    // Two parallel zero-weight links: a cycle of weight 0, so ties.
    let (rz, ring) = (b.router("rz.x", "10.205.0.1"), routers[roll(routers.len())]);
    for _ in 0..2 {
        let l = b.link(ring, rz, fast, lat);
        b.set_weights(l, 0.0, 0.0);
        links.push(l);
    }
    let hz = b.host("hz.x", "10.205.0.2");
    leaf_ports.push(b.link(hz, rz, fast, lat));

    let mut topo = b.build().unwrap();
    for _ in 0..roll(4) {
        topo.set_link_up(links[roll(links.len())], false);
    }
    for _ in 0..roll(3) {
        topo.set_link_up(leaf_ports[roll(leaf_ports.len())], false);
    }
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mixed_platforms_route_as_the_all_sources_table(
        lans in proptest::collection::vec(1usize..4, 2..5),
        dice in proptest::collection::vec(0usize..1000, 32),
    ) {
        let topo = platform(&lans, &dice);
        assert_same_routes(&topo, &RouteTable::compute(&topo));
    }
}
