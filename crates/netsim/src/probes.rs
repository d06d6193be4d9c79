//! User-level network experiments: exactly the observations ENV and NWS are
//! allowed to make (no SNMP, no raw sockets, no super-user privileges —
//! paper §3).
//!
//! * [`Engine::measure_bandwidth`] — NWS's throughput probe: a 64 KiB
//!   message timed until acknowledgment (§2.2); ENV uses larger transfers.
//! * [`Engine::measure_bandwidth_concurrent`] — several transfers launched
//!   at the same instant; the primitive behind ENV's pairwise and jammed
//!   experiments (§4.2.2).
//! * [`Engine::traceroute`] — hop discovery via TTL expiry; silent routers
//!   yield anonymous hops, unnamed routers yield bare IPs.
//!
//! All probes advance the simulated clock, so background traffic keeps
//! flowing while experiments run — platform evolution during a mapping is
//! part of what the reproduction can study (§4.3 "Reliability").

use crate::engine::Engine;
use crate::error::{NetError, NetResult};
use crate::ip::Ipv4;
use crate::time::TimeDelta;
use crate::topology::NodeId;
use crate::units::{Bandwidth, Bytes};

/// Payload of the NWS latency experiment.
pub const LATENCY_PROBE_BYTES: Bytes = Bytes::new(4);

/// Payload of the NWS bandwidth experiment (64 KiB).
pub const BANDWIDTH_PROBE_BYTES: Bytes = Bytes::kib(64);

/// Guard horizon for a single probe.
fn probe_horizon() -> TimeDelta {
    TimeDelta::from_secs(3600.0)
}

/// One line of traceroute output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerouteHop {
    /// Address of the responding interface; `None` when the router drops
    /// probes (a `* * *` line).
    pub ip: Option<Ipv4>,
    /// Reverse-resolved name, when the address has one.
    pub name: Option<String>,
}

impl<M> Engine<M> {
    /// Throughput of a single timed transfer of `bytes`.
    pub fn measure_bandwidth(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
    ) -> NetResult<Bandwidth> {
        let f = self.start_probe_flow(src, dst, bytes)?;
        self.run_until_flows_done(&[f], probe_horizon())?;
        Ok(self.outcome(f).expect("flow completed").throughput())
    }

    /// Launch one transfer per `(src, dst)` pair at the same instant and
    /// report each pair's observed throughput. Pairs that cannot start
    /// (firewalled, unreachable) report their error without blocking the
    /// others.
    pub fn measure_bandwidth_concurrent(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        bytes: Bytes,
    ) -> Vec<NetResult<Bandwidth>> {
        let started: Vec<NetResult<crate::flow::FlowId>> =
            pairs.iter().map(|(s, d)| self.start_probe_flow(*s, *d, bytes)).collect();
        let ids: Vec<_> = started.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
        if let Err(e) = self.run_until_flows_done(&ids, probe_horizon()) {
            // Horizon blown: report the error for every pending pair.
            return started
                .into_iter()
                .map(|r| match r {
                    Ok(id) => self.outcome(id).map(|o| o.throughput()).ok_or_else(|| e.clone()),
                    Err(e) => Err(e),
                })
                .collect();
        }
        started
            .into_iter()
            .map(|r| r.map(|id| self.outcome(id).expect("awaited above").throughput()))
            .collect()
    }

    /// Hop discovery by TTL expiry. Reports the layer-3 hops between `src`
    /// and `dst` in path order; layer-2 switches and hubs are invisible.
    ///
    /// Firewalls block probe packets like any other traffic.
    pub fn traceroute(&mut self, src: NodeId, dst: NodeId) -> NetResult<Vec<TracerouteHop>> {
        let topo = self.topo();
        topo.try_node(src)?;
        topo.try_node(dst)?;
        if !topo.allows(src, dst) {
            return Err(NetError::Firewalled { src, dst });
        }
        let path = self.routes().path(self.topo(), src, dst)?;
        let mut hops = Vec::new();
        for (i, node_id) in path.nodes.iter().enumerate() {
            if i == 0 || i + 1 == path.nodes.len() {
                continue;
            }
            let node = topo.node(*node_id);
            if !node.is_l3_hop() {
                continue;
            }
            if !node.responds_to_traceroute {
                hops.push(TracerouteHop { ip: None, name: None });
                continue;
            }
            // Report the interface facing the previous hop (the incoming
            // link), as real routers do.
            let incoming = path.links[i - 1];
            let iface = topo.iface_on_link(*node_id, incoming).or_else(|| node.ifaces.first());
            match iface {
                Some(ifc) => hops.push(TracerouteHop {
                    ip: Some(ifc.ip),
                    name: topo.dns().reverse(ifc.ip).map(str::to_string),
                }),
                None => hops.push(TracerouteHop { ip: None, name: None }),
            }
        }
        Ok(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::topology::TopologyBuilder;
    use crate::units::Latency;

    /// a — hub1 — r — hub2 — c with a named and an anonymous router.
    fn routed_net() -> (Sim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let hub1 = b.hub("hub1", Bandwidth::mbps(100.0), Latency::micros(100.0));
        let hub2 = b.hub("hub2", Bandwidth::mbps(10.0), Latency::micros(100.0));
        let a = b.host("a.site.net", "10.1.0.1");
        let c = b.host("c.site.net", "10.2.0.1");
        let r = b.router("gw.site.net", "10.0.0.1");
        b.attach(a, hub1);
        b.attach(r, hub1);
        b.attach(r, hub2);
        b.attach(c, hub2);
        (Sim::new(b.build().unwrap()), a, c)
    }

    #[test]
    fn rtt_is_round_trip_latency() {
        let (mut sim, a, c) = routed_net();
        // NWS's latency probe: a 4-byte transfer timed there and back.
        let f = sim.start_probe_flow(a, c, LATENCY_PROBE_BYTES).unwrap();
        sim.run_until_flows_done(&[f], probe_horizon()).unwrap();
        let rtt = sim.outcome(f).unwrap().duration();
        // 4 port traversals each way at 100 us = 800 us, plus negligible
        // serialization of 4 bytes.
        assert!((rtt.as_secs() - 800e-6).abs() < 20e-6, "rtt = {rtt}");
    }

    #[test]
    fn bandwidth_sees_bottleneck() {
        let (mut sim, a, c) = routed_net();
        let bw = sim.measure_bandwidth(a, c, Bytes::mib(1)).unwrap();
        assert!((bw.as_mbps() - 10.0).abs() < 0.2, "bw = {bw}");
    }

    #[test]
    fn concurrent_probes_interfere_on_hub() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(10.0));
        let hosts: Vec<NodeId> = (0..4)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        let mut sim = Sim::new(b.build().unwrap());
        let res = sim.measure_bandwidth_concurrent(
            &[(hosts[0], hosts[1]), (hosts[2], hosts[3])],
            Bytes::mib(1),
        );
        let bw0 = res[0].as_ref().unwrap().as_mbps();
        let bw1 = res[1].as_ref().unwrap().as_mbps();
        assert!((bw0 - 50.0).abs() < 1.0, "bw0 = {bw0}");
        assert!((bw1 - 50.0).abs() < 1.0, "bw1 = {bw1}");
    }

    #[test]
    fn concurrent_probe_with_bad_pair_reports_error() {
        let (mut sim, a, c) = routed_net();
        let res = sim.measure_bandwidth_concurrent(&[(a, c), (a, a)], Bytes::kib(64));
        assert!(res[0].is_ok());
        assert!(matches!(res[1], Err(NetError::SelfProbe(_))));
    }

    #[test]
    fn traceroute_reports_named_router() {
        let (mut sim, a, c) = routed_net();
        let hops = sim.traceroute(a, c).unwrap();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].name.as_deref(), Some("gw.site.net"));
        assert_eq!(hops[0].ip, Some("10.0.0.1".parse().unwrap()));
    }

    #[test]
    fn traceroute_anonymous_and_silent_routers() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.1.0.1");
        let c = b.host("c.x", "10.2.0.1");
        let r1 = b.router_unnamed("192.168.254.1");
        let r2 = b.router("silent.x", "10.9.0.1");
        b.set_traceroute_silent(r2);
        b.link(a, r1, Bandwidth::mbps(100.0), Latency::micros(50.0));
        b.link(r1, r2, Bandwidth::mbps(100.0), Latency::micros(50.0));
        b.link(r2, c, Bandwidth::mbps(100.0), Latency::micros(50.0));
        let mut sim = Sim::new(b.build().unwrap());
        let hops = sim.traceroute(a, c).unwrap();
        assert_eq!(hops.len(), 2);
        // Anonymous: IP but no name.
        assert_eq!(hops[0].ip, Some("192.168.254.1".parse().unwrap()));
        assert_eq!(hops[0].name, None);
        // Silent: nothing at all.
        assert_eq!(hops[1].ip, None);
    }

    #[test]
    fn traceroute_respects_firewall() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(10.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, hub);
        b.firewall_deny_between(&[a], &[c]);
        let mut sim = Sim::new(b.build().unwrap());
        assert!(matches!(sim.traceroute(a, c), Err(NetError::Firewalled { .. })));
    }

    #[test]
    fn gateway_host_appears_as_hop() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.1.0.1");
        let gw = b.host_multi("gw", &[("gw.x", "10.1.0.2"), ("gw.private", "192.168.1.1")]);
        b.set_forwards(gw, true);
        let c = b.host("c.private", "192.168.1.2");
        b.link_ifaces(a, 0, gw, 0, Bandwidth::mbps(100.0), Latency::micros(50.0));
        b.link_ifaces(gw, 1, c, 0, Bandwidth::mbps(100.0), Latency::micros(50.0));
        let mut sim = Sim::new(b.build().unwrap());
        let hops = sim.traceroute(a, c).unwrap();
        assert_eq!(hops.len(), 1);
        // Reports the interface facing the probe (public side).
        assert_eq!(hops[0].ip, Some("10.1.0.2".parse().unwrap()));
        assert_eq!(hops[0].name.as_deref(), Some("gw.x"));
    }

    #[test]
    fn probe_constants_match_paper() {
        assert_eq!(LATENCY_PROBE_BYTES.as_u64(), 4);
        assert_eq!(BANDWIDTH_PROBE_BYTES.as_u64(), 65_536);
    }
}
