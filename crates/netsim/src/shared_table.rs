//! Engines stood up on one snapshot with `Engine::from_parts` share its
//! interned `ResourceTable`. The table is copied on write: an engine that
//! changes a capacity or grows the topology takes a private copy, and its
//! siblings keep the capacities and `ResourceId`s they started with — so
//! their flows drain at the same bits as on an engine that never shared
//! anything.

use std::sync::Arc;

use crate::churn::{apply_churn, ChurnEvent};
use crate::fairness::{ResourceId, ResourceTable};
use crate::prelude::*;
use crate::synth::{synth, SynthFamily, SynthScenario};
use crate::topology::LinkMode;
use crate::{Engine, RouteTable};

struct Shared {
    sc: SynthScenario,
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    table: Arc<ResourceTable>,
}

impl Shared {
    fn new() -> Shared {
        let sc = synth(SynthFamily::Campus, 5, 60);
        let (topo, routes) = Sim::new(sc.net.topo.clone()).snapshot();
        let table = Arc::new(ResourceTable::new(&topo));
        Shared { sc, topo, routes, table }
    }

    fn engine(&self) -> Sim {
        Engine::from_parts(self.topo.clone(), self.routes.clone(), self.table.clone())
    }

    /// An engine that shares nothing with the others.
    fn control(&self) -> Sim {
        Sim::new(self.sc.net.topo.clone())
    }

    /// Every capacity (as bits) and every link's two ids, as the shared
    /// table answers them now.
    fn table_image(&self) -> (Vec<u64>, Vec<[ResourceId; 2]>) {
        let ids: Vec<[ResourceId; 2]> = self
            .topo
            .links()
            .map(|l| [self.table.link_dir(l.id, true), self.table.link_dir(l.id, false)])
            .collect();
        let caps = ids.iter().flatten().map(|&r| self.table.capacity(r).to_bits()).collect();
        (caps, ids)
    }
}

/// A fixed burst across and inside LANs, every flow starting at one
/// instant; per flow `(drained, acked)` as bits.
fn drive(sim: &mut Sim, hosts: &[NodeId]) -> Vec<(u64, u64)> {
    let n = hosts.len();
    let flows: Vec<FlowId> = (0..24)
        .map(|i| {
            let (src, dst) = (hosts[(i * 7) % n], hosts[(i * 11 + 3) % n]);
            sim.start_probe_flow(src, dst, Bytes::kib(64 + 16 * i as u64)).expect("routed")
        })
        .collect();
    sim.run_until_flows_done(&flows, TimeDelta::from_secs(3_600.0)).expect("every flow drains");
    flows
        .iter()
        .map(|f| {
            let o = sim.outcome(*f).expect("done flows have outcomes");
            (o.drained.as_secs().to_bits(), o.acked.as_secs().to_bits())
        })
        .collect()
}

#[test]
fn a_capacity_change_leaves_the_sibling_alone() {
    let s = Shared::new();
    let hosts = &s.sc.net.hosts;
    let (mut a, mut b) = (s.engine(), s.engine());
    let before = s.table_image();
    assert_eq!(Arc::strong_count(&s.table), 3);

    // Quarter the port (or the hub) of the first flow's source on `a` only.
    let (port, _) = a.topo().neighbours(hosts[0])[0];
    let topo = a.topo_mut();
    match &mut topo.link_mut(port).mode {
        LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
            *capacity_ab = capacity_ab.scaled(0.25);
            *capacity_ba = capacity_ba.scaled(0.25);
        }
        LinkMode::Shared { medium } => {
            let medium = *medium;
            let m = topo.medium_mut(medium);
            m.capacity = m.capacity.scaled(0.25);
        }
    }
    a.recompute_routes();

    // `a` took its own copy; the shared table reads as it did.
    assert_eq!(Arc::strong_count(&s.table), 2);
    assert_eq!(s.table_image(), before);
    let want = drive(&mut s.control(), hosts);
    assert_eq!(drive(&mut b, hosts), want);
    assert_ne!(drive(&mut a, hosts), want, "the change must have reached `a`");
}

#[test]
fn churn_growth_leaves_the_sibling_alone() {
    let s = Shared::new();
    let hosts = &s.sc.net.hosts;
    let (mut a, mut b) = (s.engine(), s.engine());
    let before = s.table_image();
    let resources = s.table.len();

    // Two hosts join `a`'s platform, one per LAN kind if the campus has both.
    let lans = &s.sc.truth.clusters;
    let hub = lans.iter().position(|c| c.is_hub).unwrap_or(0);
    let switch = lans.iter().position(|c| !c.is_hub).unwrap_or(0);
    let events: Vec<ChurnEvent> = [hub, switch]
        .iter()
        .enumerate()
        .map(|(i, &cluster)| ChurnEvent::AddHost {
            cluster,
            name: format!("joiner{i}.campus.synth"),
            ip: format!("10.253.0.{}", i + 1),
            sibling: s.sc.host_name(lans[cluster].members[0]),
        })
        .collect();
    apply_churn(&mut a, &events).expect("the joiners attach");
    assert!(a.topo().link_count() > s.topo.link_count());

    // The shared table did not grow; `a` routes a flow to a joiner, which
    // indexes resources only its private copy has.
    assert_eq!(Arc::strong_count(&s.table), 2);
    assert_eq!(s.table.len(), resources);
    assert_eq!(s.table_image(), before);
    let joiner = a.topo().node_by_name("joiner1.campus.synth").expect("joined");
    let f = a.start_probe_flow(hosts[0], joiner, Bytes::kib(64)).expect("routed");
    a.run_until_flows_done(&[f], TimeDelta::from_secs(3_600.0)).expect("drains");
    assert_eq!(drive(&mut b, hosts), drive(&mut s.control(), hosts));
}
