//! Merging per-side ENV runs across a firewall (paper §4.3, "Firewalls").
//!
//! "We solved this issue by running ENV on each side of the firewall, and
//! merging the results afterward. ... The only information the user has to
//! provide is the several aliases of the gateways machines depending on the
//! considered site."
//!
//! The merge unifies host identities through the gateway aliases, then
//! grafts the inside view onto the outside one:
//!
//! * an inside top-level network sharing a machine with an outside network
//!   is folded into it (the paper's Hub 2 case: the outside run's
//!   `{myri, popc, sci}` and the inside run's `{myri0, popc0}` + master
//!   `sci0` are one hub);
//! * other inside top-level networks hang under the network containing the
//!   *inside master* (the sci switch appears beneath sci0 in Figure 1b);
//! * nested inside networks keep their gateway attachment (Hub 3 stays
//!   behind myri0).

use std::collections::BTreeMap;

pub use gridml::merge::GatewayAlias;

use crate::mapper::EnvRun;
use crate::net::{EnvNet, EnvView};

/// Bidirectional name unification built from gateway aliases plus the
/// machines' own interface aliases.
fn canonical_map(
    outside: &EnvRun,
    inside: &EnvRun,
    gateways: &[GatewayAlias],
) -> BTreeMap<String, String> {
    // Preference: a machine keeps its *inside* name, matching Figure 1(b)
    // which labels the gateways myri0/popc0/sci0.
    let mut canon: BTreeMap<String, String> = BTreeMap::new();
    for gw in gateways {
        canon.insert(gw.outside.clone(), gw.inside.clone());
        canon.insert(gw.inside.clone(), gw.inside.clone());
    }
    // Interface aliases recorded during lookup also unify.
    for run in [outside, inside] {
        for m in &run.machines {
            for a in &m.aliases {
                if !canon.contains_key(a) && canon.contains_key(&m.name) {
                    canon.insert(a.clone(), canon[&m.name].clone());
                }
            }
        }
    }
    canon
}

fn canon<'a>(map: &'a BTreeMap<String, String>, name: &'a str) -> &'a str {
    map.get(name).map(|s| s.as_str()).unwrap_or(name)
}

fn canonicalize_net(net: &EnvNet, map: &BTreeMap<String, String>) -> EnvNet {
    let mut hosts: Vec<String> = net.hosts.iter().map(|h| canon(map, h).to_string()).collect();
    hosts.sort();
    hosts.dedup();
    EnvNet {
        label: canon(map, &net.label).to_string(),
        kind: net.kind,
        hosts,
        via: net.via.as_deref().map(|v| canon(map, v).to_string()),
        router_path: net.router_path.clone(),
        base_bw_mbps: net.base_bw_mbps,
        local_bw_mbps: net.local_bw_mbps,
        jam_ratio: net.jam_ratio,
        children: net.children.iter().map(|c| canonicalize_net(c, map)).collect(),
    }
}

/// Attach `net` under the network containing `host`; true on success.
fn attach_under(nets: &mut [EnvNet], host: &str, net: &EnvNet) -> bool {
    for n in nets.iter_mut() {
        if n.hosts.iter().any(|h| h == host) {
            n.children.push(net.clone());
            return true;
        }
        if attach_under(&mut n.children, host, net) {
            return true;
        }
    }
    false
}

/// Merge the outside and inside runs into one effective view from the
/// outside master's standpoint.
pub fn merge_runs(outside: &EnvRun, inside: &EnvRun, gateways: &[GatewayAlias]) -> EnvView {
    let map = canonical_map(outside, inside, gateways);
    let mut networks: Vec<EnvNet> =
        outside.view.networks.iter().map(|n| canonicalize_net(n, &map)).collect();
    let inside_master = canon(&map, &inside.master).to_string();

    for net in &inside.view.networks {
        let net = canonicalize_net(net, &map);
        // Fold into an overlapping outside network when one exists.
        let overlap = find_overlap(&mut networks, &net);
        match overlap {
            Some(target) => {
                for h in &net.hosts {
                    if !target.hosts.contains(h) {
                        target.hosts.push(h.clone());
                    }
                }
                target.hosts.sort();
                // The inside run measured the cluster's local rate from
                // within; prefer it when the outside run has none.
                if target.local_bw_mbps.is_none() {
                    target.local_bw_mbps = net.local_bw_mbps;
                }
                for c in net.children {
                    target.children.push(c);
                }
            }
            None => {
                // Hangs beneath wherever the inside master sits.
                let mut attached = net.clone();
                if attached.via.is_none() {
                    attached.via = Some(inside_master.clone());
                    attached.label = inside_master.clone();
                }
                let anchor = attached.via.clone().expect("set above");
                if !attach_under(&mut networks, &anchor, &attached) {
                    networks.push(attached);
                }
            }
        }
    }

    EnvView { master: canon(&map, &outside.master).to_string(), networks }
}

/// Find a top-level (or nested) network sharing at least one host with
/// `net`.
fn find_overlap<'a>(nets: &'a mut [EnvNet], net: &EnvNet) -> Option<&'a mut EnvNet> {
    fn overlaps(a: &EnvNet, b: &EnvNet) -> bool {
        a.hosts.iter().any(|h| b.hosts.contains(h))
    }
    // Depth-first; done in two passes to appease the borrow checker.
    fn locate(nets: &[EnvNet], net: &EnvNet, path: &mut Vec<usize>) -> bool {
        for (i, n) in nets.iter().enumerate() {
            if overlaps(n, net) {
                path.push(i);
                return true;
            }
            path.push(i);
            if locate(&n.children, net, path) {
                return true;
            }
            path.pop();
        }
        false
    }
    let mut path = Vec::new();
    if !locate(nets, net, &mut path) {
        return None;
    }
    let mut cur: &mut EnvNet = &mut nets[path[0]];
    for idx in &path[1..] {
        cur = &mut cur.children[*idx];
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{EnvConfig, EnvMapper, HostInput};
    use crate::net::NetKind;
    use netsim::scenarios::{
        ens_lyon, Calibration, ENS_LYON_GATEWAYS, ENS_LYON_INSIDE, ENS_LYON_OUTSIDE,
    };
    use netsim::Sim;

    fn paper_gateways() -> [GatewayAlias; 3] {
        ENS_LYON_GATEWAYS.map(|(public, private)| GatewayAlias::new(public, private))
    }

    /// Full paper §4 pipeline: outside run + inside run + merge must
    /// reproduce the complete Figure 1(b) tree.
    #[test]
    fn merged_view_matches_figure_1b() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());

        let outside_hosts = ENS_LYON_OUTSIDE.map(HostInput::new);
        let outside = mapper
            .map(&mut eng, &outside_hosts, "the-doors.ens-lyon.fr", Some("well-known.example.org"))
            .unwrap();

        let inside_hosts = ENS_LYON_INSIDE.map(HostInput::new);
        let inside = mapper.map(&mut eng, &inside_hosts, "sci0.popc.private", None).unwrap();

        let view = merge_runs(&outside, &inside, &paper_gateways());

        // Figure 1(b): Hub1 {canaria, moby}; Hub2 {myri0, popc0, sci0} with
        // Hub3 {myri1, myri2} via myri0 and the switch {sci1..6} via sci0.
        assert_eq!(view.master, "the-doors.ens-lyon.fr");
        assert_eq!(view.networks.len(), 2);

        let hub1 = view.find_containing("canaria.ens-lyon.fr").unwrap();
        assert_eq!(hub1.kind, NetKind::Shared);
        assert_eq!(hub1.hosts.len(), 2);

        let hub2 = view.find_containing("popc0.popc.private").unwrap();
        assert_eq!(hub2.kind, NetKind::Shared);
        assert_eq!(
            hub2.hosts,
            vec![
                "myri0.popc.private".to_string(),
                "popc0.popc.private".to_string(),
                "sci0.popc.private".to_string()
            ]
        );
        assert_eq!(hub2.children.len(), 2, "Hub3 and the sci switch hang off Hub 2");

        let hub3 = view.find_containing("myri1.popc.private").unwrap();
        assert_eq!(hub3.kind, NetKind::Shared);
        assert_eq!(hub3.via.as_deref(), Some("myri0.popc.private"));
        assert_eq!(hub3.hosts.len(), 2);

        let sw = view.find_containing("sci3.popc.private").unwrap();
        assert_eq!(sw.kind, NetKind::Switched);
        assert_eq!(sw.via.as_deref(), Some("sci0.popc.private"));
        assert_eq!(sw.hosts.len(), 6);
        assert!((sw.base_bw_mbps - 32.65).abs() < 2.0);

        // 4 networks in total, 13 hosts (14 minus the master).
        assert_eq!(view.network_count(), 4);
        assert_eq!(view.all_hosts().len(), 13);
    }

    #[test]
    fn merge_preserves_outside_measurements() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        let outside_hosts = ENS_LYON_OUTSIDE.map(HostInput::new);
        let outside = mapper
            .map(&mut eng, &outside_hosts, "the-doors.ens-lyon.fr", Some("well-known.example.org"))
            .unwrap();
        // The gateways alone: Hub 2 is the network whose base is measured
        // only from outside.
        let inside_hosts: Vec<HostInput> =
            ["popc0.popc.private", "myri0.popc.private", "sci0.popc.private"]
                .iter()
                .map(|s| HostInput::new(s))
                .collect();
        let inside = mapper.map(&mut eng, &inside_hosts, "sci0.popc.private", None).unwrap();
        let view = merge_runs(&outside, &inside, &paper_gateways());
        let hub2 = view.find_containing("popc0.popc.private").unwrap();
        // The outside 10 Mbps base survives the merge.
        assert!((hub2.base_bw_mbps - 10.0).abs() < 1.0);
    }

    #[test]
    fn merge_without_gateway_overlap_attaches_under_inside_master() {
        // Degenerate inside run containing only private leaf hosts: its
        // networks must hang under the (aliased) inside master.
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        let outside_hosts = ENS_LYON_OUTSIDE.map(HostInput::new);
        let outside = mapper
            .map(&mut eng, &outside_hosts, "the-doors.ens-lyon.fr", Some("well-known.example.org"))
            .unwrap();
        let inside_hosts: Vec<HostInput> =
            ["sci0.popc.private", "sci1.popc.private", "sci2.popc.private", "sci3.popc.private"]
                .iter()
                .map(|s| HostInput::new(s))
                .collect();
        let inside = mapper.map(&mut eng, &inside_hosts, "sci0.popc.private", None).unwrap();
        let view = merge_runs(&outside, &inside, &paper_gateways());
        let sw = view.find_containing("sci1.popc.private").unwrap();
        assert_eq!(sw.via.as_deref(), Some("sci0.popc.private"));
        // It hangs under Hub 2 (which contains sci0).
        let hub2 = view.find_containing("sci0.popc.private").unwrap();
        assert!(hub2.children.iter().any(|c| c.hosts.contains(&"sci1.popc.private".into())));
    }
}
