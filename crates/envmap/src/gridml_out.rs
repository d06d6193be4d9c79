//! Conversion of ENV results into GridML documents (paper §4.2's listings).

use std::collections::BTreeMap;

use gridml::{GridDoc, Machine, Network, NetworkType, Property, Site};

use crate::mapper::EnvRun;
use crate::net::{EnvNet, NetKind};
use crate::structural::StructNode;

fn structural_to_network(node: &StructNode) -> Network {
    let mut net = Network::new(None);
    if node.key != "(root)" && node.key != "(local)" {
        // The structural listing labels hops with both ip and name when the
        // key is a bare address they coincide (paper §4.2.1.3).
        if node.key.chars().all(|c| c.is_ascii_digit() || c == '.') {
            net.label_ip = Some(node.key.clone());
        }
        net.label_name = Some(node.key.clone());
    }
    net.machines = node.hosts.clone();
    net.subnets = node.children.iter().map(structural_to_network).collect();
    net
}

fn kind_to_type(kind: NetKind) -> NetworkType {
    match kind {
        NetKind::Shared => NetworkType::EnvShared,
        NetKind::Switched => NetworkType::EnvSwitched,
        NetKind::Undetermined | NetKind::Single => NetworkType::EnvUndetermined,
    }
}

fn env_net_to_network(net: &EnvNet) -> Network {
    let mut out = Network::new(Some(kind_to_type(net.kind)));
    out.label_name = Some(net.label.clone());
    out.properties.push(Property::with_units(
        "ENV_base_BW",
        format!("{:.2}", net.base_bw_mbps),
        "Mbps",
    ));
    if let Some(local) = net.local_bw_mbps {
        out.properties.push(Property::with_units(
            "ENV_base_local_BW",
            format!("{local:.2}"),
            "Mbps",
        ));
    }
    if let Some(jam) = net.jam_ratio {
        out.properties.push(Property::new("ENV_jam_ratio", format!("{jam:.3}")));
    }
    if let Some(via) = &net.via {
        out.properties.push(Property::new("ENV_via", via.clone()));
    }
    out.machines = net.hosts.clone();
    out.subnets = net.children.iter().map(env_net_to_network).collect();
    out
}

fn network_to_env_net(net: &Network) -> EnvNet {
    let prop = |name: &str| -> Option<&str> {
        net.properties.iter().find(|p| p.name == name).map(|p| p.value.as_str())
    };
    let kind = match net.net_type {
        Some(NetworkType::EnvShared) => NetKind::Shared,
        Some(NetworkType::EnvSwitched) => NetKind::Switched,
        _ => {
            if net.machines.len() == 1 {
                NetKind::Single
            } else {
                NetKind::Undetermined
            }
        }
    };
    EnvNet {
        label: net.label_name.clone().unwrap_or_default(),
        kind,
        hosts: net.machines.clone(),
        via: prop("ENV_via").map(str::to_string),
        // Router chains are display-only and not serialized.
        router_path: Vec::new(),
        base_bw_mbps: prop("ENV_base_BW").and_then(|v| v.parse().ok()).unwrap_or(0.0),
        local_bw_mbps: prop("ENV_base_local_BW").and_then(|v| v.parse().ok()),
        jam_ratio: prop("ENV_jam_ratio").and_then(|v| v.parse().ok()),
        children: net.subnets.iter().map(network_to_env_net).collect(),
    }
}

/// Rebuild an effective view from a published GridML document — the paper's
/// §4.3 sharing scenario: "administrators could publish the mapping of
/// their network as reported by ENV, so that any user can use it without
/// redoing the mapping."
///
/// Returns `None` when the document carries no ENV networks or no master
/// record.
pub fn view_from_gridml(doc: &GridDoc) -> Option<crate::net::EnvView> {
    let mut master = None;
    let mut networks = Vec::new();
    for site in &doc.sites {
        for net in &site.networks {
            match net.net_type {
                Some(NetworkType::Structural) => {
                    if let Some(p) = net.properties.iter().find(|p| p.name == "ENV_master") {
                        master = Some(p.value.clone());
                    }
                }
                Some(_) => networks.push(network_to_env_net(net)),
                None => {}
            }
        }
    }
    Some(crate::net::EnvView { master: master?, networks })
}

impl EnvRun {
    /// The GridML document for this run: sites with machine declarations,
    /// the structural tree and the refined ENV networks.
    pub fn to_gridml(&self) -> GridDoc {
        // Group machines into sites.
        let mut sites: BTreeMap<String, Site> = BTreeMap::new();
        for m in &self.machines {
            let site = sites.entry(m.site.clone()).or_insert_with(|| {
                let mut s = Site::new(&m.site);
                s.label = Some(m.site.to_uppercase().replace('.', "-"));
                s
            });
            let mut machine = Machine::with_ip(&m.name, &m.ip.to_string());
            // The short name is an alias, as in the paper's lookup listing.
            if let Some(short) = m.name.split('.').next() {
                if short != m.name {
                    machine.aliases.push(short.to_string());
                }
            }
            for a in &m.aliases {
                machine.aliases.push(a.clone());
            }
            site.machines.push(machine);
        }

        // The structural tree goes under the master's site (first site as
        // fallback), marked Structural like the paper's listing.
        let master_site = self
            .machines
            .iter()
            .find(|m| m.name == self.master)
            .map(|m| m.site.clone())
            .or_else(|| sites.keys().next().cloned());
        if let Some(site_key) = master_site {
            let mut structural = structural_to_network(&self.structural);
            structural.net_type = Some(NetworkType::Structural);
            // Record the vantage point so published maps can be re-imported
            // (paper §4.3's sharing scenario).
            structural.properties.push(Property::new("ENV_master", self.master.clone()));
            if let Some(site) = sites.get_mut(&site_key) {
                site.networks.push(structural);
                for net in &self.view.networks {
                    site.networks.push(env_net_to_network(net));
                }
            }
        }

        GridDoc { label: None, sites: sites.into_values().collect() }
    }
}

#[cfg(test)]
mod tests {
    use crate::mapper::{EnvConfig, EnvMapper, HostInput};
    use gridml::{GridDoc, NetworkType};
    use netsim::scenarios::{ens_lyon, Calibration};
    use netsim::Sim;

    fn inside_run() -> crate::mapper::EnvRun {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        // `netsim::scenarios::ENS_LYON_INSIDE` without the myri cluster:
        // the listings under test are the sci network's and the gateways'.
        let inputs: Vec<HostInput> = [
            "popc0.popc.private",
            "myri0.popc.private",
            "sci0.popc.private",
            "sci1.popc.private",
            "sci2.popc.private",
            "sci3.popc.private",
            "sci4.popc.private",
            "sci5.popc.private",
            "sci6.popc.private",
        ]
        .iter()
        .map(|s| HostInput::new(s))
        .collect();
        EnvMapper::new(EnvConfig::fast()).map(&mut eng, &inputs, "sci0.popc.private", None).unwrap()
    }

    /// Regenerates the paper's §4.2.2.4 ENV_Switched listing: the sci
    /// cluster with its base bandwidth property.
    #[test]
    fn switched_sci_network_listing() {
        let run = inside_run();
        let doc = run.to_gridml();
        let xml = doc.to_xml();
        assert!(xml.contains(r#"<NETWORK type="ENV_Switched">"#), "{xml}");
        assert!(xml.contains(r#"<MACHINE name="sci1.popc.private" />"#));
        assert!(xml.contains("ENV_base_BW"));
        // The calibrated platform reports ~32.65 Mbps like the paper.
        let sw = doc
            .sites
            .iter()
            .flat_map(|s| s.networks.iter())
            .find(|n| n.net_type == Some(NetworkType::EnvSwitched))
            .expect("switched network present");
        let bw: f64 =
            sw.properties.iter().find(|p| p.name == "ENV_base_BW").unwrap().value.parse().unwrap();
        assert!((bw - 32.65).abs() < 2.0, "base bw {bw}");
    }

    #[test]
    fn gridml_round_trips() {
        let run = inside_run();
        let doc = run.to_gridml();
        let xml = doc.to_xml();
        let parsed = GridDoc::parse(&xml).unwrap();
        assert_eq!(doc, parsed);
    }

    #[test]
    fn machines_carry_aliases_and_sites() {
        let run = inside_run();
        let doc = run.to_gridml();
        let site = doc.site("popc.private").expect("private site");
        let m = site.machine("sci1.popc.private").unwrap();
        assert_eq!(m.ip.as_deref(), Some("192.168.81.71"));
        assert!(m.aliases.contains(&"sci1".to_string()));
        // Gateways expose their public names as aliases.
        let gw = site.machine("popc0.popc.private").unwrap();
        assert!(gw.aliases.contains(&"popc.ens-lyon.fr".to_string()));
    }

    /// The §4.3 sharing scenario: a published GridML map re-imports into
    /// the same effective view (modulo display-only router chains).
    #[test]
    fn published_map_round_trips_to_view() {
        let run = inside_run();
        let doc = run.to_gridml();
        let xml = doc.to_xml();
        let parsed = GridDoc::parse(&xml).unwrap();
        let imported = crate::gridml_out::view_from_gridml(&parsed).expect("view imports");
        assert_eq!(imported.master, run.view.master);
        assert_eq!(imported.network_count(), run.view.network_count());
        // Structure and classification survive.
        for net in &run.view.networks {
            let other = imported
                .networks
                .iter()
                .find(|n| n.label == net.label)
                .expect("network survives publication");
            assert_eq!(other.kind, net.kind);
            assert_eq!(other.hosts, net.hosts);
            assert_eq!(other.via, net.via);
            assert!((other.base_bw_mbps - net.base_bw_mbps).abs() < 0.01);
        }
    }

    #[test]
    fn import_without_master_fails() {
        let doc = GridDoc::parse(r#"<GRID><SITE domain="x"></SITE></GRID>"#).unwrap();
        assert!(crate::gridml_out::view_from_gridml(&doc).is_none());
    }

    #[test]
    fn structural_network_present() {
        let run = inside_run();
        let doc = run.to_gridml();
        let has_structural = doc
            .sites
            .iter()
            .flat_map(|s| s.networks.iter())
            .any(|n| n.net_type == Some(NetworkType::Structural));
        assert!(has_structural);
    }
}
