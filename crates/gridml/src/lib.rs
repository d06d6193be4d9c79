//! # gridml — the ENV data format
//!
//! GridML is "a specialized form of XML ... a flexible format for describing
//! the physical and observable characteristics of resources and networks
//! constituting a Grid" (paper §4). ENV stores everything it learns in
//! GridML: the machine lookup, per-host properties, the structural
//! traceroute tree, and the refined `ENV_Switched` / `ENV_Shared` networks.
//!
//! This crate provides:
//!
//! * the document model ([`GridDoc`], [`Site`], [`Machine`], [`Network`],
//!   [`Property`]),
//! * a writer ([`GridDoc::to_xml`]) producing the paper's layout,
//! * a parser ([`GridDoc::parse`]) for a self-contained XML subset
//!   (elements, attributes, self-closing tags, comments, declarations,
//!   entity escapes),
//! * the firewall merge of paper §4.3 ([`merge::merge_sites`]): one
//!   document per side of a firewall, unified by gateway aliases.

pub mod merge;
pub mod parse;
pub mod write;
mod xml;

pub use parse::ParseError;

/// `<PROPERTY name=... value=... units=.../>` — a measured or looked-up
/// attribute of a machine or network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    pub name: String,
    pub value: String,
    pub units: Option<String>,
}

impl Property {
    pub fn new(name: &str, value: impl ToString) -> Self {
        Property { name: name.to_string(), value: value.to_string(), units: None }
    }

    pub fn with_units(name: &str, value: impl ToString, units: &str) -> Self {
        Property {
            name: name.to_string(),
            value: value.to_string(),
            units: Some(units.to_string()),
        }
    }
}

/// A machine: `<MACHINE><LABEL ip name><ALIAS/>…</LABEL><PROPERTY/>…</MACHINE>`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Machine {
    /// Primary address, when known.
    pub ip: Option<String>,
    /// Fully-qualified name (or the bare IP for nameless machines).
    pub name: String,
    /// Alternative names for the same machine — including, after a merge,
    /// its names on the other side of a firewall.
    pub aliases: Vec<String>,
    pub properties: Vec<Property>,
}

impl Machine {
    pub(crate) fn new(name: &str) -> Self {
        Machine { name: name.to_string(), ..Default::default() }
    }

    pub fn with_ip(name: &str, ip: &str) -> Self {
        Machine { name: name.to_string(), ip: Some(ip.to_string()), ..Default::default() }
    }

    /// All names this machine answers to (primary + aliases).
    pub(crate) fn all_names(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.name.as_str()).chain(self.aliases.iter().map(|s| s.as_str()))
    }

    #[cfg(test)]
    pub(crate) fn property(&self, name: &str) -> Option<&Property> {
        self.properties.iter().find(|p| p.name == name)
    }
}

/// The kind of a `<NETWORK>` element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkType {
    /// Traceroute-derived grouping (first ENV phase).
    Structural,
    /// Refined: hosts interconnected by a switch (independent pairs).
    EnvSwitched,
    /// Refined: hosts on a shared medium (a hub or bus).
    EnvShared,
    /// Refined but inconclusive (jammed ratio between the thresholds).
    EnvUndetermined,
}

impl NetworkType {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            NetworkType::Structural => "Structural",
            NetworkType::EnvSwitched => "ENV_Switched",
            NetworkType::EnvShared => "ENV_Shared",
            NetworkType::EnvUndetermined => "ENV_Undetermined",
        }
    }

    pub(crate) fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "Structural" => Some(NetworkType::Structural),
            "ENV_Switched" => Some(NetworkType::EnvSwitched),
            "ENV_Shared" => Some(NetworkType::EnvShared),
            "ENV_Undetermined" => Some(NetworkType::EnvUndetermined),
            _ => None,
        }
    }
}

/// A `<NETWORK>` element: label, properties, member machine references and
/// nested networks.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    pub net_type: Option<NetworkType>,
    /// `<LABEL ip=…/>` — the address of the gateway/router heading this
    /// (sub)network, when known.
    pub label_ip: Option<String>,
    /// `<LABEL name=…/>` — the name heading this network.
    pub label_name: Option<String>,
    pub properties: Vec<Property>,
    /// `<MACHINE name=…/>` references to machines declared in the site.
    pub machines: Vec<String>,
    pub subnets: Vec<Network>,
}

impl Network {
    pub fn new(net_type: Option<NetworkType>) -> Self {
        Network {
            net_type,
            label_ip: None,
            label_name: None,
            properties: Vec::new(),
            machines: Vec::new(),
            subnets: Vec::new(),
        }
    }

    /// Count of networks in this subtree (including self).
    #[cfg(test)]
    pub(crate) fn network_count(&self) -> usize {
        1 + self.subnets.iter().map(Network::network_count).sum::<usize>()
    }
}

/// A `<SITE domain=…>` element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Site {
    pub domain: String,
    pub label: Option<String>,
    pub machines: Vec<Machine>,
    pub networks: Vec<Network>,
}

impl Site {
    pub fn new(domain: &str) -> Self {
        Site { domain: domain.to_string(), ..Default::default() }
    }

    pub fn machine(&self, name: &str) -> Option<&Machine> {
        self.machines.iter().find(|m| m.all_names().any(|n| n == name))
    }

    pub(crate) fn machine_mut(&mut self, name: &str) -> Option<&mut Machine> {
        self.machines.iter_mut().find(|m| m.name == name || m.aliases.iter().any(|a| a == name))
    }
}

/// A whole `<GRID>` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridDoc {
    pub label: Option<String>,
    pub sites: Vec<Site>,
}

impl GridDoc {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub fn site(&self, domain: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.domain == domain)
    }

    /// Find a machine by any of its names, across all sites.
    #[cfg(test)]
    pub(crate) fn machine(&self, name: &str) -> Option<&Machine> {
        self.sites.iter().find_map(|s| s.machine(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GridDoc {
        /// Total number of machine declarations.
        fn machine_count(&self) -> usize {
            self.sites.iter().map(|s| s.machines.len()).sum()
        }
    }

    impl Network {
        /// Machines in this network and all nested ones, in document order.
        fn machines_recursive(&self) -> Vec<&str> {
            let mut out: Vec<&str> = self.machines.iter().map(|s| s.as_str()).collect();
            for sub in &self.subnets {
                out.extend(sub.machines_recursive());
            }
            out
        }
    }

    fn sample_doc() -> GridDoc {
        let mut site = Site::new("ens-lyon.fr");
        site.label = Some("ENS-LYON-FR".to_string());
        let mut canaria = Machine::with_ip("canaria.ens-lyon.fr", "140.77.13.229");
        canaria.aliases.push("canaria".to_string());
        canaria.properties.push(Property::with_units("CPU_clock", "198.951", "MHz"));
        site.machines.push(canaria);
        let mut net = Network::new(Some(NetworkType::EnvSwitched));
        net.label_name = Some("sci0".to_string());
        net.properties.push(Property::with_units("ENV_base_BW", "32.65", "Mbps"));
        net.machines.push("sci1.popc.private".to_string());
        site.networks.push(net);
        GridDoc { label: Some("Grid1".to_string()), sites: vec![site] }
    }

    #[test]
    fn machine_lookup_by_alias() {
        let doc = sample_doc();
        assert!(doc.machine("canaria").is_some());
        assert!(doc.machine("canaria.ens-lyon.fr").is_some());
        assert!(doc.machine("nothere").is_none());
        assert_eq!(doc.machine_count(), 1);
    }

    #[test]
    fn property_access() {
        let doc = sample_doc();
        let m = doc.machine("canaria").unwrap();
        let p = m.property("CPU_clock").unwrap();
        assert_eq!(p.value, "198.951");
        assert_eq!(p.units.as_deref(), Some("MHz"));
        assert!(m.property("nope").is_none());
    }

    #[test]
    fn network_type_round_trip() {
        for t in [
            NetworkType::Structural,
            NetworkType::EnvSwitched,
            NetworkType::EnvShared,
            NetworkType::EnvUndetermined,
        ] {
            assert_eq!(NetworkType::from_str_opt(t.as_str()), Some(t));
        }
        assert_eq!(NetworkType::from_str_opt("bogus"), None);
    }

    #[test]
    fn machines_recursive_and_counts() {
        let mut outer = Network::new(Some(NetworkType::Structural));
        outer.machines.push("a".into());
        let mut inner = Network::new(Some(NetworkType::Structural));
        inner.machines.push("b".into());
        inner.machines.push("c".into());
        outer.subnets.push(inner);
        assert_eq!(outer.machines_recursive(), vec!["a", "b", "c"]);
        assert_eq!(outer.network_count(), 2);
    }

    #[test]
    fn site_machine_mut_updates_aliases() {
        let mut doc = sample_doc();
        let site = &mut doc.sites[0];
        site.machine_mut("canaria").unwrap().aliases.push("extra.name".to_string());
        assert!(doc.machine("extra.name").is_some());
    }
}
