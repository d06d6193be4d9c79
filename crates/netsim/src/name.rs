//! A miniature DNS: reverse resolution (forward resolution is the topology's
//! name table).
//!
//! The ENV structural phase groups hosts into sites by domain name; when a
//! machine has no name, the paper's patched ENV falls back to the classful
//! network of its address (`crate::ip::Ipv4::class_domain`). The firewall
//! merge (paper §4.3) relies on knowing that several names — one per side of
//! the firewall — designate the same machine; those are the names of one
//! node's interfaces, which `Topology::node_by_name` resolves to that node.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::ip::Ipv4;

/// Hash state with fixed keys, for every table the simulator keeps.
/// `clone` and `drop` walk a table of `String`s in bucket order, and where
/// the tombstones of a churned table fall decides when it next grows, so
/// under `RandomState` the order and sizes of allocations — and with them
/// the heap's layout and the process's peak RSS, by 12 MiB on the
/// 1000-host benchmark — differ from one process to the next (DESIGN §9).
pub type FixedState = BuildHasherDefault<DefaultHasher>;

/// The workspace's one string → dense id core: each distinct string is
/// stored once and numbered in first-seen order, so the ids are a pure
/// function of the order strings were first offered. The topology's
/// [`crate::topology::NameTable`] and the NWS series table are both built
/// on it.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    lookup: HashMap<String, u32, FixedState>,
    names: Vec<String>,
}

impl Interner {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Interner {
            lookup: HashMap::with_capacity_and_hasher(n, FixedState::default()),
            names: Vec::with_capacity(n),
        }
    }

    /// The id of `name`, minting the next one the first time it is seen;
    /// the flag says whether it was minted now.
    pub fn intern(&mut self, name: &str) -> (u32, bool) {
        if let Some(&id) = self.lookup.get(name) {
            return (id, false);
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 interned names");
        self.lookup.insert(name.to_string(), id);
        self.names.push(name.to_string());
        (id, true)
    }

    /// The id of `name`, if it was interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.lookup.get(name).copied()
    }

    /// The string behind an id this interner minted.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Reverse (address→name) resolution. Forward resolution is the
/// topology's name table (`Topology::node_by_name`).
#[derive(Debug, Clone, Default)]
pub struct Dns {
    by_ip: HashMap<Ipv4, String, FixedState>,
}

impl Dns {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register `name` for `ip`. The first name registered for an address
    /// becomes its canonical reverse-resolution result.
    pub(crate) fn register(&mut self, name: &str, ip: Ipv4) {
        self.by_ip.entry(ip).or_insert_with(|| name.to_string());
    }

    /// Reverse lookup. `None` models a PTR record that does not exist —
    /// the "machines without hostname" case of paper §4.3.
    pub(crate) fn reverse(&self, ip: Ipv4) -> Option<&str> {
        self.by_ip.get(&ip).map(|s| s.as_str())
    }

    /// The DNS domain of a name: everything after the first dot. Returns
    /// `None` for dotless names.
    pub(crate) fn domain_of(name: &str) -> Option<&str> {
        name.split_once('.').map(|(_, d)| d)
    }

    /// The site grouping key ENV uses for a host: its DNS domain when the
    /// address reverse-resolves, otherwise the classful pseudo-domain.
    pub fn site_of(&self, ip: Ipv4) -> String {
        match self.reverse(ip).and_then(Self::domain_of) {
            Some(d) => d.to_string(),
            None => ip.class_domain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    #[test]
    fn forward_and_reverse() {
        let mut b = TopologyBuilder::new();
        let h = b.host("canaria.ens-lyon.fr", "140.77.13.229");
        let topo = b.build().unwrap();
        let ip = Ipv4::new(140, 77, 13, 229);
        assert_eq!(topo.node_by_name("canaria.ens-lyon.fr"), Some(h));
        assert_eq!(topo.dns().reverse(ip), Some("canaria.ens-lyon.fr"));
        assert_eq!(topo.node_by_name("nothere"), None);
        assert_eq!(topo.dns().reverse(Ipv4::new(140, 77, 13, 230)), None);
    }

    #[test]
    fn first_name_is_canonical() {
        let mut d = Dns::new();
        let ip = Ipv4::new(10, 0, 0, 1);
        d.register("first.x", ip);
        d.register("second.x", ip);
        assert_eq!(d.reverse(ip), Some("first.x"));
    }

    /// Two tables built alike clone and drop their strings in the same
    /// order (`Debug` prints in bucket order, the order `clone` walks).
    #[test]
    fn bucket_order_is_the_same_in_every_table() {
        let build = || {
            let mut d = Dns::new();
            for i in 0..200u8 {
                d.register(&format!("h{i}.lab.x"), Ipv4::new(10, 0, 0, i));
                d.register(&format!("h{i}.private"), Ipv4::new(192, 168, 0, i));
            }
            d
        };
        assert_eq!(format!("{:?}", build()), format!("{:?}", build()));
    }

    #[test]
    fn interner_numbers_in_first_seen_order() {
        let mut n = Interner::default();
        assert_eq!(n.intern("b.x"), (0, true));
        assert_eq!(n.intern("a.x"), (1, true));
        assert_eq!(n.intern("b.x"), (0, false));
        assert_eq!((n.get("a.x"), n.get("c.x")), (Some(1), None));
        assert_eq!((n.name(0), n.name(1), n.len()), ("b.x", "a.x", 2));
    }

    #[test]
    fn domain_extraction() {
        assert_eq!(Dns::domain_of("moby.cri2000.ens-lyon.fr"), Some("cri2000.ens-lyon.fr"));
        assert_eq!(Dns::domain_of("localhost"), None);
    }

    #[test]
    fn site_grouping_falls_back_to_ip_class() {
        let mut d = Dns::new();
        let named = Ipv4::new(140, 77, 13, 229);
        d.register("canaria.ens-lyon.fr", named);
        assert_eq!(d.site_of(named), "ens-lyon.fr");
        // Unnamed private address → classful pseudo-domain (paper §4.3).
        let unnamed = Ipv4::new(192, 168, 81, 60);
        assert_eq!(d.site_of(unnamed), "net-192.168.81");
    }
}
