//! The firewall merge of paper §4.3.
//!
//! When a firewall splits the platform, ENV runs once on each side and the
//! results are merged: "a new GridML structure containing both sites is
//! created, and the aliases of hosts belonging to both sites are provided.
//! This operation is often as simple as a file concatenation. The only
//! information the user has to provide is the several aliases of the
//! gateways machines depending on the considered site."

use std::collections::BTreeMap;

use crate::GridDoc;

/// A user-provided statement that two names denote one gateway machine,
/// one name per side of the firewall — e.g.
/// `("popc.ens-lyon.fr", "popc0.popc.private")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayAlias {
    pub outside: String,
    pub inside: String,
}

impl GatewayAlias {
    pub fn new(outside: &str, inside: &str) -> Self {
        GatewayAlias { outside: outside.to_string(), inside: inside.to_string() }
    }
}

/// Merge per-side GridML documents into one, cross-aliasing the gateways.
///
/// Every site of every input document is carried over (document order
/// preserved); then for each gateway alias, both machine declarations gain
/// the other side's name as an `<ALIAS>`.
pub fn merge_sites(docs: &[GridDoc], gateways: &[GatewayAlias], label: &str) -> GridDoc {
    let mut out = GridDoc { label: Some(label.to_string()), sites: Vec::new() };
    for d in docs {
        out.sites.extend(d.sites.iter().cloned());
    }
    for gw in gateways {
        for site in &mut out.sites {
            if let Some(m) = site.machine_mut(&gw.outside) {
                if m.all_names().all(|n| n != gw.inside) {
                    m.aliases.push(gw.inside.clone());
                }
            }
            if let Some(m) = site.machine_mut(&gw.inside) {
                if m.all_names().all(|n| n != gw.outside) {
                    m.aliases.push(gw.outside.clone());
                }
            }
        }
    }
    out
}

/// Resolve every name to a canonical machine identity after a merge: two
/// names linked by any chain of aliases map to the same canonical string
/// (the lexicographically smallest name of the group).
///
/// This is what lets the deployment planner recognise that the outside
/// run's `myri.ens-lyon.fr` and the inside run's `myri0.popc.private` are
/// one machine.
#[derive(Debug, Clone, Default)]
pub struct AliasResolver {
    canon: BTreeMap<String, String>,
}

impl AliasResolver {
    /// Build from a merged document (union-find over alias edges).
    pub fn from_doc(doc: &GridDoc) -> Self {
        // parent map for union-find by name
        let mut parent: BTreeMap<String, String> = BTreeMap::new();

        fn find(parent: &mut BTreeMap<String, String>, x: &str) -> String {
            let p = parent.get(x).cloned();
            match p {
                None => {
                    parent.insert(x.to_string(), x.to_string());
                    x.to_string()
                }
                Some(p) if p == x => p,
                Some(p) => {
                    let root = find(parent, &p);
                    parent.insert(x.to_string(), root.clone());
                    root
                }
            }
        }

        fn union(parent: &mut BTreeMap<String, String>, a: &str, b: &str) {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                // Attach the lexicographically larger root under the smaller
                // so the canonical representative is deterministic.
                if ra < rb {
                    parent.insert(rb, ra);
                } else {
                    parent.insert(ra, rb);
                }
            }
        }

        for site in &doc.sites {
            for m in &site.machines {
                for a in &m.aliases {
                    union(&mut parent, &m.name, a);
                }
                let _ = find(&mut parent, &m.name);
            }
        }

        let names: Vec<String> = parent.keys().cloned().collect();
        let mut canon = BTreeMap::new();
        for n in names {
            let root = find(&mut parent, &n);
            canon.insert(n, root);
        }
        AliasResolver { canon }
    }

    /// The canonical identity of `name` (itself if unknown).
    pub(crate) fn canonical<'a>(&'a self, name: &'a str) -> &'a str {
        self.canon.get(name).map(|s| s.as_str()).unwrap_or(name)
    }

    /// Whether two names denote the same machine.
    pub fn same_machine(&self, a: &str, b: &str) -> bool {
        self.canonical(a) == self.canonical(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Site};

    impl AliasResolver {
        /// Number of distinct machines known.
        fn machine_count(&self) -> usize {
            let mut roots: Vec<&str> = self.canon.values().map(|s| s.as_str()).collect();
            roots.sort_unstable();
            roots.dedup();
            roots.len()
        }
    }

    fn outside_doc() -> GridDoc {
        let mut site = Site::new("ens-lyon.fr");
        site.label = Some("ENS-LYON-FR".to_string());
        for (name, ip) in [
            ("canaria.ens-lyon.fr", "140.77.13.229"),
            ("myri.ens-lyon.fr", "140.77.12.52"),
            ("popc.ens-lyon.fr", "140.77.12.51"),
        ] {
            site.machines.push(Machine::with_ip(name, ip));
        }
        GridDoc { label: None, sites: vec![site] }
    }

    fn inside_doc() -> GridDoc {
        let mut site = Site::new("popc.private");
        site.label = Some("POPC-PRIVATE".to_string());
        for (name, ip) in [
            ("myri0.popc.private", "192.168.81.50"),
            ("popc0.popc.private", "192.168.81.51"),
            ("sci1.popc.private", "192.168.81.71"),
        ] {
            site.machines.push(Machine::with_ip(name, ip));
        }
        GridDoc { label: None, sites: vec![site] }
    }

    fn paper_gateways() -> Vec<GatewayAlias> {
        vec![
            GatewayAlias::new("popc.ens-lyon.fr", "popc0.popc.private"),
            GatewayAlias::new("myri.ens-lyon.fr", "myri0.popc.private"),
        ]
    }

    #[test]
    fn merge_carries_both_sites_and_cross_aliases() {
        let merged = merge_sites(&[outside_doc(), inside_doc()], &paper_gateways(), "Grid1");
        assert_eq!(merged.label.as_deref(), Some("Grid1"));
        assert_eq!(merged.sites.len(), 2);
        // Outside declaration gained the inside alias (paper's example).
        let myri_out = merged.site("ens-lyon.fr").unwrap().machine("myri.ens-lyon.fr").unwrap();
        assert!(myri_out.aliases.contains(&"myri0.popc.private".to_string()));
        // Inside declaration gained the outside alias.
        let myri_in = merged.site("popc.private").unwrap().machine("myri0.popc.private").unwrap();
        assert!(myri_in.aliases.contains(&"myri.ens-lyon.fr".to_string()));
        // Non-gateways untouched.
        let sci1 = merged.site("popc.private").unwrap().machine("sci1.popc.private").unwrap();
        assert!(sci1.aliases.is_empty());
    }

    #[test]
    fn merge_is_idempotent_on_aliases() {
        let once = merge_sites(&[outside_doc(), inside_doc()], &paper_gateways(), "G");
        let twice = merge_sites(std::slice::from_ref(&once), &paper_gateways(), "G");
        assert_eq!(once.sites, twice.sites);
    }

    #[test]
    fn resolver_unifies_gateway_names() {
        let merged = merge_sites(&[outside_doc(), inside_doc()], &paper_gateways(), "G");
        let resolver = AliasResolver::from_doc(&merged);
        assert!(resolver.same_machine("myri.ens-lyon.fr", "myri0.popc.private"));
        assert!(resolver.same_machine("popc0.popc.private", "popc.ens-lyon.fr"));
        assert!(!resolver.same_machine("myri.ens-lyon.fr", "popc.ens-lyon.fr"));
        // 6 declarations, 2 unified pairs → 4 machines.
        assert_eq!(resolver.machine_count(), 4);
    }

    #[test]
    fn resolver_canonical_is_deterministic() {
        let merged = merge_sites(&[outside_doc(), inside_doc()], &paper_gateways(), "G");
        let r1 = AliasResolver::from_doc(&merged);
        let r2 = AliasResolver::from_doc(&merged);
        assert_eq!(r1.canonical("myri0.popc.private"), r2.canonical("myri.ens-lyon.fr"));
        // Lexicographically smallest name wins.
        assert_eq!(r1.canonical("myri0.popc.private"), "myri.ens-lyon.fr");
    }

    #[test]
    fn transitive_alias_chains_unify() {
        let mut site = Site::new("x");
        let mut a = Machine::new("a.x");
        a.aliases.push("b.x".into());
        let mut b = Machine::new("b.x");
        b.aliases.push("c.x".into());
        site.machines.push(a);
        site.machines.push(b);
        let doc = GridDoc { label: None, sites: vec![site] };
        let r = AliasResolver::from_doc(&doc);
        assert!(r.same_machine("a.x", "c.x"));
        assert_eq!(r.machine_count(), 1);
    }

    #[test]
    fn unknown_names_resolve_to_themselves() {
        let r = AliasResolver::from_doc(&GridDoc::new());
        assert_eq!(r.canonical("ghost.example"), "ghost.example");
        assert_eq!(r.machine_count(), 0);
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        prop_compose! {
            fn arb_site()(
                domain in "[a-z]{2,8}\\.[a-z]{2,3}",
                machines in proptest::collection::vec("[a-z]{1,8}", 1..5),
            ) -> Site {
                let mut site = Site::new(&domain);
                for m in machines {
                    site.machines.push(Machine::new(&format!("{m}.{domain}")));
                }
                site
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// With no gateway aliases, merging is exactly concatenation
            /// ("often as simple as a file concatenation").
            #[test]
            fn merge_without_aliases_is_concatenation(
                sites_a in proptest::collection::vec(arb_site(), 0..3),
                sites_b in proptest::collection::vec(arb_site(), 0..3),
            ) {
                let a = GridDoc { label: None, sites: sites_a.clone() };
                let b = GridDoc { label: None, sites: sites_b.clone() };
                let merged = merge_sites(&[a, b], &[], "G");
                prop_assert_eq!(merged.sites.len(), sites_a.len() + sites_b.len());
                let expected: Vec<&Site> = sites_a.iter().chain(sites_b.iter()).collect();
                for (got, want) in merged.sites.iter().zip(expected) {
                    prop_assert_eq!(got, want);
                }
            }

            /// Merging twice with the same aliases never duplicates them.
            #[test]
            fn merge_alias_idempotence(sites in proptest::collection::vec(arb_site(), 1..3)) {
                let doc = GridDoc { label: None, sites };
                // Alias the first machine of the first site to a synthetic
                // inside name.
                let outside = doc.sites[0].machines[0].name.clone();
                let aliases = vec![GatewayAlias::new(&outside, "gw.inside.example")];
                let once = merge_sites(std::slice::from_ref(&doc), &aliases, "G");
                let twice = merge_sites(std::slice::from_ref(&once), &aliases, "G");
                prop_assert_eq!(&once.sites, &twice.sites);
                let m = once.machine(&outside).unwrap();
                let count = m.aliases.iter().filter(|a| *a == "gw.inside.example").count();
                prop_assert_eq!(count, 1);
            }
        }
    }

    #[test]
    fn merged_doc_serializes_like_paper_example() {
        let merged = merge_sites(&[outside_doc(), inside_doc()], &paper_gateways(), "Grid1");
        let xml = merged.to_xml();
        assert!(xml.contains(r#"<LABEL name="Grid1" />"#));
        assert!(xml.contains(r#"<SITE domain="ens-lyon.fr">"#));
        assert!(xml.contains(r#"<SITE domain="popc.private">"#));
        assert!(xml.contains(r#"<ALIAS name="myri0.popc.private" />"#));
        assert!(xml.contains(r#"<ALIAS name="myri.ens-lyon.fr" />"#));
        // And round-trips.
        let parsed = GridDoc::parse(&xml).unwrap();
        assert_eq!(parsed, merged);
    }
}
