//! The structural topology phase (paper §4.2.1.3).
//!
//! "Each host involved in the mapping reports the path used to get out of
//! the Grid by targeting a traceroute to a well known external destination.
//! The part within the mapped network is used to build a tree ... Hosts
//! using the same route to get out of the studied network are clustered
//! together as leaves on the same branch."
//!
//! The tree is keyed from the outside in: the root is the last hop before
//! leaving the network (for ENS-Lyon, the non-routable 192.168.254.1 — kept
//! on purpose, see the paper's non-routable-IP fix). Silent routers
//! produce an anonymous `*` hop which still participates in path equality;
//! the bandwidth phases will re-split if that proves too coarse (§4.3,
//! "Dropped traceroute").

use netsim::probes::TracerouteHop;

/// A node of the structural tree: a router hop with the hosts whose exit
/// path ends here and the deeper hops behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructNode {
    /// Hop key: reverse-resolved name, else bare IP, else `*`.
    pub key: String,
    /// Hosts clustered directly under this hop.
    pub hosts: Vec<String>,
    pub children: Vec<StructNode>,
}

impl StructNode {
    fn new(key: &str) -> Self {
        StructNode { key: key.to_string(), hosts: Vec::new(), children: Vec::new() }
    }

    /// Total number of hosts in this subtree.
    pub fn host_count(&self) -> usize {
        self.hosts.len() + self.children.iter().map(StructNode::host_count).sum::<usize>()
    }

    /// All leaf clusters (host groups sharing an identical path) with the
    /// hop chain leading to them, outermost hop first.
    pub(crate) fn clusters(&self) -> Vec<(Vec<String>, Vec<String>)> {
        fn rec(
            node: &StructNode,
            chain: &mut Vec<String>,
            out: &mut Vec<(Vec<String>, Vec<String>)>,
        ) {
            chain.push(node.key.clone());
            if !node.hosts.is_empty() {
                out.push((chain.clone(), node.hosts.clone()));
            }
            for c in &node.children {
                rec(c, chain, out);
            }
            chain.pop();
        }
        let mut out = Vec::new();
        let mut chain = Vec::new();
        rec(self, &mut chain, &mut out);
        out
    }

    /// ASCII rendering in the style of the paper's Figure 2.
    pub fn render(&self) -> String {
        fn rec(out: &mut String, n: &StructNode, depth: usize) {
            let pad = "  ".repeat(depth);
            out.push_str(&format!("{pad}{}\n", n.key));
            for h in &n.hosts {
                out.push_str(&format!("{pad}  - {h}\n"));
            }
            for c in &n.children {
                rec(out, c, depth + 1);
            }
        }
        let mut s = String::new();
        rec(&mut s, self, 0);
        s
    }
}

/// The display key of a traceroute hop.
pub(crate) fn hop_key(hop: &TracerouteHop) -> String {
    match (&hop.name, hop.ip) {
        (Some(n), _) => n.clone(),
        (None, Some(ip)) => ip.to_string(),
        (None, None) => "*".to_string(),
    }
}

/// Build the structural tree from per-host *key chains* (outermost hop
/// first; an empty chain clusters under the synthetic `(local)` root
/// child, and a leading `(root)` marker — as produced by
/// [`StructNode::clusters`] on an uncollapsed tree — is ignored).
///
/// The chains are [`hop_key`]s of the hosts' traceroutes, reversed: the
/// incremental re-mapper reuses the chains recorded in a previous run's
/// tree for clean hosts and re-traceroutes only dirty ones, then rebuilds
/// the tree from the merged chain set — bit-identical to a full rebuild
/// over the same paths.
pub(crate) fn build_tree_from_chains(chains: &[(String, Vec<String>)]) -> StructNode {
    // A virtual super-root lets several distinct outermost hops coexist.
    let mut root = StructNode::new("(root)");

    for (host, keys) in chains {
        let mut keys: Vec<&str> =
            keys.iter().map(String::as_str).filter(|k| *k != "(root)").collect();
        if keys.is_empty() {
            keys.push("(local)");
        }
        let mut cur = &mut root;
        for k in keys {
            // BTree-ordered insertion keeps the tree deterministic.
            let pos = cur.children.iter().position(|c| c.key == k);
            let idx = match pos {
                Some(i) => i,
                None => {
                    let insert_at =
                        cur.children.binary_search_by(|c| c.key.as_str().cmp(k)).unwrap_err();
                    cur.children.insert(insert_at, StructNode::new(k));
                    insert_at
                }
            };
            cur = &mut cur.children[idx];
        }
        cur.hosts.push(host.clone());
    }

    sort_hosts(&mut root);
    // Collapse the virtual root when a single real root exists.
    if root.children.len() == 1 && root.hosts.is_empty() {
        root.children.pop().expect("just checked")
    } else {
        root
    }
}

fn sort_hosts(n: &mut StructNode) {
    n.hosts.sort();
    for c in &mut n.children {
        sort_hosts(c);
    }
}

/// Group clusters by the chain of *gateway* hops (hops that are themselves
/// mapped hosts). Returns per cluster: (gateway chain from master side,
/// router-only chain, hosts).
pub(crate) fn clusters_with_gateways(
    tree: &StructNode,
    is_mapped_host: impl Fn(&str) -> bool,
) -> Vec<(Vec<String>, Vec<String>, Vec<String>)> {
    tree.clusters()
        .into_iter()
        .map(|(chain, hosts)| {
            let mut gateways = Vec::new();
            let mut routers = Vec::new();
            for hop in &chain {
                if hop == "(root)" || hop == "(local)" {
                    continue;
                }
                if is_mapped_host(hop) {
                    gateways.push(hop.clone());
                } else {
                    routers.push(hop.clone());
                }
            }
            (gateways, routers, hosts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Ipv4;

    /// Build the structural tree from per-host traceroutes (nearest hop
    /// first), as the mapper does after `hop_key`.
    fn build_tree(paths: &[(String, Vec<TracerouteHop>)]) -> StructNode {
        let chains: Vec<(String, Vec<String>)> = paths
            .iter()
            .map(|(host, hops)| {
                let mut keys: Vec<String> = hops.iter().map(hop_key).collect();
                keys.reverse(); // outermost first
                (host.clone(), keys)
            })
            .collect();
        build_tree_from_chains(&chains)
    }

    fn hop(name: Option<&str>, ip: &str) -> TracerouteHop {
        TracerouteHop { ip: Some(ip.parse::<Ipv4>().unwrap()), name: name.map(str::to_string) }
    }

    fn silent() -> TracerouteHop {
        TracerouteHop { ip: None, name: None }
    }

    /// Reconstructs the paper's Figure 2 tree from synthetic traceroutes.
    #[test]
    fn figure_2_shape() {
        let r13 = || hop(None, "140.77.13.1");
        let border = || hop(None, "192.168.254.1");
        let backbone = || hop(Some("routeur-backbone"), "140.77.161.1");
        let routlhpc = || hop(Some("routlhpc"), "140.77.12.1");

        let paths = vec![
            ("canaria".to_string(), vec![r13(), border()]),
            ("moby".to_string(), vec![r13(), border()]),
            ("the-doors".to_string(), vec![r13(), border()]),
            ("myri".to_string(), vec![routlhpc(), backbone(), border()]),
            ("popc".to_string(), vec![routlhpc(), backbone(), border()]),
            ("sci".to_string(), vec![routlhpc(), backbone(), border()]),
        ];
        let tree = build_tree(&paths);
        assert_eq!(tree.key, "192.168.254.1");
        assert_eq!(tree.children.len(), 2);
        let c13 = tree.children.iter().find(|c| c.key == "140.77.13.1").unwrap();
        assert_eq!(c13.hosts, vec!["canaria", "moby", "the-doors"]);
        let bb = tree.children.iter().find(|c| c.key == "routeur-backbone").unwrap();
        assert_eq!(bb.children[0].key, "routlhpc");
        assert_eq!(bb.children[0].hosts, vec!["myri", "popc", "sci"]);
        assert_eq!(tree.host_count(), 6);
    }

    #[test]
    fn clusters_report_full_chains() {
        let paths = vec![
            ("a".to_string(), vec![hop(Some("r1"), "10.0.0.1"), hop(Some("top"), "10.0.0.9")]),
            ("b".to_string(), vec![hop(Some("r1"), "10.0.0.1"), hop(Some("top"), "10.0.0.9")]),
            ("c".to_string(), vec![hop(Some("top"), "10.0.0.9")]),
        ];
        let tree = build_tree(&paths);
        let clusters = tree.clusters();
        assert_eq!(clusters.len(), 2);
        // `c` sits directly under the root hop.
        assert!(clusters.iter().any(|(chain, hosts)| chain == &vec!["top"] && hosts == &vec!["c"]));
        assert!(clusters
            .iter()
            .any(|(chain, hosts)| chain == &vec!["top", "r1"] && hosts == &vec!["a", "b"]));
    }

    #[test]
    fn hostless_traceroutes_cluster_locally() {
        let paths = vec![
            ("a".to_string(), vec![]),
            ("b".to_string(), vec![]),
            ("c".to_string(), vec![hop(Some("r"), "10.0.0.1")]),
        ];
        let tree = build_tree(&paths);
        // Two roots → virtual root retained.
        assert_eq!(tree.key, "(root)");
        let local = tree.children.iter().find(|c| c.key == "(local)").unwrap();
        assert_eq!(local.hosts, vec!["a", "b"]);
    }

    #[test]
    fn silent_hops_share_a_star_key() {
        let paths = vec![
            ("a".to_string(), vec![silent(), hop(Some("top"), "10.0.0.9")]),
            ("b".to_string(), vec![silent(), hop(Some("top"), "10.0.0.9")]),
        ];
        let tree = build_tree(&paths);
        assert_eq!(tree.key, "top");
        assert_eq!(tree.children[0].key, "*");
        assert_eq!(tree.children[0].hosts, vec!["a", "b"]);
    }

    #[test]
    fn gateway_detection() {
        let paths = vec![
            ("inner1".to_string(), vec![hop(Some("gw0"), "10.0.0.2"), hop(Some("r"), "10.0.0.1")]),
            ("inner2".to_string(), vec![hop(Some("gw0"), "10.0.0.2"), hop(Some("r"), "10.0.0.1")]),
            ("gw0".to_string(), vec![hop(Some("r"), "10.0.0.1")]),
        ];
        let tree = build_tree(&paths);
        let clusters = clusters_with_gateways(&tree, |h| h == "gw0" || h.starts_with("inner"));
        let inner = clusters.iter().find(|(_, _, hosts)| hosts.contains(&"inner1".into())).unwrap();
        assert_eq!(inner.0, vec!["gw0"]);
        assert_eq!(inner.1, vec!["r"]);
        let gw = clusters.iter().find(|(_, _, hosts)| hosts.contains(&"gw0".into())).unwrap();
        assert!(gw.0.is_empty());
    }

    #[test]
    fn deterministic_child_order() {
        let mk = |names: &[&str]| {
            names
                .iter()
                .map(|n| {
                    (
                        n.to_string(),
                        vec![
                            hop(Some(&format!("r-{n}")), "10.0.0.1"),
                            hop(Some("top"), "10.0.0.9"),
                        ],
                    )
                })
                .collect::<Vec<_>>()
        };
        // Different insertion orders, same tree.
        let t1 = build_tree(&mk(&["a", "b", "c"]));
        let mut rev = mk(&["a", "b", "c"]);
        rev.reverse();
        let t2 = build_tree(&rev);
        // Hop IPs collide here (same ip), so keys differ only by name.
        let keys1: Vec<&str> = t1.children.iter().map(|c| c.key.as_str()).collect();
        let keys2: Vec<&str> = t2.children.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys1, keys2);
    }

    /// Chains recorded in a built tree rebuild the identical tree — the
    /// invariant the incremental re-mapper relies on when it reuses clean
    /// hosts' chains and re-traceroutes only dirty ones.
    #[test]
    fn chains_round_trip_rebuilds_identical_tree() {
        // Collapsed single-root tree.
        let paths = vec![
            ("a".to_string(), vec![hop(Some("r1"), "10.0.0.1"), hop(Some("top"), "10.0.0.9")]),
            ("b".to_string(), vec![hop(Some("r1"), "10.0.0.1"), hop(Some("top"), "10.0.0.9")]),
            ("c".to_string(), vec![hop(Some("top"), "10.0.0.9")]),
        ];
        let tree = build_tree(&paths);
        let chains: Vec<(String, Vec<String>)> = tree
            .clusters()
            .into_iter()
            .flat_map(|(chain, hosts)| hosts.into_iter().map(move |h| (h, chain.clone())))
            .collect();
        assert_eq!(build_tree_from_chains(&chains), tree);

        // Uncollapsed tree (virtual root retained): chains lead with
        // "(root)", which the rebuild must ignore.
        let paths =
            vec![("a".to_string(), vec![]), ("b".to_string(), vec![hop(Some("r"), "10.0.0.1")])];
        let tree = build_tree(&paths);
        assert_eq!(tree.key, "(root)");
        let chains: Vec<(String, Vec<String>)> = tree
            .clusters()
            .into_iter()
            .flat_map(|(chain, hosts)| hosts.into_iter().map(move |h| (h, chain.clone())))
            .collect();
        assert!(chains.iter().all(|(_, c)| c[0] == "(root)"));
        assert_eq!(build_tree_from_chains(&chains), tree);
    }

    #[test]
    fn render_contains_hosts() {
        let paths = vec![("a".to_string(), vec![hop(Some("r"), "10.0.0.1")])];
        let tree = build_tree(&paths);
        let s = tree.render();
        assert!(s.contains("r\n"));
        assert!(s.contains("- a"));
    }
}
