//! The mapper's result types: the effective-network tree.

use std::fmt;

/// How a discovered network shares its medium — the crucial bit of layer-2
/// information the whole paper turns on (§4.2.2.4, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// One shared medium (hub/bus): any two members' transfers collide, so
    /// one host pair is representative of every pair.
    Shared,
    /// Per-port capacity (switch): disjoint pairs are independent, every
    /// pair must be measurable.
    Switched,
    /// The jammed-bandwidth ratio fell between the thresholds; ENV stops
    /// gathering data about the cluster (§4.2.2.4).
    Undetermined,
    /// A single-host cluster — nothing to classify.
    Single,
}

impl fmt::Display for NetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetKind::Shared => "shared",
            NetKind::Switched => "switched",
            NetKind::Undetermined => "undetermined",
            NetKind::Single => "single",
        };
        f.write_str(s)
    }
}

/// One effective network (a refined cluster), possibly with child networks
/// hanging off gateway members.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvNet {
    /// Display label: the gateway's name when the network hangs behind
    /// one, otherwise the structural hop or first member (the paper's
    /// GridML labels the sci switch "sci0").
    pub label: String,
    pub kind: NetKind,
    /// Member host names, sorted.
    pub hosts: Vec<String>,
    /// The member of the *parent* network this one is reached through
    /// (`None` for networks directly visible from the master).
    pub via: Option<String>,
    /// Routers between the master and this network, outermost first — the
    /// hops route asymmetry keeps in the effective view (Figure 1b).
    pub router_path: Vec<String>,
    /// Median master↔member bandwidth (ENV_base_BW), in Mbps.
    pub base_bw_mbps: f64,
    /// Median member↔member bandwidth (ENV_base_local_BW), when measured.
    pub local_bw_mbps: Option<f64>,
    /// Average jammed/base ratio from the jammed experiment, when run.
    pub jam_ratio: Option<f64>,
    pub children: Vec<EnvNet>,
}

impl EnvNet {
    /// Number of networks in this subtree (including self).
    pub(crate) fn count(&self) -> usize {
        1 + self.children.iter().map(EnvNet::count).sum::<usize>()
    }

    /// All host names in this subtree.
    pub(crate) fn hosts_recursive(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.hosts.iter().map(|s| s.as_str()).collect();
        for c in &self.children {
            out.extend(c.hosts_recursive());
        }
        out
    }

    /// Depth-first search for the network containing `host` as a direct
    /// member.
    pub(crate) fn find_containing(&self, host: &str) -> Option<&EnvNet> {
        if self.hosts.iter().any(|h| h == host) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_containing(host))
    }

    /// Structural equality with tolerant measurements: labels, kinds,
    /// membership, gateways and tree shape must match exactly; bandwidths
    /// and jam ratios within `tol` relative. The comparator differential
    /// suites need: simulated probe values carry epoch-dependent
    /// floating-point noise (a fluid drain at clock 80 s rounds differently
    /// than the same drain at clock 0), so two runs of the *same* schedule
    /// at different simulation times agree to ~1e-12 but not bit-for-bit.
    pub(crate) fn approx_eq(&self, other: &EnvNet, tol: f64) -> bool {
        fn close(a: f64, b: f64, tol: f64) -> bool {
            (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
        }
        fn opt_close(a: Option<f64>, b: Option<f64>, tol: f64) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => close(a, b, tol),
                (None, None) => true,
                _ => false,
            }
        }
        self.label == other.label
            && self.kind == other.kind
            && self.hosts == other.hosts
            && self.via == other.via
            && self.router_path == other.router_path
            && close(self.base_bw_mbps, other.base_bw_mbps, tol)
            && opt_close(self.local_bw_mbps, other.local_bw_mbps, tol)
            && opt_close(self.jam_ratio, other.jam_ratio, tol)
            && self.children.len() == other.children.len()
            && self.children.iter().zip(&other.children).all(|(a, b)| a.approx_eq(b, tol))
    }
}

/// One entry of [`EnvView::flatten`]: a network with its position in the
/// tree made explicit.
#[derive(Debug, Clone, Copy)]
pub struct FlatNet<'a> {
    pub net: &'a EnvNet,
    /// Index (into the flattened list) of the parent network, `None` for
    /// top-level networks.
    pub parent: Option<usize>,
    /// Distance from the top level (top-level networks are depth 0).
    pub depth: usize,
}

/// A complete effective view: what one ENV run (or a merge of runs)
/// knows about the platform from `master`'s standpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvView {
    /// The vantage point.
    pub master: String,
    /// Top-level effective networks.
    pub networks: Vec<EnvNet>,
}

impl EnvView {
    pub fn network_count(&self) -> usize {
        self.networks.iter().map(EnvNet::count).sum()
    }

    pub fn all_hosts(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for n in &self.networks {
            out.extend(n.hosts_recursive());
        }
        out
    }

    pub fn find_containing(&self, host: &str) -> Option<&EnvNet> {
        self.networks.iter().find_map(|n| n.find_containing(host))
    }

    /// See `EnvNet::approx_eq`: exact structure, measurements within
    /// `tol` relative — the equality the churn differential suites assert.
    pub fn approx_eq(&self, other: &EnvView, tol: f64) -> bool {
        self.master == other.master
            && self.networks.len() == other.networks.len()
            && self.networks.iter().zip(&other.networks).all(|(a, b)| a.approx_eq(b, tol))
    }

    /// Flatten the tree in depth-first pre-order (the order
    /// [`EnvView::find_containing`] searches in), with parent indexes —
    /// the accessor compilers of the view (e.g. `envdeploy`'s interned
    /// estimator) build their dense tables from.
    pub fn flatten(&self) -> Vec<FlatNet<'_>> {
        fn rec<'a>(
            net: &'a EnvNet,
            parent: Option<usize>,
            depth: usize,
            out: &mut Vec<FlatNet<'a>>,
        ) {
            let idx = out.len();
            out.push(FlatNet { net, parent, depth });
            for c in &net.children {
                rec(c, Some(idx), depth + 1, out);
            }
        }
        let mut out = Vec::with_capacity(self.network_count());
        for n in &self.networks {
            rec(n, None, 0, &mut out);
        }
        out
    }

    /// Pretty ASCII rendering of the tree (used by the figure binaries).
    pub fn render(&self) -> String {
        fn rec(out: &mut String, net: &EnvNet, depth: usize) {
            let pad = "  ".repeat(depth);
            let via = net.via.as_deref().map(|v| format!(" via {v}")).unwrap_or_default();
            let local =
                net.local_bw_mbps.map(|l| format!(", local {l:.2} Mbps")).unwrap_or_default();
            out.push_str(&format!(
                "{pad}[{}] {}{} (base {:.2} Mbps{}): {}\n",
                net.kind,
                net.label,
                via,
                net.base_bw_mbps,
                local,
                net.hosts.join(", ")
            ));
            for c in &net.children {
                rec(out, c, depth + 1);
            }
        }
        let mut s = format!("Effective view from {}\n", self.master);
        for n in &self.networks {
            rec(&mut s, n, 1);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, kind: NetKind, hosts: &[&str]) -> EnvNet {
        EnvNet {
            label: label.to_string(),
            kind,
            hosts: hosts.iter().map(|s| s.to_string()).collect(),
            via: None,
            router_path: vec![],
            base_bw_mbps: 100.0,
            local_bw_mbps: None,
            jam_ratio: None,
            children: vec![],
        }
    }

    #[test]
    fn tree_navigation() {
        let mut hub2 = leaf("hub2", NetKind::Shared, &["myri0", "popc0", "sci0"]);
        let mut sw = leaf("sci0", NetKind::Switched, &["sci1", "sci2"]);
        sw.via = Some("sci0".to_string());
        hub2.children.push(sw);
        let view = EnvView {
            master: "the-doors".to_string(),
            networks: vec![leaf("hub1", NetKind::Shared, &["canaria", "moby"]), hub2],
        };
        assert_eq!(view.network_count(), 3);
        assert_eq!(view.all_hosts().len(), 7);
        assert_eq!(view.find_containing("sci2").unwrap().kind, NetKind::Switched);
        assert_eq!(view.find_containing("moby").unwrap().label, "hub1");
        assert!(view.find_containing("ghost").is_none());

        // Pre-order flatten: hub1, hub2, sw — with parent/depth wiring.
        let flat = view.flatten();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[0].net.label, "hub1");
        assert_eq!((flat[0].parent, flat[0].depth), (None, 0));
        assert_eq!(flat[1].net.label, "hub2");
        assert_eq!(flat[2].net.label, "sci0");
        assert_eq!((flat[2].parent, flat[2].depth), (Some(1), 1));
    }

    #[test]
    fn render_is_indented() {
        let mut parent = leaf("hub2", NetKind::Shared, &["a"]);
        parent.children.push(leaf("inner", NetKind::Switched, &["b"]));
        let view = EnvView { master: "m".to_string(), networks: vec![parent] };
        let s = view.render();
        assert!(s.contains("Effective view from m"));
        assert!(s.contains("  [shared] hub2"));
        assert!(s.contains("    [switched] inner"));
    }

    #[test]
    fn kind_display() {
        assert_eq!(NetKind::Shared.to_string(), "shared");
        assert_eq!(NetKind::Switched.to_string(), "switched");
        assert_eq!(NetKind::Undetermined.to_string(), "undetermined");
        assert_eq!(NetKind::Single.to_string(), "single");
    }
}
