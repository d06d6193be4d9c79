//! Network topology: nodes (hosts, gateways, routers, switches, hubs),
//! interfaces, links and shared mediums, plus the [`TopologyBuilder`].
//!
//! The model distinguishes the two layer-2 technologies whose difference is
//! the *whole point* of the paper's ENV mapping phase:
//!
//! * a **hub** is a single half-duplex collision domain: every flow that
//!   traverses any of its ports consumes the one shared medium, so
//!   concurrent transfers interfere;
//! * a **switch** gives each attached device a full-duplex port link with
//!   its own capacity; concurrent transfers through disjoint ports do not
//!   interfere (the backplane is ideal).
//!
//! Routers are layer-3 devices: they appear in traceroutes (unless
//! configured to drop probes) and can be named or anonymous. Hosts may have
//! several interfaces (the paper's firewall gateways `popc0`, `myri0`,
//! `sci0` are dual-homed with a name on each side) and may be configured to
//! forward traffic, which makes them layer-3 hops like real gateways.

use std::collections::HashMap;
use std::fmt;

use crate::error::{NetError, NetResult};
use crate::firewall::Firewall;
use crate::ip::Ipv4;
use crate::name::{Dns, Interner};
use crate::units::{Bandwidth, Latency};

/// Identifier of a node in a [`Topology`]. Indexes are dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

/// Identifier of a shared medium (one per hub).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MediumId(pub(crate) u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index — only meaningful for ids belonging to a
    /// [`Topology`]; exposed for downstream test fixtures.
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl LinkId {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index — only meaningful for ids belonging to a
    /// [`Topology`]; used by the dense route table, which stores routes as
    /// flat `u32` link ids.
    pub fn from_raw(raw: u32) -> Self {
        LinkId(raw)
    }

    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

impl MediumId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The role a node plays in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host (may forward if configured as a gateway).
    Host,
    /// A layer-3 router: traceroute-visible hop.
    Router,
    /// A layer-2 switch: invisible to traceroute, per-port capacity.
    Switch,
    /// A layer-2 hub: invisible to traceroute, one shared medium.
    Hub,
    /// A stand-in for "the rest of the Internet" — the well-known external
    /// traceroute destination used by ENV's structural phase.
    External,
}

/// A network interface: an address plus an optional DNS name.
#[derive(Debug, Clone)]
pub struct Iface {
    pub ip: Ipv4,
    /// Fully-qualified domain name registered in DNS, if the machine has
    /// one (the paper patches ENV for machines *without* hostnames).
    pub name: Option<String>,
}

/// A node of the topology.
#[derive(Debug, Clone)]
pub struct Node {
    pub id: NodeId,
    pub kind: NodeKind,
    /// Human-readable label for debugging and figure rendering (for a host
    /// this is usually its short name; for an anonymous router its IP).
    pub label: String,
    pub ifaces: Vec<Iface>,
    /// Whether this node forwards traffic for third parties. Routers,
    /// switches and hubs always do; hosts only if they are gateways.
    pub forwards: bool,
    /// Whether this node answers traceroute probes with an ICMP
    /// time-exceeded. Some routers silently drop them (paper §4.3).
    pub responds_to_traceroute: bool,
}

impl Node {
    /// The node's primary address, if it has any interface.
    pub fn primary_ip(&self) -> Option<Ipv4> {
        self.ifaces.first().map(|i| i.ip)
    }

    /// True for layer-3 hops: routers, and hosts that forward (gateways).
    pub fn is_l3_hop(&self) -> bool {
        matches!(self.kind, NodeKind::Router)
            || (matches!(self.kind, NodeKind::Host) && self.forwards)
    }
}

/// How a link's capacity is provisioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkMode {
    /// Independent capacity in each direction.
    FullDuplex { capacity_ab: Bandwidth, capacity_ba: Bandwidth },
    /// The link is a port on a hub: its capacity is the hub's shared
    /// medium, consumed once per flow regardless of direction.
    Shared { medium: MediumId },
}

/// A point-to-point attachment between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    pub id: LinkId,
    pub a: NodeId,
    pub b: NodeId,
    /// Index into `a`'s / `b`'s interface list used by this link; lets
    /// traceroute report per-interface router addresses.
    pub a_iface: usize,
    pub b_iface: usize,
    pub latency: Latency,
    pub mode: LinkMode,
    /// Routing weight in the a→b (resp. b→a) direction. Asymmetric weights
    /// produce the asymmetric routes of paper §4.3.
    pub weight_ab: f64,
    pub weight_ba: f64,
    /// Links can be administratively downed for failure injection.
    pub up: bool,
}

impl Link {
    /// The opposite endpoint of `n` on this link, if `n` is an endpoint.
    pub fn peer(&self, n: NodeId) -> Option<NodeId> {
        if self.a == n {
            Some(self.b)
        } else if self.b == n {
            Some(self.a)
        } else {
            None
        }
    }

    /// Directed routing weight from `from` across this link.
    pub fn weight_from(&self, from: NodeId) -> f64 {
        if self.a == from {
            self.weight_ab
        } else {
            self.weight_ba
        }
    }

    /// Capacity in the direction starting at `from`.
    pub fn capacity_from(&self, from: NodeId, mediums: &[Medium]) -> Bandwidth {
        match self.mode {
            LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                if self.a == from {
                    capacity_ab
                } else {
                    capacity_ba
                }
            }
            LinkMode::Shared { medium } => mediums[medium.index()].capacity,
        }
    }
}

/// A hub's half-duplex shared medium.
#[derive(Debug, Clone)]
pub struct Medium {
    pub id: MediumId,
    pub capacity: Bandwidth,
    pub label: String,
}

/// Dense id of an interned interface name within a [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The interned name table: every name a lookup can resolve — the
/// interface FQDNs — is interned once at build into a dense
/// [`NameId`], with the owning node in a flat array. Consumers that resolve
/// the same names repeatedly (the mapper's input resolution, plan
/// validation) can intern once and then work entirely on dense ids; one
/// hash lookup per *distinct* string instead of one per call.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Interner,
    owner: Vec<NodeId>,
}

impl NameTable {
    fn with_capacity(n: usize) -> Self {
        NameTable { names: Interner::with_capacity(n), owner: Vec::with_capacity(n) }
    }

    /// Intern `name` as owned by `node`. First registration wins, so ties
    /// resolve to the lowest node id — the order the builder walks nodes.
    fn insert(&mut self, name: &str, node: NodeId) {
        if self.names.intern(name).1 {
            self.owner.push(node);
        }
    }

    /// The dense id of a name, if it is registered.
    pub(crate) fn get(&self, name: &str) -> Option<NameId> {
        self.names.get(name).map(NameId)
    }

    /// The node owning an interned name.
    pub(crate) fn owner(&self, id: NameId) -> NodeId {
        self.owner[id.index()]
    }

    /// One-shot resolution (`get` + `owner`).
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        self.get(name).map(|id| self.owner(id))
    }
}

/// An immutable, validated network topology.
///
/// Hot-path storage is structure-of-arrays keyed by the dense ids:
/// adjacency is one flat CSR array, addresses live in one sorted flat
/// table, and names are interned into a [`NameTable`] — so a worker-shared
/// snapshot is three contiguous allocations plus the node/link vectors,
/// not a heap-fragmented map-of-maps.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    mediums: Vec<Medium>,
    /// CSR adjacency: node `n`'s (link, neighbour) pairs are
    /// `adj[adj_off[n] .. adj_off[n + 1]]`.
    adj_off: Vec<u32>,
    adj: Vec<(LinkId, NodeId)>,
    dns: Dns,
    firewall: Firewall,
    /// Interned interface names → owning node, built at
    /// [`TopologyBuilder::build`]. The capacity-only mutators
    /// ([`Topology::link_mut`], [`Topology::medium_mut`],
    /// [`Topology::set_link_up`]) never touch names or addresses, and the
    /// structural mutators ([`Topology::add_host_like`],
    /// [`Topology::isolate_node`]) maintain the indexes themselves — so
    /// they never go stale.
    names: NameTable,
    /// Interface address → owning node, sorted by address for binary
    /// search (addresses are unique, enforced at build).
    ip_table: Vec<(Ipv4, NodeId)>,
}

impl Topology {
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub(crate) fn try_node(&self, id: NodeId) -> NetResult<&Node> {
        self.nodes.get(id.index()).ok_or(NetError::UnknownNode(id))
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    pub fn medium(&self, id: MediumId) -> &Medium {
        &self.mediums[id.index()]
    }

    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    pub fn mediums(&self) -> impl Iterator<Item = &Medium> {
        self.mediums.iter()
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of hub mediums — the dense id space `MediumId` indexes, used
    /// by the allocator's resource interner to pre-size its tables.
    pub fn medium_count(&self) -> usize {
        self.mediums.len()
    }

    /// All end hosts (kind `Host`).
    #[cfg(test)]
    pub(crate) fn hosts(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.kind == NodeKind::Host)
    }

    pub fn neighbours(&self, n: NodeId) -> &[(LinkId, NodeId)] {
        let i = n.index();
        &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize]
    }

    pub fn dns(&self) -> &Dns {
        &self.dns
    }

    /// Find a node by label (exact match).
    #[cfg(test)]
    pub(crate) fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.label == label).map(|n| n.id)
    }

    /// Find the node owning an interface with the given DNS name — one
    /// interner lookup (ties, if a name were ever duplicated, resolve to
    /// the lowest node id, as the old linear scan did). Every name of a
    /// multi-homed node resolves to that one node.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.resolve(name)
    }

    /// The interned name table — callers that resolve many names (input
    /// resolution, validation) should intern once and keep [`NameId`]s.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Find the node owning an interface with the given address — binary
    /// search in the flat sorted address table (addresses are unique;
    /// duplicates are rejected at build).
    pub fn node_by_ip(&self, ip: Ipv4) -> Option<NodeId> {
        self.ip_table.binary_search_by_key(&ip, |&(i, _)| i).ok().map(|i| self.ip_table[i].1)
    }

    /// Resolve a host given the way users give hosts — a DNS name, or a
    /// bare dotted-quad address for a machine without one (paper §4.3).
    pub fn resolve_host(&self, host: &str) -> NetResult<NodeId> {
        self.node_by_name(host)
            .or_else(|| host.parse::<Ipv4>().ok().and_then(|ip| self.node_by_ip(ip)))
            .ok_or_else(|| NetError::NameNotFound(host.to_string()))
    }

    /// The interface of node `n` bound to link `l` (used by traceroute to
    /// report the address facing the previous hop).
    pub(crate) fn iface_on_link(&self, n: NodeId, l: LinkId) -> Option<&Iface> {
        let link = self.link(l);
        let idx = if link.a == n {
            link.a_iface
        } else if link.b == n {
            link.b_iface
        } else {
            return None;
        };
        self.node(n).ifaces.get(idx)
    }

    /// Whether the firewall permits traffic from `src` to `dst`.
    pub fn allows(&self, src: NodeId, dst: NodeId) -> bool {
        self.firewall.allows(src, dst)
    }

    /// Administratively bring a link up or down (failure injection). Routes
    /// must be recomputed afterwards.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) {
        self.links[l.index()].up = up;
    }

    /// Mutable link access for failure injection (e.g. degrading a
    /// direction's capacity). Call `Engine::recompute_routes` afterwards so
    /// routing and the allocator's interned capacity tables pick up the
    /// change.
    pub fn link_mut(&mut self, l: LinkId) -> &mut Link {
        &mut self.links[l.index()]
    }

    /// Mutable medium access for failure injection (e.g. degrading a hub).
    /// Call `Engine::recompute_routes` afterwards, as for [`link_mut`](Self::link_mut).
    pub fn medium_mut(&mut self, m: MediumId) -> &mut Medium {
        &mut self.mediums[m.index()]
    }

    pub(crate) fn mediums_internal(&self) -> &[Medium] {
        &self.mediums
    }

    // ---- post-build mutation (topology churn) ----------------------------
    //
    // The churn subsystem grows and shrinks a *running* platform: hosts
    // join a LAN, leave it, or a LAN's medium is re-provisioned. Node and
    // link ids are dense and never recycled, so additions append and
    // removals are administrative (links go down, the node stays). All
    // indexes (DNS, name, address, adjacency) are maintained here, and
    // `Engine::recompute_routes` must run afterwards so routing and the
    // allocator's interned capacity tables pick the change up.

    /// Add a named host attached like `sibling`: the new host gets one
    /// interface and one access link cloning the latency and capacity mode
    /// (shared medium or per-port duplex) of `sibling`'s first live link,
    /// to the same hub/switch. This is how churn joins a host to an
    /// existing LAN without re-running the builder.
    pub fn add_host_like(&mut self, fqdn: &str, ip: Ipv4, sibling: NodeId) -> NetResult<NodeId> {
        if self.names.get(fqdn).is_some() {
            return Err(NetError::InvalidTopology(format!("name {fqdn} already in use")));
        }
        if self.node_by_ip(ip).is_some() {
            return Err(NetError::InvalidTopology(format!("address {ip} already in use")));
        }
        if sibling.index() >= self.nodes.len() {
            return Err(NetError::InvalidTopology(format!(
                "sibling {sibling} has no live link to clone"
            )));
        }
        let &(sib_link, infra) = self
            .neighbours(sibling)
            .iter()
            .find(|(l, _)| self.links[l.index()].up)
            .ok_or_else(|| {
                NetError::InvalidTopology(format!("sibling {sibling} has no live link to clone"))
            })?;
        let template = &self.links[sib_link.index()];
        // Orient the cloned duplex capacities host→infra like the sibling's.
        let mode = match template.mode {
            LinkMode::Shared { medium } => LinkMode::Shared { medium },
            LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                if template.a == sibling {
                    LinkMode::FullDuplex { capacity_ab, capacity_ba }
                } else {
                    LinkMode::FullDuplex { capacity_ab: capacity_ba, capacity_ba: capacity_ab }
                }
            }
        };
        let latency = template.latency;

        let id = NodeId(self.nodes.len() as u32);
        let short = fqdn.split('.').next().unwrap_or(fqdn).to_string();
        self.nodes.push(Node {
            id,
            kind: NodeKind::Host,
            label: short,
            ifaces: vec![Iface { ip, name: Some(fqdn.to_string()) }],
            forwards: false,
            responds_to_traceroute: true,
        });
        let lid = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: lid,
            a: id,
            b: infra,
            a_iface: 0,
            b_iface: 0,
            latency,
            mode,
            weight_ab: 1.0,
            weight_ba: 1.0,
            up: true,
        });
        // Splice the new entries into the flat CSR arrays: the new host's
        // single entry appends at the end; the infra side's entry is
        // inserted at the end of its existing range, shifting later ranges.
        // O(E) per growth — churn joins are rare next to route queries.
        let infra_end = self.adj_off[infra.index() + 1] as usize;
        self.adj.insert(infra_end, (lid, id));
        for off in &mut self.adj_off[infra.index() + 1..] {
            *off += 1;
        }
        self.adj_off.push(self.adj.len() as u32 + 1);
        self.adj.push((lid, infra));
        self.dns.register(fqdn, ip);
        self.names.insert(fqdn, id);
        let pos = self.ip_table.binary_search_by_key(&ip, |&(i, _)| i).unwrap_err();
        self.ip_table.insert(pos, (ip, id));
        Ok(id)
    }

    /// Administratively down every link attached to `n` — how churn models
    /// a host leaving the platform (or a partitioned LAN member). The node
    /// and its DNS entries remain: lookups still resolve, but nothing
    /// routes to it after `Engine::recompute_routes`.
    pub fn isolate_node(&mut self, n: NodeId) {
        let links: Vec<LinkId> = self.neighbours(n).iter().map(|(l, _)| *l).collect();
        for l in links {
            self.links[l.index()].up = false;
        }
    }
}

/// Defaults recorded for an infrastructure node so `attach` can create
/// port links without repeating parameters.
#[derive(Debug, Clone, Copy)]
struct InfraSpec {
    capacity: Bandwidth,
    latency: Latency,
    medium: Option<MediumId>,
}

/// Incremental constructor for [`Topology`].
///
/// ```
/// use netsim::prelude::*;
///
/// let mut b = TopologyBuilder::new();
/// let sw = b.switch("sw", Bandwidth::mbps(100.0), Latency::micros(20.0));
/// let h1 = b.host("h1.example.net", "10.0.0.1");
/// let h2 = b.host("h2.example.net", "10.0.0.2");
/// b.attach(h1, sw);
/// b.attach(h2, sw);
/// let topo = b.build().unwrap();
/// assert_eq!(topo.node_by_name("h2.example.net"), Some(h2));
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    mediums: Vec<Medium>,
    infra: HashMap<NodeId, InfraSpec>,
    firewall: Firewall,
}

impl TopologyBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let mut node = node;
        node.id = id;
        self.nodes.push(node);
        id
    }

    /// A named host with a single interface. Panics on malformed `ip`
    /// (builder inputs are programmer-provided constants).
    pub fn host(&mut self, fqdn: &str, ip: &str) -> NodeId {
        let ip: Ipv4 = ip.parse().unwrap_or_else(|e| panic!("{e}"));
        let short = fqdn.split('.').next().unwrap_or(fqdn).to_string();
        self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Host,
            label: short,
            ifaces: vec![Iface { ip, name: Some(fqdn.to_string()) }],
            forwards: false,
            responds_to_traceroute: true,
        })
    }

    /// A host with an address but no DNS name (paper §4.3, "Machines
    /// without hostname").
    pub fn host_unnamed(&mut self, ip: &str) -> NodeId {
        let ip: Ipv4 = ip.parse().unwrap_or_else(|e| panic!("{e}"));
        self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Host,
            label: ip.to_string(),
            ifaces: vec![Iface { ip, name: None }],
            forwards: false,
            responds_to_traceroute: true,
        })
    }

    /// A multi-homed host: one interface per `(fqdn, ip)` pair. Used for
    /// the paper's firewall gateways which carry a name on each side.
    pub fn host_multi(&mut self, label: &str, ifaces: &[(&str, &str)]) -> NodeId {
        let ifaces = ifaces
            .iter()
            .map(|(name, ip)| Iface {
                ip: ip.parse().unwrap_or_else(|e| panic!("{e}")),
                name: Some((*name).to_string()),
            })
            .collect();
        self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Host,
            label: label.to_string(),
            ifaces,
            forwards: false,
            responds_to_traceroute: true,
        })
    }

    /// A named router.
    pub fn router(&mut self, fqdn: &str, ip: &str) -> NodeId {
        let ip: Ipv4 = ip.parse().unwrap_or_else(|e| panic!("{e}"));
        let short = fqdn.split('.').next().unwrap_or(fqdn).to_string();
        self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Router,
            label: short,
            ifaces: vec![Iface { ip, name: Some(fqdn.to_string()) }],
            forwards: true,
            responds_to_traceroute: true,
        })
    }

    /// A router whose address does not reverse-resolve (traceroute shows
    /// the bare IP, as for 192.168.254.1 in the paper's Figure 2).
    pub(crate) fn router_unnamed(&mut self, ip: &str) -> NodeId {
        let ip: Ipv4 = ip.parse().unwrap_or_else(|e| panic!("{e}"));
        self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Router,
            label: ip.to_string(),
            ifaces: vec![Iface { ip, name: None }],
            forwards: true,
            responds_to_traceroute: true,
        })
    }

    /// Mark a router (or gateway host) as silently dropping traceroute
    /// probes (paper §4.3 "Dropped traceroute").
    #[cfg(test)]
    pub(crate) fn set_traceroute_silent(&mut self, n: NodeId) {
        self.nodes[n.index()].responds_to_traceroute = false;
    }

    /// Make a host forward traffic (a gateway). Gateways are layer-3 hops.
    pub fn set_forwards(&mut self, n: NodeId, forwards: bool) {
        self.nodes[n.index()].forwards = forwards;
    }

    /// A layer-2 switch whose ports default to the given capacity/latency.
    pub fn switch(
        &mut self,
        label: &str,
        port_capacity: Bandwidth,
        port_latency: Latency,
    ) -> NodeId {
        let id = self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Switch,
            label: label.to_string(),
            ifaces: vec![],
            forwards: true,
            responds_to_traceroute: false,
        });
        self.infra
            .insert(id, InfraSpec { capacity: port_capacity, latency: port_latency, medium: None });
        id
    }

    /// A layer-2 hub: one shared half-duplex medium of the given capacity.
    pub fn hub(&mut self, label: &str, capacity: Bandwidth, port_latency: Latency) -> NodeId {
        let medium = MediumId(self.mediums.len() as u32);
        self.mediums.push(Medium { id: medium, capacity, label: label.to_string() });
        let id = self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::Hub,
            label: label.to_string(),
            ifaces: vec![],
            forwards: true,
            responds_to_traceroute: false,
        });
        self.infra.insert(id, InfraSpec { capacity, latency: port_latency, medium: Some(medium) });
        id
    }

    /// The external traceroute destination ("the Internet").
    pub(crate) fn external(&mut self, fqdn: &str, ip: &str) -> NodeId {
        let ip: Ipv4 = ip.parse().unwrap_or_else(|e| panic!("{e}"));
        self.push_node(Node {
            id: NodeId(0),
            kind: NodeKind::External,
            label: fqdn.to_string(),
            ifaces: vec![Iface { ip, name: Some(fqdn.to_string()) }],
            forwards: false,
            responds_to_traceroute: true,
        })
    }

    /// Attach `node` (via its interface 0) to a hub or switch.
    pub fn attach(&mut self, node: NodeId, infra: NodeId) -> LinkId {
        self.attach_iface(node, 0, infra)
    }

    /// Attach `node` via a specific interface index to a hub or switch.
    pub fn attach_iface(&mut self, node: NodeId, iface: usize, infra: NodeId) -> LinkId {
        let spec = *self
            .infra
            .get(&infra)
            .unwrap_or_else(|| panic!("attach target {infra} is not a hub or switch"));
        let mode = match spec.medium {
            Some(m) => LinkMode::Shared { medium: m },
            None => LinkMode::FullDuplex { capacity_ab: spec.capacity, capacity_ba: spec.capacity },
        };
        self.push_link(node, iface, infra, 0, spec.latency, mode, 1.0, 1.0)
    }

    /// Attach with an overridden port capacity (e.g. a slower uplink port).
    pub fn attach_with_capacity(
        &mut self,
        node: NodeId,
        infra: NodeId,
        capacity: Bandwidth,
    ) -> LinkId {
        let spec = *self
            .infra
            .get(&infra)
            .unwrap_or_else(|| panic!("attach target {infra} is not a hub or switch"));
        let mode = match spec.medium {
            // Hub ports always share the medium; a per-port capacity on a
            // hub is not physically meaningful, so it is ignored.
            Some(m) => LinkMode::Shared { medium: m },
            None => LinkMode::FullDuplex { capacity_ab: capacity, capacity_ba: capacity },
        };
        self.push_link(node, 0, infra, 0, spec.latency, mode, 1.0, 1.0)
    }

    /// A symmetric point-to-point full-duplex link.
    pub fn link(&mut self, a: NodeId, b: NodeId, capacity: Bandwidth, latency: Latency) -> LinkId {
        self.push_link(
            a,
            0,
            b,
            0,
            latency,
            LinkMode::FullDuplex { capacity_ab: capacity, capacity_ba: capacity },
            1.0,
            1.0,
        )
    }

    /// A point-to-point link with distinct capacities per direction.
    pub fn link_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_ab: Bandwidth,
        capacity_ba: Bandwidth,
        latency: Latency,
    ) -> LinkId {
        self.push_link(
            a,
            0,
            b,
            0,
            latency,
            LinkMode::FullDuplex { capacity_ab, capacity_ba },
            1.0,
            1.0,
        )
    }

    /// A link specifying the interface index used on each endpoint.
    pub(crate) fn link_ifaces(
        &mut self,
        a: NodeId,
        a_iface: usize,
        b: NodeId,
        b_iface: usize,
        capacity: Bandwidth,
        latency: Latency,
    ) -> LinkId {
        self.push_link(
            a,
            a_iface,
            b,
            b_iface,
            latency,
            LinkMode::FullDuplex { capacity_ab: capacity, capacity_ba: capacity },
            1.0,
            1.0,
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one private constructor every public link builder funnels into"
    )]
    fn push_link(
        &mut self,
        a: NodeId,
        a_iface: usize,
        b: NodeId,
        b_iface: usize,
        latency: Latency,
        mode: LinkMode,
        weight_ab: f64,
        weight_ba: f64,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            a,
            b,
            a_iface,
            b_iface,
            latency,
            mode,
            weight_ab,
            weight_ba,
            up: true,
        });
        id
    }

    /// Override a link's directed routing weights. A large weight in one
    /// direction steers routes away, producing asymmetric routing.
    /// [`build`](Self::build) rejects a NaN, infinite or negative weight.
    pub fn set_weights(&mut self, link: LinkId, weight_ab: f64, weight_ba: f64) {
        let l = &mut self.links[link.index()];
        l.weight_ab = weight_ab;
        l.weight_ba = weight_ba;
    }

    /// Forbid all traffic between the two host sets, in both directions
    /// (the paper's firewalled `popc.private` domain). Gateways simply are
    /// not listed.
    pub fn firewall_deny_between(&mut self, a: &[NodeId], b: &[NodeId]) {
        self.firewall.deny_between(a, b);
    }

    /// Validate and freeze the topology.
    pub fn build(self) -> NetResult<Topology> {
        let TopologyBuilder { nodes, links, mediums, infra: _, firewall } = self;

        for l in &links {
            for (n, iface) in [(l.a, l.a_iface), (l.b, l.b_iface)] {
                let node = nodes
                    .get(n.index())
                    .ok_or(NetError::InvalidTopology(format!("link {l:?} references {n}")))?;
                if !node.ifaces.is_empty() && iface >= node.ifaces.len() {
                    return Err(NetError::InvalidTopology(format!(
                        "link {:?} uses interface {iface} of {} which has only {}",
                        l.id,
                        node.label,
                        node.ifaces.len()
                    )));
                }
            }
            if l.a == l.b {
                return Err(NetError::InvalidTopology(format!("self-link on {}", l.a)));
            }
            // Dijkstra and the route table's leaf composition need finite,
            // non-negative weights (NaN fails both comparisons).
            for w in [l.weight_ab, l.weight_ba] {
                if !(w >= 0.0 && w.is_finite()) {
                    return Err(NetError::InvalidTopology(format!(
                        "link {:?} has routing weight {w}; weights must be finite and >= 0",
                        l.id
                    )));
                }
            }
        }

        // The flat sorted address table doubles as the duplicate-address
        // check (duplicates are a construction bug): collect every
        // interface once, sort, and scan adjacent entries. Pre-sized from
        // the interface count — at 50k hosts the old grow-by-rehash maps
        // spent more time rehashing than inserting.
        let iface_count: usize = nodes.iter().map(|n| n.ifaces.len()).sum();
        let mut ip_table: Vec<(Ipv4, NodeId)> = Vec::with_capacity(iface_count);
        for n in &nodes {
            for i in &n.ifaces {
                ip_table.push((i.ip, n.id));
            }
        }
        ip_table.sort_unstable_by_key(|&(ip, _)| ip);
        for w in ip_table.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(NetError::InvalidTopology(format!(
                    "address {} assigned to both {} and {}",
                    w[0].0,
                    nodes[w[0].1.index()].label,
                    nodes[w[1].1.index()].label
                )));
            }
        }

        // CSR adjacency: count-then-fill into one flat array.
        let mut adj_off = vec![0u32; nodes.len() + 1];
        for l in &links {
            adj_off[l.a.index() + 1] += 1;
            adj_off[l.b.index() + 1] += 1;
        }
        for i in 1..adj_off.len() {
            adj_off[i] += adj_off[i - 1];
        }
        let mut adj = vec![(LinkId(0), NodeId(0)); 2 * links.len()];
        let mut cursor = adj_off.clone();
        for l in &links {
            adj[cursor[l.a.index()] as usize] = (l.id, l.b);
            cursor[l.a.index()] += 1;
            adj[cursor[l.b.index()] as usize] = (l.id, l.a);
            cursor[l.b.index()] += 1;
        }

        // The interned name table: `node_by_name` used to scan every node
        // × interface per call, which made every consumer that resolves
        // host names per pair (plan validation, the structural phase)
        // quadratic for no reason. The lowest node id wins a name.
        let mut dns = Dns::new();
        let mut names = NameTable::with_capacity(iface_count);
        for n in &nodes {
            for i in &n.ifaces {
                if let Some(name) = &i.name {
                    dns.register(name, i.ip);
                    names.insert(name, n.id);
                }
            }
        }

        Ok(Topology { nodes, links, mediums, adj_off, adj, dns, firewall, names, ip_table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::mbps(x)
    }

    #[test]
    fn build_hub_topology() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub0", mbps(100.0), Latency::micros(50.0));
        let h1 = b.host("a.example.net", "10.0.0.1");
        let h2 = b.host("b.example.net", "10.0.0.2");
        let l1 = b.attach(h1, hub);
        b.attach(h2, hub);
        let t = b.build().unwrap();

        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.mediums().count(), 1);
        match t.link(l1).mode {
            LinkMode::Shared { medium } => {
                assert!((t.medium(medium).capacity.as_mbps() - 100.0).abs() < 1e-9)
            }
            _ => panic!("hub port should be shared"),
        }
        assert_eq!(t.neighbours(hub).len(), 2);
        assert_eq!(t.node_by_name("a.example.net"), Some(h1));
        assert_eq!(t.node_by_label("a"), Some(h1));
    }

    #[test]
    fn build_switch_topology() {
        let mut b = TopologyBuilder::new();
        let sw = b.switch("sw0", mbps(100.0), Latency::micros(20.0));
        let h1 = b.host("a.example.net", "10.0.0.1");
        let l = b.attach(h1, sw);
        let t = b.build().unwrap();
        match t.link(l).mode {
            LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                assert!((capacity_ab.as_mbps() - 100.0).abs() < 1e-9);
                assert!((capacity_ba.as_mbps() - 100.0).abs() < 1e-9);
            }
            _ => panic!("switch port should be full duplex"),
        }
        assert_eq!(t.mediums().count(), 0);
    }

    #[test]
    fn multi_homed_gateway_names_are_aliases() {
        let mut b = TopologyBuilder::new();
        let gw = b.host_multi(
            "popc0",
            &[("popc.ens-lyon.fr", "140.77.12.52"), ("popc0.popc.private", "192.168.81.51")],
        );
        b.set_forwards(gw, true);
        let t = b.build().unwrap();
        assert!(t.node(gw).is_l3_hop());
        let names: Vec<&str> = t.node(gw).ifaces.iter().filter_map(|i| i.name.as_deref()).collect();
        assert_eq!(names, ["popc.ens-lyon.fr", "popc0.popc.private"]);
        for name in names {
            assert_eq!(t.node_by_name(name), Some(gw), "{name}");
        }
    }

    #[test]
    fn name_and_ip_indexes_resolve_every_interface() {
        let mut b = TopologyBuilder::new();
        let gw = b.host_multi("gw", &[("gw.out.x", "10.0.0.1"), ("gw.in.x", "192.168.0.1")]);
        let h = b.host("h.x", "10.0.0.2");
        let t = b.build().unwrap();
        assert_eq!(t.node_by_name("gw.out.x"), Some(gw));
        assert_eq!(t.node_by_name("gw.in.x"), Some(gw));
        assert_eq!(t.node_by_name("h.x"), Some(h));
        assert_eq!(t.node_by_name("missing.x"), None);
        assert_eq!(t.node_by_ip("192.168.0.1".parse().unwrap()), Some(gw));
        assert_eq!(t.node_by_ip("10.0.0.2".parse().unwrap()), Some(h));
        assert_eq!(t.node_by_ip("10.9.9.9".parse().unwrap()), None);
    }

    #[test]
    fn duplicate_ip_rejected() {
        let mut b = TopologyBuilder::new();
        b.host("a.x", "10.0.0.1");
        b.host("b.x", "10.0.0.1");
        assert!(matches!(b.build(), Err(NetError::InvalidTopology(_))));
    }

    #[test]
    fn bad_iface_index_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.link_ifaces(a, 3, c, 0, mbps(10.0), Latency::ZERO);
        assert!(matches!(b.build(), Err(NetError::InvalidTopology(_))));
    }

    #[test]
    fn self_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        b.link(a, a, mbps(10.0), Latency::ZERO);
        assert!(matches!(b.build(), Err(NetError::InvalidTopology(_))));
    }

    #[test]
    fn bad_routing_weight_rejected() {
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            for (ab, ba) in [(w, 1.0), (1.0, w)] {
                let mut b = TopologyBuilder::new();
                let a = b.host("a.x", "10.0.0.1");
                let r = b.router("r.x", "10.0.0.254");
                let l = b.link_asym(a, r, mbps(10.0), mbps(100.0), Latency::ZERO);
                b.set_weights(l, ab, ba);
                assert!(matches!(b.build(), Err(NetError::InvalidTopology(_))), "{ab} / {ba}");
            }
        }
    }

    #[test]
    fn unnamed_host_uses_ip_label() {
        let mut b = TopologyBuilder::new();
        let h = b.host_unnamed("192.168.81.60");
        let t = b.build().unwrap();
        assert_eq!(t.node(h).label, "192.168.81.60");
        assert!(t.node(h).ifaces[0].name.is_none());
    }

    #[test]
    fn link_peer_and_weights() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        let l = b.link(a, c, mbps(10.0), Latency::ZERO);
        b.set_weights(l, 1.0, 100.0);
        let t = b.build().unwrap();
        let link = t.link(l);
        assert_eq!(link.peer(a), Some(c));
        assert_eq!(link.peer(c), Some(a));
        assert!((link.weight_from(a) - 1.0).abs() < 1e-12);
        assert!((link.weight_from(c) - 100.0).abs() < 1e-12);
    }
}
