//! Route computation: per-direction weighted shortest paths.
//!
//! Routes are computed per *ordered* pair — the forward and return paths of
//! a pair may differ when link weights are asymmetric, reproducing the
//! asymmetric routes the paper observed between `the-doors` and `popc`
//! (§4.3: 10 Mbps one way, 100 Mbps links only the other way).
//!
//! Only forwarding nodes (routers, switches, hubs, gateway hosts) may relay
//! traffic; plain hosts and the external stand-in can only be endpoints.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{NetError, NetResult};
use crate::topology::{LinkId, NodeId, Topology};
use crate::units::{Bandwidth, Latency};

/// A directed route through the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Node sequence from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Link sequence; `links[i]` connects `nodes[i]` to `nodes[i+1]`.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Sum of one-way link latencies along the path.
    pub fn latency(&self, topo: &Topology) -> Latency {
        self.links.iter().map(|l| topo.link(*l).latency).sum()
    }

    /// The minimum directed capacity along the path — the best throughput a
    /// single flow alone on the network could reach.
    pub fn bottleneck(&self, topo: &Topology) -> Bandwidth {
        let mut min: Option<Bandwidth> = None;
        for (i, l) in self.links.iter().enumerate() {
            let cap = topo.link(*l).capacity_from(self.nodes[i], topo.mediums_internal());
            min = Some(match min {
                Some(m) => m.min(cap),
                None => cap,
            });
        }
        min.unwrap_or(Bandwidth::ZERO)
    }

    /// Intermediate layer-3 hops (routers and forwarding hosts), excluding
    /// the endpoints — the nodes a traceroute would reveal.
    pub fn l3_hops(&self, topo: &Topology) -> Vec<NodeId> {
        self.nodes[1..self.nodes.len().saturating_sub(1)]
            .iter()
            .copied()
            .filter(|n| topo.node(*n).is_l3_hop())
            .collect()
    }

    pub fn hop_count(&self) -> usize {
        self.links.len()
    }
}

/// Distance key for Dijkstra: weight plus deterministic tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dist(f64);

impl Eq for Dist {}

impl Ord for Dist {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("route weights are never NaN")
    }
}

impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    dist: Dist,
    node: NodeId,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-heap behaviour. Ties are
        // broken by node id so route computation is fully deterministic.
        other.dist.cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Sentinel in the tables below: no predecessor (the source's own entry, or
/// an unreachable node), no row, no access link.
const NONE: u32 = u32::MAX;

/// All-sources shortest-path trees, precomputed at simulator start.
///
/// Only **core** nodes own a tree: every node that forwards, has ≠ 1
/// neighbour, or whose only neighbour does not forward. Storage is one flat
/// `u32` per ordered core pair: the dense id of the last link on the best
/// path `src → node` (`NONE` for the source itself and for unreachable
/// nodes). The predecessor *node* is not stored — it is recovered as
/// `link.peer(cur)`, which is why the walking accessors take the topology.
///
/// A **leaf** — non-forwarding, exactly one link, to a forwarder: every
/// plain host — keeps only that access link and borrows its gateway's row.
/// A route is composed as *dst access link → walk of the source gateway's
/// row → src access link*, so the table costs C² entries for C core nodes
/// instead of n² (campus-5000: n = 6 439, C = 1 438, 158 MiB → 8 MiB), and
/// per-source rows are computed on independent workers.
///
/// The composition equals a Dijkstra from the leaf itself because routing
/// weights are finite and ≥ 0 ([`TopologyBuilder::build`] rejects anything
/// else): the leaf's tree is its gateway's tree with every distance offset
/// by the one access weight, and nothing relaxes back through the leaf.
/// With integer weights (all this repo ships) the offset is exact in `f64`,
/// so order, ties and every strict `<` are preserved and the routes are
/// identical. With non-integer weights both answers are still shortest
/// paths; only a near-tie inside one rounding error may break differently.
///
/// [`TopologyBuilder::build`]: crate::topology::TopologyBuilder::build
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Number of core nodes: rows and columns of `prev_link`.
    c: usize,
    /// `row_of[node]`: a core node's own index, a leaf's gateway's, or
    /// `NONE` for a leaf whose access link was down.
    row_of: Vec<u32>,
    /// `access[node]`: a leaf's only link, or `NONE` for a core node.
    access: Vec<u32>,
    /// `prev_link[row * c + core index]` = dense link id, or `NONE`.
    prev_link: Vec<u32>,
}

impl RouteTable {
    /// Run Dijkstra from every core node. Weights are the links' directed
    /// routing weights; intermediate nodes must be forwarders. Uses every
    /// core the process is allowed (see
    /// [`compute_with_threads`](Self::compute_with_threads)).
    pub fn compute(topo: &Topology) -> Self {
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        Self::compute_with_threads(topo, threads)
    }

    /// [`compute`](Self::compute) with an explicit worker count. Per-source
    /// trees are independent, so the table is bit-identical for every
    /// `threads` value — workers own disjoint row ranges of the flat table.
    pub fn compute_with_threads(topo: &Topology, threads: usize) -> Self {
        let n = topo.node_count();
        let mut row_of = vec![NONE; n];
        let mut access = vec![NONE; n];
        // Core indices ascend with node ids, so the heap's node-id
        // tie-break orders core nodes exactly as a whole-graph run would.
        let mut core = Vec::new();
        for u in (0..n as u32).map(NodeId) {
            match *topo.neighbours(u) {
                [(l, gw)] if !topo.node(u).forwards && topo.node(gw).forwards => {
                    access[u.index()] = l.raw();
                }
                _ => {
                    row_of[u.index()] = core.len() as u32;
                    core.push(u);
                }
            }
        }
        let c = core.len();
        let mut prev_link = vec![NONE; c * c];
        let threads = threads.clamp(1, c.max(1));
        if c > 0 {
            let rows_per = c.div_ceil(threads);
            let (core, core_of) = (&core, &row_of);
            std::thread::scope(|s| {
                let mut workers = Vec::with_capacity(threads);
                for (chunk_idx, rows) in prev_link.chunks_mut(rows_per * c).enumerate() {
                    let first_src = chunk_idx * rows_per;
                    workers.push(s.spawn(move || {
                        let mut dist = vec![f64::INFINITY; c];
                        let mut heap = BinaryHeap::new();
                        for (row_idx, row) in rows.chunks_mut(c).enumerate() {
                            let src = core[first_src + row_idx];
                            dijkstra_row(topo, core_of, src, row, &mut dist, &mut heap);
                        }
                    }));
                }
                // Joined, not left to the scope, which only waits for each
                // closure to return: a thread still exiting holds its malloc
                // arena, and whether the caller's next thread finds that
                // arena free or takes a new one must not be a race.
                for w in workers {
                    w.join().expect("routing worker panicked");
                }
            });
        }
        // A leaf whose access link is up borrows its gateway's row.
        for (u, &l) in access.iter().enumerate().filter(|&(_, &l)| l != NONE) {
            let link = topo.link(LinkId::from_raw(l));
            if link.up {
                let gw = link.peer(NodeId(u as u32)).expect("access link touches its leaf");
                row_of[u] = row_of[gw.index()];
            }
        }
        RouteTable { c, row_of, access, prev_link }
    }

    /// Bytes held by the table (rows plus the per-node maps).
    pub fn table_bytes(&self) -> usize {
        (self.prev_link.len() + self.row_of.len() + self.access.len()) * std::mem::size_of::<u32>()
    }

    /// The row that routes `src → dst` (`src ≠ dst`), if there is a route; a
    /// node the table has never seen is routed to nothing.
    fn row(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let row = *self.row_of.get(src.index())?;
        let col = *self.row_of.get(dst.index())?;
        let routed = row != NONE
            && col != NONE
            && (row == col || self.prev_link[row as usize * self.c + col as usize] != NONE);
        routed.then_some(row as usize)
    }

    /// Whether a physical route exists (ignores firewall rules).
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.row(src, dst).is_some()
    }

    /// The link over which the route `src → dst` arrives at `dst` — what
    /// [`hops_rev`](Self::hops_rev) yields first, without the iterator.
    /// `None` when `src == dst` or there is no route. For a fixed `src` it
    /// maps every node to its one predecessor in `src`'s shortest-path tree.
    #[inline]
    pub fn last_hop(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        if src == dst {
            return None;
        }
        let row = self.row(src, dst)?;
        Some(self.hop_into(&self.prev_link[row * self.c..(row + 1) * self.c], src, dst))
    }

    /// The last link of the route `src → cur` (`cur ≠ src`, reachable),
    /// given the row of `src` or of its gateway. A leaf is entered over its
    /// access link; core nodes follow the row until its own source, which a
    /// leaf `src` hangs off.
    #[inline]
    fn hop_into(&self, row: &[u32], src: NodeId, cur: NodeId) -> LinkId {
        let raw = match self.access[cur.index()] {
            NONE => match row[self.row_of[cur.index()] as usize] {
                NONE => self.access[src.index()],
                prev => prev,
            },
            access => access,
        };
        debug_assert!(raw != NONE, "reachable implies a predecessor chain");
        LinkId::from_raw(raw)
    }

    /// Walk the directed route from `src` to `dst` in reverse hop order
    /// without allocating: the iterator yields `(from_node, link)` for each
    /// traversed link, starting at the destination. The engine's flow hot
    /// path extracts interned resource ids and latencies through this
    /// instead of materialising a [`Path`].
    pub fn hops_rev<'a>(
        &'a self,
        topo: &'a Topology,
        src: NodeId,
        dst: NodeId,
    ) -> NetResult<HopsRev<'a>> {
        let row = if src == dst {
            &[][..]
        } else {
            let row = self.row(src, dst).ok_or(NetError::Unreachable { src, dst })?;
            &self.prev_link[row * self.c..(row + 1) * self.c]
        };
        Ok(HopsRev { topo, table: self, row, src, cur: dst })
    }

    /// One-way latency of the directed route, computed without allocating.
    pub fn latency(&self, topo: &Topology, src: NodeId, dst: NodeId) -> NetResult<Latency> {
        let mut secs = 0.0;
        for (_, l) in self.hops_rev(topo, src, dst)? {
            secs += topo.link(l).latency.as_secs();
        }
        Ok(Latency::secs(secs))
    }

    /// One-way latency and minimum directed capacity of the route, in one
    /// allocation-free walk (the control-message delivery hot path).
    pub fn latency_and_bottleneck(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> NetResult<(Latency, Bandwidth)> {
        let mut secs = 0.0;
        let mut min_cap: Option<Bandwidth> = None;
        for (from, l) in self.hops_rev(topo, src, dst)? {
            let link = topo.link(l);
            secs += link.latency.as_secs();
            let cap = link.capacity_from(from, topo.mediums_internal());
            min_cap = Some(match min_cap {
                Some(m) => m.min(cap),
                None => cap,
            });
        }
        Ok((Latency::secs(secs), min_cap.unwrap_or(Bandwidth::ZERO)))
    }

    /// The directed route from `src` to `dst`.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> NetResult<Path> {
        let mut nodes = vec![dst];
        let mut links = Vec::new();
        for (p, l) in self.hops_rev(topo, src, dst)? {
            links.push(l);
            nodes.push(p);
        }
        nodes.reverse();
        links.reverse();
        Ok(Path { nodes, links })
    }
}

/// One core source's Dijkstra tree over the core nodes, written into its
/// flat row of the table (`core_of` is `NONE` for a leaf, which never
/// relays). `dist` and `heap` are caller-owned scratch reused across rows.
fn dijkstra_row(
    topo: &Topology,
    core_of: &[u32],
    src: NodeId,
    row: &mut [u32],
    dist: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
) {
    dist.fill(f64::INFINITY);
    heap.clear();
    dist[core_of[src.index()] as usize] = 0.0;
    heap.push(HeapEntry { dist: Dist(0.0), node: src });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d.0 > dist[core_of[u.index()] as usize] {
            continue;
        }
        // Traffic may only be relayed through forwarding nodes.
        if u != src && !topo.node(u).forwards {
            continue;
        }
        for &(link_id, v) in topo.neighbours(u) {
            let (cv, link) = (core_of[v.index()] as usize, topo.link(link_id));
            // A leaf relays nothing: its routes are composed from this row.
            if cv == NONE as usize || !link.up {
                continue;
            }
            let w = link.weight_from(u);
            let nd = d.0 + w;
            if nd < dist[cv] {
                dist[cv] = nd;
                row[cv] = link_id.raw();
                heap.push(HeapEntry { dist: Dist(nd), node: v });
            }
        }
    }
}

/// Allocation-free reverse walk of one route (see [`RouteTable::hops_rev`]).
pub struct HopsRev<'a> {
    topo: &'a Topology,
    table: &'a RouteTable,
    /// The source's (or its gateway's) row of the table.
    row: &'a [u32],
    src: NodeId,
    cur: NodeId,
}

impl Iterator for HopsRev<'_> {
    type Item = (NodeId, LinkId);

    fn next(&mut self) -> Option<(NodeId, LinkId)> {
        if self.cur == self.src {
            return None;
        }
        let l = self.table.hop_into(self.row, self.src, self.cur);
        let p = self.topo.link(l).peer(self.cur).expect("route link touches its own node");
        self.cur = p;
        Some((p, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::{Bandwidth, Latency};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::mbps(x)
    }

    /// a — r — b, plus an unrelated host c.
    fn line() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let r = b.router("r.x", "10.0.0.254");
        let c = b.host("c.x", "10.0.0.2");
        let d = b.host("d.x", "10.0.0.3");
        b.link(a, r, mbps(100.0), Latency::millis(1.0));
        b.link(r, c, mbps(10.0), Latency::millis(2.0));
        (b.build().unwrap(), a, r, c, d)
    }

    #[test]
    fn shortest_path_through_router() {
        let (t, a, r, c, _) = line();
        let rt = RouteTable::compute(&t);
        let p = rt.path(&t, a, c).unwrap();
        assert_eq!(p.nodes, vec![a, r, c]);
        assert_eq!(p.hop_count(), 2);
        assert!((p.latency(&t).as_millis() - 3.0).abs() < 1e-9);
        assert!((p.bottleneck(&t).as_mbps() - 10.0).abs() < 1e-9);
        assert_eq!(p.l3_hops(&t), vec![r]);
    }

    #[test]
    fn disconnected_is_unreachable() {
        let (t, a, _, _, d) = line();
        let rt = RouteTable::compute(&t);
        assert!(!rt.reachable(a, d));
        assert!(matches!(rt.path(&t, a, d), Err(NetError::Unreachable { .. })));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, a, _, _, _) = line();
        let rt = RouteTable::compute(&t);
        let p = rt.path(&t, a, a).unwrap();
        assert_eq!(p.nodes, vec![a]);
        assert!(p.links.is_empty());
        assert_eq!(p.bottleneck(&t), Bandwidth::ZERO);
    }

    #[test]
    fn last_hop_is_what_hops_rev_yields_first() {
        // Leaves a and c behind r, d isolated; then c's access link down; a
        // node id the table has never seen routes nowhere.
        let (mut t, a, r, c, d) = line();
        for cut in [false, true] {
            if cut {
                let (l, _) = t.neighbours(c)[0];
                t.set_link_up(l, false);
            }
            let rt = RouteTable::compute(&t);
            let nodes = [a, r, c, d, NodeId(99)];
            for &src in &nodes {
                for &dst in &nodes {
                    let first = rt.hops_rev(&t, src, dst).ok().and_then(|mut h| h.next());
                    let want = first.map(|(_, l)| l);
                    assert_eq!(rt.last_hop(src, dst), want, "{src} → {dst}, cut {cut}");
                }
            }
            assert_eq!(rt.last_hop(a, c).is_some(), !cut);
        }
    }

    #[test]
    fn hosts_do_not_forward() {
        // a — h — c where h is a plain host: no route a→c.
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let h = b.host("h.x", "10.0.0.2");
        let c = b.host("c.x", "10.0.0.3");
        b.link(a, h, mbps(100.0), Latency::ZERO);
        b.link(h, c, mbps(100.0), Latency::ZERO);
        let t = b.build().unwrap();
        let rt = RouteTable::compute(&t);
        assert!(!rt.reachable(a, c));
        // But flipping the forwarding bit (gateway) opens the route.
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let h = b.host("h.x", "10.0.0.2");
        let c = b.host("c.x", "10.0.0.3");
        b.link(a, h, mbps(100.0), Latency::ZERO);
        b.link(h, c, mbps(100.0), Latency::ZERO);
        b.set_forwards(h, true);
        let t = b.build().unwrap();
        let rt = RouteTable::compute(&t);
        let p = rt.path(&t, a, c).unwrap();
        assert_eq!(p.l3_hops(&t), vec![h]);
    }

    #[test]
    fn asymmetric_weights_give_asymmetric_routes() {
        // Two parallel router paths between a and c; weights steer the a→c
        // direction through r1 (slow) and the c→a direction through r2.
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        let r1 = b.router("r1.x", "10.0.1.1");
        let r2 = b.router("r2.x", "10.0.1.2");
        let l_a_r1 = b.link(a, r1, mbps(10.0), Latency::millis(1.0));
        let l_r1_c = b.link(r1, c, mbps(10.0), Latency::millis(1.0));
        let l_a_r2 = b.link(a, r2, mbps(100.0), Latency::millis(1.0));
        let l_r2_c = b.link(r2, c, mbps(100.0), Latency::millis(1.0));
        // a→c prefers r1; c→a prefers r2.
        b.set_weights(l_a_r1, 1.0, 50.0);
        b.set_weights(l_r1_c, 1.0, 50.0);
        b.set_weights(l_a_r2, 50.0, 1.0);
        b.set_weights(l_r2_c, 50.0, 1.0);
        let t = b.build().unwrap();
        let rt = RouteTable::compute(&t);
        let fwd = rt.path(&t, a, c).unwrap();
        let back = rt.path(&t, c, a).unwrap();
        assert_eq!(fwd.l3_hops(&t), vec![r1]);
        assert_eq!(back.l3_hops(&t), vec![r2]);
        assert!((fwd.bottleneck(&t).as_mbps() - 10.0).abs() < 1e-9);
        assert!((back.bottleneck(&t).as_mbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn downed_link_reroutes_or_disconnects() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        let r = b.router("r.x", "10.0.1.1");
        let l = b.link(a, r, mbps(10.0), Latency::ZERO);
        b.link(r, c, mbps(10.0), Latency::ZERO);
        // Down the first link before build by mutating through set_weights
        // path: rebuild with the link up, then verify the `up` flag is
        // honoured by recomputation.
        let mut t = b.build().unwrap();
        let rt = RouteTable::compute(&t);
        assert!(rt.reachable(a, c));
        t.set_link_up(l, false);
        let rt = RouteTable::compute(&t);
        assert!(!rt.reachable(a, c));
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-weight parallel routers: the chosen path must be stable
        // across recomputations.
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        let r1 = b.router("r1.x", "10.0.1.1");
        let r2 = b.router("r2.x", "10.0.1.2");
        b.link(a, r1, mbps(10.0), Latency::ZERO);
        b.link(r1, c, mbps(10.0), Latency::ZERO);
        b.link(a, r2, mbps(10.0), Latency::ZERO);
        b.link(r2, c, mbps(10.0), Latency::ZERO);
        let t = b.build().unwrap();
        let p1 = RouteTable::compute(&t).path(&t, a, c).unwrap();
        let p2 = RouteTable::compute(&t).path(&t, a, c).unwrap();
        assert_eq!(p1, p2);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::topology::{NodeId, TopologyBuilder};
    use crate::units::{Bandwidth, Latency};
    use proptest::prelude::*;

    /// Random two-level tree: a backbone of routers, each with a few hosts.
    fn arb_tree() -> impl Strategy<Value = (Topology, Vec<NodeId>)> {
        proptest::collection::vec(1usize..4, 1..5).prop_map(|sizes| {
            let mut b = TopologyBuilder::new();
            let root = b.router("root.x", "10.255.0.1");
            let mut hosts = Vec::new();
            for (r, n_hosts) in sizes.iter().enumerate() {
                let router = b.router(&format!("r{r}.x"), &format!("10.{r}.0.1"));
                b.link(router, root, Bandwidth::mbps(1000.0), Latency::micros(100.0));
                for h in 0..*n_hosts {
                    let host = b.host(&format!("h{h}.r{r}.x"), &format!("10.{r}.1.{}", h + 1));
                    b.link(host, router, Bandwidth::mbps(100.0), Latency::micros(50.0));
                    hosts.push(host);
                }
            }
            (b.build().unwrap(), hosts)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Paths are well-formed: correct endpoints, each link joins its
        /// adjacent nodes, and with symmetric weights the reverse path has
        /// the same hop count.
        #[test]
        fn paths_are_well_formed((topo, hosts) in arb_tree(), i in 0usize..16, j in 0usize..16) {
            let a = hosts[i % hosts.len()];
            let c = hosts[j % hosts.len()];
            prop_assume!(a != c);
            let rt = RouteTable::compute(&topo);
            let fwd = rt.path(&topo, a, c).unwrap();

            prop_assert_eq!(*fwd.nodes.first().unwrap(), a);
            prop_assert_eq!(*fwd.nodes.last().unwrap(), c);
            // Each link connects the consecutive node pair.
            for (k, l) in fwd.links.iter().enumerate() {
                let link = topo.link(*l);
                let (x, y) = (fwd.nodes[k], fwd.nodes[k + 1]);
                prop_assert!(
                    (link.a == x && link.b == y) || (link.a == y && link.b == x),
                    "link does not join consecutive nodes"
                );
            }
            // No repeated node (simple path).
            let mut seen = fwd.nodes.clone();
            seen.sort();
            seen.dedup();
            prop_assert_eq!(seen.len(), fwd.nodes.len());

            // Symmetric weights → same length both ways.
            let back = rt.path(&topo, c, a).unwrap();
            prop_assert_eq!(back.hop_count(), fwd.hop_count());

            // Latency and bottleneck agree with manual recomputation.
            let manual_lat: f64 =
                fwd.links.iter().map(|l| topo.link(*l).latency.as_secs()).sum();
            prop_assert!((fwd.latency(&topo).as_secs() - manual_lat).abs() < 1e-12);
            prop_assert!(fwd.bottleneck(&topo).as_mbps() > 0.0);
        }

        /// Reachability is symmetric and reflexive on connected platforms.
        #[test]
        fn reachability_properties((topo, hosts) in arb_tree(), i in 0usize..16) {
            let rt = RouteTable::compute(&topo);
            let a = hosts[i % hosts.len()];
            prop_assert!(rt.reachable(a, a));
            for &b in &hosts {
                prop_assert_eq!(rt.reachable(a, b), rt.reachable(b, a));
                prop_assert!(rt.reachable(a, b), "tree platforms are connected");
            }
        }
    }
}
