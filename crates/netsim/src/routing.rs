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

/// Sentinel in the tables below: no link, no parent, no row entry (the
/// source's own, or an unreachable node's).
const NONE: u32 = u32::MAX;

/// Tag bit of [`Slot::up`]: the node is in the 2-core, and the low bits are
/// its row and column in `prev_link`.
const IN_K: u32 = 1 << 31;

/// Flag bits of [`Slot::root`], above the root's node id.
const BLOCKED: u32 = 1 << 31;
const FORWARDS: u32 = 1 << 30;
/// The root's node id, below the flag bits.
const ID: u32 = FORWARDS - 1;

/// One node's place in the forest of trees hanging off the 2-core: what a
/// walk reads at each hop, in 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The node id of the root of the node's tree (itself for a root),
    /// `| FORWARDS` when the node forwards, `| BLOCKED` when some proper
    /// ancestor does not.
    root: u32,
    /// A tree node's link toward its parent; `IN_K | index` for a node of
    /// the 2-core; `NONE` for the root of a component without a 2-core.
    up: u32,
    /// Euler-tour interval `[tin, tout)`: entry times of the node's subtree.
    tin: u32,
    tout: u32,
}

impl Slot {
    /// The node's row and column in `prev_link`, if it is in K.
    #[inline]
    fn k(&self) -> Option<usize> {
        (self.up != NONE && self.up & IN_K != 0).then_some((self.up & !IN_K) as usize)
    }

    /// Whether the node entered at `t` is this node or below it.
    #[inline]
    fn holds(&self, t: u32) -> bool {
        self.tin <= t && t < self.tout
    }
}

/// Shortest-path routes for every ordered node pair, precomputed at
/// simulator start: Dijkstra rows where the graph has cycles, parent links
/// everywhere else.
///
/// Repeatedly removing every node with at most one live link (parallel links
/// count separately, so they form a cycle) leaves the **2-core** K. Every
/// removed node hangs in a tree rooted at the one node of K it was attached
/// through, or, in a component whose 2-core is empty, at the node removed
/// last. A tree node keeps its parent and the link to it, its root, and its
/// Euler-tour interval; children are stored in one CSR array in entry-time
/// order. The child of `x` toward `v` is a few parent steps up from `v`,
/// or, when `x` is far above, a binary search over `x`'s children. Only K
/// owns rows: one `u32` per ordered K pair, the dense id
/// of the last link on the best path within K (`NONE` for the source
/// itself and for unreachable nodes). Memory is O(n + |K|²); every platform
/// the repo synthesises is a tree, so K is empty and the campus-5000 table
/// is 0.17 MiB where per-forwarder rows took 7.9 MiB.
///
/// A route is *parent links up from `dst` to its root → the row of `src`'s
/// root → children down to `src`*, or, when both ends hang in one tree, up
/// from `dst` to the lowest common ancestor and down to `src`. Intermediate
/// nodes must forward: in K that is the Dijkstra rule; in a tree a node
/// with no non-forwarding ancestor is clear at once, and otherwise its side
/// of the path is checked up to the common ancestor. The predecessor
/// *node* of a hop is recovered as `link.peer(cur)`, which is why the
/// walking accessors take the topology.
///
/// Every answer equals a Dijkstra from the source over the whole graph. A
/// tree path is the only simple path between its ends, so weights cannot
/// pick another. A shortest path between two K nodes never enters a tree
/// (it would have to leave over the link it came in by), and tree nodes
/// never shorten a K distance, so the K-only Dijkstra pops and relaxes the
/// K nodes in the same order as the whole-graph run — ties included, since
/// both break them by node id. A source in a tree reaches K through its
/// root, so its distances to K are the root's offset by the weight of its
/// tree path: routing weights are finite and ≥ 0 ([`TopologyBuilder::build`]
/// rejects anything else), and with integer weights (all this repo ships)
/// the offset is exact in `f64`, so order, ties and every strict `<` are
/// preserved and the routes are identical. With non-integer weights both
/// answers are still shortest paths; only a near-tie inside one rounding
/// error may break differently.
///
/// [`TopologyBuilder::build`]: crate::topology::TopologyBuilder::build
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Number of 2-core nodes: rows and columns of `prev_link`.
    k: usize,
    /// `prev_link[row * k + col]` = dense link id, or `NONE`.
    prev_link: Vec<u32>,
    /// One [`Slot`] per node the table was computed for.
    slots: Vec<Slot>,
    /// `parent[v]`: a tree node's parent, `NONE` for a root.
    parent: Vec<u32>,
    /// The children of node `v` are `child[child_off[v]..child_off[v + 1]]`,
    /// in ascending entry time.
    child_off: Vec<u32>,
    child: Vec<u32>,
}

impl RouteTable {
    /// Routes over every node. Weights are the links' directed routing
    /// weights; intermediate nodes must be forwarders. Uses every core the
    /// process is allowed for the 2-core's rows (see
    /// [`compute_with_threads`](Self::compute_with_threads)).
    pub fn compute(topo: &Topology) -> Self {
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        Self::compute_with_threads(topo, threads)
    }

    /// [`compute`](Self::compute) with an explicit worker count for the
    /// 2-core's Dijkstra rows. Per-source rows are independent, so the table
    /// is bit-identical for every `threads` value — workers own disjoint row
    /// ranges of the flat table. The trees are built on the calling thread.
    pub fn compute_with_threads(topo: &Topology, threads: usize) -> Self {
        const PEELED: u32 = u32::MAX;
        let n = topo.node_count();
        let live = |v: usize| {
            let links = topo.neighbours(NodeId(v as u32)).iter();
            links.filter(|&&(l, _)| topo.link(l).up).map(|&(l, u)| (l.raw(), u.index()))
        };
        // Peel nodes with at most one live link until only K is left. `deg`
        // counts a node's live links to nodes not yet peeled (`PEELED` once
        // it is); a peeled node's one remaining neighbour is its parent.
        let mut slots = vec![Slot { root: NONE, up: NONE, tin: 0, tout: 0 }; n];
        let mut parent = vec![NONE; n];
        let mut deg: Vec<u32> = (0..n).map(|v| live(v).count() as u32).collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| deg[v as usize] <= 1).collect();
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            deg[v as usize] = PEELED;
            if let Some((l, p)) = live(v as usize).find(|&(_, p)| deg[p] != PEELED) {
                (slots[v as usize].up, parent[v as usize]) = (l, p as u32);
                deg[p] -= 1;
                if deg[p] == 1 {
                    queue.push(p as u32);
                }
            }
        }
        let mut k = 0;
        for (slot, _) in slots.iter_mut().zip(&deg).filter(|&(_, &d)| d != PEELED) {
            slot.up = IN_K | k;
            k += 1;
        }
        drop((deg, queue));

        // Children in CSR, ascending node id under each parent: counts land
        // at `child_off[p + 2]`, and the fill advances `child_off[p + 1]`
        // from p's first slot to p + 1's.
        let mut child_off = vec![0u32; n + 2];
        for &p in parent.iter().filter(|&&p| p != NONE) {
            child_off[p as usize + 2] += 1;
        }
        for i in 2..child_off.len() {
            child_off[i] += child_off[i - 1];
        }
        let mut child = vec![0u32; child_off[n + 1] as usize];
        for (v, &p) in parent.iter().enumerate().filter(|&(_, &p)| p != NONE) {
            let next = &mut child_off[p as usize + 1];
            child[*next as usize] = v as u32;
            *next += 1;
        }
        child_off.pop();

        // Depth-first from every root: entry times, and each node's root
        // and flags.
        let forwards = |v: usize| if topo.node(NodeId(v as u32)).forwards { FORWARDS } else { 0 };
        let mut stack: Vec<(usize, u32)> = Vec::new();
        let mut t = 0;
        for r in 0..n {
            if parent[r] != NONE {
                continue;
            }
            slots[r].root = r as u32 | forwards(r);
            slots[r].tin = t;
            t += 1;
            stack.push((r, child_off[r]));
            while let Some(&(v, pos)) = stack.last() {
                if pos == child_off[v + 1] {
                    slots[v].tout = t;
                    stack.pop();
                    continue;
                }
                stack.last_mut().expect("just read").1 += 1;
                let c = child[pos as usize] as usize;
                let up = slots[v].root & (BLOCKED | FORWARDS);
                let blocked = if up == FORWARDS { 0 } else { BLOCKED };
                (slots[c].root, slots[c].tin) = (r as u32 | blocked | forwards(c), t);
                t += 1;
                stack.push((c, child_off[c]));
            }
        }

        let k = k as usize;
        let mut prev_link = vec![NONE; k * k];
        let threads = threads.clamp(1, k.max(1));
        if k > 0 {
            let core: Vec<NodeId> =
                (0..n as u32).map(NodeId).filter(|v| slots[v.index()].k().is_some()).collect();
            let rows_per = k.div_ceil(threads);
            let (core, slots) = (&core, &slots);
            std::thread::scope(|s| {
                let mut workers = Vec::with_capacity(threads);
                for (chunk_idx, rows) in prev_link.chunks_mut(rows_per * k).enumerate() {
                    let first_src = chunk_idx * rows_per;
                    workers.push(s.spawn(move || {
                        let mut dist = vec![f64::INFINITY; k];
                        let mut heap = BinaryHeap::new();
                        for (row_idx, row) in rows.chunks_mut(k).enumerate() {
                            let src = core[first_src + row_idx];
                            dijkstra_row(topo, slots, src, row, &mut dist, &mut heap);
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
        RouteTable { k, prev_link, slots, parent, child_off, child }
    }

    /// Bytes held by the table (rows, per-node slots and the child index).
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.prev_link[..])
            + std::mem::size_of_val(&self.slots[..])
            + std::mem::size_of_val(&self.parent[..])
            + std::mem::size_of_val(&self.child_off[..])
            + std::mem::size_of_val(&self.child[..])
    }

    /// The child of `x` on the way down to `v` (`x` a proper ancestor of
    /// `v`): parent steps up from `v` when `x` is near, else a binary
    /// search over `x`'s children by entry time.
    #[inline]
    fn child_toward(&self, x: usize, v: usize) -> usize {
        let mut c = v;
        for _ in 0..SHALLOW {
            match self.parent[c] as usize {
                p if p == x => return c,
                p => c = p,
            }
        }
        let kids = &self.child[self.child_off[x] as usize..self.child_off[x + 1] as usize];
        let t = self.slots[v].tin;
        kids[kids.partition_point(|&c| self.slots[c as usize].tin <= t) - 1] as usize
    }

    /// Whether every node strictly inside `v`'s side of the tree path
    /// `v → w` forwards: from `v`'s parent up to their lowest common
    /// ancestor, which counts unless it is `w`. Cost: that side's length.
    fn relays(&self, v: usize, w: usize) -> bool {
        let t = self.slots[w].tin;
        if self.slots[v].holds(t) {
            return true;
        }
        let mut a = self.parent[v] as usize;
        while !self.slots[a].holds(t) {
            if self.slots[a].root & FORWARDS == 0 {
                return false;
            }
            a = self.parent[a] as usize;
        }
        a == w || self.slots[a].root & FORWARDS != 0
    }

    /// The row a route `src → dst` (`src ≠ dst`) walks through K — empty
    /// when both ends hang in one tree — or `None` when there is no route.
    /// A node the table has never seen is routed to nothing.
    #[inline]
    fn route(&self, src: NodeId, dst: NodeId) -> Option<&[u32]> {
        let (rs, rd) = (self.slots.get(src.index())?.root, self.slots.get(dst.index())?.root);
        // One tree and every ancestor forwards: every synth platform's case.
        if (rs ^ rd) & ID == 0 && (rs | rd) & BLOCKED == 0 {
            return Some(&[]);
        }
        self.route_across(src.index(), dst.index(), rs, rd)
    }

    /// [`route`](Self::route) for ends in two trees, or where a
    /// non-forwarding ancestor may cut the path; `rs` and `rd` are their
    /// slots' `root` words.
    #[inline(never)]
    fn route_across(&self, s: usize, d: usize, rs: u32, rd: u32) -> Option<&[u32]> {
        if (rs ^ rd) & ID == 0 {
            let clear = |r: u32, v, w| r & BLOCKED == 0 || self.relays(v, w);
            return (clear(rs, s, d) && clear(rd, d, s)).then_some(&[][..]);
        }
        if (rs | rd) & BLOCKED != 0 {
            return None;
        }
        let (ks, kd) = (self.slots[(rs & ID) as usize].k()?, self.slots[(rd & ID) as usize].k()?);
        let row = &self.prev_link[ks * self.k..(ks + 1) * self.k];
        (row[kd] != NONE).then_some(row)
    }

    /// Whether a physical route exists (ignores firewall rules).
    #[cfg(test)]
    pub(crate) fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.route(src, dst).is_some()
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
        let row = self.route(src, dst)?;
        Some(self.hop_into(row, src, dst))
    }

    /// The last link of the route `src → cur` (`cur ≠ src`, reachable),
    /// given the row the route walks. Above `src` in its own tree the route
    /// comes up from the child toward `src`; elsewhere a node of K is
    /// entered over its row's link and a tree node from its parent.
    #[inline]
    fn hop_into(&self, row: &[u32], src: NodeId, cur: NodeId) -> LinkId {
        let c = &self.slots[cur.index()];
        let raw = if c.holds(self.slots[src.index()].tin) {
            self.slots[self.child_toward(cur.index(), src.index())].up
        } else {
            c.k().map_or(c.up, |k| row[k])
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
            self.route(src, dst).ok_or(NetError::Unreachable { src, dst })?
        };
        Ok(HopsRev { topo, table: self, row, src, cur: dst })
    }

    /// One-way latency and minimum directed capacity of the route, in one
    /// allocation-free walk (the control-message delivery hot path).
    pub(crate) fn latency_and_bottleneck(
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

/// One K source's Dijkstra tree over K, written into its flat row of the
/// table (tree nodes never relay between K nodes and are skipped). `dist`
/// and `heap` are caller-owned scratch reused across rows.
fn dijkstra_row(
    topo: &Topology,
    slots: &[Slot],
    src: NodeId,
    row: &mut [u32],
    dist: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
) {
    let k_of = |v: NodeId| slots[v.index()].k();
    dist.fill(f64::INFINITY);
    heap.clear();
    dist[k_of(src).expect("rows belong to K")] = 0.0;
    heap.push(HeapEntry { dist: Dist(0.0), node: src });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d.0 > dist[k_of(u).expect("only K is queued")] {
            continue;
        }
        // Traffic may only be relayed through forwarding nodes.
        if u != src && !topo.node(u).forwards {
            continue;
        }
        for &(link_id, v) in topo.neighbours(u) {
            let link = topo.link(link_id);
            // A tree node relays nothing between nodes of K.
            let Some(kv) = k_of(v).filter(|_| link.up) else { continue };
            let nd = d.0 + link.weight_from(u);
            if nd < dist[kv] {
                dist[kv] = nd;
                row[kv] = link_id.raw();
                heap.push(HeapEntry { dist: Dist(nd), node: v });
            }
        }
    }
}

/// Tree distance up to which parent steps find the child toward a node
/// faster than a binary search over the children.
const SHALLOW: usize = 16;

/// Allocation-free reverse walk of one route (see [`RouteTable::hops_rev`]).
pub struct HopsRev<'a> {
    topo: &'a Topology,
    table: &'a RouteTable,
    /// The K row of the source's root, if the route crosses K.
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

    impl Path {
        /// Intermediate layer-3 hops (routers and forwarding hosts), excluding
        /// the endpoints — the nodes a traceroute would reveal.
        fn l3_hops(&self, topo: &Topology) -> Vec<NodeId> {
            self.nodes[1..self.nodes.len().saturating_sub(1)]
                .iter()
                .copied()
                .filter(|n| topo.node(*n).is_l3_hop())
                .collect()
        }

        pub(crate) fn hop_count(&self) -> usize {
            self.links.len()
        }
    }

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
