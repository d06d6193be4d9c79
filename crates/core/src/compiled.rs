//! The interned estimation engine: a [`CompiledView`] turns an
//! [`EnvView`] + [`DeploymentPlan`] pair into dense tables so that
//! estimation queries run on integer ids instead of `String` comparisons
//! and `Vec::contains` scans.
//!
//! This is the third instance of the repo's engine pattern (after the
//! fairness engine of PR 1 and the forecaster engine of PR 3): the fast
//! interned implementation lives here, the original string-walking
//! implementation survives as `crate::aggregate::naive::NaiveEstimator`,
//! compiled for tests only, and serves as the differential-test oracle.
//!
//! What gets precomputed, once per (view, plan):
//!
//! * a host-name interner over every name the estimator can ever see
//!   (view members, the master, plan hosts, clique members, gateway `via`
//!   names, representative pairs) → dense [`HostId`]s;
//! * the flattened effective-network forest in pre-order (the order the
//!   naive ancestry search resolves membership in) with parent, depth and
//!   subtree-root links → dense net ids, making ancestry chains a
//!   pointer walk instead of a recursive `hosts.contains` scan;
//! * per-net gateway (`via`), first-member, representative-substitution
//!   pair and static-fallback bandwidths (resolved through the same
//!   first-pre-order-label lookup `find_net` used);
//! * per-top-net inter-clique representative;
//! * per-host clique-membership bitsets, so "is this pair directly
//!   measured by some clique?" is a word-AND instead of a scan over every
//!   clique's member list.

use std::collections::HashMap;

use envmap::{EnvView, NetKind};
use nws::{Resource, SeriesKey};

use crate::aggregate::{Estimate, Freshness, MeasurementSource};
use crate::plan::DeploymentPlan;

/// Dense id of an interned host name (index into `CompiledView::names`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct HostId(pub(crate) u32);

/// Sentinel for "no net" / "no host" in the dense tables.
const NONE: u32 = u32::MAX;

/// One compiled effective network.
#[derive(Debug)]
struct CNet<'a> {
    label: &'a str,
    /// Parent net, `NONE` for top-level.
    parent: u32,
    /// Root of this net's subtree (== own id for top-level nets).
    top: u32,
    depth: u32,
    /// The gateway member of the parent this net is reached through.
    via: u32,
    /// First member listed, the fallback gateway when `via` is absent.
    first_host: u32,
    /// Representative-substitution pair, present iff the first net in
    /// pre-order with this label is `Shared` and the plan records a pair —
    /// exactly the condition the naive `substitute` + `find_net` resolve.
    rep: Option<(u32, u32)>,
    /// Static fallback for an unmeasured within-segment:
    /// `local_bw_mbps.unwrap_or(base_bw_mbps)` of the label-resolved net.
    fallback_bw: f64,
    /// `base_bw_mbps` of the label-resolved net (master-path static).
    static_bw: f64,
    /// Inter-clique representative (meaningful for top-level nets only).
    top_rep: u32,
}

/// The interned view/plan pair. Borrows both; build once, query many.
pub(crate) struct CompiledView<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
    master: u32,
    nets: Vec<CNet<'a>>,
    /// Leaf net directly containing each host: the *first* net in
    /// pre-order listing it as a member (the naive ancestry rule), `NONE`
    /// when the host appears in no network.
    net_of: Vec<u32>,
    /// Per-host clique-membership bitsets, `clique_words` words per host.
    clique_bits: Vec<u64>,
    clique_words: usize,
}

impl<'a> CompiledView<'a> {
    /// Compile a view/plan pair. Every table is pre-sized from the
    /// flattened forest and the plan, so interning never rehashes.
    pub(crate) fn new(view: &'a EnvView, plan: &'a DeploymentPlan) -> Self {
        let flat = view.flatten();
        // Upper bound on distinct names: master + every member and `via`
        // of every net + everything the plan names. Duplicates only make
        // the tables slightly oversized, never undersized.
        let name_cap = 1
            + flat.iter().map(|f| f.net.hosts.len() + 1).sum::<usize>()
            + plan.hosts.len()
            + 1
            + plan.cliques.iter().map(|cl| cl.members.len()).sum::<usize>();
        let mut c = CompiledView {
            names: Vec::with_capacity(name_cap),
            index: HashMap::with_capacity(name_cap),
            master: 0,
            nets: Vec::with_capacity(flat.len()),
            net_of: Vec::with_capacity(name_cap),
            clique_bits: Vec::new(),
            clique_words: 0,
        };
        c.master = c.intern(&view.master);

        let mut label_to_net: HashMap<&'a str, u32> = HashMap::with_capacity(flat.len());
        for (i, f) in flat.iter().enumerate() {
            let id = i as u32;
            let parent = f.parent.map(|p| p as u32).unwrap_or(NONE);
            let top = if parent == NONE { id } else { c.nets[parent as usize].top };
            let via = f.net.via.as_deref().map(|v| c.intern(v)).unwrap_or(NONE);
            let mut first_host = NONE;
            for h in &f.net.hosts {
                let hid = c.intern(h);
                if first_host == NONE {
                    first_host = hid;
                }
                if c.net_of[hid as usize] == NONE {
                    c.net_of[hid as usize] = id;
                }
            }
            label_to_net.entry(f.net.label.as_str()).or_insert(id);
            c.nets.push(CNet {
                label: f.net.label.as_str(),
                parent,
                top,
                depth: f.depth as u32,
                via,
                first_host,
                rep: None,
                fallback_bw: 0.0,
                static_bw: 0.0,
                top_rep: NONE,
            });
        }

        // Label-resolved fields: the naive path looks nets up globally by
        // label (`find_net`), first pre-order match winning, so every net
        // reads its substitution pair and static fallbacks through the
        // first net sharing its label (itself, unless labels collide).
        for i in 0..c.nets.len() {
            let label = c.nets[i].label;
            let label_net = label_to_net[label] as usize;
            let env = flat[label_net].net;
            let rep = if matches!(env.kind, NetKind::Shared) {
                plan.representatives.get(label).map(|(r1, r2)| {
                    let a = c.intern(r1);
                    let b = c.intern(r2);
                    (a, b)
                })
            } else {
                None
            };
            let n = &mut c.nets[i];
            n.fallback_bw = env.local_bw_mbps.unwrap_or(env.base_bw_mbps);
            n.static_bw = env.base_bw_mbps;
            n.rep = rep;
        }

        // Inter-clique representative of each top-level network: the first
        // inter-clique member (in ring order) directly listed among the
        // net's hosts, else the first member, else the master. That is the
        // listed host of lowest ring position; every listed host is
        // interned above, so the lookup mints no id.
        let mut ring_pos: HashMap<&str, usize> = HashMap::new();
        if let Some(inter) = plan.cliques.iter().find(|cl| cl.name == "inter-top") {
            for (pos, m) in inter.members.iter().enumerate() {
                ring_pos.entry(m.as_str()).or_insert(pos);
            }
        }
        for (i, f) in flat.iter().enumerate() {
            if c.nets[i].parent != NONE {
                continue;
            }
            let from_inter = f
                .net
                .hosts
                .iter()
                .filter_map(|h| ring_pos.get(h.as_str()).map(|&pos| (pos, h)))
                .min()
                .map(|(_, h)| c.intern(h));
            let fallback =
                if c.nets[i].first_host != NONE { c.nets[i].first_host } else { c.master };
            c.nets[i].top_rep = from_inter.unwrap_or(fallback);
        }

        // Intern everything the plan names, then freeze the name space and
        // build the clique-membership bitsets.
        for h in &plan.hosts {
            c.intern(h);
        }
        c.intern(&plan.master);
        for clique in &plan.cliques {
            for m in &clique.members {
                c.intern(m);
            }
        }
        c.clique_words = plan.cliques.len().div_ceil(64);
        c.clique_bits = vec![0u64; c.names.len() * c.clique_words];
        for (ci, clique) in plan.cliques.iter().enumerate() {
            for m in &clique.members {
                let hid = c.index[m.as_str()] as usize;
                c.clique_bits[hid * c.clique_words + ci / 64] |= 1u64 << (ci % 64);
            }
        }

        c
    }

    fn intern(&mut self, name: &'a str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name);
        self.index.insert(name, id);
        self.net_of.push(NONE);
        id
    }

    /// Resolve a host name, if the view or plan ever mentions it.
    pub(crate) fn host_id(&self, name: &str) -> Option<HostId> {
        self.index.get(name).map(|&i| HostId(i))
    }

    pub(crate) fn master_id(&self) -> HostId {
        HostId(self.master)
    }

    /// Whether the view locates this host (member of some effective net).
    pub(crate) fn is_located(&self, h: HostId) -> bool {
        self.net_of[h.0 as usize] != NONE
    }

    /// Whether some clique measures the ordered pair directly — the word-AND
    /// replacement for `DeploymentPlan::clique_measuring(..).is_some()`.
    pub(crate) fn cliques_intersect(&self, a: HostId, b: HostId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        let wa = &self.clique_bits[a * self.clique_words..(a + 1) * self.clique_words];
        let wb = &self.clique_bits[b * self.clique_words..(b + 1) * self.clique_words];
        wa.iter().zip(wb).any(|(x, y)| x & y != 0)
    }

    /// Estimate connectivity from `src` to `dst` — the interned port of the
    /// naive estimator; returns bit-identical [`Estimate`]s.
    ///
    /// `None` only for `src == dst`, or when an endpoint other than the
    /// master is unlocated and no clique measures the pair: a located host
    /// climbs to its top-level net through gateways that default to the
    /// first member, tops join through inter-clique representatives that
    /// default the same way, and every segment resolves to a measured value
    /// or a static fallback. `validate_plan_with_routes` relies on this.
    pub(crate) fn estimate_ids(
        &self,
        src: HostId,
        dst: HostId,
        source: &dyn MeasurementSource,
    ) -> Option<Estimate> {
        if src == dst {
            return None;
        }
        if self.cliques_intersect(src, dst) {
            return Some(self.finish(&[Seg::Inter { a: src.0, b: dst.0 }], source));
        }
        if src.0 == self.master || dst.0 == self.master {
            let other = if src.0 == self.master { dst } else { src };
            return self.estimate_from_master(other.0, source);
        }

        let ls = self.net_of[src.0 as usize];
        let ld = self.net_of[dst.0 as usize];
        if ls == NONE || ld == NONE {
            return None;
        }

        // Root-first ancestry chains, compared positionally *by label* —
        // the oracle's common-ancestor rule (two distinct nets sharing a
        // label at the same depth count as common, however degenerate).
        let chain_s = self.chain(ls);
        let chain_d = self.chain(ld);
        let common_depth = chain_s
            .iter()
            .zip(chain_d.iter())
            .take_while(|(&a, &b)| self.nets[a as usize].label == self.nets[b as usize].label)
            .count();

        let mut segs = Vec::new();
        if common_depth > 0 {
            // Same top-level subtree: climb both sides to the common net
            // (each along its own chain — they differ only when labels
            // collide, in which case the segment carries the src side's).
            let stop_s = chain_s[common_depth - 1];
            let stop_d = chain_d[common_depth - 1];
            let up = self.climb(src.0, ls, stop_s, &mut segs);
            let mut down_segs = Vec::new();
            let down = self.climb(dst.0, ld, stop_d, &mut down_segs);
            if up != down {
                segs.push(Seg::Within { net: stop_s, a: up, b: down });
            }
            segs.extend(down_segs.into_iter().rev());
        } else {
            // Different top-level networks: go through the inter clique.
            let ts = chain_s[0];
            let td = chain_d[0];
            let rep_s = self.nets[ts as usize].top_rep;
            let rep_d = self.nets[td as usize].top_rep;
            let up = self.climb(src.0, ls, ts, &mut segs);
            if up != rep_s {
                segs.push(Seg::Within { net: ts, a: up, b: rep_s });
            }
            segs.push(Seg::Inter { a: rep_s, b: rep_d });
            let mut down_segs = Vec::new();
            let down = self.climb(dst.0, ld, td, &mut down_segs);
            if down != rep_d {
                down_segs.push(Seg::Within { net: td, a: rep_d, b: down });
            }
            segs.extend(down_segs.into_iter().rev());
        }
        Some(self.finish(&segs, source))
    }

    /// Master-to-host estimates (see the naive `estimate_from_master`).
    fn estimate_from_master(&self, other: u32, source: &dyn MeasurementSource) -> Option<Estimate> {
        let leaf = self.net_of[other as usize];
        if leaf == NONE {
            return None;
        }
        let top = self.nets[leaf as usize].top;
        let rep = self.nets[top as usize].top_rep;
        if self.cliques_intersect(HostId(self.master), HostId(rep)) {
            let mut segs = vec![Seg::Inter { a: self.master, b: rep }];
            let mut down_segs = Vec::new();
            let down = self.climb(other, leaf, top, &mut down_segs);
            if down != rep {
                down_segs.push(Seg::Within { net: top, a: rep, b: down });
            }
            segs.extend(down_segs.into_iter().rev());
            return Some(self.finish(&segs, source));
        }
        Some(self.finish(&[Seg::StaticNet { net: leaf }], source))
    }

    /// Root-first ancestry chain of a net (root at index 0, `leaf` last).
    fn chain(&self, leaf: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.nets[leaf as usize].depth as usize + 1);
        let mut n = leaf;
        while n != NONE {
            out.push(n);
            n = self.nets[n as usize].parent;
        }
        out.reverse();
        out
    }

    /// Climb from `host` in `leaf` up to (exclusive) `stop`, emitting
    /// within-segments; returns the host reached in `stop` (a gateway or
    /// `host` itself).
    fn climb(&self, host: u32, leaf: u32, stop: u32, segs: &mut Vec<Seg>) -> u32 {
        let mut cur = host;
        let mut n = leaf;
        while n != stop {
            let net = &self.nets[n as usize];
            let gw = if net.via != NONE {
                net.via
            } else if net.first_host != NONE {
                net.first_host
            } else {
                cur
            };
            if cur != gw {
                segs.push(Seg::Within { net: n, a: cur, b: gw });
            }
            cur = gw;
            n = net.parent;
        }
        cur
    }

    /// Apply representative substitution on a shared network when the pair
    /// itself is not measured.
    fn substitute(&self, net: u32, a: u32, b: u32) -> (u32, u32, bool) {
        if self.cliques_intersect(HostId(a), HostId(b)) {
            return (a, b, false);
        }
        if let Some((r1, r2)) = self.nets[net as usize].rep {
            return (r1, r2, true);
        }
        (a, b, false)
    }

    /// Measured value for a pair, trying both directions.
    fn pair_value(
        &self,
        resource: Resource,
        a: u32,
        b: u32,
        source: &dyn MeasurementSource,
    ) -> Option<f64> {
        let (a, b) = (self.names[a as usize], self.names[b as usize]);
        source
            .latest(&SeriesKey::link(resource, a, b))
            .or_else(|| source.latest(&SeriesKey::link(resource, b, a)))
    }

    /// Resolve the segment chain to numbers (mirror of the naive `finish`).
    fn finish(&self, segs: &[Seg], source: &dyn MeasurementSource) -> Estimate {
        let mut bw = f64::INFINITY;
        let mut lat = Some(0.0f64);
        let mut fresh = Freshness::Measured;
        let mut descs = Vec::with_capacity(segs.len());

        for seg in segs {
            match *seg {
                Seg::Within { net, a, b } => {
                    let (pa, pb, substituted) = self.substitute(net, a, b);
                    match self.pair_value(Resource::Bandwidth, pa, pb, source) {
                        Some(v) => bw = bw.min(v),
                        None => {
                            bw = bw.min(self.nets[net as usize].fallback_bw);
                            fresh = Freshness::PartiallyStatic;
                        }
                    }
                    match self.pair_value(Resource::Latency, pa, pb, source) {
                        Some(v) => {
                            if let Some(l) = lat.as_mut() {
                                *l += v;
                            }
                        }
                        None => lat = None,
                    }
                    let sub = if substituted { " (representative)" } else { "" };
                    descs.push(format!(
                        "{}→{} within {}{sub}",
                        self.names[a as usize],
                        self.names[b as usize],
                        self.nets[net as usize].label
                    ));
                }
                Seg::Inter { a, b } => {
                    match self.pair_value(Resource::Bandwidth, a, b, source) {
                        Some(v) => bw = bw.min(v),
                        None => fresh = Freshness::PartiallyStatic,
                    }
                    match self.pair_value(Resource::Latency, a, b, source) {
                        Some(v) => {
                            if let Some(l) = lat.as_mut() {
                                *l += v;
                            }
                        }
                        None => lat = None,
                    }
                    descs.push(format!(
                        "{}→{} (direct)",
                        self.names[a as usize], self.names[b as usize]
                    ));
                }
                Seg::StaticNet { net } => {
                    bw = bw.min(self.nets[net as usize].static_bw);
                    lat = None;
                    fresh = Freshness::PartiallyStatic;
                    descs.push(format!(
                        "ENV base bandwidth of {} (static)",
                        self.nets[net as usize].label
                    ));
                }
            }
        }

        if !bw.is_finite() {
            bw = 0.0;
            fresh = Freshness::PartiallyStatic;
        }
        Estimate { bandwidth_mbps: bw, latency_ms: lat, segments: descs, freshness: fresh }
    }
}

/// One aggregation segment over dense ids.
#[derive(Debug, Clone, Copy)]
enum Seg {
    /// a↔b within the net (substitution applies).
    Within { net: u32, a: u32, b: u32 },
    /// a↔b across the inter-network clique.
    Inter { a: u32, b: u32 },
    /// Static fallback: ENV's base bandwidth for the net.
    StaticNet { net: u32 },
}
