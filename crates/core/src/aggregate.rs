//! Completeness machinery (constraint 3 of paper §2.3).
//!
//! "Given two machines, if no direct measurement is conducted on their
//! connectivity, the system must be able to aggregate the conducted
//! experiments to estimate the network characteristics of their
//! interconnection. ... Latency between A and C can then be roughly
//! estimated by adding the latencies measured on AB and on BC. The minimum
//! of the bandwidths on AB and BC can be used to estimate the one on AC."
//!
//! Two mechanisms compose here:
//!
//! * **representative substitution** — on a shared network the measured
//!   pair stands in for any pair (the capability §6 laments NWS lacks:
//!   "NWS is then unable to substitute automatically the characteristics
//!   of the tested pair when another pair is asked");
//! * **segment aggregation** — paths crossing several effective networks
//!   combine per-segment values: latencies add, bandwidths take the min.

use envmap::EnvView;
use nws::SeriesKey;

use crate::compiled::CompiledView;
use crate::plan::DeploymentPlan;

/// Where measured values come from (a live NWS system, or a table in
/// tests/benches).
pub trait MeasurementSource {
    /// Latest value for a series, if any measurement exists.
    fn latest(&self, key: &SeriesKey) -> Option<f64>;
}

/// A static map of measurements.
#[derive(Debug, Default)]
pub struct StaticSource(pub std::collections::BTreeMap<SeriesKey, f64>);

impl StaticSource {
    #[cfg(test)]
    pub(crate) fn set(&mut self, key: SeriesKey, value: f64) {
        self.0.insert(key, value);
    }
}

impl MeasurementSource for StaticSource {
    fn latest(&self, key: &SeriesKey) -> Option<f64> {
        self.0.get(key).copied()
    }
}

/// A deployed NWS system answers with the most recent stored measurement.
impl MeasurementSource for nws::NwsSystem {
    fn latest(&self, key: &SeriesKey) -> Option<f64> {
        self.series(key).and_then(|points| points.last().map(|(_, v)| *v))
    }
}

/// Whether every segment of an estimate came from live measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// All segments backed by NWS series.
    Measured,
    /// At least one segment fell back to ENV's static mapping values.
    PartiallyStatic,
}

/// An end-to-end estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    pub bandwidth_mbps: f64,
    /// Summed path latency; `None` when a static segment had no latency.
    pub latency_ms: Option<f64>,
    /// Human-readable segment chain, for diagnostics.
    pub segments: Vec<String>,
    pub freshness: Freshness,
}

/// Estimator over a plan and the effective view it came from.
///
/// A thin façade over the interned `CompiledView` engine: `new` compiles
/// the view/plan pair once (interned host ids, flattened ancestry, clique
/// bitsets), and `estimate` runs on dense ids. The original string-walking
/// implementation survives unchanged as `naive::NaiveEstimator`, the
/// differential-test oracle (compiled for tests only).
pub struct Estimator<'a> {
    compiled: CompiledView<'a>,
}

impl<'a> Estimator<'a> {
    pub fn new(view: &'a EnvView, plan: &'a DeploymentPlan) -> Self {
        Estimator { compiled: CompiledView::new(view, plan) }
    }

    /// Estimate connectivity from `src` to `dst`.
    ///
    /// Returns `None` only when the pair cannot be located in the view at
    /// all (unknown hosts).
    pub fn estimate(
        &self,
        src: &str,
        dst: &str,
        source: &dyn MeasurementSource,
    ) -> Option<Estimate> {
        // A name the view/plan never mentions cannot be clique-measured,
        // the master, or located — exactly the naive `None` cases.
        let s = self.compiled.host_id(src)?;
        let d = self.compiled.host_id(dst)?;
        self.compiled.estimate_ids(s, d, source)
    }
}

/// The pre-interning estimator, kept verbatim as the differential-test
/// oracle (the engine pattern of PR 1's `max_min_allocate` and PR 3's
/// `forecast::naive`): `Estimator` must agree with it bit-for-bit.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;
    use envmap::{EnvNet, NetKind};
    use nws::Resource;

    /// One aggregation segment.
    #[derive(Debug, Clone)]
    enum Segment {
        /// a↔b within the named network (substitution applies).
        Within { net: String, a: String, b: String },
        /// a↔b across the inter-network clique.
        Inter { a: String, b: String },
        /// Static fallback: ENV's base bandwidth for the named network.
        StaticNet { net: String },
    }

    /// String-walking estimator over a plan and its effective view.
    pub struct NaiveEstimator<'a> {
        view: &'a EnvView,
        plan: &'a DeploymentPlan,
    }

    impl<'a> NaiveEstimator<'a> {
        pub(crate) fn new(view: &'a EnvView, plan: &'a DeploymentPlan) -> Self {
            NaiveEstimator { view, plan }
        }

        /// Estimate connectivity from `src` to `dst`.
        ///
        /// Returns `None` only when the pair cannot be located in the view
        /// at all (unknown hosts).
        pub(crate) fn estimate(
            &self,
            src: &str,
            dst: &str,
            source: &dyn MeasurementSource,
        ) -> Option<Estimate> {
            if src == dst {
                return None;
            }

            // Directly measured by some clique? Use the fresh values.
            if self.plan.clique_measuring(src, dst).is_some() {
                return Some(self.finish(
                    vec![Segment::Inter { a: src.to_string(), b: dst.to_string() }],
                    source,
                ));
            }

            let master = &self.view.master;
            if src == master || dst == master {
                let other = if src == master { dst } else { src };
                return self.estimate_from_master(other, source);
            }

            let chain_src = self.ancestry(src)?;
            let chain_dst = self.ancestry(dst)?;

            let mut segments = Vec::new();

            // Deepest common network in the two ancestries.
            let common_depth = chain_src
                .iter()
                .zip(chain_dst.iter())
                .take_while(|(a, b)| a.label == b.label)
                .count();

            if common_depth > 0 {
                // Same top-level subtree: climb both sides to the common net.
                let common = chain_src[common_depth - 1];
                let up = self.climb(src, &chain_src[common_depth - 1..], &mut segments);
                let mut down_segs = Vec::new();
                let down = self.climb(dst, &chain_dst[common_depth - 1..], &mut down_segs);
                if up != down {
                    segments.push(Segment::Within { net: common.label.clone(), a: up, b: down });
                }
                segments.extend(down_segs.into_iter().rev());
            } else {
                // Different top-level networks: go through the inter clique.
                let top_src = chain_src[0];
                let top_dst = chain_dst[0];
                let rep_src = self.top_rep(top_src);
                let rep_dst = self.top_rep(top_dst);
                let up = self.climb(src, &chain_src, &mut segments);
                if up != rep_src {
                    segments.push(Segment::Within {
                        net: top_src.label.clone(),
                        a: up,
                        b: rep_src.clone(),
                    });
                }
                segments.push(Segment::Inter { a: rep_src, b: rep_dst.clone() });
                let mut down_segs = Vec::new();
                let down = self.climb(dst, &chain_dst, &mut down_segs);
                if down != rep_dst {
                    down_segs.push(Segment::Within {
                        net: top_dst.label.clone(),
                        a: rep_dst,
                        b: down,
                    });
                }
                segments.extend(down_segs.into_iter().rev());
            }

            Some(self.finish(segments, source))
        }

        /// Master-to-host estimates: ENV measured master↔network bandwidth
        /// during the mapping (`base_bw`), so the leaf network's base value
        /// bounds the whole path — a static estimate unless the master was
        /// planned into the inter clique.
        fn estimate_from_master(
            &self,
            other: &str,
            source: &dyn MeasurementSource,
        ) -> Option<Estimate> {
            let chain = self.ancestry(other)?;
            let leaf = *chain.last().expect("ancestry is non-empty");

            // Fresh path when the master is in the inter clique: master↔top
            // rep is measured, the rest aggregates as usual.
            let master = self.view.master.clone();
            let top = chain[0];
            let rep = self.top_rep(top);
            if self.plan.clique_measuring(&master, &rep).is_some() {
                let mut segments = vec![Segment::Inter { a: master, b: rep.clone() }];
                let mut down_segs = Vec::new();
                let down = self.climb(other, &chain, &mut down_segs);
                if down != rep {
                    down_segs.push(Segment::Within { net: top.label.clone(), a: rep, b: down });
                }
                segments.extend(down_segs.into_iter().rev());
                return Some(self.finish(segments, source));
            }

            Some(self.finish(vec![Segment::StaticNet { net: leaf.label.clone() }], source))
        }

        /// Ancestry of the network containing `host`: root-level network
        /// first, leaf network last.
        fn ancestry(&self, host: &str) -> Option<Vec<&'a EnvNet>> {
            fn rec<'b>(net: &'b EnvNet, host: &str, path: &mut Vec<&'b EnvNet>) -> bool {
                path.push(net);
                if net.hosts.iter().any(|h| h == host) {
                    return true;
                }
                for c in &net.children {
                    if rec(c, host, path) {
                        return true;
                    }
                }
                path.pop();
                false
            }
            for net in &self.view.networks {
                let mut path = Vec::new();
                if rec(net, host, &mut path) {
                    return Some(path);
                }
            }
            None
        }

        /// Climb from `host` in the leaf of `chain` up to the first network of
        /// `chain`, emitting within-segments; returns the host reached in the
        /// first network of the chain (a gateway or `host` itself).
        fn climb(&self, host: &str, chain: &[&EnvNet], segments: &mut Vec<Segment>) -> String {
            let mut cur = host.to_string();
            // Walk leaf→up; chain is top→leaf, so iterate in reverse, stopping
            // before the first element.
            for i in (1..chain.len()).rev() {
                let net = chain[i];
                let gw = net
                    .via
                    .clone()
                    .unwrap_or_else(|| net.hosts.first().cloned().unwrap_or_else(|| cur.clone()));
                if cur != gw {
                    segments.push(Segment::Within {
                        net: net.label.clone(),
                        a: cur.clone(),
                        b: gw.clone(),
                    });
                }
                cur = gw;
            }
            cur
        }

        /// The inter-clique representative of a top-level network.
        fn top_rep(&self, net: &EnvNet) -> String {
            if let Some(inter) = self.plan.cliques.iter().find(|c| c.name == "inter-top") {
                if let Some(rep) = inter.members.iter().find(|m| net.hosts.contains(m)) {
                    return rep.clone();
                }
            }
            net.hosts.first().cloned().unwrap_or_else(|| self.view.master.clone())
        }

        /// Resolve the segment chain to numbers.
        fn finish(&self, segments: Vec<Segment>, source: &dyn MeasurementSource) -> Estimate {
            let mut bw = f64::INFINITY;
            let mut lat = Some(0.0f64);
            let mut fresh = Freshness::Measured;
            let mut descs = Vec::with_capacity(segments.len());

            for seg in &segments {
                match seg {
                    Segment::Within { net, a, b } => {
                        let (pa, pb, substituted) = self.substitute(net, a, b);
                        let b_bw = self.pair_value(Resource::Bandwidth, &pa, &pb, source);
                        let b_lat = self.pair_value(Resource::Latency, &pa, &pb, source);
                        match b_bw {
                            Some(v) => bw = bw.min(v),
                            None => {
                                // Static fallback for an unmeasured network.
                                if let Some(n) = find_net(&self.view.networks, net) {
                                    bw = bw.min(n.local_bw_mbps.unwrap_or(n.base_bw_mbps));
                                }
                                fresh = Freshness::PartiallyStatic;
                            }
                        }
                        match b_lat {
                            Some(v) => {
                                if let Some(l) = lat.as_mut() {
                                    *l += v;
                                }
                            }
                            None => lat = None,
                        }
                        let sub = if substituted { " (representative)" } else { "" };
                        descs.push(format!("{a}→{b} within {net}{sub}"));
                    }
                    Segment::Inter { a, b } => {
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
                        descs.push(format!("{a}→{b} (direct)"));
                    }
                    Segment::StaticNet { net } => {
                        if let Some(n) = find_net(&self.view.networks, net) {
                            bw = bw.min(n.base_bw_mbps);
                        }
                        lat = None;
                        fresh = Freshness::PartiallyStatic;
                        descs.push(format!("ENV base bandwidth of {net} (static)"));
                    }
                }
            }

            if !bw.is_finite() {
                bw = 0.0;
                fresh = Freshness::PartiallyStatic;
            }
            Estimate { bandwidth_mbps: bw, latency_ms: lat, segments: descs, freshness: fresh }
        }

        /// Apply representative substitution on a shared network when the pair
        /// itself is not measured.
        fn substitute(&self, net_label: &str, a: &str, b: &str) -> (String, String, bool) {
            if self.plan.clique_measuring(a, b).is_some() {
                return (a.to_string(), b.to_string(), false);
            }
            let net = find_net(&self.view.networks, net_label);
            if let Some(net) = net {
                if matches!(net.kind, NetKind::Shared) {
                    if let Some((r1, r2)) = self.plan.representatives.get(net_label) {
                        return (r1.clone(), r2.clone(), true);
                    }
                }
            }
            (a.to_string(), b.to_string(), false)
        }

        /// Measured value for a pair, trying both directions (NWS measures
        /// both over a clique round; early in a run only one may exist).
        fn pair_value(
            &self,
            resource: Resource,
            a: &str,
            b: &str,
            source: &dyn MeasurementSource,
        ) -> Option<f64> {
            source
                .latest(&SeriesKey::link(resource, a, b))
                .or_else(|| source.latest(&SeriesKey::link(resource, b, a)))
        }
    }

    fn find_net<'b>(nets: &'b [EnvNet], label: &str) -> Option<&'b EnvNet> {
        for n in nets {
            if n.label == label {
                return Some(n);
            }
            if let Some(f) = find_net(&n.children, label) {
                return Some(f);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CliqueRole, PlannedClique};
    use envmap::{EnvNet, NetKind};
    use netsim::time::TimeDelta;
    use nws::Resource;
    use std::collections::BTreeMap;

    /// Hand-built two-hub view resembling Figure 1(b):
    /// hub1 {a, b}; hub2 {g1, g2} with switched child sw {s1, s2, s3} via g1.
    fn view() -> EnvView {
        EnvView {
            master: "master".to_string(),
            networks: vec![
                EnvNet {
                    label: "hub1".to_string(),
                    kind: NetKind::Shared,
                    hosts: vec!["a".to_string(), "b".to_string()],
                    via: None,
                    router_path: vec![],
                    base_bw_mbps: 100.0,
                    local_bw_mbps: Some(100.0),
                    jam_ratio: Some(0.5),
                    children: vec![],
                },
                EnvNet {
                    label: "hub2".to_string(),
                    kind: NetKind::Shared,
                    hosts: vec!["g1".to_string(), "g2".to_string(), "g3".to_string()],
                    via: None,
                    router_path: vec![],
                    base_bw_mbps: 10.0,
                    local_bw_mbps: Some(10.0),
                    jam_ratio: Some(0.5),
                    children: vec![EnvNet {
                        label: "sw".to_string(),
                        kind: NetKind::Switched,
                        hosts: vec!["s1".to_string(), "s2".to_string(), "s3".to_string()],
                        via: Some("g1".to_string()),
                        router_path: vec![],
                        base_bw_mbps: 10.0,
                        local_bw_mbps: Some(100.0),
                        jam_ratio: Some(1.0),
                        children: vec![],
                    }],
                },
            ],
        }
    }

    fn plan() -> DeploymentPlan {
        DeploymentPlan {
            master: "master".to_string(),
            cliques: vec![
                PlannedClique {
                    name: "local-hub1".into(),
                    members: vec!["a".into(), "b".into()],
                    role: CliqueRole::SharedLocal,
                    network: Some("hub1".into()),
                },
                PlannedClique {
                    name: "local-hub2".into(),
                    members: vec!["g1".into(), "g2".into()],
                    role: CliqueRole::SharedLocal,
                    network: Some("hub2".into()),
                },
                PlannedClique {
                    name: "local-sw".into(),
                    members: vec!["g1".into(), "s1".into(), "s2".into(), "s3".into()],
                    role: CliqueRole::SwitchedLocal,
                    network: Some("sw".into()),
                },
                PlannedClique {
                    name: "inter-top".into(),
                    members: vec!["a".into(), "g1".into()],
                    role: CliqueRole::Inter,
                    network: None,
                },
            ],
            nameserver: "master".into(),
            memories: vec!["master".into()],
            forecaster: "master".into(),
            representatives: BTreeMap::from([
                ("hub1".to_string(), ("a".to_string(), "b".to_string())),
                ("hub2".to_string(), ("g1".to_string(), "g2".to_string())),
            ]),
            gap: TimeDelta::from_millis(500.0),
            hosts: vec![
                "a".into(),
                "b".into(),
                "g1".into(),
                "g2".into(),
                "g3".into(),
                "s1".into(),
                "s2".into(),
                "s3".into(),
            ],
            memory_of: BTreeMap::new(),
            wal_compact_kib: crate::plan::DEFAULT_WAL_COMPACT_KIB,
        }
    }

    /// Measurements as a live run would have produced them.
    fn source() -> StaticSource {
        let mut s = StaticSource::default();
        let mut set = |a: &str, b: &str, bw: f64, lat: f64| {
            s.set(SeriesKey::link(Resource::Bandwidth, a, b), bw);
            s.set(SeriesKey::link(Resource::Latency, a, b), lat);
        };
        set("a", "b", 100.0, 0.2); // hub1 representative pair
        set("g1", "g2", 10.0, 0.4); // hub2 representative pair
        set("a", "g1", 9.5, 1.0); // inter clique
        for x in ["s1", "s2", "s3"] {
            set("g1", x, 95.0, 0.3); // switch clique pairs
        }
        set("s1", "s2", 96.0, 0.3);
        set("s1", "s3", 97.0, 0.3);
        set("s2", "s3", 94.0, 0.3);
        s
    }

    #[test]
    fn direct_pair_uses_measurement() {
        let (v, p, s) = (view(), plan(), source());
        let est = Estimator::new(&v, &p).estimate("s1", "s2", &s).unwrap();
        assert_eq!(est.bandwidth_mbps, 96.0);
        assert_eq!(est.latency_ms, Some(0.3));
        assert_eq!(est.freshness, Freshness::Measured);
        assert_eq!(est.segments.len(), 1);
    }

    #[test]
    fn representative_substitution_on_shared_net() {
        // g3 ↔ s1: the hub2 segment g3→g1 is NOT directly measured (the
        // clique holds g1 and g2 only), so the representative pair's
        // values stand in; then the switch segment g1→s1 is direct.
        let (v, p, s) = (view(), plan(), source());
        let est = Estimator::new(&v, &p).estimate("g3", "s1", &s).unwrap();
        // min(10 on hub2, 95 on switch) = 10; latencies add: 0.4 + 0.3.
        assert_eq!(est.bandwidth_mbps, 10.0);
        assert!((est.latency_ms.unwrap() - 0.7).abs() < 1e-9);
        assert_eq!(est.freshness, Freshness::Measured);
        assert!(est.segments.iter().any(|d| d.contains("representative")));
    }

    #[test]
    fn cross_tree_aggregation_latency_adds_bandwidth_mins() {
        // b (hub1) → s2 (switch under hub2):
        //   b→a within hub1 (representative 100, 0.2)
        //   a→g1 inter (9.5, 1.0)
        //   g1→s2 within switch (95, 0.3)
        let (v, p, s) = (view(), plan(), source());
        let est = Estimator::new(&v, &p).estimate("b", "s2", &s).unwrap();
        assert_eq!(est.bandwidth_mbps, 9.5);
        assert!((est.latency_ms.unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(est.freshness, Freshness::Measured);
        assert_eq!(est.segments.len(), 3, "{:?}", est.segments);
    }

    #[test]
    fn master_estimate_is_static_without_inter_membership() {
        let (v, p, s) = (view(), plan(), source());
        let est = Estimator::new(&v, &p).estimate("master", "s3", &s).unwrap();
        // ENV's base bandwidth of the leaf network (10 Mbps), static.
        assert_eq!(est.bandwidth_mbps, 10.0);
        assert_eq!(est.latency_ms, None);
        assert_eq!(est.freshness, Freshness::PartiallyStatic);
    }

    #[test]
    fn master_estimate_fresh_when_in_inter_clique() {
        let v = view();
        let mut p = plan();
        // Add the master to the inter clique (planner option).
        p.cliques.iter_mut().find(|c| c.name == "inter-top").unwrap().members.push("master".into());
        let mut s = source();
        s.set(SeriesKey::link(Resource::Bandwidth, "master", "g1"), 9.0);
        s.set(SeriesKey::link(Resource::Latency, "master", "g1"), 0.9);
        let est = Estimator::new(&v, &p).estimate("master", "s3", &s).unwrap();
        assert_eq!(est.bandwidth_mbps, 9.0);
        assert_eq!(est.freshness, Freshness::Measured);
        assert!((est.latency_ms.unwrap() - 1.2).abs() < 1e-9);
    }

    /// Sibling subtrees under one parent: s1 (switch via g1) to a host of
    /// a second child network (hub via g2) must chain switch → hub2 → hub.
    #[test]
    fn sibling_subtrees_aggregate_through_common_parent() {
        let mut v = view();
        // Add a second child network under hub2, via g2.
        v.networks[1].children.push(EnvNet {
            label: "hubX".to_string(),
            kind: NetKind::Shared,
            hosts: vec!["x1".to_string(), "x2".to_string()],
            via: Some("g2".to_string()),
            router_path: vec![],
            base_bw_mbps: 10.0,
            local_bw_mbps: Some(50.0),
            jam_ratio: Some(0.5),
            children: vec![],
        });
        let mut p = plan();
        p.cliques.push(crate::plan::PlannedClique {
            name: "local-hubX".into(),
            members: vec!["x1".into(), "x2".into()],
            role: CliqueRole::SharedLocal,
            network: Some("hubX".into()),
        });
        p.representatives.insert("hubX".to_string(), ("x1".to_string(), "x2".to_string()));
        p.hosts.push("x1".into());
        p.hosts.push("x2".into());
        let mut s = source();
        s.set(SeriesKey::link(Resource::Bandwidth, "x1", "x2"), 50.0);
        s.set(SeriesKey::link(Resource::Latency, "x1", "x2"), 0.5);

        let est = Estimator::new(&v, &p).estimate("s2", "x1", &s).unwrap();
        // Chain: s2→g1 within sw (95), g1→g2 within hub2 (10), g2→x1
        // within hubX (substituted by x1/x2 pair, 50). Min = 10.
        assert_eq!(est.bandwidth_mbps, 10.0);
        assert_eq!(est.segments.len(), 3, "{:?}", est.segments);
        assert!((est.latency_ms.unwrap() - (0.3 + 0.4 + 0.5)).abs() < 1e-9);
        assert_eq!(est.freshness, Freshness::Measured);
    }

    #[test]
    fn both_directions_of_series_are_tried() {
        let (v, p, mut s) = (view(), plan(), source());
        // Remove a→b, keep only b→a.
        s.0.remove(&SeriesKey::link(Resource::Bandwidth, "a", "b"));
        s.set(SeriesKey::link(Resource::Bandwidth, "b", "a"), 99.0);
        let est = Estimator::new(&v, &p).estimate("b", "s2", &s).unwrap();
        assert_eq!(est.bandwidth_mbps, 9.5, "still bounded by the inter link");
        assert!(est.segments[0].contains("within hub1"));
    }

    #[test]
    fn unknown_host_is_none_and_self_is_none() {
        let (v, p, s) = (view(), plan(), source());
        let e = Estimator::new(&v, &p);
        assert!(e.estimate("nope", "s1", &s).is_none());
        assert!(e.estimate("s1", "s1", &s).is_none());
    }

    #[test]
    fn compiled_estimator_matches_naive_on_fixture() {
        // The interned engine must agree with the string-walking oracle on
        // every ordered pair — values, segment text and freshness included.
        let (mut v, p, s) = (view(), plan(), source());
        v.networks[1].children.push(EnvNet {
            label: "hubX".to_string(),
            kind: NetKind::Shared,
            hosts: vec!["x1".to_string(), "x2".to_string()],
            via: Some("g2".to_string()),
            router_path: vec![],
            base_bw_mbps: 10.0,
            local_bw_mbps: Some(50.0),
            jam_ratio: Some(0.5),
            children: vec![],
        });
        let fast = Estimator::new(&v, &p);
        let slow = naive::NaiveEstimator::new(&v, &p);
        let mut hosts: Vec<String> = p.hosts.clone();
        hosts.extend(["master".to_string(), "x1".to_string(), "nope".to_string()]);
        for a in &hosts {
            for b in &hosts {
                assert_eq!(fast.estimate(a, b, &s), slow.estimate(a, b, &s), "{a} → {b}");
            }
        }
        // And against an empty source (all-static fallbacks).
        let empty = StaticSource::default();
        for a in &hosts {
            for b in &hosts {
                assert_eq!(fast.estimate(a, b, &empty), slow.estimate(a, b, &empty), "{a} → {b}");
            }
        }
    }

    #[test]
    fn compiled_estimator_matches_naive_on_duplicate_labels() {
        // Degenerate but reachable: two sibling nets sharing a label (the
        // mapper labels clusters by gateway name, so two clusters behind
        // one gateway collide). The oracle's common-ancestor rule compares
        // labels positionally, treating the two as common — the compiled
        // engine must reproduce that, not identity-LCA semantics.
        let mut v = view();
        for host in ["x1", "x2"] {
            v.networks[1].children.push(EnvNet {
                label: "dup".to_string(),
                kind: NetKind::Shared,
                hosts: vec![host.to_string()],
                via: Some("g2".to_string()),
                router_path: vec![],
                base_bw_mbps: 10.0,
                local_bw_mbps: Some(50.0),
                jam_ratio: Some(0.5),
                children: vec![],
            });
        }
        let (p, s) = (plan(), source());
        let fast = Estimator::new(&v, &p);
        let slow = naive::NaiveEstimator::new(&v, &p);
        for (a, b) in [("x1", "x2"), ("x2", "x1"), ("x1", "s1"), ("a", "x2")] {
            assert_eq!(fast.estimate(a, b, &s), slow.estimate(a, b, &s), "{a} → {b}");
        }
    }

    #[test]
    fn missing_measurements_fall_back_to_static_env_values() {
        let (v, p) = (view(), plan());
        let empty = StaticSource::default();
        let est = Estimator::new(&v, &p).estimate("b", "s2", &empty).unwrap();
        assert_eq!(est.freshness, Freshness::PartiallyStatic);
        // Static chain: hub1 local (100) / inter (none → skip) / sw local (100)
        // bounded by hub1/sw statics.
        assert!(est.bandwidth_mbps <= 100.0);
        assert!(est.latency_ms.is_none());
    }
}
