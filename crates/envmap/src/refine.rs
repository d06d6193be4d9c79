//! Master-dependent cluster refinement (paper §4.2.2).
//!
//! Four successive experiments refine the structural clusters:
//!
//! 1. **Host-to-host bandwidth** — measure master↔host alone; split
//!    clusters whose members' rates differ by more than the 3× threshold.
//! 2. **Pairwise host bandwidth** — master→A and master→B concurrently;
//!    if A's rate is not reduced by at least the 1.25× threshold, A is
//!    independent of B. Connected components of the dependence relation
//!    become the new clusters.
//! 3. **Internal host bandwidth** — member↔member rates (the local rate
//!    can exceed the master rate when a bottleneck sits in front of the
//!    cluster, like the paper's popc example).
//! 4. **Jammed bandwidth** — master→A while B↔C runs inside the cluster,
//!    repeated 5 times; the average jammed/base ratio classifies the
//!    cluster as shared (< 0.7), switched (> 0.9) or undetermined.

use netsim::prelude::*;
use netsim::Engine;

use crate::mapper::{EnvConfig, ProbeStats};
use crate::net::NetKind;

/// A host under refinement: its input name and resolved node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefHost {
    pub name: String,
    pub node: NodeId,
}

/// Payload of a single bandwidth experiment.
pub(crate) const PROBE_BYTES: Bytes = Bytes::kib(512);
/// The jamming transfer is this many times larger than the probe so it
/// spans the whole measurement.
pub(crate) const JAM_FLOW_FACTOR: u64 = 4;
/// Pause between experiments ("the network needs to stabilize between
/// each experiments", §4.3), in milliseconds.
pub(crate) const SETTLE_MS: f64 = 10.0;
/// Number of jammed-bandwidth repetitions (paper: 5).
pub const JAM_REPEATS: usize = 5;

/// A refined cluster with its measurements.
#[derive(Debug, Clone)]
pub struct RefinedCluster {
    pub hosts: Vec<RefHost>,
    pub kind: NetKind,
    /// Median master↔member bandwidth (Mbps).
    pub base_bw_mbps: f64,
    /// Median member↔member bandwidth (Mbps), when measured.
    pub local_bw_mbps: Option<f64>,
    /// Average jammed/base ratio, when the jam experiment ran.
    pub jam_ratio: Option<f64>,
    /// Whether the pairwise experiment found the members mutually
    /// dependent (used to classify 2-host clusters).
    pub pairwise_dependent: bool,
}

fn median(values: &mut [f64]) -> f64 {
    // A probe that completes with zero elapsed time yields a non-finite
    // bandwidth (inf, or NaN for an empty transfer); such samples carry no
    // information and must not poison the median — and `partial_cmp` on a
    // NaN would panic the whole mapping run.
    let mut n = 0;
    for i in 0..values.len() {
        if values[i].is_finite() {
            values.swap(n, i);
            n += 1;
        }
    }
    let values = &mut values[..n];
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub(crate) fn settle<M>(eng: &mut Engine<M>) {
    let t = eng.now() + TimeDelta::from_millis(SETTLE_MS);
    eng.run_until(t);
}

/// Refine one structural cluster into one or more classified clusters.
///
/// `master` must not be a member of `hosts`.
pub(crate) fn refine_cluster<M>(
    eng: &mut Engine<M>,
    master: NodeId,
    hosts: &[RefHost],
    config: &EnvConfig,
    stats: &mut ProbeStats,
) -> Vec<RefinedCluster> {
    // ---- phase 1: host-to-host bandwidth --------------------------------
    let mut rated: Vec<(RefHost, f64)> = Vec::with_capacity(hosts.len());
    for h in hosts {
        settle(eng);
        match eng.measure_bandwidth(master, h.node, PROBE_BYTES) {
            Ok(bw) => {
                stats.bw_probes += 1;
                // A zero-elapsed probe reports a non-finite rate; treat it
                // like an unmeasurable host rather than letting it poison
                // the ratio arithmetic below.
                let mbps = bw.as_mbps();
                rated.push((h.clone(), if mbps.is_finite() { mbps } else { 0.0 }));
            }
            Err(_) => {
                // Unreachable from the master (e.g. firewalled): the host
                // cannot be refined from this vantage point; it surfaces as
                // an unreachable singleton so the caller can report it.
                rated.push((h.clone(), 0.0));
            }
        }
    }

    // Split by the 3× ratio on the sorted rates (adjacent-ratio chaining:
    // a gap larger than the threshold starts a new group).
    rated.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.name.cmp(&b.0.name)));
    let mut groups: Vec<Vec<(RefHost, f64)>> = Vec::new();
    for (h, bw) in rated {
        match groups.last_mut() {
            Some(g) => {
                let prev = g.last().expect("groups are non-empty").1;
                if bw <= 0.0 || prev / bw.max(f64::MIN_POSITIVE) > config.thresholds.h2h_split_ratio
                {
                    groups.push(vec![(h, bw)]);
                } else {
                    g.push((h, bw));
                }
            }
            None => groups.push(vec![(h, bw)]),
        }
    }

    // ---- phases 2–4 per bandwidth group ----------------------------------
    let mut out = Vec::new();
    for group in groups {
        out.extend(refine_group(eng, master, group, config, stats));
    }
    out
}

/// Phases 2–4 on a bandwidth-homogeneous group.
fn refine_group<M>(
    eng: &mut Engine<M>,
    master: NodeId,
    group: Vec<(RefHost, f64)>,
    config: &EnvConfig,
    stats: &mut ProbeStats,
) -> Vec<RefinedCluster> {
    let k = group.len();
    if k == 1 {
        let (h, bw) = group.into_iter().next().expect("k == 1");
        return vec![RefinedCluster {
            hosts: vec![h],
            kind: NetKind::Single,
            base_bw_mbps: bw,
            local_bw_mbps: None,
            jam_ratio: None,
            pairwise_dependent: false,
        }];
    }

    // ---- phase 2: pairwise host bandwidth --------------------------------
    // dependence graph → connected components
    let mut dependent = vec![vec![false; k]; k];
    for i in 0..k {
        for j in (i + 1)..k {
            settle(eng);
            let results = eng.measure_bandwidth_concurrent(
                &[(master, group[i].0.node), (master, group[j].0.node)],
                PROBE_BYTES,
            );
            stats.concurrent_experiments += 1;
            let paired_i = results[0].as_ref().map(|b| b.as_mbps()).unwrap_or(0.0);
            let paired_j = results[1].as_ref().map(|b| b.as_mbps()).unwrap_or(0.0);
            let ratio_i = if paired_i > 0.0 { group[i].1 / paired_i } else { f64::INFINITY };
            let ratio_j = if paired_j > 0.0 { group[j].1 / paired_j } else { f64::INFINITY };
            // A and B interfere when either transfer slowed by ≥ the
            // threshold (the paper states the rule for A; interference is
            // symmetric under the fluid model).
            let dep = ratio_i >= config.thresholds.pairwise_dependent_ratio
                || ratio_j >= config.thresholds.pairwise_dependent_ratio;
            dependent[i][j] = dep;
            dependent[j][i] = dep;
        }
    }
    let components = connected_components(&dependent);

    let mut out = Vec::new();
    for comp in components {
        let members: Vec<(RefHost, f64)> = comp.iter().map(|&i| group[i].clone()).collect();
        out.push(classify_component(eng, master, members, config, stats));
    }
    out
}

/// Phases 3 and 4 on a pairwise-connected component.
fn classify_component<M>(
    eng: &mut Engine<M>,
    master: NodeId,
    mut members: Vec<(RefHost, f64)>,
    config: &EnvConfig,
    stats: &mut ProbeStats,
) -> RefinedCluster {
    members.sort_by(|a, b| a.0.name.cmp(&b.0.name));
    let k = members.len();
    let mut base: Vec<f64> = members.iter().map(|(_, bw)| *bw).collect();
    let base_bw = median(&mut base);

    if k == 1 {
        return RefinedCluster {
            hosts: members.into_iter().map(|(h, _)| h).collect(),
            kind: NetKind::Single,
            base_bw_mbps: base_bw,
            local_bw_mbps: None,
            jam_ratio: None,
            pairwise_dependent: false,
        };
    }

    // ---- phase 3: internal host bandwidth --------------------------------
    // One pair schedule for both the serial and batched paths; unroutable
    // pairs simply error at measure time, in either path.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..k {
        for j in (i + 1)..k {
            pairs.push((members[i].0.node, members[j].0.node));
        }
    }
    let mut locals = Vec::new();
    if config.batch_probes {
        for bw in crate::batch::measure_pairs_batched(eng, &pairs).into_iter().flatten() {
            stats.bw_probes += 1;
            locals.push(bw.as_mbps());
        }
    } else {
        for (a, b) in pairs {
            settle(eng);
            if let Ok(bw) = eng.measure_bandwidth(a, b, PROBE_BYTES) {
                stats.bw_probes += 1;
                locals.push(bw.as_mbps());
            }
        }
    }
    let local_bw = if locals.is_empty() { None } else { Some(median(&mut locals)) };

    // ---- phase 4: jammed bandwidth ---------------------------------------
    let (kind, jam_ratio) = if k >= 3 {
        let mut ratios = Vec::with_capacity(JAM_REPEATS);
        for r in 0..JAM_REPEATS {
            // Rotate target and jam pair deterministically.
            let a = r % k;
            let b = (a + 1) % k;
            let c = (a + 2) % k;
            settle(eng);
            // Launch the jam transfer first (sized to outlast the probe),
            // then measure the master→A bandwidth while it runs — "the
            // bandwidth to the master is measured while a transfer between
            // two other hosts of that cluster occurs" (§4.2.2.4).
            let jam_bytes = Bytes::new(PROBE_BYTES.as_u64() * JAM_FLOW_FACTOR);
            let jam = eng.start_probe_flow(members[b].0.node, members[c].0.node, jam_bytes).ok();
            let probed = eng.measure_bandwidth(master, members[a].0.node, PROBE_BYTES);
            stats.concurrent_experiments += 1;
            if let Some(jam) = jam {
                // Let the jam transfer drain before the next experiment.
                let _ = eng.run_until_flows_done(&[jam], TimeDelta::from_secs(3600.0));
            }
            if let Ok(bw) = probed {
                let b0 = members[a].1;
                let jammed = bw.as_mbps();
                // Same guard as phase 1: a zero-elapsed probe reports a
                // non-finite rate, which would make the average — and the
                // ENV_jam_ratio the GridML writer emits — NaN/inf, a value
                // the parser now rightly rejects on round-trip.
                if b0 > 0.0 && jammed.is_finite() {
                    ratios.push(jammed / b0);
                }
            }
        }
        if ratios.is_empty() {
            (NetKind::Undetermined, None)
        } else {
            let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let kind = if avg < config.thresholds.jam_shared_below {
                NetKind::Shared
            } else if avg > config.thresholds.jam_switched_above {
                NetKind::Switched
            } else {
                NetKind::Undetermined
            };
            (kind, Some(avg))
        }
    } else {
        // 2-host cluster: the jam experiment needs a third host. The
        // pairwise dependence already told us the two transfers share a
        // medium; for deployment purposes both classifications yield the
        // same 2-host clique, and Figure 1(b) labels such clusters as hubs.
        (NetKind::Shared, None)
    };

    RefinedCluster {
        hosts: members.into_iter().map(|(h, _)| h).collect(),
        kind,
        base_bw_mbps: base_bw,
        local_bw_mbps: local_bw,
        jam_ratio,
        pairwise_dependent: true,
    }
}

/// Connected components of an undirected boolean adjacency matrix.
fn connected_components(adj: &[Vec<bool>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut comps = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![start];
        let mut comp = Vec::new();
        seen[start] = true;
        while let Some(u) = stack.pop() {
            comp.push(u);
            for (v, &is_adj) in adj[u].iter().enumerate() {
                if is_adj && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::scenarios::{star_hub, star_switch};
    use netsim::Sim;

    fn hosts_of(net: &netsim::scenarios::GeneratedNet, skip_master: bool) -> Vec<RefHost> {
        net.hosts
            .iter()
            .filter(|n| !skip_master || **n != net.master)
            .map(|n| RefHost { name: format!("h{}", n.index()), node: *n })
            .collect()
    }

    #[test]
    fn hub_cluster_is_shared() {
        let net = star_hub(5, Bandwidth::mbps(100.0));
        let mut eng = Sim::new(net.topo.clone());
        let hosts = hosts_of(&net, true);
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, net.master, &hosts, &EnvConfig::fast(), &mut stats);
        assert_eq!(refined.len(), 1, "hub must stay one cluster");
        assert_eq!(refined[0].kind, NetKind::Shared);
        assert!(refined[0].jam_ratio.unwrap() < 0.7);
        assert!((refined[0].base_bw_mbps - 100.0).abs() < 5.0);
        assert!(stats.bw_probes > 0 && stats.concurrent_experiments > 0);
    }

    #[test]
    fn switch_cluster_is_switched_and_stays_together() {
        let net = star_switch(5, Bandwidth::mbps(100.0));
        let mut eng = Sim::new(net.topo.clone());
        let hosts = hosts_of(&net, true);
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, net.master, &hosts, &EnvConfig::fast(), &mut stats);
        // The master's own port makes pairwise transfers interfere, which
        // keeps the cluster together; the jam test then reveals the switch.
        assert_eq!(refined.len(), 1, "switch must stay one cluster");
        assert_eq!(refined[0].kind, NetKind::Switched);
        assert!(refined[0].jam_ratio.unwrap() > 0.9);
    }

    #[test]
    fn mixed_rates_split_by_h2h_threshold() {
        // Build a switch where two hosts sit behind 10 Mbps ports: ratio
        // 10 > 3 ⇒ split into two clusters.
        let mut b = TopologyBuilder::new();
        let sw = b.switch("sw", Bandwidth::mbps(100.0), Latency::micros(20.0));
        let master = b.host("m.x", "10.0.0.250");
        b.attach(master, sw);
        let mut fast = Vec::new();
        for i in 0..2 {
            let h = b.host(&format!("fast{i}.x"), &format!("10.0.1.{}", i + 1));
            b.attach(h, sw);
            fast.push(h);
        }
        let mut slow = Vec::new();
        for i in 0..2 {
            let h = b.host(&format!("slow{i}.x"), &format!("10.0.2.{}", i + 1));
            b.attach_with_capacity(h, sw, Bandwidth::mbps(10.0));
            slow.push(h);
        }
        let mut eng = Sim::new(b.build().unwrap());
        let hosts: Vec<RefHost> = fast
            .iter()
            .enumerate()
            .map(|(i, n)| RefHost { name: format!("fast{i}.x"), node: *n })
            .chain(
                slow.iter()
                    .enumerate()
                    .map(|(i, n)| RefHost { name: format!("slow{i}.x"), node: *n }),
            )
            .collect();
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, master, &hosts, &EnvConfig::fast(), &mut stats);
        let names: Vec<Vec<&str>> =
            refined.iter().map(|c| c.hosts.iter().map(|h| h.name.as_str()).collect()).collect();
        // The h2h threshold separates fast from slow; the fast pair stays
        // together (they share the master's port). The slow pair is then
        // split again by the pairwise test: behind independent 10 Mbps
        // ports their transfers coexist without interference (both fit in
        // the master's 100 Mbps port), so ENV correctly declares them
        // independent.
        assert_eq!(refined.len(), 3, "{names:?}");
        assert!(names.contains(&vec!["fast0.x", "fast1.x"]));
        assert!(names.contains(&vec!["slow0.x"]));
        assert!(names.contains(&vec!["slow1.x"]));
    }

    #[test]
    fn independent_hosts_split_by_pairwise_test() {
        // Master with two separate point-to-point links to two hosts:
        // transfers don't interfere ⇒ independent ⇒ separate clusters.
        let mut b = TopologyBuilder::new();
        let m = b.host("m.x", "10.0.0.1");
        b.set_forwards(m, false);
        let a = b.host("a.x", "10.0.0.2");
        let c = b.host("c.x", "10.0.0.3");
        b.link(m, a, Bandwidth::mbps(100.0), Latency::micros(50.0));
        b.link(m, c, Bandwidth::mbps(100.0), Latency::micros(50.0));
        let mut eng = Sim::new(b.build().unwrap());
        let hosts =
            vec![RefHost { name: "a.x".into(), node: a }, RefHost { name: "c.x".into(), node: c }];
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, m, &hosts, &EnvConfig::fast(), &mut stats);
        assert_eq!(refined.len(), 2);
        assert!(refined.iter().all(|c| c.kind == NetKind::Single));
    }

    #[test]
    fn two_host_cluster_classified_shared() {
        let net = star_hub(3, Bandwidth::mbps(100.0));
        let mut eng = Sim::new(net.topo.clone());
        let hosts = hosts_of(&net, true);
        assert_eq!(hosts.len(), 2);
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, net.master, &hosts, &EnvConfig::fast(), &mut stats);
        assert_eq!(refined.len(), 1);
        assert_eq!(refined[0].kind, NetKind::Shared);
        assert_eq!(refined[0].jam_ratio, None);
        assert!(refined[0].pairwise_dependent);
    }

    #[test]
    fn internal_bandwidth_is_measured() {
        let net = star_hub(4, Bandwidth::mbps(100.0));
        let mut eng = Sim::new(net.topo.clone());
        let hosts = hosts_of(&net, true);
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, net.master, &hosts, &EnvConfig::fast(), &mut stats);
        let local = refined[0].local_bw_mbps.unwrap();
        assert!((local - 100.0).abs() < 5.0, "local = {local}");
    }

    #[test]
    fn empty_cluster_refines_to_nothing() {
        let net = star_hub(2, Bandwidth::mbps(100.0));
        let mut eng = Sim::new(net.topo.clone());
        let mut stats = ProbeStats::default();
        let refined = refine_cluster(&mut eng, net.master, &[], &EnvConfig::fast(), &mut stats);
        assert!(refined.is_empty());
    }

    #[test]
    fn median_filters_non_finite_samples() {
        // Regression: a NaN (0-byte probe over 0 elapsed) used to panic the
        // `partial_cmp(..).expect(..)` sort; inf used to drag the median.
        let mut v = [f64::NAN, 10.0, f64::INFINITY, 30.0, 20.0, f64::NEG_INFINITY];
        assert_eq!(median(&mut v), 20.0);
        let mut v = [f64::NAN, f64::INFINITY];
        assert_eq!(median(&mut v), 0.0, "no finite sample → 0, not a panic");
        let mut v = [4.0, 2.0];
        assert_eq!(median(&mut v), 3.0);
        let mut v: [f64; 0] = [];
        assert_eq!(median(&mut v), 0.0);
    }

    #[test]
    fn batched_refinement_matches_serial() {
        for net in [star_switch(6, Bandwidth::mbps(100.0)), star_hub(5, Bandwidth::mbps(100.0))] {
            let hosts = hosts_of(&net, true);
            let mut stats_s = ProbeStats::default();
            let mut eng = Sim::new(net.topo.clone());
            let serial =
                refine_cluster(&mut eng, net.master, &hosts, &EnvConfig::fast(), &mut stats_s);

            let p = EnvConfig::fast_batched();
            let mut stats_b = ProbeStats::default();
            let mut eng = Sim::new(net.topo.clone());
            let batched = refine_cluster(&mut eng, net.master, &hosts, &p, &mut stats_b);

            assert_eq!(serial.len(), batched.len());
            for (s, b) in serial.iter().zip(&batched) {
                assert_eq!(s.hosts, b.hosts);
                assert_eq!(s.kind, b.kind);
                assert!((s.base_bw_mbps - b.base_bw_mbps).abs() < 1e-9);
                match (s.local_bw_mbps, b.local_bw_mbps) {
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{x} vs {y}"),
                    (x, y) => assert_eq!(x, y),
                }
            }
            // Same number of samples taken either way.
            assert_eq!(stats_s.bw_probes, stats_b.bw_probes);
        }
    }

    #[test]
    fn components_helper() {
        let adj =
            vec![vec![false, true, false], vec![true, false, false], vec![false, false, false]];
        let comps = connected_components(&adj);
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
    }
}
