//! Scoring mapper output against ground-truth cluster labels.
//!
//! The synthetic scenario families (`netsim::synth`) emit the effective
//! cluster partition a correct ENV run should discover. This module turns a
//! mapped [`EnvView`] and such a partition into a single agreement figure:
//! the fraction of unordered host pairs on which the two partitions agree
//! about "same cluster or not" (the Rand index). Membership agreement is
//! the right target — cluster *kind* is scored separately by the paper's
//! own threshold tests, and a master-dependent view can legitimately
//! classify a remote medium differently than its nameplate.

use std::collections::BTreeMap;

use crate::net::{EnvNet, EnvView};

/// Label every view cluster with a dense id via DFS: host → cluster id.
fn view_labels(view: &EnvView) -> BTreeMap<&str, usize> {
    fn walk<'a>(net: &'a EnvNet, next: &mut usize, out: &mut BTreeMap<&'a str, usize>) {
        let id = *next;
        *next += 1;
        for h in &net.hosts {
            out.insert(h.as_str(), id);
        }
        for c in &net.children {
            walk(c, next, out);
        }
    }
    let mut out = BTreeMap::new();
    let mut next = 0usize;
    for n in &view.networks {
        walk(n, &mut next, &mut out);
    }
    out
}

/// Pairwise cluster-label agreement (Rand index) between `view` and the
/// ground-truth partition `truth`, over the union of truth members minus
/// `exclude` (pass the master — it is part of the structural tree but never
/// of a refined cluster). Hosts the view failed to place count as
/// singletons. Returns 1.0 when fewer than two hosts are scorable.
///
/// Computed by contingency-table counting in O(n log n + cells) — cells is
/// at most min(n, C_truth · C_view) — instead of enumerating all O(n²)
/// host pairs: with `a_i` the truth cluster sizes, `b_j` the view cluster
/// sizes and `n_ij` the contingency counts, the number of *disagreeing*
/// pairs is `Σ C(a_i,2) + Σ C(b_j,2) − 2 Σ C(n_ij,2)`. All counts are
/// exact integers, so the result is bit-identical to the pairwise
/// enumeration (kept as `cluster_agreement_naive`, the test-only
/// differential oracle) — the pipeline fingerprints embed the formatted
/// agreement, and those must not move.
///
/// With many small truth clusters almost all pairs are cross-cluster, so
/// the raw Rand index saturates near 1.0 and barely penalises
/// *fragmentation* (a mapper reporting every host as a singleton still
/// scores ~`1 − 1/clusters`). Always gate it together with
/// [`intact_fraction`], which is exactly the split detector.
pub fn cluster_agreement(view: &EnvView, truth: &[Vec<String>], exclude: &[&str]) -> f64 {
    let view_label = view_labels(view);

    // The scorable universe: (truth label, view label) per host, with
    // unplaced hosts given unique singleton view labels distinct from
    // every real cluster id.
    let mut unplaced = view_label.values().copied().max().map_or(0, |m| m + 1);
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (t, cluster) in truth.iter().enumerate() {
        for h in cluster {
            if !exclude.contains(&h.as_str()) {
                let v = view_label.get(h.as_str()).copied().unwrap_or_else(|| {
                    unplaced += 1;
                    unplaced
                });
                cells.push((t, v));
            }
        }
    }
    let n = cells.len();
    if n < 2 {
        return 1.0;
    }

    let c2 = |k: usize| k * k.saturating_sub(1) / 2;

    // Same-truth pairs: truth labels arrive grouped (cells are pushed per
    // truth cluster), so one pass counts the a_i.
    let mut same_truth = 0usize;
    let mut run = 0usize;
    for i in 0..n {
        run += 1;
        if i + 1 == n || cells[i + 1].0 != cells[i].0 {
            same_truth += c2(run);
            run = 0;
        }
    }

    // Same-view and same-both pairs: sort by (view, truth) and count runs.
    cells.sort_unstable_by_key(|&(t, v)| (v, t));
    let mut same_view = 0usize;
    let mut same_both = 0usize;
    let (mut vrun, mut brun) = (0usize, 0usize);
    for i in 0..n {
        vrun += 1;
        brun += 1;
        if i + 1 == n || cells[i + 1].1 != cells[i].1 {
            same_view += c2(vrun);
            vrun = 0;
        }
        if i + 1 == n || cells[i + 1] != cells[i] {
            same_both += c2(brun);
            brun = 0;
        }
    }

    let total = c2(n);
    let agree = total - (same_truth + same_view - 2 * same_both);
    agree as f64 / total as f64
}

/// The pre-contingency pairwise enumeration of [`cluster_agreement`] —
/// O(n²), kept as the differential oracle (the repo's naive-vs-engine
/// pattern).
#[cfg(test)]
fn cluster_agreement_naive(view: &EnvView, truth: &[Vec<String>], exclude: &[&str]) -> f64 {
    let view_label = view_labels(view);

    // The scorable universe, with its truth label.
    let mut hosts: Vec<(&str, usize)> = Vec::new();
    for (t, cluster) in truth.iter().enumerate() {
        for h in cluster {
            if !exclude.contains(&h.as_str()) {
                hosts.push((h.as_str(), t));
            }
        }
    }
    if hosts.len() < 2 {
        return 1.0;
    }

    // Unplaced hosts become unique singleton labels, distinct from every
    // real cluster id.
    let mut unplaced = view_label.values().copied().max().map_or(0, |m| m + 1);
    let predicted: Vec<usize> = hosts
        .iter()
        .map(|(h, _)| {
            view_label.get(h).copied().unwrap_or_else(|| {
                unplaced += 1;
                unplaced
            })
        })
        .collect();

    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            let same_truth = hosts[i].1 == hosts[j].1;
            let same_view = predicted[i] == predicted[j];
            agree += usize::from(same_truth == same_view);
            total += 1;
        }
    }
    agree as f64 / total as f64
}

/// Fraction of ground-truth clusters (with ≥ 2 scorable members after
/// `exclude`) whose members all land in one view cluster — the direct
/// fragmentation detector [`cluster_agreement`] is blind to at scale.
/// Merging two truth clusters leaves both "intact"; that failure mode is
/// what the pairwise Rand index *does* punish, so gate on both. Returns
/// 1.0 when no truth cluster is scorable.
pub fn intact_fraction(view: &EnvView, truth: &[Vec<String>], exclude: &[&str]) -> f64 {
    let view_label = view_labels(view);
    let mut scorable = 0usize;
    let mut intact = 0usize;
    for cluster in truth {
        let members: Vec<&str> =
            cluster.iter().map(String::as_str).filter(|h| !exclude.contains(h)).collect();
        if members.len() < 2 {
            continue;
        }
        scorable += 1;
        let first = view_label.get(members[0]);
        if first.is_some() && members[1..].iter().all(|h| view_label.get(h) == first) {
            intact += 1;
        }
    }
    if scorable == 0 {
        return 1.0;
    }
    intact as f64 / scorable as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetKind;

    fn net(label: &str, hosts: &[&str]) -> EnvNet {
        EnvNet {
            label: label.to_string(),
            kind: NetKind::Shared,
            hosts: hosts.iter().map(|s| s.to_string()).collect(),
            via: None,
            router_path: vec![],
            base_bw_mbps: 100.0,
            local_bw_mbps: None,
            jam_ratio: None,
            children: vec![],
        }
    }

    fn truth(clusters: &[&[&str]]) -> Vec<Vec<String>> {
        clusters.iter().map(|c| c.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn perfect_match_scores_one() {
        let view = EnvView {
            master: "m".into(),
            networks: vec![net("a", &["a1", "a2"]), net("b", &["b1", "b2", "b3"])],
        };
        let t = truth(&[&["a1", "a2"], &["b1", "b2", "b3"]]);
        assert_eq!(cluster_agreement(&view, &t, &[]), 1.0);
    }

    #[test]
    fn master_exclusion_and_nested_clusters() {
        let mut parent = net("a", &["a1", "a2"]);
        parent.children.push(net("c", &["c1", "c2"]));
        let view = EnvView { master: "m".into(), networks: vec![parent] };
        let t = truth(&[&["m", "a1", "a2"], &["c1", "c2"]]);
        assert_eq!(cluster_agreement(&view, &t, &["m"]), 1.0);
    }

    #[test]
    fn a_split_cluster_loses_points() {
        let view = EnvView {
            master: "m".into(),
            networks: vec![net("a", &["a1", "a2"]), net("b", &["a3", "a4"])],
        };
        let t = truth(&[&["a1", "a2", "a3", "a4"]]);
        // 6 pairs, only (a1,a2) and (a3,a4) agree.
        let got = cluster_agreement(&view, &t, &[]);
        assert!((got - 2.0 / 6.0).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn unplaced_hosts_count_as_singletons() {
        let view = EnvView { master: "m".into(), networks: vec![net("a", &["a1", "a2"])] };
        let t = truth(&[&["a1", "a2"], &["x1"], &["x2"]]);
        // x1/x2 are unplaced singletons in both partitions: full agreement.
        assert_eq!(cluster_agreement(&view, &t, &[]), 1.0);
    }

    #[test]
    fn degenerate_universe_scores_one() {
        let view = EnvView { master: "m".into(), networks: vec![] };
        assert_eq!(cluster_agreement(&view, &truth(&[&["a"]]), &[]), 1.0);
        assert_eq!(cluster_agreement(&view, &[], &[]), 1.0);
        assert_eq!(intact_fraction(&view, &truth(&[&["a"]]), &[]), 1.0);
    }

    /// The counting implementation must be bit-identical to the pairwise
    /// oracle — including splits, merges, unplaced hosts and exclusions —
    /// because the pipeline fingerprints embed the formatted agreement.
    #[test]
    fn counting_agreement_matches_pairwise_oracle_bit_for_bit() {
        let views = [
            EnvView {
                master: "m".into(),
                networks: vec![net("a", &["a1", "a2"]), net("b", &["a3", "a4"])],
            },
            EnvView {
                master: "m".into(),
                networks: vec![net("x", &["a1", "a2", "b1", "b2"]), net("y", &["c1"])],
            },
            EnvView { master: "m".into(), networks: vec![] },
            {
                let mut parent = net("a", &["a1", "a2"]);
                parent.children.push(net("c", &["c1", "c2"]));
                EnvView { master: "m".into(), networks: vec![parent] }
            },
        ];
        let truths = [
            truth(&[&["a1", "a2", "a3", "a4"]]),
            truth(&[&["a1", "a2"], &["b1", "b2"], &["c1", "c2"]]),
            truth(&[&["m", "a1", "a2"], &["c1", "c2"], &["z1"], &["z2"]]),
            truth(&[&["a1"], &["a2", "c1"], &["c2", "ghost"]]),
        ];
        for v in &views {
            for t in &truths {
                for ex in [&[][..], &["m"][..], &["a1", "c2"][..]] {
                    let fast = cluster_agreement(v, t, ex);
                    let slow = cluster_agreement_naive(v, t, ex);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "fast {fast} vs naive {slow} on {t:?} excl {ex:?}"
                    );
                }
            }
        }
    }

    /// A pseudo-random partition-vs-partition sweep of the same identity.
    #[test]
    fn counting_agreement_matches_oracle_on_random_partitions() {
        // Deterministic xorshift so no rand dependency is needed here.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as usize) % m
        };
        for case in 0..40 {
            let n = 3 + next(40);
            let tclusters = 1 + next(6);
            let vclusters = 1 + next(6);
            let names: Vec<String> = (0..n).map(|i| format!("h{i}.case{case}")).collect();
            let mut t: Vec<Vec<String>> = vec![Vec::new(); tclusters];
            let mut v: Vec<Vec<&str>> = vec![Vec::new(); vclusters];
            for name in &names {
                t[next(tclusters)].push(name.clone());
                // ~1 in 5 hosts is unplaced in the view.
                if next(5) != 0 {
                    v[next(vclusters)].push(name.as_str());
                }
            }
            let t: Vec<Vec<String>> = t.into_iter().filter(|c| !c.is_empty()).collect();
            let view = EnvView {
                master: "m".into(),
                networks: v
                    .iter()
                    .filter(|c| !c.is_empty())
                    .enumerate()
                    .map(|(i, c)| net(&format!("n{i}"), c))
                    .collect(),
            };
            let exclude = if next(2) == 0 { vec![] } else { vec![names[0].as_str()] };
            let fast = cluster_agreement(&view, &t, &exclude);
            let slow = cluster_agreement_naive(&view, &t, &exclude);
            assert_eq!(fast.to_bits(), slow.to_bits(), "case {case}: {fast} vs {slow}");
        }
    }

    #[test]
    fn intact_fraction_catches_fragmentation_the_rand_index_hides() {
        // 40 two-host truth clusters; the view splits every one of them.
        let t: Vec<Vec<String>> = (0..40).map(|i| vec![format!("a{i}"), format!("b{i}")]).collect();
        let shattered = EnvView {
            master: "m".into(),
            networks: t.iter().flat_map(|c| c.iter()).map(|h| net(h, &[h.as_str()])).collect(),
        };
        // The raw Rand index barely notices (only 40 of 3160 pairs differ)…
        let rand = cluster_agreement(&shattered, &t, &[]);
        assert!(rand > 0.95, "rand index saturates: {rand}");
        // …but intactness collapses to zero.
        assert_eq!(intact_fraction(&shattered, &t, &[]), 0.0);

        // A perfect view is intact; merging stays intact (the Rand index's
        // job), a single split lowers it proportionally.
        let perfect = EnvView {
            master: "m".into(),
            networks: t.iter().map(|c| net(&c[0], &[c[0].as_str(), c[1].as_str()])).collect(),
        };
        assert_eq!(intact_fraction(&perfect, &t, &[]), 1.0);
        let t2 = truth(&[&["a1", "a2"], &["b1", "b2"]]);
        let merged =
            EnvView { master: "m".into(), networks: vec![net("x", &["a1", "a2", "b1", "b2"])] };
        assert_eq!(intact_fraction(&merged, &t2, &[]), 1.0);
        let half = EnvView {
            master: "m".into(),
            networks: vec![net("x", &["a1", "a2"]), net("y", &["b1"]), net("z", &["b2"])],
        };
        assert_eq!(intact_fraction(&half, &t2, &[]), 0.5);
    }
}
