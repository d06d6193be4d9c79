//! Batched probe scheduling: issue resource-disjoint host-pair probes
//! concurrently instead of strictly serially.
//!
//! ENV's refinement phases run thousands of bandwidth experiments at scale.
//! Many of them are *independent* — their directed paths share no link
//! direction and no hub medium — so they can run in the same simulated
//! window without perturbing each other's measurement. This module plans
//! maximal batches of mutually disjoint pairs (deterministic greedy
//! first-fit over the pairs in input order) and launches each batch through
//! [`netsim::Engine::measure_bandwidth_concurrent`].
//!
//! Pairs that *do* share a resource are never co-scheduled, which preserves
//! the measurement semantics exactly: a hub's medium is one collision
//! domain consumed once per flow (the invariant ENV's jammed-bandwidth
//! experiment depends on), and two flows meeting anywhere would split that
//! capacity and corrupt both samples. The jam experiment itself
//! (deliberately contending flows) is *not* batched — it stays one
//! experiment at a time, as in the paper.

use netsim::fairness::{path_resources, Resource};
use netsim::prelude::*;
use netsim::Engine;

use crate::refine::{settle, PROBE_BYTES};

/// Greedy first-fit partition of pairs into mutually disjoint batches.
///
/// `footprints[i]` is the resource set of pair `i` (`None` when the pair
/// has no route — such pairs get their own batch so their error surfaces
/// exactly as it would serially). Returns batches of input indices; the
/// concatenation of all batches is a permutation of `0..footprints.len()`.
pub(crate) fn plan_batches(footprints: &[Option<Vec<Resource>>]) -> Vec<Vec<usize>> {
    let mut batches: Vec<(Vec<Resource>, Vec<usize>)> = Vec::new();
    for (i, fp) in footprints.iter().enumerate() {
        match fp {
            None => batches.push((Vec::new(), vec![i])),
            Some(res) => {
                let slot = batches.iter_mut().find(|(used, members)| {
                    !members.is_empty() && !used.is_empty() && res.iter().all(|r| !used.contains(r))
                });
                match slot {
                    Some((used, members)) => {
                        used.extend(res.iter().copied());
                        members.push(i);
                    }
                    None => batches.push((res.clone(), vec![i])),
                }
            }
        }
    }
    batches.into_iter().map(|(_, members)| members).collect()
}

/// The directed-path resource footprint of each probe pair, or `None` when
/// the pair is unroutable/firewalled (it will error when measured).
fn footprints<M>(eng: &Engine<M>, pairs: &[(NodeId, NodeId)]) -> Vec<Option<Vec<Resource>>> {
    pairs
        .iter()
        .map(|(s, d)| {
            if !eng.topo().allows(*s, *d) {
                return None;
            }
            eng.routes().path(eng.topo(), *s, *d).ok().map(|p| path_resources(eng.topo(), &p))
        })
        .collect()
}

/// Measure every pair's bandwidth, co-scheduling resource-disjoint pairs.
/// Results come back in input order; each entry is exactly what the serial
/// `measure_bandwidth` would have returned for that pair. The settle pause
/// runs once before each batch (the network must stabilise between
/// experiments, §4.3 — batch members start on an idle network together).
pub(crate) fn measure_pairs_batched<M>(
    eng: &mut Engine<M>,
    pairs: &[(NodeId, NodeId)],
) -> Vec<NetResult<Bandwidth>> {
    let plan = plan_batches(&footprints(eng, pairs));
    let mut out: Vec<Option<NetResult<Bandwidth>>> = vec![None; pairs.len()];
    for batch in plan {
        settle(eng);
        let batch_pairs: Vec<(NodeId, NodeId)> = batch.iter().map(|&i| pairs[i]).collect();
        let results = eng.measure_bandwidth_concurrent(&batch_pairs, PROBE_BYTES);
        for (&i, r) in batch.iter().zip(results) {
            out[i] = Some(r);
        }
    }
    out.into_iter().map(|r| r.expect("every pair is scheduled in exactly one batch")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::scenarios::{star_hub, star_switch};
    use netsim::Sim;

    #[test]
    fn disjoint_switch_pairs_share_one_batch() {
        let net = star_switch(6, Bandwidth::mbps(100.0));
        let eng = Sim::new(net.topo.clone());
        let pairs = [
            (net.hosts[0], net.hosts[1]),
            (net.hosts[2], net.hosts[3]),
            (net.hosts[4], net.hosts[5]),
        ];
        let plan = plan_batches(&super::footprints(&eng, &pairs));
        assert_eq!(plan, vec![vec![0, 1, 2]], "disjoint ports co-schedule");
    }

    #[test]
    fn hub_pairs_never_co_schedule() {
        let net = star_hub(6, Bandwidth::mbps(100.0));
        let eng = Sim::new(net.topo.clone());
        let pairs = [
            (net.hosts[0], net.hosts[1]),
            (net.hosts[2], net.hosts[3]),
            (net.hosts[4], net.hosts[5]),
        ];
        let plan = plan_batches(&super::footprints(&eng, &pairs));
        assert_eq!(plan.len(), 3, "one shared medium forces serial batches");
    }

    #[test]
    fn overlapping_endpoint_pairs_split_batches() {
        let net = star_switch(4, Bandwidth::mbps(100.0));
        let eng = Sim::new(net.topo.clone());
        // Pairs 0 and 1 share host 0's port; pair 2 is free.
        let pairs = [
            (net.hosts[0], net.hosts[1]),
            (net.hosts[0], net.hosts[2]),
            (net.hosts[2], net.hosts[3]),
        ];
        let plan = plan_batches(&super::footprints(&eng, &pairs));
        // First-fit: pair 1 conflicts with batch {0}; pair 2 conflicts with
        // the {1} batch (host 2's port) but fits batch {0}.
        assert_eq!(plan, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn batched_measurements_match_serial_on_a_switch() {
        let net = star_switch(6, Bandwidth::mbps(100.0));
        let pairs = [
            (net.hosts[0], net.hosts[1]),
            (net.hosts[2], net.hosts[3]),
            (net.hosts[4], net.hosts[5]),
        ];
        let mut serial_eng = Sim::new(net.topo.clone());
        let serial: Vec<f64> = pairs
            .iter()
            .map(|(s, d)| {
                settle(&mut serial_eng);
                serial_eng.measure_bandwidth(*s, *d, PROBE_BYTES).unwrap().as_mbps()
            })
            .collect();
        let mut eng = Sim::new(net.topo.clone());
        let batched = measure_pairs_batched(&mut eng, &pairs);
        for (s, b) in serial.iter().zip(&batched) {
            let b = b.as_ref().unwrap().as_mbps();
            assert!((s - b).abs() < 1e-9, "serial {s} vs batched {b}");
        }
    }

    #[test]
    fn unroutable_pair_reports_error_without_blocking_others() {
        let mut b = TopologyBuilder::new();
        let sw = b.switch("sw", Bandwidth::mbps(100.0), Latency::micros(20.0));
        let h0 = b.host("h0.x", "10.0.0.1");
        let h1 = b.host("h1.x", "10.0.0.2");
        let h2 = b.host("h2.x", "10.0.0.3");
        let h3 = b.host("h3.x", "10.0.0.4");
        for h in [h0, h1, h2, h3] {
            b.attach(h, sw);
        }
        b.firewall_deny_between(&[h0], &[h1]);
        let mut eng = Sim::new(b.build().unwrap());
        let res = measure_pairs_batched(&mut eng, &[(h0, h1), (h2, h3)]);
        assert!(matches!(res[0], Err(NetError::Firewalled { .. })));
        assert!(res[1].is_ok());
    }
}
