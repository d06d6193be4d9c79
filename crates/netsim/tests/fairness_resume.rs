//! Differential test of the max-min fill's resume: a [`FairEngine`] drains a
//! storm of flows on a synthetic campus, and after every completion each
//! live rate must equal, to the bit, the rate a freshly built engine gives
//! the same flows in the same `live` order — one that fills from round 0.
//!
//! The flows are shaped like the benchmark's `flow_storm`: equal transfers,
//! half inside one LAN and half between two, all admitted at once, so the
//! fills run tens of rounds and nearly every completion resumes from a
//! checkpoint. The 1 000-host case is release-only; the debug profile runs
//! a smaller campus.

use std::sync::Arc;

use netsim::fairness::{FairEngine, FairnessModel, ResourceTable};
use netsim::prelude::*;
use netsim::routing::RouteTable;
use netsim::synth::{synth, SynthFamily};

/// splitmix64, so the flow set is the same on every platform.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Drains `flows` flows of 256 KiB on a `hosts`-host campus, checking every
/// re-level against a fresh engine. Returns the number of re-levels checked.
fn drain_matches_fresh_engines(hosts: usize, flows: usize, seed: u64) -> usize {
    let sc = synth(SynthFamily::Campus, 2004, hosts);
    let topo = &sc.net.topo;
    let routes = RouteTable::compute(topo);
    let table = Arc::new(ResourceTable::new(topo));
    let lans: Vec<&Vec<NodeId>> =
        sc.truth.clusters.iter().map(|c| &c.members).filter(|m| m.len() >= 2).collect();

    let mut rng = Rng(seed);
    let mut fe = FairEngine::with_table(table.clone(), FairnessModel::MaxMin);
    let mut ids = Vec::new();
    let mut left = Vec::new();
    for i in 0..flows {
        let a = lans[rng.below(lans.len())];
        let src = a[rng.below(a.len())];
        // Even flows stay inside their LAN, odd ones cross LANs.
        let b = if i % 2 == 0 {
            a
        } else {
            loop {
                let b = lans[rng.below(lans.len())];
                if !std::ptr::eq(a, b) {
                    break b;
                }
            }
        };
        let dst = loop {
            let dst = b[rng.below(b.len())];
            if dst != src {
                break dst;
            }
        };
        ids.clear();
        for (from, l) in routes.hops_rev(topo, src, dst).unwrap() {
            ids.push(table.link_dir(l, topo.link(l).a == from));
        }
        let key = fe.add_flow(&ids, None);
        if left.len() <= key as usize {
            left.resize(key as usize + 1, 0.0);
        }
        left[key as usize] = Bytes::kib(256).as_f64();
    }

    let mut checked = 0;
    fe.reallocate();
    while fe.flow_count() > 0 {
        // The next completion under the current rates.
        let live = fe.live_keys().to_vec();
        let (first, dt) = live
            .iter()
            .map(|&k| (k, left[k as usize] / fe.rate(k)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        for &k in &live {
            left[k as usize] -= fe.rate(k) * dt;
        }
        fe.remove_flow(first);
        fe.reallocate();
        checked += 1;

        let mut fresh = FairEngine::with_table(table.clone(), FairnessModel::MaxMin);
        for &k in fe.live_keys() {
            fresh.add_flow(fe.resources(k), fe.rate_cap(k));
        }
        fresh.reallocate();
        for (&k, &f) in fe.live_keys().iter().zip(fresh.live_keys()) {
            let (got, want) = (fe.rate(k), fresh.rate(f));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "flow {k} after {checked} completions: resumed {got:e}, fresh {want:e}"
            );
        }
    }
    checked
}

#[test]
fn two_hundred_host_campus_drains_like_fresh_fills() {
    assert_eq!(drain_matches_fresh_engines(200, 192, 7), 192);
}

#[cfg(not(debug_assertions))]
#[test]
fn thousand_host_campus_drains_like_fresh_fills() {
    for seed in [2004, 7] {
        assert_eq!(drain_matches_fresh_engines(1000, 768, seed), 768);
    }
}
