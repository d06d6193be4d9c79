//! Differential test of the max-min fill's resume: a [`FairEngine`] drains a
//! storm of flows on a synthetic campus, and after every completion each
//! live rate must equal, to the bit, the rate a freshly built engine gives
//! the same flows in the same `live` order — one that fills from round 0 —
//! and `changed()` must list exactly the live keys whose rate moved.
//!
//! The flows are shaped like the benchmark's `flow_storm`: equal transfers,
//! half inside one LAN and half between two, all admitted at once, so the
//! fills run tens of rounds and nearly every completion resumes from a
//! checkpoint. A third drain admits a fresh flow at every fourth
//! completion. The 1 000-host cases are release-only; the debug profile
//! runs a smaller campus.

use std::sync::Arc;

use netsim::fairness::{FairEngine, FairnessModel, ResourceId, ResourceTable};
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

/// A `flow_storm`-shaped flow source on a synthetic campus.
struct Storm {
    topo: Topology,
    routes: RouteTable,
    table: Arc<ResourceTable>,
    lans: Vec<Vec<NodeId>>,
    rng: Rng,
    ids: Vec<ResourceId>,
    /// Bytes left per key.
    left: Vec<f64>,
}

impl Storm {
    fn new(hosts: usize, seed: u64) -> Self {
        let sc = synth(SynthFamily::Campus, 2004, hosts);
        let lans =
            sc.truth.clusters.into_iter().map(|c| c.members).filter(|m| m.len() >= 2).collect();
        let topo = sc.net.topo;
        let routes = RouteTable::compute(&topo);
        let table = Arc::new(ResourceTable::new(&topo));
        Storm { topo, routes, table, lans, rng: Rng(seed), ids: Vec::new(), left: Vec::new() }
    }

    /// Admits the `i`-th flow, 256 KiB: even flows stay inside their LAN,
    /// odd ones cross LANs.
    fn admit(&mut self, fe: &mut FairEngine, i: usize) {
        let a = self.rng.below(self.lans.len());
        let src = self.lans[a][self.rng.below(self.lans[a].len())];
        let b = if i.is_multiple_of(2) {
            a
        } else {
            loop {
                let b = self.rng.below(self.lans.len());
                if b != a {
                    break b;
                }
            }
        };
        let dst = loop {
            let dst = self.lans[b][self.rng.below(self.lans[b].len())];
            if dst != src {
                break dst;
            }
        };
        self.ids.clear();
        for (from, l) in self.routes.hops_rev(&self.topo, src, dst).unwrap() {
            self.ids.push(self.table.link_dir(l, self.topo.link(l).a == from));
        }
        let key = fe.add_flow(&self.ids) as usize;
        if self.left.len() <= key {
            self.left.resize(key + 1, 0.0);
        }
        self.left[key] = Bytes::kib(256).as_f64();
    }
}

/// Drains `flows` flows on a `hosts`-host campus, admitting a fresh flow
/// at every `readmit`-th completion (never when 0), and checks every
/// re-level: each live rate against a fresh engine's, and `changed()`
/// against the live keys whose rate moved, in live order. Returns the
/// number of re-levels checked, one per completion.
fn drain_matches_fresh_engines(hosts: usize, flows: usize, seed: u64, readmit: usize) -> usize {
    let mut storm = Storm::new(hosts, seed);
    let mut fe = FairEngine::with_table(storm.table.clone(), FairnessModel::MaxMin);
    for i in 0..flows {
        storm.admit(&mut fe, i);
    }
    let mut admitted = flows;

    let mut checked = 0;
    fe.reallocate();
    while fe.flow_count() > 0 {
        // The next completion under the current rates.
        let live = fe.live_keys().to_vec();
        let (first, dt) = live
            .iter()
            .map(|&k| (k, storm.left[k as usize] / fe.rate(k)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        for &k in &live {
            storm.left[k as usize] -= fe.rate(k) * dt;
        }
        fe.remove_flow(first);
        checked += 1;
        if readmit > 0 && checked % readmit == 0 {
            storm.admit(&mut fe, admitted);
            admitted += 1;
        }
        let before: Vec<f64> = fe.live_keys().iter().map(|&k| fe.rate(k)).collect();
        fe.reallocate();

        let moved: Vec<u32> = fe
            .live_keys()
            .iter()
            .zip(&before)
            .filter(|&(&k, &was)| fe.rate(k) != was)
            .map(|(&k, _)| k)
            .collect();
        assert_eq!(fe.changed(), &moved[..], "changed() after {checked} completions");
        let mut fresh = FairEngine::with_table(storm.table.clone(), FairnessModel::MaxMin);
        for &k in fe.live_keys() {
            fresh.add_flow(fe.resources(k));
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
    assert_eq!(checked, admitted, "every admitted flow completes once");
    checked
}

#[test]
fn two_hundred_host_campus_drains_like_fresh_fills() {
    assert_eq!(drain_matches_fresh_engines(200, 192, 7, 0), 192);
}

#[cfg(not(debug_assertions))]
#[test]
fn thousand_host_campus_drains_like_fresh_fills() {
    for seed in [2004, 7] {
        assert_eq!(drain_matches_fresh_engines(1000, 768, seed, 0), 768);
    }
}

/// Every fourth completion admits a fresh flow, so fills alternate between
/// a re-sorted flows-by-resource table and one still holding departed
/// keys, and between round-0 starts and resumes. The 1 000-host campus
/// runs in the release profile only.
#[test]
fn campus_drain_with_readmissions_matches_fresh_fills() {
    let (hosts, flows, seeds) =
        if cfg!(debug_assertions) { (200, 192, &[7][..]) } else { (1000, 768, &[2004, 7][..]) };
    for &seed in seeds {
        assert!(drain_matches_fresh_engines(hosts, flows, seed, 4) > flows);
    }
}
