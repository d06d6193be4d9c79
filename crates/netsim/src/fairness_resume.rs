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
//! completion. A fourth churns flows that are mostly alone on their paths,
//! as the deployed NWS's are, on a campus whose capacities are not
//! integers, so most re-levels patch the last fill's log instead of
//! filling. A fifth removes a flow and admits one in a single call. The
//! 1 000- and 2 000-host cases are release-only; the debug profile runs
//! smaller campuses.

use std::sync::Arc;

use crate::fairness::{FairEngine, FairnessModel, Patch, ResourceId, ResourceTable};
use crate::prelude::*;
use crate::routing::RouteTable;
use crate::synth::{synth, SynthFamily};
use crate::topology::{LinkMode, MediumId};

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
    /// A campus whose link and hub capacities are, when `scale`, each
    /// multiplied by 0.7 or 1.4 and by one of `1 + {0, 1, 2}e-9`: not
    /// integers, so a wrong `delta` shows in the rates' bits, and a few
    /// parts in 10^9 apart, well inside the freeze threshold, so shares
    /// that saturate in one round need not be equal.
    fn new(hosts: usize, seed: u64, scale: bool) -> Self {
        let sc = synth(SynthFamily::Campus, 2004, hosts);
        let lans =
            sc.truth.clusters.into_iter().map(|c| c.members).filter(|m| m.len() >= 2).collect();
        let mut topo = sc.net.topo;
        let mut rng = Rng(seed);
        if scale {
            let links: Vec<LinkId> = topo.links().map(|l| l.id).collect();
            let mut factor = || [0.7, 1.4][rng.below(2)] * (1.0 + rng.below(3) as f64 * 1e-9);
            for l in links {
                let f = factor();
                if let LinkMode::FullDuplex { capacity_ab, capacity_ba } =
                    &mut topo.link_mut(l).mode
                {
                    *capacity_ab = capacity_ab.scaled(f);
                    *capacity_ba = capacity_ba.scaled(f);
                }
            }
            let mediums: Vec<MediumId> = topo.mediums().map(|m| m.id).collect();
            for m in mediums {
                let m = topo.medium_mut(m);
                m.capacity = m.capacity.scaled(factor());
            }
        }
        let routes = RouteTable::compute(&topo);
        let table = Arc::new(ResourceTable::new(&topo));
        Storm { topo, routes, table, lans, rng, ids: Vec::new(), left: Vec::new() }
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
        self.admit_from(fe, src, b);
    }

    /// Admits a flow from `src` to another host of LAN `b`, 256 KiB;
    /// returns its key.
    fn admit_from(&mut self, fe: &mut FairEngine, src: NodeId, b: usize) -> u32 {
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
        let key = fe.add_flow(&self.ids);
        if self.left.len() <= key as usize {
            self.left.resize(key as usize + 1, 0.0);
        }
        self.left[key as usize] = Bytes::kib(256).as_f64();
        key
    }
}

/// Reallocates, then checks `changed()` against the live keys whose rate
/// moved, in live order, and every live rate against a fresh engine's, to
/// the bit.
fn reallocate_like_a_fresh_engine(fe: &mut FairEngine, table: &Arc<ResourceTable>, at: &str) {
    let before: Vec<f64> = fe.live_keys().iter().map(|&k| fe.rate(k)).collect();
    fe.reallocate();
    let moved: Vec<u32> = fe
        .live_keys()
        .iter()
        .zip(&before)
        .filter(|&(&k, &was)| fe.rate(k) != was)
        .map(|(&k, _)| k)
        .collect();
    assert_eq!(fe.changed(), &moved[..], "changed() {at}");
    let mut fresh = FairEngine::with_table(table.clone(), FairnessModel::MaxMin);
    for &k in fe.live_keys() {
        fresh.add_flow(fe.resources(k));
    }
    fresh.reallocate();
    for (&k, &f) in fe.live_keys().iter().zip(fresh.live_keys()) {
        let (got, want) = (fe.rate(k), fresh.rate(f));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "flow {k} {at} ({:?}): got {got:e}, fresh {want:e}",
            fe.last_patch()
        );
    }
}

/// Drains `flows` flows on a `hosts`-host campus, admitting a fresh flow
/// at every `readmit`-th completion (never when 0), and checks every
/// re-level: each live rate against a fresh engine's, and `changed()`
/// against the live keys whose rate moved, in live order. Returns the
/// number of re-levels checked, one per completion.
fn drain_matches_fresh_engines(hosts: usize, flows: usize, seed: u64, readmit: usize) -> usize {
    let mut storm = Storm::new(hosts, seed, false);
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
        let table = storm.table.clone();
        reallocate_like_a_fresh_engine(&mut fe, &table, &format!("after {checked} completions"));
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

/// Where the churn's flows are: the LAN each key's flow stays inside
/// (`None` between two LANs), and whether a LAN has a flow inside it.
struct Placement {
    lan_of: Vec<Option<usize>>,
    busy: Vec<bool>,
}

impl Placement {
    /// Admits one flow: one in six between two LANs, the others inside a
    /// LAN that has none.
    fn admit(&mut self, storm: &mut Storm, fe: &mut FairEngine) {
        let lans = self.busy.len();
        let (a, b, inside) = if storm.rng.below(12) == 0 {
            let a = storm.rng.below(lans);
            (a, (a + 1 + storm.rng.below(lans - 1)) % lans, None)
        } else {
            let mut a = storm.rng.below(lans);
            while self.busy[a] {
                a = storm.rng.below(lans);
            }
            self.busy[a] = true;
            (a, a, Some(a))
        };
        let src = storm.lans[a][storm.rng.below(storm.lans[a].len())];
        let key = storm.admit_from(fe, src, b) as usize;
        if self.lan_of.len() <= key {
            self.lan_of.resize(key + 1, None);
        }
        self.lan_of[key] = inside;
    }

    fn remove(&mut self, fe: &mut FairEngine, key: u32) {
        fe.remove_flow(key);
        if let Some(lan) = self.lan_of[key as usize] {
            self.busy[lan] = false;
        }
    }
}

/// Runs `calls` re-levels of flows placed by [`Placement::admit`], filling
/// up to `target` live flows and draining to none in turn, and checks each
/// against a fresh engine. Returns how each re-level came by its rates.
fn isolated_churn_matches_fresh_engines(
    hosts: usize,
    target: usize,
    calls: usize,
    seed: u64,
) -> Vec<Patch> {
    let mut storm = Storm::new(hosts, seed, true);
    let table = storm.table.clone();
    let mut at = Placement { lan_of: Vec::new(), busy: vec![false; storm.lans.len()] };
    assert!(storm.lans.len() > 2 * target, "{} LANs for {target} flows", storm.lans.len());
    let mut fe = FairEngine::with_table(table.clone(), FairnessModel::MaxMin);
    for _ in 0..target {
        at.admit(&mut storm, &mut fe);
    }
    fe.reallocate();
    let mut outcomes = Vec::with_capacity(calls);
    // Fill up to `target` flows, drain to none, and again: one or two
    // admissions a call and up to one removal while filling, the other
    // way round while draining.
    let mut filling = false;
    for call in 0..calls {
        if fe.flow_count() >= target {
            filling = false;
        } else if fe.flow_count() == 0 {
            filling = true;
        }
        let (one, two) = (storm.rng.below(2), 1 + storm.rng.below(2));
        let (admits, removes) = if filling { (two, one) } else { (one, two) };
        // Admissions first: an admission that reuses the key of a flow
        // removed since the last fill discards the log.
        for _ in 0..admits {
            at.admit(&mut storm, &mut fe);
        }
        for _ in 0..removes.min(fe.flow_count()) {
            let key = fe.live_keys()[storm.rng.below(fe.flow_count())];
            at.remove(&mut fe, key);
        }
        reallocate_like_a_fresh_engine(&mut fe, &table, &format!("after call {call}"));
        outcomes.push(fe.last_patch());
    }
    outcomes
}

/// Most re-levels of a churn of flows alone on their paths patch the last
/// fill's log, and each guard that sends one to a fill fires at least once.
/// The 2 000-host campus runs in the release profile only.
#[test]
fn isolated_churn_patches_like_fresh_fills() {
    let (hosts, target, calls, seeds) = if cfg!(debug_assertions) {
        (400, 20, 600, &[7][..])
    } else {
        (2000, 100, 4000, &[2004, 7][..])
    };
    for &seed in seeds {
        let outcomes = isolated_churn_matches_fresh_engines(hosts, target, calls, seed);
        let count = |p: Patch| outcomes.iter().filter(|&&o| o == p).count();
        assert!(count(Patch::Applied) > calls / 2, "seed {seed}: {outcomes:?}");
        for guard in [Patch::NewBottleneck, Patch::LostTie, Patch::TwoTails, Patch::NoFreeze] {
            assert!(count(guard) > 0, "seed {seed}: no {guard:?} in {calls} calls");
        }
    }
}

/// A flow that completes and a flow admitted in the same call, each alone
/// on its path, patch the log: the admission must not recycle the key of
/// the flow that departed since the last fill, whose slot the patch still
/// reads. LAN rates are 10 or 100 Mbps, so the admitted flow's share ties
/// a kept round's `delta` or outlasts them all.
#[test]
fn an_admission_after_a_removal_patches() {
    let mut storm = Storm::new(200, 7, false);
    let table = storm.table.clone();
    let mut fe = FairEngine::with_table(table.clone(), FairnessModel::MaxMin);
    for lan in 0..4 {
        let src = storm.lans[lan][0];
        storm.admit_from(&mut fe, src, lan);
    }
    fe.reallocate();
    // The fastest flow froze in the fill's last round, so its departure
    // drops trailing rounds only.
    let gone = *fe.live_keys().iter().max_by(|&&a, &&b| fe.rate(a).total_cmp(&fe.rate(b))).unwrap();
    fe.remove_flow(gone);
    let src = storm.lans[4][0];
    let key = storm.admit_from(&mut fe, src, 4);
    assert_ne!(key, gone, "a key is recycled only after the next fill");
    reallocate_like_a_fresh_engine(&mut fe, &table, "after a removal and an admission");
    assert_eq!(fe.last_patch(), Patch::Applied);
}
