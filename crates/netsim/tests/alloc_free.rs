//! Verifies the incremental fairness engine's zero-allocation guarantee:
//! once its scratch buffers have grown to the workload's high-water mark,
//! steady-state reallocation must not touch the heap at all, and the full
//! simulator must stay within a small constant allocation budget per event
//! (map bookkeeping), never the old O(flows) clones.
//!
//! The route table's walks are held to the same bar: through trees and
//! through the 2-core alike, `hops_rev` and a flow start over it must not
//! allocate.
//!
//! Everything runs inside a single #[test] so no concurrent test pollutes
//! the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::fairness::{FairEngine, FairnessModel, ResourceId, ResourceTable};
use netsim::prelude::*;
use netsim::routing::RouteTable;
use netsim::scenarios::dumbbell;
use netsim::Sim;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Only the measuring (test) thread opts in, so allocations from
    // libtest's auxiliary threads never pollute the counter.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

// SAFETY: pure pass-through to the `System` allocator — every contract
// (layout validity, pointer provenance) is delegated unchanged; the only
// addition is a side-effect-free atomic counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if count_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching System allocation.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if count_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from a matching System allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A star switch with `n` hosts on 100 Mbps ports.
fn star(n: usize) -> (Topology, Vec<NodeId>) {
    star_with_ports(&vec![Bandwidth::mbps(100.0); n])
}

/// A star switch whose host `i` has an access port of `ports[i]`.
fn star_with_ports(ports: &[Bandwidth]) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let sw = b.switch("sw", Bandwidth::mbps(100.0), Latency::micros(20.0));
    let hosts: Vec<NodeId> = ports
        .iter()
        .enumerate()
        .map(|(i, &port)| {
            let h = b.host(&format!("h{i}.x"), &format!("10.0.{}.{}", i / 250, i % 250 + 1));
            b.attach_with_capacity(h, sw, port);
            h
        })
        .collect();
    (b.build().unwrap(), hosts)
}

#[test]
fn steady_state_reallocate_does_not_allocate() {
    COUNTING.with(|c| c.set(true));

    // --- FairEngine in isolation: strictly zero allocations ------------
    let (topo, hosts) = star(32);
    let routes = RouteTable::compute(&topo);
    let table = ResourceTable::new(&topo);
    let mut fe = FairEngine::new(&topo, FairnessModel::MaxMin);

    let mut ids = Vec::new();
    let mut keys = Vec::new();
    for i in 0..128usize {
        let p = routes.path(&topo, hosts[i % 32], hosts[(i + 7) % 32]).unwrap();
        table.intern_path(&topo, &p, &mut ids);
        keys.push(fe.add_flow(&ids));
    }
    // Warm-up: grows scratch to the high-water mark.
    fe.reallocate();

    let before = allocations();
    for _ in 0..100 {
        fe.reallocate();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state FairEngine::reallocate must not allocate, saw {delta} \
         allocations over 100 calls"
    );

    // Churn (remove + re-add) must also be allocation-free: freed slots
    // keep their resource vectors and the live list shrinks in place.
    let p = routes.path(&topo, hosts[3], hosts[19]).unwrap();
    table.intern_path(&topo, &p, &mut ids);
    let n_keys = keys.len();
    // One warm-up round so the freelist vector exists (its first push is a
    // one-time allocation, not steady state).
    fe.remove_flow(keys[n_keys - 1]);
    fe.reallocate();
    keys[n_keys - 1] = fe.add_flow(&ids);
    fe.reallocate();
    let before = allocations();
    for round in 0..100 {
        let victim = keys[round % n_keys];
        fe.remove_flow(victim);
        fe.reallocate();
        let k = fe.add_flow(&ids);
        fe.reallocate();
        keys[round % n_keys] = k;
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state flow churn must not allocate, saw {delta} allocations \
         over 100 remove/add rounds"
    );

    // Departures resume the fill from a checkpoint. Each flow leaves its
    // own client for one of 32 servers; the client ports run at 48
    // distinct rates, all well under a server port's share, and each
    // saturates in a round of its own, so a fill runs over 40 rounds. The
    // fastest flow is one from a full-rate client that froze in the last,
    // and removing it resumes near the top. The fill log, the checkpoints
    // and the replay's buffers are sized by the flow and resource
    // high-water marks, which the first fill reaches.
    let ports: Vec<Bandwidth> = (0..128usize)
        .map(|i| match i.checked_sub(32) {
            Some(c) if c % 8 != 7 => Bandwidth::bytes_per_sec(50_000.0 * (1 + c % 48) as f64),
            _ => Bandwidth::mbps(100.0),
        })
        .collect();
    let (topo, hosts) = star_with_ports(&ports);
    let routes = RouteTable::compute(&topo);
    let table = ResourceTable::new(&topo);
    let mut fe = FairEngine::new(&topo, FairnessModel::MaxMin);
    for i in 0..96usize {
        let p = routes.path(&topo, hosts[32 + i], hosts[(i + 5) % 32]).unwrap();
        table.intern_path(&topo, &p, &mut ids);
        fe.add_flow(&ids);
    }
    fe.reallocate();
    let mut depart_and_return = |fe: &mut FairEngine| {
        let fastest = *fe
            .live_keys()
            .iter()
            .max_by(|a, b| fe.rate(**a).total_cmp(&fe.rate(**b)))
            .expect("flows are live");
        ids.clear();
        ids.extend_from_slice(fe.resources(fastest));
        fe.remove_flow(fastest);
        fe.reallocate();
        fe.add_flow(&ids);
        fe.reallocate();
    };
    depart_and_return(&mut fe);
    let before = allocations();
    for _ in 0..100 {
        depart_and_return(&mut fe);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "departures that resume from a checkpoint must not allocate, saw {delta} \
         allocations over 100 departures and returns"
    );

    // --- Route walks: strictly zero allocations -------------------------
    // A walk is composed: parent links up from dst, a row of the 2-core,
    // children down to src. Each shape of walk, and the flow start the
    // engine builds from it (intern every hop, admit, re-level), must stay
    // off the heap.
    // A dumbbell is a tree, so its walks go through a common ancestor.
    let net = dumbbell(4, 4, Bandwidth::mbps(1000.0));
    let (topo, left, right) = (net.topo, net.hosts[0], net.hosts[7]);
    let (_, left_switch) = topo.neighbours(left)[0];
    let left_router = topo.node_by_name("gwL.dumb.net").unwrap();
    let routes = RouteTable::compute(&topo);
    let mut fe = FairEngine::new(&topo, FairnessModel::MaxMin);
    let mut ids: Vec<ResourceId> = Vec::new();
    // leaf → leaf across the core, leaf → its own gateway, core → leaf.
    let walks = [(left, right, 5), (left, left_switch, 1), (left_router, right, 3)];
    let mut start_and_finish_each = || {
        for (src, dst, hop_count) in walks {
            ids.clear();
            for (from, l) in routes.hops_rev(&topo, src, dst).unwrap() {
                ids.push(fe.table().link_dir(l, topo.link(l).a == from));
            }
            assert_eq!(ids.len(), hop_count);
            ids.sort_unstable();
            let key = fe.add_flow(&ids);
            fe.reallocate();
            fe.remove_flow(key);
            fe.reallocate();
        }
    };
    // Warm-up: grows `ids`, the flow slot and the freelist once.
    start_and_finish_each();
    start_and_finish_each();
    let before = allocations();
    for _ in 0..100 {
        start_and_finish_each();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "route walks and flow starts over them must not allocate, saw {delta} \
         allocations over 100 rounds"
    );

    // The same through a 2-core: hosts on a ring of four routers, each
    // walk host → ring row → host.
    let mut b = TopologyBuilder::new();
    let ring: Vec<NodeId> =
        (0..4).map(|r| b.router(&format!("r{r}.ring"), &format!("10.{r}.0.1"))).collect();
    let ends: Vec<NodeId> = (0..4)
        .map(|r| {
            b.link(ring[r], ring[(r + 1) % 4], Bandwidth::mbps(1000.0), Latency::micros(10.0));
            let host = b.host(&format!("h{r}.ring"), &format!("10.{r}.0.2"));
            b.link(host, ring[r], Bandwidth::mbps(100.0), Latency::micros(10.0));
            host
        })
        .collect();
    let topo = b.build().unwrap();
    let routes = RouteTable::compute(&topo);
    let walk_all = || {
        let mut hops = 0;
        for &src in &ends {
            for &dst in &ends {
                hops += routes.hops_rev(&topo, src, dst).unwrap().count();
            }
        }
        assert_eq!(hops, 4 * (3 + 4 + 3));
    };
    walk_all();
    let before = allocations();
    for _ in 0..100 {
        walk_all();
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "walks through the 2-core must not allocate, saw {delta} allocations");

    // --- Full simulator: small constant budget per event ---------------
    // The engine proper still does id-map and outcome bookkeeping per
    // completion (BTreeMap/HashMap nodes), but must stay within a small
    // constant — the old from-scratch path cloned every flow's resource
    // vector and rebuilt two hash tables per event (~3 allocations per
    // active flow per event; >700/event at this scale).
    let (topo, hosts) = star(32);
    let run = |events: u64| -> u64 {
        let mut sim = Sim::new(topo.clone());
        let flows: Vec<FlowId> = (0..256usize)
            .map(|i| {
                sim.start_probe_flow(hosts[i % 32], hosts[(i + 9) % 32], Bytes::mib(4)).unwrap()
            })
            .collect();
        let before = allocations();
        sim.run_until_flows_done(&flows, TimeDelta::from_secs(36_000.0)).unwrap();
        let _ = events;
        allocations() - before
    };
    // 256 flows → 256 completions + 256 acks ≈ 512 events.
    let total = run(512);
    let per_event = total as f64 / 512.0;
    assert!(
        per_event < 32.0,
        "expected small constant allocation budget per event, got {per_event:.1} \
         ({total} allocations over ~512 events)"
    );

    // --- A burst of starts is one re-level, off the heap ----------------
    // Starting a flow books it (id map, slot) and leaves the rates stale;
    // the one re-level the burst costs runs when the clock is asked to
    // move, and must find every buffer it needs already grown.
    let mut sim = Sim::new(topo.clone());
    let burst = |sim: &mut Sim| -> Vec<FlowId> {
        (0..128usize)
            .map(|i| {
                sim.start_probe_flow(hosts[i % 32], hosts[(i + 9) % 32], Bytes::kib(64)).unwrap()
            })
            .collect()
    };
    // Warm-up: scratch, flow slots and the completion heap grow to 128 flows.
    let flows = burst(&mut sim);
    sim.run_until_flows_done(&flows, TimeDelta::from_secs(3_600.0)).unwrap();
    let flows = burst(&mut sim);
    let before = allocations();
    sim.run_until(sim.now());
    let delta = allocations() - before;
    assert_eq!(sim.completion_heap_len(), flows.len(), "the burst was re-levelled");
    assert_eq!(delta, 0, "re-levelling a burst of 128 starts must not allocate, saw {delta}");
}
