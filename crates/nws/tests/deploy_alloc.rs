//! Verifies that `NwsSystem::deploy` costs memory linear in the plan: a
//! clique's ring is built once and shared by its members, so doubling the
//! hosts of a star-of-cliques plan — whose one inter-clique doubles with
//! them — at most doubles the allocations. A ring copied per member would
//! cost |c|² host-name strings for the inter-clique and quadruple them.
//!
//! Everything runs inside a single #[test] so no concurrent test pollutes
//! the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::engine::Engine;
use netsim::prelude::*;
use netsim::scenarios::star_switch;
use nws::{CliqueSpec, NwsMsg, NwsSystem, NwsSystemSpec, SensorSpec};

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

/// `pairs` two-host local cliques on one switch, plus one inter-clique of
/// the first host of every pair; returns the allocations `deploy` makes.
fn deploy_allocations(pairs: usize) -> u64 {
    let net = star_switch(2 * pairs, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);

    let gap = TimeDelta::from_millis(500.0);
    let mut spec = NwsSystemSpec::minimal(&names[0], &[]);
    spec.sensors = names.iter().map(|h| SensorSpec::clique_member(h)).collect();
    spec.cliques = names
        .chunks(2)
        .enumerate()
        .map(|(i, pair)| CliqueSpec { name: format!("local{i}"), members: pair.to_vec(), gap })
        .collect();
    spec.cliques.push(CliqueSpec {
        name: "inter".to_string(),
        members: names.iter().step_by(2).cloned().collect(),
        gap,
    });

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sys = NwsSystem::deploy(&mut eng, &spec).expect("deploys");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(sys.sensors.len(), 2 * pairs);
    made
}

#[test]
fn deploy_allocations_grow_linearly_with_the_plan() {
    COUNTING.with(|c| c.set(true));
    let small = deploy_allocations(300);
    let large = deploy_allocations(600);
    assert!(small > 0, "the counter must see deploy's allocations");
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 2.2,
        "2x the hosts (and 2x the inter-clique) made {ratio:.2}x the allocations \
         ({small} -> {large}): deploy is not linear in the plan"
    );
}
