//! Engine-scaling sweep: events/sec and wall time of the flow simulator's
//! `flow_lifecycle` workload at 16 / 128 / 1024 / 4096 concurrent flows —
//! the flow-count sweep ROADMAP item 19 is judged by. Printed, not written:
//! a stopwatch reading is not a golden value, and the gated number is
//! `flow_storm`'s `work_rate` in `BENCHMARK.json`.
//!
//! The workload: a 16-host star switch, `N` concurrent 256 KiB transfers
//! round-robining over host pairs, run to quiescence. Per completed flow
//! the engine processes one completion, which re-levels the survivors, and
//! one ack event; the `N` starts share an instant and cost one reallocation
//! between them — the hot path the incremental fairness engine optimises.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_engine_scaling`

use std::time::Instant;

use netsim::prelude::*;
use netsim::scenarios::star_switch;
use netsim::Sim;
use nws_bench::{f, Table};

/// One run: `(wall seconds, events)`.
fn run_point(flows: usize) -> (f64, u64) {
    let net = star_switch(16, Bandwidth::mbps(100.0));
    let mut sim = Sim::new(net.topo);
    #[expect(clippy::disallowed_methods, reason = "D1: a printed stopwatch, never a golden value")]
    let start = Instant::now();
    let ids: Vec<FlowId> = (0..flows)
        .map(|i| {
            sim.start_probe_flow(net.hosts[i % 16], net.hosts[(i + 5) % 16], Bytes::kib(256))
                .expect("star switch flows always start")
        })
        .collect();
    sim.run_until_flows_done(&ids, TimeDelta::from_secs(36_000.0))
        .expect("lifecycle completes within the horizon");
    let wall_s = start.elapsed().as_secs_f64();
    let stats = sim.stats();
    // One completion per flow plus every queue event (acks, etc.).
    (wall_s, stats.flows_started + stats.events_processed)
}

fn main() {
    println!("=== engine scaling: flow_lifecycle on a 16-host star switch ===\n");
    let mut t = Table::new(&["flows", "wall ms", "events", "events/sec"]);
    for flows in [16usize, 128, 1024, 4096] {
        // Warm-up run (page cache, branch predictors), then the best of
        // three measured runs — cheap noise rejection.
        let _ = run_point(flows);
        let (wall_s, events) = (0..3)
            .map(|_| run_point(flows))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three runs produce a best");
        t.row(vec![
            flows.to_string(),
            f(wall_s * 1e3, 3),
            events.to_string(),
            f(events as f64 / wall_s, 0),
        ]);
    }
    t.print();
}
