//! E1 — the measurement-collision claim of paper §2.3: "If two
//! measurements were conducted on a given network link at the same time,
//! both of them could be influenced by the bandwidth consumption of the
//! other one, and may therefore report an availability of about the half
//! of the real value."
//!
//! Two sensor pairs share one 100 Mbps hub. Free-running (uncoordinated)
//! sensors fire simultaneously and halve each other; the same sensors
//! inside one NWS clique measure exclusively and see the full rate.
//!
//! Run: `cargo run -p nws-bench --bin exp_collision`

use nws_bench::experiments::collision;
use nws_bench::{f, Table};

fn main() {
    println!("=== E1: measurement collisions on a 100 Mbps hub (paper §2.3) ===\n");
    let c = collision();

    let mut t = Table::new(&[
        "configuration",
        "pair A reports (Mbps)",
        "pair B reports (Mbps)",
        "error vs truth",
    ]);
    let truth = 100.0;
    for (label, [a, b]) in
        [("free-running (no cliques)", c.free), ("one NWS clique (token ring)", c.clique)]
    {
        t.row(vec![label.into(), f(a, 1), f(b, 1), format!("{:.0}%", 100.0 * (truth - a) / truth)]);
    }
    t.print();

    println!();
    println!(
        "paper claim \"about the half of the real value\" without coordination: {}",
        if c.halved() { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
    println!(
        "cliques restore accurate measurements: {}",
        if c.accurate() { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
}
