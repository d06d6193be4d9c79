//! E2 — clique scalability (paper §2.3): "The token-ring algorithms are
//! known to be not very scalable, and the frequency of the measurements
//! obviously decreases when the number of hosts in a given clique
//! increases. The cliques must then be split in sub-cliques to ensure a
//! sufficient network measurement frequency."
//!
//! We measure the interval between successive measurements of one pair as
//! the clique grows, then show that splitting one 8-host clique into two
//! 4-host cliques (on independent switches) restores the frequency.
//!
//! Run: `cargo run -p nws-bench --bin exp_clique_freq`

use nws_bench::experiments::clique_frequency;
use nws_bench::{f, Table};

fn main() {
    println!("=== E2: measurement frequency vs clique size (paper §2.3) ===\n");
    let m = clique_frequency();
    let mut t =
        Table::new(&["clique size", "interval between measurements (s)", "frequency (1/min)"]);
    for (k, iv) in &m.by_size {
        t.row(vec![k.to_string(), f(*iv, 1), f(60.0 / iv, 2)]);
    }
    t.print();

    println!("\n=== sub-clique split (8 hosts) ===\n");
    let mut t = Table::new(&["configuration", "interval (s)", "frequency (1/min)"]);
    for (label, iv) in [("one 8-host clique", m.interval(8)), ("two 4-host cliques", m.split)] {
        t.row(vec![label.into(), f(iv, 1), f(60.0 / iv, 2)]);
    }
    t.print();

    println!();
    println!(
        "frequency decreases with clique size: {}",
        if m.decreases() { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
    println!(
        "splitting restores frequency (paper: \"cliques must then be split in sub-cliques\"): {}",
        if m.split_restores() { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
}
