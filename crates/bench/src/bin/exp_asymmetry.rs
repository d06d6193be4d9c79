//! E7 — the asymmetric-route blind spot (paper §4.3): "the route between
//! the-doors and popc goes trough a 10 Mbps link, whereas in the other
//! direction it is on 100 Mbps links only. ... Since ENV bandwidth tests
//! are conducted in only one way, the system cannot detect such problems."
//!
//! On a platform with a 10/100 Mbps direction asymmetry, ENV's one-way
//! view reports a single figure; the ground truth differs by 10×. The
//! deployed NWS, measuring every directed pair of its cliques, does see
//! both directions — quantifying exactly what the mapping missed.
//!
//! Run: `cargo run -p nws-bench --bin exp_asymmetry`

use nws_bench::experiments::asymmetry;
use nws_bench::{f, Table};

fn main() {
    println!("=== E7: ENV cannot see route asymmetry; NWS can ===\n");
    let a = asymmetry();

    let mut t = Table::new(&["observer", "a→b (Mbps)", "b→a (Mbps)", "sees asymmetry?"]);
    t.row(vec![
        "ground truth".into(),
        f(a.truth_ab, 1),
        f(a.truth_ba, 1),
        "10× by construction".into(),
    ]);
    t.row(vec![
        "ENV (one-way tests)".into(),
        f(a.env, 1),
        "(not tested)".into(),
        "NO — single figure".into(),
    ]);
    t.row(vec![
        "deployed NWS clique".into(),
        f(a.nws_ab, 1),
        f(a.nws_ba, 1),
        if a.nws_sees_it() { "YES".into() } else { "no".to_string() },
    ]);
    t.print();

    println!(
        "\nENV reports {:.1} Mbps for a link whose directions truly run at {:.1} / {:.1} Mbps.",
        a.env, a.truth_ab, a.truth_ba
    );
    println!(
        "paper §4.3 limitation (\"cannot detect such problems\") and its §2.2 remedy \
         (n(n−1) directed tests): {}",
        if a.env_blind_nws_not() { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
}
