//! E9 — the §6 host-locking extension, implemented and ablated.
//!
//! The paper concedes its plan's residual flaw: "It makes sure that only
//! one pair of hosts from a given group will conduct an experiment at a
//! given time. ... That is to say that a possibility to lock hosts (and
//! not networks) is still needed."
//!
//! On ENS-Lyon the flaw is live: `myri0` belongs to both the Hub 2 clique
//! and the inter clique; both rings rendezvous at it every cycle, so
//! `popc0 → myri0` and `canaria → myri0` probes collide on the 10 Mbps
//! segment round after round, halving every stored measurement. With
//! host locks (a holder must obtain the target's permission first) the
//! collisions disappear.
//!
//! Run: `cargo run -p nws-bench --bin exp_host_locking`

use nws_bench::experiments::host_locking;
use nws_bench::{f, map_ens_lyon, Table};

fn main() {
    println!("=== E9: host-level measurement locks (the paper's §6 proposal) ===\n");
    println!("series on the 10 Mbps Hub 2 segment (true exclusive value ≈ 9.9 Mbps):\n");

    let m = map_ens_lyon();
    let without = host_locking(&m, false);
    let with = host_locking(&m, true);

    let mut t = Table::new(&[
        "configuration",
        "hub2 pair mean (Mbps)",
        "hub2 pair last (Mbps)",
        "inter pair mean (Mbps)",
        "total stores",
    ]);
    for (label, o) in [("paper plan (no host locks)", &without), ("with §6 host locks", &with)] {
        t.row(vec![
            label.into(),
            f(o.hub2_mean, 2),
            f(o.hub2_last, 2),
            f(o.inter_mean, 2),
            o.stores.to_string(),
        ]);
    }
    t.print();

    println!();
    println!(
        "flaw reproduced without locks (persistent ~50% collisions at the shared member): {}",
        if without.colliding() { "YES" } else { "NO" }
    );
    println!("locks restore accurate measurements: {}", if with.accurate() { "YES" } else { "NO" });
    println!(
        "\n(The locking protocol costs a request/grant/release exchange per probe\n\
         and occasionally skips a peer on timeout; the store counts above show\n\
         the throughput price paid for accuracy.)"
    );
}
