//! E4 — completeness by aggregation (paper §2.3): for pairs with no
//! direct measurement, latencies add and bandwidths take the minimum.
//! "These values may be less accurate than real tests, but are still
//! interesting when no direct test result is available."
//!
//! The full pipeline runs end to end: map ENS-Lyon with ENV, plan the
//! deployment, apply it, let NWS measure for a while, then compare the
//! estimator's aggregated values against fresh direct probes (ground
//! truth) for pairs *no clique measures directly*.
//!
//! Run: `cargo run -p nws-bench --bin exp_aggregation`

use nws_bench::experiments::aggregation;
use nws_bench::{f, map_ens_lyon, Table};

fn main() {
    println!("=== E4: aggregated estimates vs direct measurements (ENS-Lyon) ===\n");
    let a = aggregation(&map_ens_lyon());

    let mut t = Table::new(&[
        "pair",
        "estimated bw (Mbps)",
        "path capacity (Mbps)",
        "bw ratio",
        "estimated lat (ms)",
        "path rtt (ms)",
    ]);
    for p in &a.pairs {
        t.row(vec![
            format!("{} → {}", short(p.src), short(p.dst)),
            f(p.estimated_mbps, 1),
            f(p.capacity_mbps, 1),
            f(p.ratio(), 2),
            p.estimated_latency_ms.map(|l| f(l, 2)).unwrap_or_else(|| "-".into()),
            f(p.rtt_ms, 2),
        ]);
    }
    t.print();

    println!(
        "\nworst bandwidth mis-estimate: {:.2}x -> {}",
        a.worst_ratio(),
        if a.still_interesting() {
            "aggregation is \"less accurate but still interesting\" (REPRODUCED)"
        } else {
            "NOT REPRODUCED"
        }
    );
    println!(
        "\n(Estimates sit below path capacity for two reasons inherent to the\n\
         method: NWS's 64 KiB probes charge the connection latency to the\n\
         transfer, and the bandwidth-min rule is conservative on chains that\n\
         share a medium. The latency-sum rule similarly double-counts shared\n\
         segments — the paper calls such values \"less accurate than real\n\
         tests, but still interesting\".)"
    );
}

fn short(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
