//! E6 — threshold sensitivity (paper §4.2.2 / §4.3): "Most of these
//! experiments use thresholds to interpret the measurement results. The
//! value of this thresholds may have a great impact on the mapping
//! results ... experimental thresholds may be problematic, because they
//! may be specific to platform characteristics."
//!
//! The sweep re-runs the ENS-Lyon mapping under varied thresholds and
//! background cross-traffic and scores the result against ground truth
//! (the 4 expected networks with their kinds). Sweep points run on scoped
//! worker threads (each builds its own platform) and are read back from
//! their join handles in spawn order.
//!
//! Run: `cargo run -p nws-bench --bin exp_thresholds`

use envmap::EnvThresholds;
use nws_bench::experiments::threshold_point;
use nws_bench::Table;

fn main() {
    println!("=== E6: threshold sensitivity under background traffic ===\n");

    // (label, thresholds)
    let threshold_sets: Vec<(&str, EnvThresholds)> = vec![
        ("paper (3 / 1.25 / 0.7–0.9)", EnvThresholds::paper()),
        ("tight split (1.5)", EnvThresholds { h2h_split_ratio: 1.5, ..EnvThresholds::paper() }),
        ("loose split (6)", EnvThresholds { h2h_split_ratio: 6.0, ..EnvThresholds::paper() }),
        (
            "strict pairwise (2.0)",
            EnvThresholds { pairwise_dependent_ratio: 2.0, ..EnvThresholds::paper() },
        ),
        (
            "narrow jam band (0.85–0.9)",
            EnvThresholds { jam_shared_below: 0.85, ..EnvThresholds::paper() },
        ),
        (
            "wide jam band (0.5–0.98)",
            EnvThresholds {
                jam_shared_below: 0.5,
                jam_switched_above: 0.98,
                ..EnvThresholds::paper()
            },
        ),
    ];
    // Background-traffic intensities: None = quiet, then mean inter-arrival.
    let noise_levels: Vec<(&str, Option<f64>)> =
        vec![("quiet", None), ("light (10 s)", Some(10.0)), ("heavy (2 s)", Some(2.0))];

    let rows: Vec<(&str, &str, _)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ti, &(tl, th)) in threshold_sets.iter().enumerate() {
            for (ni, &(nl, np)) in noise_levels.iter().enumerate() {
                let seed = 1000 + (ti * 10 + ni) as u64;
                handles.push((tl, nl, scope.spawn(move || threshold_point(th, np, seed))));
            }
        }
        handles.into_iter().map(|(tl, nl, h)| (tl, nl, h.join().expect("sweep point"))).collect()
    });

    let mut t = Table::new(&["thresholds", "traffic", "recovered networks (of 4)"]);
    for (tl, nl, s) in &rows {
        t.row(vec![tl.to_string(), nl.to_string(), format!("{s}/4")]);
    }
    t.print();
    let paper_quiet = rows[0].2;

    println!(
        "\npaper thresholds on a quiet platform recover the full Figure 1(b): {}",
        if paper_quiet == 4 { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
    println!(
        "\n(Deviations under modified thresholds and load echo §4.3: the values were\n\
         \"determined experimentally and empirically\" and are platform-specific.)"
    );
}
