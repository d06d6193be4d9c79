//! The GridML listings of paper §4.2 and §4.3, regenerated: the lookup
//! document, the structural tree, the ENV_Switched sci network, and the
//! merged two-site document with gateway aliases.
//!
//! Run: `cargo run -p nws-bench --bin gridml_listings`

use nws_bench::experiments::gridml_listing;
use nws_bench::map_ens_lyon;

fn main() {
    let g = gridml_listing(&map_ens_lyon());

    println!("=== GridML of the outside run (lookup + structural + ENV networks) ===\n");
    print!("{}", g.outside_xml);

    println!("\n=== GridML of the inside run ===\n");
    print!("{}", g.inside_xml);

    println!(
        "\n=== merged document (paper §4.3: \"often as simple as a file concatenation\") ===\n"
    );
    print!("{}", g.merged_xml);

    println!("\npaper checkpoints:");
    for (what, ok) in &g.checks {
        println!("  - {what}: {}", if *ok { "OK" } else { "MISMATCH" });
    }
}
