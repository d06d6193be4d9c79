//! The paper's claims, checked: Figures 1–3, the GridML listings of
//! §4.2 / §4.3 and experiments E1–E10, each one function of
//! `nws_bench::experiments` whose verdicts are PASS / FAIL rows.
//!
//! `repro_summary` maps ENS-Lyon once, runs every experiment and prints
//! only their rows; `repro_summary <ID>` prints that experiment's tables,
//! then its rows. DESIGN.md §3 lists the ids. Either form exits non-zero
//! on any FAIL row; an unknown id exits non-zero and names the valid ids.
//!
//! Run: `cargo run --release -p nws-bench --bin repro_summary [-- <ID>]`

use nws_bench::experiments::EXPERIMENTS;
use nws_bench::map_ens_lyon;

fn main() {
    let only = std::env::args().nth(1);
    let chosen: Vec<_> =
        EXPERIMENTS.iter().filter(|(id, _)| only.as_deref().is_none_or(|o| o == *id)).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment id {:?}; the ids are {}",
            only.unwrap_or_default(),
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let m = map_ens_lyon();
    let (mut total, mut failed) = (0, 0);
    for (_, run) in chosen {
        let report = run(&m);
        if only.is_some() {
            println!("{}", report.text);
        }
        for check in &report.checks {
            println!("{}", check.row());
            total += 1;
            failed += usize::from(!check.pass);
        }
    }
    println!("\n{} of {total} paper checkpoints reproduced", total - failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
