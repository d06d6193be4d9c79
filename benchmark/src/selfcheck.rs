//! `--selfcheck`: does the same code, run twice, land inside the
//! benchmark's own bounds? Two alternating sets of runs per workload,
//! compared the way the acceptance check compares them: gap between the
//! sets' medians, spread between the quartiles, and the largest single-run
//! deviation, all as shares of the median.

use std::process::{Command, ExitCode};

use crate::harness::{median, quartiles, RunResult};
use crate::json::Json;

/// Runs per set and workload.
const RUNS: usize = 10;

/// The seeds `expected.json` covers, so every run is checked by the oracle.
const SEEDS: [u64; 2] = [2004, 7];

struct Gate {
    name: String,
    bound: f64,
}

fn one_run(workload: &str, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = RunResult::from_line(line)?;
    if !result.correct || result.failed > 0 {
        return Err(format!("{workload} seed {seed}: incorrect run: {line}"));
    }
    Ok(result)
}

pub fn run() -> ExitCode {
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run --selfcheck from the repository root)"))
        .and_then(|t| Json::parse(&t))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names = |key: &str| -> Vec<&Json> {
        doc.get(key).and_then(Json::as_arr).map(|a| a.iter().collect()).unwrap_or_default()
    };
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let gates: Vec<Gate> = names("end_to_end")
        .iter()
        .map(|m| Gate {
            name: text(m, "name"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.1),
        })
        .collect();

    println!("# {}", crate::harness::machine_header());
    println!("# two alternating sets of {RUNS} runs per workload, seeds {SEEDS:?} in turn");
    let mut failures = 0;
    for w in names("workloads") {
        let workload = text(w, "name");
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for k in 0..RUNS {
            // Both sets run pair `k` on the same seed, and they take turns
            // at going first, so drift inside a pair favours neither.
            let seed = SEEDS[k / 2 % SEEDS.len()];
            for set in [k % 2, 1 - k % 2] {
                match one_run(&workload, seed) {
                    Ok(r) => sets[set].push(r),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("\n{workload}");
        println!(
            "  {:<12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
            "metric", "set", "q1", "median", "q3", "spread", "max dev", "bound"
        );
        let flag = |bad: bool| if bad { "  <-- outside the bound" } else { "" };
        for gate in &gates {
            let values = |set: &[RunResult]| -> Vec<f64> {
                set.iter().filter_map(|r| r.metric(&gate.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            for (label, v) in [("A", &a), ("B", &b)] {
                let [q1, q2, q3] = quartiles(v);
                let spread = (q3 - q1) / q2;
                let dev = v.iter().map(|x| (x - q2).abs() / q2).fold(0.0, f64::max);
                let bad = spread > gate.bound || dev > gate.bound;
                failures += usize::from(bad);
                println!(
                    "  {:<12} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>6.2}{}",
                    gate.name,
                    label,
                    q1,
                    q2,
                    q3,
                    spread,
                    dev,
                    gate.bound,
                    flag(bad)
                );
            }
            let gap = (median(&b) - median(&a)).abs() / median(&a);
            let bad = gap > gate.bound;
            failures += usize::from(bad);
            println!("  {:<12} gap between the medians {gap:.4}{}", gate.name, flag(bad));
        }
    }
    if failures > 0 {
        println!("\nselfcheck FAILED: {failures} rows outside their bound");
        return ExitCode::FAILURE;
    }
    println!("\nselfcheck passed: every gap, spread and deviation is inside its bound");
    ExitCode::SUCCESS
}
