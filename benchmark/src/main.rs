//! `nws-benchmark`: one quiet benchmark of the paper's pipeline.
//!
//! ```text
//! nws-benchmark --workload <name> --seed <u64> --trace <0|1> [--smoke]
//! nws-benchmark --selfcheck
//! ```
//!
//! `--seconds <n>` is accepted and ignored: a run is fixed work, never
//! fixed time.
//!
//! See `benchmark/README.md` for what is measured and why it is measured
//! this way.

mod harness;
mod json;
mod selfcheck;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use harness::{run, Opts};
use json::Json;
use workloads::{Deploy, FlowStorm, Operate, ServeMix, NAMES};

const USAGE: &str = "usage: nws-benchmark --workload <deploy_5k|operate_1k|flow_storm|serve_mix> \
                     [--seed <u64>] [--trace <0|1>] [--smoke]\n       \
                     nws-benchmark --selfcheck";

struct Args {
    workload: Option<String>,
    opts: Opts,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        opts: Opts { seed: 2004, trace: false, smoke: false },
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The driver passes it; the rounds of a run are constants.
            "--seconds" => {
                value()?;
            }
            "--trace" => {
                out.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => out.opts.smoke = true,
            "--selfcheck" => out.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::run();
    }
    let expected =
        Json::parse(include_str!("../expected.json")).expect("benchmark/expected.json is JSON");
    let Some(name) = args.workload.as_deref() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match name {
        "deploy_5k" => run::<Deploy>(&args.opts, started, &expected),
        "operate_1k" => run::<Operate>(&args.opts, started, &expected),
        "flow_storm" => run::<FlowStorm>(&args.opts, started, &expected),
        "serve_mix" => run::<ServeMix>(&args.opts, started, &expected),
        other => {
            eprintln!("unknown workload {other:?}; the workloads are {NAMES:?}");
            return ExitCode::from(2);
        }
    };
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&args("--workload flow_storm --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("flow_storm"));
        assert_eq!((a.opts.seed, a.opts.trace, a.opts.smoke), (7, true, false));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in ["--bogus", "--seed", "--seed x", "--trace 2", "--seconds", "--runs 5"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
