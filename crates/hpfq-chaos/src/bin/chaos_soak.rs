//! The chaos-soak CLI: run the differential fault soak and report.
//!
//! ```text
//! chaos-soak [--seed N] [--horizon SECS] [--trace-dir DIR]
//! ```
//!
//! Exits non-zero if [`hpfq_chaos::ChaosReport::assert_healthy`] finds any
//! breach of the degradation contract, so CI can gate on it directly.
//! `--trace-dir DIR` writes each scheduler's full JSONL trace there
//! (healthy or not) — the artifact `hpfq-trace` queries.

use std::ffi::OsString;
use std::process::ExitCode;

use hpfq_chaos::{run_soak, ChaosConfig};

const USAGE: &str = "usage: chaos-soak [--seed N] [--horizon SECS] [--trace-dir DIR]";

struct Args {
    seed: u64,
    horizon: f64,
    trace_dir: Option<String>,
}

fn parse_args(argv: impl Iterator<Item = OsString>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        horizon: 30.0,
        trace_dir: None,
    };
    let mut it = argv
        .map(OsString::into_string)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|a| format!("argument {a:?} is not UTF-8\n{USAGE}"))?
        .into_iter();
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let v = grab("--seed")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--horizon" => {
                let v = grab("--horizon")?;
                args.horizon = v.parse().map_err(|e| format!("--horizon {v}: {e}"))?;
                if !(args.horizon.is_finite() && args.horizon > 0.0) {
                    return Err(format!("--horizon {v}: must be finite and positive"));
                }
            }
            "--trace-dir" => args.trace_dir = Some(grab("--trace-dir")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args_os().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let cfg = ChaosConfig::all_faults(args.seed, args.horizon);
    println!(
        "chaos soak: seed {}, horizon {} s, faults until {:.1} s",
        cfg.seed,
        cfg.horizon,
        cfg.quiet_from()
    );
    let report = run_soak(&cfg);
    println!(
        "plan: {} outage window(s): {:?}",
        report.outages.len(),
        report.outages
    );
    for run in &report.runs {
        println!("{}", run.summary_json());
    }

    if let Some(dir) = &args.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for run in &report.runs {
            let path = format!("{dir}/chaos-{}-seed{}.jsonl", run.scheduler, cfg.seed);
            if let Err(e) = std::fs::write(&path, &run.trace) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace written: {path}");
        }
    }

    match report.assert_healthy() {
        Ok(()) => {
            println!("soak healthy: all schedulers conserved bytes, no unexcused violations");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            eprintln!("soak UNHEALTHY ({} problem(s)):", problems.len());
            for p in &problems {
                eprintln!("  {p}");
            }
            ExitCode::FAILURE
        }
    }
}
