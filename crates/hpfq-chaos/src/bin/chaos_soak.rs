//! The chaos-soak CLI: run the differential fault soak and report.
//!
//! ```text
//! chaos-soak [--seed N] [--horizon SECS] [--trace-dir DIR] [--flight-dir DIR]
//!            [--quarantine-demo] [--halt-demo]
//! ```
//!
//! Exits non-zero if [`hpfq_chaos::ChaosReport::assert_healthy`] finds any
//! breach of the degradation contract, so CI can gate on it directly.
//! `--flight-dir DIR` writes each run's flight-recorder snapshot there
//! when (and only when) the soak is unhealthy — the post-mortem artifact
//! CI uploads. `--halt-demo` instead drives the escalation ladder to a
//! halt on purpose and writes the dump the recorder emits at that moment
//! (to `--flight-dir`, default the working directory).

use std::ffi::OsString;
use std::process::ExitCode;

use hpfq_chaos::{halt_scenario, quarantine_scenario, run_soak, ChaosConfig};

const USAGE: &str = "usage: chaos-soak [--seed N] [--horizon SECS] [--trace-dir DIR] \
                     [--flight-dir DIR] [--quarantine-demo] [--halt-demo]";

struct Args {
    seed: u64,
    horizon: f64,
    trace_dir: Option<String>,
    flight_dir: Option<String>,
    quarantine_demo: bool,
    halt_demo: bool,
}

fn parse_args(argv: impl Iterator<Item = OsString>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        horizon: 30.0,
        trace_dir: None,
        flight_dir: None,
        quarantine_demo: false,
        halt_demo: false,
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
            "--flight-dir" => args.flight_dir = Some(grab("--flight-dir")?),
            "--quarantine-demo" => args.quarantine_demo = true,
            "--halt-demo" => args.halt_demo = true,
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

    if args.halt_demo {
        let dir = args.flight_dir.as_deref().unwrap_or(".");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        let path = format!("{dir}/flight-halt-seed{}.jsonl", args.seed);
        let out = halt_scenario(args.seed, &path);
        println!(
            "halt demo (seed {}): halted {}, quarantined {:?}, {} flight dump(s) -> {path}",
            args.seed, out.halted, out.quarantined, out.dumps_written
        );
        return if out.halted && out.dumps_written > 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!("halt demo FAILED: expected a halt and at least one flight dump");
            ExitCode::FAILURE
        };
    }

    if args.quarantine_demo {
        let out = quarantine_scenario(args.seed);
        println!(
            "quarantine demo (seed {}): isolated flows {:?}, {} B served, \
             root share after {:.3}, conservation {}",
            args.seed,
            out.quarantined,
            out.served_bytes,
            out.root_share_after,
            match &out.conservation {
                Ok(()) => "OK".to_string(),
                Err(e) => format!("BROKEN: {e}"),
            }
        );
        return if out.conservation.is_ok() && !out.quarantined.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

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
            // Post-mortem: persist every run's flight-recorder snapshot so
            // CI can upload them as failure artifacts.
            if let Some(dir) = &args.flight_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {dir}: {e}");
                } else {
                    for run in &report.runs {
                        let path = format!("{dir}/flight-{}-seed{}.jsonl", run.scheduler, cfg.seed);
                        match std::fs::write(&path, &run.flight_dump) {
                            Ok(()) => eprintln!("flight dump written: {path}"),
                            Err(e) => eprintln!("cannot write {path}: {e}"),
                        }
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}
