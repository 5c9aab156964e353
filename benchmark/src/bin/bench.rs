//! `bench`: the end-to-end metrics, tracing off.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin bench -- --seed 1
//! ```
//!
//! Runs each workload's repetitions, checks the outputs, prints every metric
//! by name and unit, writes `benchmark/out/bench-*.json`, and ends with the
//! driver's one-line JSON object. Exits non-zero if any check failed.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hpfq_benchmark::measure::{peak_rss_mb, Meta, Summary};
use hpfq_benchmark::report::{
    driver_line, out_dir, write_result, Args, MetricDef, Outcome, END_TO_END,
};
use hpfq_benchmark::workloads::{run_rep, Rep, Timed, Workload, CHECKS_PER_REP};
use hpfq_obs::NoopObserver;

/// No repetition starts once a workload has had this much wall time (it
/// needs 10-40 s on a host that leaves it alone) — but never fewer than
/// [`MIN_REPS`] run.
const WALL_CAP: Duration = Duration::from_secs(100);
const MIN_REPS: usize = 3;

fn run_workload(name: &str, seed: u64, seconds: f64) -> Outcome {
    let w = Workload::by_name(name, seed).expect("name was validated by Args::parse");
    let window = w.window_sim(seconds);
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut reps: Vec<Rep> = Vec::with_capacity(w.reps);
    let started = Instant::now();
    for rep_no in 0..w.reps {
        // A host that takes the CPU away for most of a minute must not push
        // the run past the driver's 180 s: the work per repetition is fixed,
        // so fewer of them only leaves the composite fewer runs to pick from.
        if rep_no >= MIN_REPS && started.elapsed() > WALL_CAP {
            eprintln!(
                "bench: {name}: stopping after {rep_no} of {} repetitions ({WALL_CAP:?} of wall time used)",
                w.reps
            );
            break;
        }
        // The network is dropped before the next repetition builds its own,
        // so peak RSS is one network, not `reps` of them.
        let (rep, _) = run_rep(&w, window, |_| NoopObserver);
        attempted += CHECKS_PER_REP;
        failures.extend(
            rep.failed_checks
                .iter()
                .map(|f| format!("rep {rep_no}: {f}")),
        );
        if let Some(first) = reps.first() {
            attempted += 1;
            if rep.digest != first.digest {
                failures.push(format!(
                    "rep {rep_no}: sim_digest {:016x} differs from rep 0's {:016x}",
                    rep.digest, first.digest
                ));
            }
        }
        reps.push(rep);
    }
    // Headline values come from the composite repetition (each segment at
    // its least disturbed); the per-repetition range is printed beside them.
    let best = Rep::fastest_of(&reps).timed();
    let raw: Vec<Timed> = reps.iter().map(Rep::timed).collect();
    let over = |value: f64, pick: fn(&Timed) -> f64| {
        Summary::over(value, &raw.iter().map(pick).collect::<Vec<_>>())
    };
    let summary = |d: &MetricDef| match d.name {
        "setup_s" => over(best.setup_s, |t| t.setup_s),
        "pkts_per_s" => over(best.pkts_per_s, |t| t.pkts_per_s),
        "ns_per_pkt_p50" => over(best.ns_per_pkt_p50, |t| t.ns_per_pkt_p50),
        "ns_per_pkt_p95" => over(best.ns_per_pkt_p95, |t| t.ns_per_pkt_p95),
        "peak_rss_mb" => Summary::one(peak_rss_mb()),
        "rt_delay_over_bound" => Summary::one(reps[0].rt_delay_over_bound),
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    Outcome {
        workload: w.name,
        metrics: END_TO_END.iter().map(|d| (*d, summary(d))).collect(),
        sim_digest: reps[0].digest,
        attempted,
        failures,
    }
}

/// Runs `name` in a child process of this binary and reads its outcome
/// back. Peak RSS belongs to a process: a workload that shared one with
/// others (several `--workload`s, `--twice`) would report the largest peak
/// before it — and the allocator keeps enough of a freed 230 MB network to
/// move the small workloads' figure by more than its bound.
fn run_isolated(name: &str, args: &Args) -> Result<Outcome, String> {
    let path = out_dir().join(format!("bench-{name}-seed{}.outcome", args.seed));
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    // The exit code says whether a check failed; so does the outcome.
    Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--outcome")
        .arg(&path)
        .status()
        .map_err(|e| format!("could not run {name} in a child process: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{name}: the child left no outcome at {}: {e}",
            path.display()
        )
    })?;
    let _ = std::fs::remove_file(&path);
    Outcome::from_lines(&text, END_TO_END).map_err(|e| format!("{name}: {e}"))
}

/// One outcome per workload asked for: in this process when it is the only
/// one, else each in a child of its own.
fn run_set(args: &Args) -> Result<Vec<Outcome>, String> {
    args.workloads
        .iter()
        .map(|name| {
            if args.twice || args.workloads.len() > 1 {
                return run_isolated(name, args);
            }
            let o = run_workload(name, args.seed, args.seconds);
            print!("{}", o.table());
            Ok(o)
        })
        .collect()
}

/// `--twice`: every end-to-end metric of the second set must be within its
/// bound of the first, in the direction that counts as worse — and the
/// deterministic ones must repeat exactly.
fn compare(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.sim_digest != b.sim_digest {
            out.push(format!(
                "{}: sim_digest differs between the two sets",
                a.workload
            ));
        }
        for ((d, sa), (_, sb)) in a.metrics.iter().zip(&b.metrics) {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let (x, y) = (sa.value, sb.value);
            // Either set may be the slower one: measure the gap both ways.
            let gap = (x - y).abs() / x.min(y);
            let verdict = if gap <= bound { "ok" } else { "OVER" };
            println!(
                "twice {:<10} {:<20} {:>14.4} {:>14.4} gap {:>6.2}% bound {:>5.1}% {verdict}",
                a.workload,
                d.name,
                x,
                y,
                gap * 100.0,
                bound * 100.0
            );
            if gap > bound {
                out.push(format!(
                    "{}: {} differs by {:.2}% between the two sets (bound {:.1}%)",
                    a.workload,
                    d.name,
                    gap * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args(), 0) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.outcome {
        // The child of `run_isolated`: one workload, its table, its outcome.
        let [name] = &args.workloads[..] else {
            eprintln!("bench: --outcome takes exactly one --workload");
            return ExitCode::from(2);
        };
        let o = run_workload(name, args.seed, args.seconds);
        print!("{}", o.table());
        if let Err(e) = std::fs::write(path, o.to_lines()) {
            eprintln!("bench: could not write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        return if o.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let meta = Meta::collect(args.seed, args.seconds);
    println!("{}", meta.header("bench"));
    let sets = run_set(&args).and_then(|first| {
        let second = if args.twice {
            run_set(&args)?
        } else {
            Vec::new()
        };
        Ok((first, second))
    });
    let (mut outcomes, second) = match sets {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut repeat_failures = Vec::new();
    if args.twice {
        repeat_failures = compare(&outcomes, &second);
        for f in &repeat_failures {
            println!("FAILED REPEAT: {f}");
        }
        // The second set's checks count too.
        outcomes.extend(second);
    }
    let path = write_result("bench", &meta, &outcomes, &[]);
    println!("wrote {}", path.display());
    // Two outcomes per workload have no single driver line.
    if !args.twice {
        println!("{}", driver_line(&outcomes));
    }
    if repeat_failures.is_empty() && outcomes.iter().all(|o| o.failures.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
