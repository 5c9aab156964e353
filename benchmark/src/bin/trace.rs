//! `trace`: the per-layer cost ledger.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin trace -- --seed 1
//! ```
//!
//! Runs each workload once with a logging observer on every link, replays
//! the log through every layer under spans, prints the per-layer metrics,
//! writes `benchmark/out/trace-*.json` and the raw spans to
//! `benchmark/out/trace-<workload>.jsonl`, and ends with the driver's
//! one-line JSON object. Exits non-zero if any check failed.

use std::fmt::Write as _;
use std::process::ExitCode;

use hpfq_benchmark::alloc::Counting;
use hpfq_benchmark::ledger::trace_workload;
use hpfq_benchmark::measure::Meta;
use hpfq_benchmark::report::{driver_line, out_dir, write_result, Args};
use hpfq_benchmark::span::RawSpan;

// Only here: `bench` measures on the system allocator, uncounted.
#[global_allocator]
static ALLOC: Counting = Counting;

const NOTES: &[&str] = &[
    "events.* models the seed's event protocol (Wake / TxComplete / Arrive / Deliver on \
     hpfq_events::Engine, 56-byte payload); the engine's own event type is private, so this is \
     a model of it, not a capture",
    "<layer>.self_ns_per_pkt + network.residual_ns_per_pkt = trace.bench_ns_per_pkt",
    "*_ns metrics are mean nanoseconds per call with callees; self times exclude callees; \
     trace.span_overhead_ns has been taken out of both",
];

fn write_raw(workload: &str, raw: &[RawSpan]) {
    let mut out = String::new();
    for r in raw {
        let (pseq, pname) = match r.parent {
            Some((seq, name)) => (seq.to_string(), format!("\"{}\"", name.as_str())),
            None => ("null".to_owned(), "null".to_owned()),
        };
        let _ = writeln!(
            out,
            "{{\"seq\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent_seq\": {pseq}, \"parent\": {pname}}}",
            r.seq,
            r.name.as_str(),
            r.start_ns,
            r.end_ns
        );
    }
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args(), 1) {
        Ok(a) if !a.twice => a,
        Ok(_) => {
            eprintln!("trace: --twice belongs to bench");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("trace: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = Meta::collect(args.seed, args.seconds);
    println!("{}", meta.header("trace"));
    for note in NOTES {
        println!("note: {note}");
    }
    let outcomes: Vec<_> = args
        .workloads
        .iter()
        .map(|name| {
            let (o, raw) = trace_workload(name, args.seed, args.seconds);
            print!("{}", o.table());
            write_raw(o.workload, &raw);
            o
        })
        .collect();
    let path = write_result("trace", &meta, &outcomes, NOTES);
    println!("wrote {}", path.display());
    println!("{}", driver_line(&outcomes));
    if outcomes.iter().all(|o| o.failures.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
