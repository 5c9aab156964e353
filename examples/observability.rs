//! Observability end-to-end: trace a run to JSONL, aggregate metrics,
//! check the paper's invariants online, then re-read the trace offline.
//!
//! ```text
//! cargo run --release --example observability [trace-path]
//! ```
//!
//! A two-agency hierarchy on a 1 Mbit/s link carries four CBR flows for
//! five seconds while three sinks watch: a [`JsonlObserver`] streaming
//! every event to `trace-path` (default `/tmp/hpfq-trace.jsonl`), a
//! [`MetricsObserver`] aggregating counters and delay histograms, and an
//! [`InvariantObserver`] checking tag order, virtual-time monotonicity,
//! SEFF eligibility, and work conservation as the run happens. The trace
//! is then parsed back and the per-packet service records rebuilt without
//! re-simulating.

use std::io::BufWriter;

use hpfq::analysis::service_records_from_trace;
use hpfq::obs::jsonl::parse_trace;
use hpfq::obs::{InvariantObserver, JsonlObserver, MetricsObserver};
use hpfq::sim::{CbrSource, Network, Route};
use hpfq::{Hierarchy, SchedulerKind};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/hpfq-trace.jsonl".into());
    let file = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
    let sinks = (
        JsonlObserver::new(BufWriter::new(file)),
        (MetricsObserver::new(), InvariantObserver::new()),
    );

    // 1 Mbit/s link, two agencies (60/40), two leaves each.
    let mut bld =
        Hierarchy::builder_with_observer(1e6, |r| SchedulerKind::Wf2qPlus.build(r), sinks);
    let root = bld.root();
    let a = bld.add_internal(root, 0.6).expect("valid share");
    let b = bld.add_internal(root, 0.4).expect("valid share");
    let leaves = [
        bld.add_leaf(a, 0.5).expect("valid share"),
        bld.add_leaf(a, 0.5).expect("valid share"),
        bld.add_leaf(b, 0.5).expect("valid share"),
        bld.add_leaf(b, 0.5).expect("valid share"),
    ];

    let mut sim = Network::single_link(bld.build());
    for (flow, &leaf) in (0u32..).zip(&leaves) {
        // 0.35 Mbit/s each: 1.4x oversubscribed, so queues build and the
        // delay histograms have something to show.
        sim.add_route(
            flow,
            CbrSource::new(flow, 500, 0.35e6, 0.0, 5.0),
            Route::open_loop(leaf),
        );
    }
    sim.run(5.0);

    let total = sim.stats.total_packets;
    let (jsonl, (metrics, invariants)) = sim.into_observers().remove(0);
    assert_eq!(jsonl.write_errors, 0, "trace writes failed");
    drop(jsonl.into_inner()); // flush the BufWriter before re-reading
    println!("simulated 5 s: {total} packets transmitted");
    println!(
        "invariants: {}",
        if invariants.is_clean() {
            format!("clean ({} events checked)", invariants.events_checked)
        } else {
            invariants.summary()
        }
    );
    println!("\n{}", metrics.report());

    // Offline pass: re-read the trace and rebuild service records.
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let (events, skipped) = parse_trace(&text);
    let (records, anomalies) = service_records_from_trace(&events);
    println!(
        "offline: {} trace lines -> {} events ({} unparseable), \
         {} service records rebuilt ({:?})",
        text.lines().count(),
        events.len(),
        skipped,
        records.len(),
        anomalies,
    );
    assert_eq!(
        u64::try_from(records.len()),
        Ok(total),
        "offline/live mismatch"
    );
    println!("trace written to {path}");
}
