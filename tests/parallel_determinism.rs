//! Golden byte-identity oracle for deterministic parallel execution.
//!
//! `Network::run_parallel(n)` promises *bit-identical* results to the
//! sequential `run()` — same merged JSONL trace, same per-flow statistics,
//! same per-link conservation ledgers — for any shard count. These tests
//! pin that promise on the two reference scenarios:
//!
//! * the reduced Fig. 3 single-link workload (outage commands + finite
//!   buffer in the mix), where every parallel request must *fall back*
//!   to the sequential path and still reproduce it byte-for-byte;
//! * a 3-hop tandem with cross traffic, a mid-run outage on the middle
//!   link and flow churn (`RemoveFlow` mid-path), where `n ∈ {2, 4}`
//!   genuinely shards across `std::thread::scope` workers.
//!
//! Traces are collected through per-link `JsonlObserver<Vec<u8>>` sinks
//! and merged with [`merge_traces`], whose `(t, link)` stable sort makes
//! the merged bytes a pure function of the per-link streams — the same
//! canonical form regardless of how execution interleaved the links.

mod common;

use common::{fig3_net, tandem_net, Obs};
use hpfq::core::MixedScheduler;
use hpfq::obs::jsonl::merge_traces;
use hpfq::sim::{FallbackReason, FlowStats, LinkLedger, Network, ServiceRecord};

/// Everything a run leaves behind that the oracle compares.
#[derive(Debug, PartialEq)]
struct Snapshot {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    total_bytes: u64,
    total_packets: u64,
    last_departure: f64,
    ledgers: Vec<LinkLedger>,
    merged: String,
}

/// Drains a finished network into its comparable snapshot.
fn snapshot(net: Network<MixedScheduler, Obs>, flows: &[u32], traced: &[u32]) -> Snapshot {
    net.verify_conservation().unwrap();
    let flows = flows.iter().map(|&f| (f, net.stats.flow(f))).collect();
    let records = traced
        .iter()
        .map(|&f| (f, net.stats.trace(f).to_vec()))
        .collect();
    let total_bytes = net.stats.total_bytes;
    let total_packets = net.stats.total_packets;
    let last_departure = net.stats.last_departure;
    let ledgers = (0..net.link_count()).map(|l| net.link_ledger(l)).collect();
    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect();
    Snapshot {
        flows,
        records,
        total_bytes,
        total_packets,
        last_departure,
        ledgers,
        merged: merge_traces(&bufs),
    }
}

fn assert_snapshots_match(seq: &Snapshot, par: &Snapshot, label: &str) {
    assert_eq!(seq.flows, par.flows, "{label}: per-flow stats diverged");
    assert_eq!(
        seq.records, par.records,
        "{label}: service records diverged"
    );
    assert_eq!(seq.total_bytes, par.total_bytes, "{label}: total bytes");
    assert_eq!(seq.total_packets, par.total_packets, "{label}: packets");
    assert_eq!(
        seq.last_departure, par.last_departure,
        "{label}: last departure"
    );
    assert_eq!(seq.ledgers, par.ledgers, "{label}: link ledgers diverged");
    if seq.merged != par.merged {
        // Find the first diverging line so the failure is actionable
        // without diffing megabytes by eye.
        for (i, (a, b)) in seq.merged.lines().zip(par.merged.lines()).enumerate() {
            assert_eq!(a, b, "{label}: traces diverge at merged line {i}");
        }
        panic!(
            "{label}: trace lengths diverge ({} vs {} lines)",
            seq.merged.lines().count(),
            par.merged.lines().count()
        );
    }
}

const FIG3_FLOWS: &[u32] = &[1, 2, 11, 31, 16];
const TANDEM_FLOWS: &[u32] = &[0, 100, 101, 102];

#[test]
fn fig3_single_link_parallel_falls_back_byte_identically() {
    let mut seq = fig3_net();
    seq.run(2.0);
    let golden = snapshot(seq, FIG3_FLOWS, &[1]);
    assert!(
        golden.merged.lines().count() > 1000,
        "trace too small to be meaningful"
    );

    for n in [1usize, 2, 4] {
        let mut net = fig3_net();
        let report = net.run_parallel(2.0, n);
        // One link can't shard: every request falls back, and the
        // fallback path must still be the byte-identical sequential run.
        assert_eq!(report.fallback, Some(FallbackReason::SingleShard), "n={n}");
        assert_eq!(report.shards, 1, "n={n}");
        let snap = snapshot(net, FIG3_FLOWS, &[1]);
        assert_snapshots_match(&golden, &snap, &format!("fig3 n={n}"));
    }
}

#[test]
fn tandem_parallel_matches_sequential_byte_for_byte() {
    let mut seq = tandem_net();
    seq.run(8.0);
    let golden = snapshot(seq, TANDEM_FLOWS, &[0]);
    assert!(
        golden.merged.lines().count() > 1000,
        "trace too small to be meaningful"
    );
    // The scenario is non-trivial: churn purged bytes mid-path.
    let tandem = golden.flows.iter().find(|&&(f, _)| f == 0).unwrap();
    assert!(tandem.1.purged_bytes > 0, "{:?}", tandem.1);

    for n in [1usize, 2, 4] {
        let mut net = tandem_net();
        let report = net.run_parallel(8.0, n);
        if n == 1 {
            assert_eq!(report.fallback, Some(FallbackReason::SingleShard));
        } else {
            assert_eq!(report.fallback, None, "n={n} must genuinely shard");
            // 4 requested shards clamp to the 3 links available.
            assert_eq!(report.shards, n.min(3), "n={n}");
            assert!(report.epochs > 0, "n={n} ran zero epochs");
            // Lookahead is the tandem route's inter-shard hop spacing.
            assert_eq!(report.lookahead, 0.002, "n={n}");
        }
        let snap = snapshot(net, TANDEM_FLOWS, &[0]);
        assert_snapshots_match(&golden, &snap, &format!("tandem n={n}"));
    }
}
