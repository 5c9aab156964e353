//! Crash containment golden tests: an injected worker panic must be
//! caught, classified, rolled back to the last epoch checkpoint, and
//! retried — and the completed run must still be **byte-identical** to
//! the sequential oracle. Also pins the multi-stint path itself: forcing
//! tiny stints (frequent checkpoint/re-split cycles) must not perturb a
//! single byte either.
//!
//! Topology: the same 3-hop tandem with cross traffic, mid-run outage,
//! and flow churn as `parallel_determinism.rs` — the adversarial
//! scenario, not a friendly one.

mod common;

use common::{tandem_net, Obs};
use hpfq::core::MixedScheduler;
use hpfq::obs::jsonl::merge_traces;
use hpfq::sim::{FlowStats, LinkLedger, Network, ServiceRecord, ShardFailure};

#[derive(Debug, PartialEq)]
struct Golden {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    total_bytes: u64,
    total_packets: u64,
    last_departure: f64,
    ledgers: Vec<LinkLedger>,
    merged: String,
}

fn drain(net: Network<MixedScheduler, Obs>) -> Golden {
    net.verify_conservation().unwrap();
    let flows = [0u32, 100, 101, 102]
        .iter()
        .map(|&f| (f, net.stats.flow(f)))
        .collect();
    let records = vec![(0u32, net.stats.trace(0).to_vec())];
    let total_bytes = net.stats.total_bytes;
    let total_packets = net.stats.total_packets;
    let last_departure = net.stats.last_departure;
    let ledgers = (0..net.link_count()).map(|l| net.link_ledger(l)).collect();
    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect();
    Golden {
        flows,
        records,
        total_bytes,
        total_packets,
        last_departure,
        ledgers,
        merged: merge_traces(&bufs),
    }
}

fn golden() -> Golden {
    let mut seq = tandem_net();
    seq.run(8.0);
    drain(seq)
}

/// Tiny stints (checkpoint + merge + re-split every 4 epochs) must be
/// invisible in the results: the stint boundary sits exactly at an epoch
/// boundary and per-flow accumulators travel to their single writer, so
/// nothing re-associates.
#[test]
fn tiny_stints_stay_byte_identical() {
    let gold = golden();
    for n in [2usize, 4] {
        let mut net = tandem_net();
        net.set_stint_epochs(4);
        let report = net.run_parallel(8.0, n);
        assert_eq!(report.fallback, None, "n={n} must genuinely shard");
        assert!(report.failures.is_empty(), "n={n}: {:?}", report.failures);
        assert_eq!(report.rollbacks, 0, "n={n}");
        assert!(
            report.checkpoints >= 2,
            "n={n}: stints of 4 epochs over {} epochs must refresh the checkpoint",
            report.epochs
        );
        assert_eq!(drain(net), gold, "tiny-stint n={n} diverged");
    }
}

/// The kill-and-resume golden: a worker panic injected at a chosen
/// (shard, epoch) must be contained (typed failure, no hang, no abort),
/// rolled back to the checkpoint, retried — and the finished run must be
/// byte-identical to the sequential oracle.
#[test]
fn injected_panic_rolls_back_and_completes_byte_identically() {
    let gold = golden();
    for n in [2usize, 3] {
        let mut net = tandem_net();
        net.inject_shard_panic(1, 3);
        let report = net.run_parallel(8.0, n);
        assert_eq!(report.fallback, None, "n={n} must genuinely shard");
        assert_eq!(report.rollbacks, 1, "n={n}: exactly one rollback");
        assert!(!report.halt_replayed, "n={n}");
        // The panicking shard reports a Panic at the injected epoch; the
        // peers it abandoned report the poisoned (or timed-out) barrier.
        let panics: Vec<_> = report
            .failures
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    ShardFailure::Panic {
                        shard: 1,
                        epoch: 3,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(panics.len(), 1, "n={n}: {:?}", report.failures);
        assert!(
            report.failures.iter().all(|f| matches!(
                f,
                ShardFailure::Panic { .. }
                    | ShardFailure::BarrierPoisoned { .. }
                    | ShardFailure::BarrierTimeout { .. }
            )),
            "n={n}: {:?}",
            report.failures
        );
        assert_eq!(drain(net), gold, "n={n}: post-recovery run diverged");
    }
}

/// A panic in a later stint rolls back to the *refreshed* checkpoint,
/// not to t=0 — and is still byte-identical.
#[test]
fn late_panic_rolls_back_to_refreshed_checkpoint() {
    let gold = golden();
    let mut net = tandem_net();
    net.set_stint_epochs(4);
    // Epoch 10 lives in the third stint (epochs 8..12): two checkpoint
    // refreshes must already have happened when the panic fires.
    net.inject_shard_panic(0, 10);
    let report = net.run_parallel(8.0, 2);
    assert_eq!(report.fallback, None);
    assert_eq!(report.rollbacks, 1);
    assert!(
        report.failures.iter().any(|f| matches!(
            f,
            ShardFailure::Panic {
                shard: 0,
                epoch: 10,
                ..
            }
        )),
        "{:?}",
        report.failures
    );
    assert!(report.checkpoints >= 3, "{}", report.checkpoints);
    assert_eq!(drain(net), gold, "late-panic recovery diverged");
}
