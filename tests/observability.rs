//! End-to-end observability: the Fig. 3 scenario run under the full sink
//! stack — online invariant checking, JSONL trace emission and re-parsing,
//! offline service-record reconstruction, and the metrics registry — all
//! cross-checked against the simulator's own `SimStats` accounting.

use hpfq::analysis::{flow_records_from_trace, service_records_from_trace};
use hpfq::core::SchedulerKind;
use hpfq::obs::event::intern_policy;
use hpfq::obs::{jsonl::parse_trace, replay, InvariantObserver, JsonlObserver, MetricsObserver};
use hpfq::sim::ServiceRecord;
use hpfq_bench::fig3::{self, Scenario, FLOW_BE1, FLOW_RT1};

/// The paper's evaluation hierarchy keeps every scheduler invariant: tag
/// order, virtual-time monotonicity, SEFF eligibility, work conservation.
#[test]
fn fig3_run_reports_zero_invariant_violations() {
    for kind in [
        SchedulerKind::Wf2qPlus,
        SchedulerKind::Wfq,
        SchedulerKind::Sfq,
    ] {
        let mut f = fig3::build_with_observer(
            kind,
            Scenario::OverloadedPlusConstant,
            7,
            InvariantObserver::new(),
        );
        f.sim.run(2.0);
        assert!(
            f.sim.stats.total_packets > 500,
            "{}: too little traffic",
            kind.name()
        );
        let inv = f.sim.observer_of(0);
        assert!(
            inv.events_checked > 1_000,
            "{}: observer saw {} events",
            kind.name(),
            inv.events_checked
        );
        assert!(inv.is_clean(), "{}: {}", kind.name(), inv.summary());
    }
}

/// A JSONL trace captures the run completely: every line parses back, the
/// reconstructed service records equal the simulator's own, and replaying
/// the parsed events through fresh sinks reproduces their live state.
#[test]
fn jsonl_trace_round_trips_and_rebuilds_service_records() {
    let mut f = fig3::build_with_observer(
        SchedulerKind::Wf2qPlus,
        Scenario::GuaranteedRates,
        3,
        JsonlObserver::new(Vec::new()),
    );
    f.sim.run(1.0);
    let live_rt1: Vec<ServiceRecord> = f.sim.stats.trace(FLOW_RT1).to_vec();
    let total_packets = f.sim.stats.total_packets;
    assert!(!live_rt1.is_empty());

    let obs = f.sim.into_observers().remove(0);
    assert_eq!(obs.write_errors, 0);
    let text = String::from_utf8(obs.into_inner()).unwrap();
    let (events, skipped) = parse_trace(&text);
    assert_eq!(skipped, 0, "unparseable lines in emitted trace");

    // Offline reconstruction matches the live accounting exactly.
    let (records, anomalies) = service_records_from_trace(&events);
    assert_eq!(anomalies.unmatched_ends, 0);
    assert!(anomalies.unmatched_starts <= 1, "{anomalies:?}"); // horizon cut
    assert_eq!(records.len() as u64, total_packets);
    let rt1 = flow_records_from_trace(&events, FLOW_RT1);
    assert_eq!(rt1.len(), live_rt1.len());
    for (a, b) in rt1.iter().zip(&live_rt1) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.len_bytes, b.len_bytes);
        assert_eq!(a.arrival, b.arrival, "floats round-trip bit-exactly");
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
    }

    // Replay: recorded events drive any sink just like live ones.
    let mut inv = InvariantObserver::new();
    let mut metrics = MetricsObserver::new();
    for ev in &events {
        replay(&mut inv, ev);
        replay(&mut metrics, ev);
    }
    assert!(inv.is_clean(), "replayed trace: {}", inv.summary());
    assert_eq!(metrics.tx_packets, total_packets);
}

/// Two sinks tupled together each see the full stream; the registry's
/// totals agree with `SimStats` and its report renders.
#[test]
fn tupled_metrics_and_invariants_agree_with_sim_stats() {
    let mut f = fig3::build_with_observer(
        SchedulerKind::Wf2qPlus,
        Scenario::GuaranteedRates,
        11,
        (InvariantObserver::new(), MetricsObserver::new()),
    );
    f.sim.run(1.5);
    let (inv, metrics) = f.sim.observer_of(0);
    assert!(inv.is_clean(), "{}", inv.summary());
    assert_eq!(metrics.tx_packets, f.sim.stats.total_packets);
    assert_eq!(metrics.tx_bytes, f.sim.stats.total_bytes);
    for flow in [FLOW_RT1, FLOW_BE1] {
        let live = f.sim.stats.flow(flow);
        let reg = metrics.flow(flow);
        assert_eq!(reg.packets, live.packets, "flow {flow}");
        assert_eq!(reg.bytes, live.bytes, "flow {flow}");
        // Bucketed percentiles are conservative: the p100 bucket's lower
        // edge never exceeds the exact maximum delay.
        assert!(reg.delay.quantile_low_edge(1.0) <= live.delay_max + 1e-12);
    }
    let report = metrics.report();
    assert!(report.contains("link:"), "{report}");
    assert!(report.contains("flow"), "{report}");
}

/// Every policy's name survives a trace round trip: `intern_policy` reads
/// back what a `DispatchEvent` of each `SchedulerKind` wrote, not `"?"`.
#[test]
fn every_policy_name_survives_a_trace_round_trip() {
    for kind in SchedulerKind::ALL {
        assert_eq!(intern_policy(kind.name()), kind.name());
    }
}
