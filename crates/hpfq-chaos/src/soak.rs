//! The differential chaos soak: every scheduler, one fault schedule.
//!
//! [`run_soak`] builds the same three-class hierarchy under each of the
//! seven node-scheduler policies, subjects every build to the *identical*
//! fault schedule (same [`crate::plan::ChaosPlan`], same per-flow
//! [`crate::inject::ChaosInjector`] decision streams), and collects a
//! [`SoakRun`] per scheduler. [`ChaosReport::assert_healthy`] then checks
//! the degradation contract:
//!
//! * **no panics** — the run returning at all is the first assertion;
//! * **byte conservation** — per flow, offered = accepted + buffer drops +
//!   fault drops; in aggregate, accepted = served + purged + still queued;
//! * **invariants across outages** — zero virtual-time-monotonicity,
//!   tag-order, or eligibility violations; work-conservation "violations"
//!   are excused only inside the plan's outage windows (the link idling
//!   with traffic queued is exactly what an outage is);
//! * **fault determinism** — every scheduler saw byte-identical per-flow
//!   offered/dropped/corrupted counts (the faults are scheduler-independent
//!   by construction, so any divergence is a harness bug);
//! * **bounded unfairness after recovery** — in the fault-free tail every
//!   surviving backlogged base flow's normalized service (bytes over its
//!   guaranteed rate) converges; FIFO, which offers no isolation, is
//!   reported but not held to the bound.

use std::collections::BTreeMap;

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_obs::{EscalationPolicy, FlightRecorder, InvariantKind, InvariantObserver, JsonlObserver};
use hpfq_sim::{CbrSource, Network, PeriodicOnOffSource, PoissonSource, Route};

use crate::config::ChaosConfig;
use crate::inject::ChaosInjector;
use crate::plan::{build_plan, ChaosPlan};

/// Nominal link rate of the soak topology (1 Mbit/s).
pub const LINK_BPS: f64 = 1e6;
/// The static base flows: CBR, Poisson, and periodic on/off.
pub const BASE_FLOWS: [u32; 3] = [0, 1, 2];
/// Relative spread of normalized service tolerated in the recovery window
/// for schedulers that provide isolation (everything but FIFO).
pub const UNFAIRNESS_BOUND: f64 = 0.35;

/// Events the soak's flight recorder retains (most recent first out).
pub const FLIGHT_CAPACITY: usize = 4096;

/// The observer stack every soak run carries: online invariant checking,
/// a full JSONL trace (faults and quarantines included), and a bounded
/// flight recorder that snapshots the recent past when the escalation
/// ladder fires.
pub type SoakObserver = (InvariantObserver, (JsonlObserver<Vec<u8>>, FlightRecorder));

/// Per-flow admission ledger, for cross-scheduler differential checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowLedger {
    /// Packets offered at the server's input port.
    pub offered_packets: u64,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Packets lost to injected faults (drops + rejected corruption).
    pub fault_drops: u64,
    /// Packets accepted into the hierarchy.
    pub accepted_packets: u64,
    /// Bytes actually served on the link.
    pub served_bytes: u64,
}

/// Everything measured from one scheduler's run under the fault schedule.
#[derive(Debug)]
pub struct SoakRun {
    /// Scheduler policy name (`SchedulerKind::name`).
    pub scheduler: &'static str,
    /// Total packets served on the link.
    pub served_packets: u64,
    /// Total bytes served on the link.
    pub served_bytes: u64,
    /// Admission ledger per flow (base and churn).
    pub per_flow: BTreeMap<u32, FlowLedger>,
    /// Flows the escalation ladder quarantined.
    pub quarantined: Vec<u32>,
    /// Whether the ladder halted the run.
    pub halted: bool,
    /// Commands the simulation rejected (count; the run continues past
    /// them by design).
    pub command_errors: usize,
    /// Result of the end-of-run conservation audit.
    pub conservation: Result<(), String>,
    /// Invariant violations, total (including any beyond the checker's
    /// storage bound).
    pub violations_total: u64,
    /// Stored work-conservation violations that fall inside a planned
    /// outage window — the link idling during an outage is expected.
    pub excused_wc: usize,
    /// Stored violations that are *not* excused work-conservation.
    pub unexcused: Vec<String>,
    /// Relative spread of normalized base-flow service in the recovery
    /// window (`None` if fewer than two base flows remained live *and*
    /// backlogged — fairness is only observable among backlogged flows).
    pub unfairness: Option<f64>,
    /// The full JSONL trace (every scheduling, fault, and quarantine
    /// event) — byte-identical for identical seeds.
    pub trace: Vec<u8>,
    /// Post-mortem flight-recorder snapshot: the last
    /// [`FLIGHT_CAPACITY`] events as JSONL, ready
    /// to write to disk and query with `hpfq-trace`.
    pub flight_dump: String,
}

impl SoakRun {
    /// One-line, hand-rolled JSON summary (the trace itself is separate).
    pub fn summary_json(&self) -> String {
        let unfair = match self.unfairness {
            Some(u) => format!("{u:.6}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"scheduler\":\"{}\",\"served_packets\":{},\"served_bytes\":{},\
             \"quarantined\":{:?},\"halted\":{},\"command_errors\":{},\
             \"conservation_ok\":{},\"violations_total\":{},\"excused_wc\":{},\
             \"unexcused\":{},\"unfairness\":{}}}",
            self.scheduler,
            self.served_packets,
            self.served_bytes,
            self.quarantined,
            self.halted,
            self.command_errors,
            self.conservation.is_ok(),
            self.violations_total,
            self.excused_wc,
            self.unexcused.len(),
            unfair,
        )
    }
}

/// The full differential report: one [`SoakRun`] per scheduler.
#[derive(Debug)]
pub struct ChaosReport {
    /// The configuration the soak ran under.
    pub cfg: ChaosConfig,
    /// Outage windows of the shared plan (for trace consumers).
    pub outages: Vec<(f64, f64)>,
    /// One run per scheduler, in [`SchedulerKind::ALL`] order.
    pub runs: Vec<SoakRun>,
}

/// Builds the soak hierarchy under `kind` and attaches the base sources.
///
/// ```text
/// root (1 Mbit/s)
/// ├── class A (φ=0.35)
/// │   ├── leaf 0 (φ=0.6) ← CBR, flow 0, 0.50 Mbit/s offered (0.21 guaranteed)
/// │   └── leaf 1 (φ=0.4) ← Poisson, flow 1, 0.35 Mbit/s offered (0.14 guaranteed)
/// ├── class B (φ=0.25)
/// │   └── leaf 2 (φ=1.0) ← on/off, flow 2, 0.40 Mbit/s average (0.25 guaranteed)
/// └── (churn leaves attach here, φ budget 0.3)
/// ```
///
/// Aggregate offered load ≈ 1.25 Mbit/s > the 1 Mbit/s link, so the base
/// flows stay backlogged through the recovery window and normalized
/// service is a meaningful fairness probe.
pub fn build_soak_sim(
    kind: SchedulerKind,
    cfg: &ChaosConfig,
) -> (Network<MixedScheduler, SoakObserver>, [NodeId; 3]) {
    let obs: SoakObserver = (
        InvariantObserver::new(),
        (
            JsonlObserver::new(Vec::new()),
            FlightRecorder::new(FLIGHT_CAPACITY),
        ),
    );
    let mut bld = Hierarchy::<MixedScheduler, SoakObserver>::builder_with_observer(
        LINK_BPS,
        move |rate| kind.build(rate),
        obs,
    );
    let root = bld.root();
    let class_a = bld.add_internal(root, 0.35).unwrap();
    let class_b = bld.add_internal(root, 0.25).unwrap();
    let leaf0 = bld.add_leaf(class_a, 0.6).unwrap();
    let leaf1 = bld.add_leaf(class_a, 0.4).unwrap();
    let leaf2 = bld.add_leaf(class_b, 1.0).unwrap();

    let mut sim = Network::single_link(bld.build());
    for f in BASE_FLOWS {
        sim.stats.trace_flow(f);
    }
    sim.add_route(
        0,
        CbrSource::new(0, 1000, 0.50e6, 0.0, cfg.horizon),
        Route::open_loop(leaf0),
    );
    sim.add_route(
        1,
        PoissonSource::new(1, 800, 0.35e6, 0.0, cfg.horizon, cfg.seed ^ 0xF1),
        Route::open_loop(leaf1),
    );
    sim.add_route(
        2,
        PeriodicOnOffSource::new(2, 1200, 0.8e6, 0.5, 1.0, 0.0, cfg.horizon),
        Route::open_loop(leaf2),
    );
    (sim, [leaf0, leaf1, leaf2])
}

/// Runs one scheduler under the shared `plan` and injector config.
fn run_one(kind: SchedulerKind, cfg: &ChaosConfig, plan: ChaosPlan) -> SoakRun {
    let (mut sim, base_leaves) = build_soak_sim(kind, cfg);
    let base_rates: Vec<f64> = base_leaves
        .iter()
        .map(|&l| sim.link_server(0).rate(l))
        .collect();

    sim.set_fault_injector(ChaosInjector::new(*cfg));
    sim.set_escalation_policy(EscalationPolicy::standard());
    for (t, cmd) in plan.commands {
        sim.schedule_command(t, cmd);
    }
    sim.run(cfg.horizon);

    // ---- harvest (stats before the observer is consumed) ----------------
    let mut per_flow = BTreeMap::new();
    let mut flow_ids: Vec<u32> = BASE_FLOWS.to_vec();
    flow_ids.extend_from_slice(&plan.churn_flows);
    for f in flow_ids {
        let fs = sim.stats.flow(f);
        per_flow.insert(
            f,
            FlowLedger {
                offered_packets: fs.offered_packets,
                offered_bytes: fs.offered_bytes,
                fault_drops: fs.fault_drops,
                accepted_packets: fs.accepted_packets,
                served_bytes: fs.bytes,
            },
        );
    }

    // Recovery-window fairness: normalized service of every surviving,
    // backlogged base flow over the fault-free tail. Normalizing by the
    // leaf's guaranteed rate makes the values directly comparable — under
    // any fair policy the spread is small; FIFO's is whatever the packet
    // mix makes it. A flow that drained its queue (e.g. because a
    // quarantine elsewhere freed enough capacity) is source-limited, not
    // scheduler-limited, so it says nothing about fairness and is skipped.
    // And if *any* base flow was quarantined, the probe is skipped
    // entirely: removing a leaf changes every survivor's effective
    // guarantee (its class's excess flows to its siblings), so the static
    // normalization no longer measures fairness — the quarantine path is
    // instead held to conservation and cross-scheduler determinism.
    let window_start = plan.last_fault.max(cfg.quiet_from()) + 0.5;
    let any_base_quarantined = BASE_FLOWS
        .iter()
        .any(|&f| sim.escalation().is_quarantined(f));
    let mut norms = Vec::new();
    for (i, &f) in BASE_FLOWS.iter().enumerate() {
        if any_base_quarantined || sim.link_server(0).leaf_queue_bytes(base_leaves[i]) == 0 {
            continue;
        }
        let bytes: u64 = sim
            .stats
            .trace(f)
            .iter()
            .filter(|r| r.end >= window_start)
            .map(|r| u64::from(r.len_bytes))
            .sum();
        let bits = bytes as f64 * 8.0;
        norms.push(bits / ((cfg.horizon - window_start) * base_rates[i]));
    }
    let unfairness = if norms.len() >= 2 {
        let max = norms.iter().cloned().fold(f64::MIN, f64::max);
        let min = norms.iter().cloned().fold(f64::MAX, f64::min);
        Some(if max > 0.0 { (max - min) / max } else { 1.0 })
    } else {
        None
    };

    let served_packets = sim.stats.total_packets;
    let served_bytes = sim.stats.total_bytes;
    let quarantined = sim.escalation().quarantined_flows();
    let halted = sim.is_halted();
    let command_errors = sim.command_errors.len();
    let conservation = sim.verify_conservation();

    let (inv, (jsonl, mut flight)) = sim.into_observers().remove(0);
    if conservation.is_err() {
        // Post-mortem on a broken ledger: persist the recent past (no-op
        // unless a dump path was configured on the recorder).
        flight.dump();
    }
    let flight_dump = flight.snapshot_jsonl();
    let mut excused_wc = 0usize;
    let mut unexcused = Vec::new();
    for viol in inv.violations() {
        let in_outage = plan
            .outages
            .iter()
            // lint:allow(L003): real-time outage-window slop, not a
            // virtual-time tolerance
            .any(|&(down, up)| viol.time >= down - 1e-9 && viol.time <= up + 1e-9);
        if viol.kind == InvariantKind::WorkConservation && in_outage {
            excused_wc += 1;
        } else {
            unexcused.push(viol.to_string());
        }
    }

    SoakRun {
        scheduler: kind.name(),
        served_packets,
        served_bytes,
        per_flow,
        quarantined,
        halted,
        command_errors,
        conservation,
        violations_total: inv.total_violations,
        excused_wc,
        unexcused,
        unfairness,
        trace: jsonl.into_inner(),
        flight_dump,
    }
}

/// Runs the full differential soak: all seven schedulers under the same
/// seed-derived fault schedule.
pub fn run_soak(cfg: &ChaosConfig) -> ChaosReport {
    // Build the plan once for the outage windows; each run regenerates its
    // own copy (commands hold boxed sources, so the plan is not `Clone` —
    // determinism makes regeneration exact).
    let shared = build_plan(cfg, NodeId(0), LINK_BPS);
    let outages = shared.outages.clone();
    let runs = SchedulerKind::ALL
        .iter()
        .map(|&kind| {
            let plan = build_plan(cfg, NodeId(0), LINK_BPS);
            run_one(kind, cfg, plan)
        })
        .collect();
    ChaosReport {
        cfg: *cfg,
        outages,
        runs,
    }
}

impl ChaosReport {
    /// Checks the full degradation contract (see the module docs) and
    /// returns every failure found, or `Ok` if the soak is healthy.
    pub fn assert_healthy(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for run in &self.runs {
            let name = run.scheduler;
            if let Err(e) = &run.conservation {
                problems.push(format!("[{name}] conservation: {e}"));
            }
            if run.halted {
                problems.push(format!("[{name}] run halted under standard policy"));
            }
            if run.served_packets == 0 {
                problems.push(format!("[{name}] served nothing"));
            }
            for v in &run.unexcused {
                problems.push(format!("[{name}] invariant: {v}"));
            }
            // If the checker overflowed its storage, everything stored must
            // have been excused outage idling; anything else is suspect.
            let stored = run.excused_wc + run.unexcused.len();
            if run.violations_total > stored as u64 && !run.unexcused.is_empty() {
                problems.push(format!(
                    "[{name}] {} violations total with unexcused among the stored",
                    run.violations_total
                ));
            }
            // `None` is legitimate — a quarantine can free enough capacity
            // that the survivors drain and fairness becomes unobservable.
            if run.scheduler != SchedulerKind::Fifo.name() {
                if let Some(u) = run.unfairness {
                    if u > UNFAIRNESS_BOUND {
                        problems.push(format!(
                            "[{name}] recovery-window unfairness {u:.4} > {UNFAIRNESS_BOUND}"
                        ));
                    }
                }
            }
        }
        // Differential determinism: the fault stream is scheduler-blind, so
        // every scheduler must have seen identical per-flow offered and
        // fault-dropped counts, and quarantined the same flows.
        if let Some((first, rest)) = self.runs.split_first() {
            for run in rest {
                if run.quarantined != first.quarantined {
                    problems.push(format!(
                        "[{}] quarantined {:?} but [{}] quarantined {:?}",
                        run.scheduler, run.quarantined, first.scheduler, first.quarantined
                    ));
                }
                for (flow, a) in &first.per_flow {
                    let Some(b) = run.per_flow.get(flow) else {
                        problems.push(format!(
                            "[{}] missing ledger for flow {flow}",
                            run.scheduler
                        ));
                        continue;
                    };
                    if (a.offered_packets, a.offered_bytes, a.fault_drops)
                        != (b.offered_packets, b.offered_bytes, b.fault_drops)
                    {
                        problems.push(format!(
                            "[{}] flow {flow} fault ledger {:?} diverges from [{}] {:?}",
                            run.scheduler, b, first.scheduler, a
                        ));
                    }
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Outcome of [`quarantine_scenario`].
#[derive(Debug)]
pub struct QuarantineOutcome {
    /// Flows the ladder isolated (expected non-empty).
    pub quarantined: Vec<u32>,
    /// Share allocated at the root after the run (quarantined leaves'
    /// shares have been returned to the pool once fully drained).
    pub root_share_after: f64,
    /// Bytes served after the first quarantine (service continued).
    pub served_bytes: u64,
    /// Conservation audit result.
    pub conservation: Result<(), String>,
}

/// A focused single-scheduler (WF²Q+) scenario demonstrating graceful
/// degradation: corruption is boosted two orders of magnitude so the base
/// flows rack up strikes fast, the standard three-strike ladder
/// quarantines them, and the run completes with the byte ledger intact
/// and the isolated shares redistributed.
pub fn quarantine_scenario(seed: u64) -> QuarantineOutcome {
    let mut cfg = ChaosConfig::all_faults(seed, 20.0);
    cfg.corrupt.prob = 0.05;
    cfg.link.enabled = false; // isolate the corruption family
    cfg.churn.enabled = false;
    cfg.drops.enabled = false;
    cfg.jitter.enabled = false;
    let (mut sim, _) = build_soak_sim(SchedulerKind::Wf2qPlus, &cfg);
    sim.set_fault_injector(ChaosInjector::new(cfg));
    sim.set_escalation_policy(EscalationPolicy::standard());
    sim.run(cfg.horizon);
    QuarantineOutcome {
        quarantined: sim.escalation().quarantined_flows(),
        root_share_after: sim
            .link_server(0)
            .allocated_share(sim.link_server(0).root()),
        served_bytes: sim.stats.total_bytes,
        conservation: sim.verify_conservation(),
    }
}

/// Outcome of [`halt_scenario`].
#[derive(Debug)]
pub struct HaltOutcome {
    /// Whether the ladder halted the run (expected `true`).
    pub halted: bool,
    /// Flows quarantined before the halt.
    pub quarantined: Vec<u32>,
    /// Flight-recorder dumps written to `flight_path`.
    pub dumps_written: u64,
    /// The same snapshot, in memory (for callers without a disk path).
    pub flight_dump: String,
}

/// Drives the escalation ladder all the way to **halt** and exercises the
/// flight recorder's post-mortem path: corruption is boosted as in
/// [`quarantine_scenario`] but the policy halts on the very first
/// quarantine, and the recorder is given `flight_path`, so the moment the
/// ladder fires it writes the last [`FLIGHT_CAPACITY`] events there as
/// JSONL — the artifact `hpfq-trace` then queries.
pub fn halt_scenario(seed: u64, flight_path: &str) -> HaltOutcome {
    let mut cfg = ChaosConfig::all_faults(seed, 20.0);
    cfg.corrupt.prob = 0.05;
    cfg.link.enabled = false;
    cfg.churn.enabled = false;
    cfg.drops.enabled = false;
    cfg.jitter.enabled = false;
    let (mut sim, _) = build_soak_sim(SchedulerKind::Wf2qPlus, &cfg);
    sim.set_fault_injector(ChaosInjector::new(cfg));
    sim.set_escalation_policy(EscalationPolicy {
        quarantine_after: 3,
        halt_after: 1,
    });
    sim.observer_of_mut(0)
        .1
         .1
        .set_dump_path(Some(flight_path.to_string()));
    sim.run(cfg.horizon);
    let halted = sim.is_halted();
    let quarantined = sim.escalation().quarantined_flows();
    let (_, (_, mut flight)) = sim.into_observers().remove(0);
    // The auto-dump fired at the quarantine, mid-step; rewrite the
    // artifact so the on-disk post-mortem carries every event up to the
    // halt.
    flight.dump();
    HaltOutcome {
        halted,
        quarantined,
        dumps_written: flight.dumps_written(),
        flight_dump: flight.snapshot_jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_all_schedulers_healthy_seed_1() {
        let cfg = ChaosConfig::all_faults(1, 30.0);
        let report = run_soak(&cfg);
        assert_eq!(report.runs.len(), SchedulerKind::ALL.len());
        if let Err(problems) = report.assert_healthy() {
            panic!("unhealthy soak:\n{}", problems.join("\n"));
        }
    }

    #[test]
    fn soak_trace_is_seed_deterministic() {
        let cfg = ChaosConfig::all_faults(42, 12.0);
        let a = run_soak(&cfg);
        let b = run_soak(&cfg);
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.scheduler, rb.scheduler);
            assert!(
                ra.trace == rb.trace,
                "[{}] trace bytes differ between identical-seed runs",
                ra.scheduler
            );
        }
    }

    #[test]
    fn quarantine_redistributes_and_conserves() {
        let out = quarantine_scenario(3);
        assert!(
            !out.quarantined.is_empty(),
            "boosted corruption should quarantine at least one flow: {out:?}"
        );
        assert!(out.served_bytes > 0);
        out.conservation.as_ref().unwrap();
        // Fully drained quarantined leaves give their share back.
        assert!(out.root_share_after <= 0.6 + 1e-9, "{out:?}");
    }

    #[test]
    fn halt_scenario_dumps_queryable_flight_recording() {
        let path = std::env::temp_dir().join("hpfq-halt-flight-test.jsonl");
        let path_str = path.to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);
        let out = halt_scenario(3, &path_str);
        assert!(out.halted, "{out:?}");
        assert!(!out.quarantined.is_empty(), "{out:?}");
        assert!(out.dumps_written >= 1, "{out:?}");
        let dumped = std::fs::read_to_string(&path).expect("dump file written");
        let _ = std::fs::remove_file(&path);
        // The dump must be line-by-line parseable by the query layer and
        // must contain the quarantine that tripped the halt.
        let mut quarantines = 0usize;
        for line in dumped.lines() {
            let parsed = hpfq_obs::query::parse_obs_line(line)
                .unwrap_or_else(|| panic!("unparseable dump line: {line}"));
            if let hpfq_obs::query::ObsLine::Event(hpfq_obs::TraceEvent::Quarantine(_)) = parsed {
                quarantines += 1;
            }
        }
        assert!(quarantines >= 1, "dump carries no quarantine event");
        // The in-memory snapshot has the same shape.
        let summary = hpfq_obs::query::summarize(&out.flight_dump);
        assert_eq!(summary.malformed, 0, "{summary:?}");
        assert_eq!(summary.flights, 1);
        assert!(summary.events > 0);
    }

    #[test]
    fn quiescent_control_run_is_violation_free() {
        let cfg = ChaosConfig::quiescent(9, 10.0);
        let report = run_soak(&cfg);
        for run in &report.runs {
            assert_eq!(
                run.violations_total, 0,
                "[{}] control run has violations",
                run.scheduler
            );
            run.conservation.as_ref().unwrap();
            assert!(run.quarantined.is_empty());
        }
    }
}
