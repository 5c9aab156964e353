//! The differential chaos soak: every scheduler, one fault schedule.
//!
//! [`run_soak`] builds the same three-class hierarchy under each of the
//! seven node-scheduler policies, subjects every build to the *identical*
//! fault schedule (same [`crate::plan::ChaosPlan`], same per-flow
//! [`crate::inject::ChaosSource`] decision streams), and collects a
//! [`SoakRun`] per scheduler. [`ChaosReport::assert_healthy`] then checks
//! the degradation contract:
//!
//! * **no panics** — the run returning at all is the first assertion;
//! * **byte conservation** — per flow, offered = accepted + buffer drops +
//!   fault drops; in aggregate, accepted = served + purged + still queued;
//! * **invariants across faults** — the run's trace, replayed into an
//!   [`InvariantObserver`], breaks no invariant. The checker reads the
//!   trace's `link_down`, `link_up` and `flow_remove` events, so an outage
//!   or a purge is checked as what it is and nothing is excused;
//! * **fault determinism** — every scheduler saw byte-identical per-flow
//!   offered and fault-dropped counts (the faults are scheduler-independent
//!   by construction, so any divergence is a harness bug);
//! * **bounded unfairness after recovery** — in the fault-free tail every
//!   backlogged base flow's normalized service (bytes over its guaranteed
//!   rate) converges; FIFO, which offers no isolation, is reported but not
//!   held to the bound;
//! * **a fault-free tail** — each run's own trace shows no `invalid_pkt`
//!   fault at or after [`ChaosConfig::quiet_from`], and every base flow's
//!   packets reach the server there without a gap in their ids (enqueued
//!   or buffer-dropped, none lost upstream).
//!
//! Corrupted packets are dropped and counted at admission (they show up in
//! each flow's `fault_drops`); the flow that sent them keeps its leaf and
//! its guarantee.

use std::collections::BTreeMap;

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_obs::jsonl::parse_trace;
use hpfq_obs::{replay, FaultKind, InvariantObserver, JsonlObserver, TraceEvent};
use hpfq_sim::{CbrSource, FlowStats, Network, PeriodicOnOffSource, PoissonSource, Route};

use crate::config::ChaosConfig;
use crate::inject::ChaosSource;
use crate::plan::{build_plan, ChaosPlan};

/// Nominal link rate of the soak topology (1 Mbit/s).
pub const LINK_BPS: f64 = 1e6;
/// The static base flows: CBR, Poisson, and periodic on/off.
pub const BASE_FLOWS: [u32; 3] = [0, 1, 2];
/// Relative spread of normalized service tolerated in the recovery window
/// for schedulers that provide isolation (everything but FIFO).
pub const UNFAIRNESS_BOUND: f64 = 0.35;

/// Everything measured from one scheduler's run under the fault schedule.
#[derive(Debug)]
pub struct SoakRun {
    /// Scheduler policy name (`SchedulerKind::name`).
    pub scheduler: &'static str,
    /// Total packets served on the link.
    pub served_packets: u64,
    /// Total bytes served on the link.
    pub served_bytes: u64,
    /// Statistics per flow (base and churn), for the cross-scheduler
    /// differential checks.
    pub per_flow: BTreeMap<u32, FlowStats>,
    /// Commands the simulation rejected (count; the run continues past
    /// them by design).
    pub command_errors: usize,
    /// Result of the end-of-run conservation audit.
    pub conservation: Result<(), String>,
    /// Relative spread of normalized base-flow service in the recovery
    /// window (`None` if fewer than two base flows remained backlogged —
    /// fairness is only observable among backlogged flows).
    pub unfairness: Option<f64>,
    /// The full JSONL trace (every scheduling and fault event) —
    /// byte-identical for identical seeds, ready to write to disk and
    /// query with `hpfq-trace`.
    pub trace: Vec<u8>,
}

/// The full differential report: one [`SoakRun`] per scheduler.
#[derive(Debug)]
pub struct ChaosReport {
    /// The configuration the soak ran under.
    pub cfg: ChaosConfig,
    /// One run per scheduler, in [`SchedulerKind::ALL`] order.
    pub runs: Vec<SoakRun>,
}

/// Builds the soak hierarchy under `kind` and attaches the base sources,
/// each under `cfg`'s data-plane faults.
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
) -> (Network<MixedScheduler, JsonlObserver<Vec<u8>>>, [NodeId; 3]) {
    let mut bld = Hierarchy::builder_with_observer(
        LINK_BPS,
        move |rate| kind.build(rate),
        JsonlObserver::new(Vec::new()),
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
    let cbr = CbrSource::new(0, 1000, 0.50e6, 0.0, cfg.horizon);
    sim.add_route(
        0,
        ChaosSource::new(*cfg, 0, 0.0, cbr),
        Route::open_loop(leaf0),
    );
    let poisson = PoissonSource::new(1, 800, 0.35e6, 0.0, cfg.horizon, cfg.seed ^ 0xF1);
    sim.add_route(
        1,
        ChaosSource::new(*cfg, 1, 0.0, poisson),
        Route::open_loop(leaf1),
    );
    let on_off = PeriodicOnOffSource::new(2, 1200, 0.8e6, 0.5, 1.0, 0.0, cfg.horizon);
    sim.add_route(
        2,
        ChaosSource::new(*cfg, 2, 0.0, on_off),
        Route::open_loop(leaf2),
    );
    (sim, [leaf0, leaf1, leaf2])
}

/// Runs one scheduler under the shared `plan` and fault config.
fn run_one(kind: SchedulerKind, cfg: &ChaosConfig, plan: ChaosPlan) -> SoakRun {
    let (mut sim, base_leaves) = build_soak_sim(kind, cfg);
    let base_rates: Vec<f64> = base_leaves
        .iter()
        .map(|&l| sim.link_server(0).rate(l))
        .collect();

    for (t, cmd) in plan.commands {
        sim.schedule_command(t, cmd);
    }
    sim.run(cfg.horizon);

    // Recovery-window fairness: normalized service of every backlogged
    // base flow over the fault-free tail. Normalizing by the leaf's
    // guaranteed rate makes the values directly comparable — under any
    // fair policy the spread is small; FIFO's is whatever the packet mix
    // makes it. A flow that drained its queue is source-limited, not
    // scheduler-limited, so it says nothing about fairness and is skipped.
    let window_start = plan.last_fault.max(cfg.quiet_from()) + 0.5;
    let mut norms = Vec::new();
    for (i, &f) in BASE_FLOWS.iter().enumerate() {
        if sim.link_server(0).leaf_queue_bytes(base_leaves[i]) == 0 {
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

    // Fields are evaluated in order: the trace is taken last.
    SoakRun {
        scheduler: kind.name(),
        served_packets: sim.stats.total_packets,
        served_bytes: sim.stats.total_bytes,
        per_flow: BASE_FLOWS
            .iter()
            .chain(&plan.churn_flows)
            .map(|&f| (f, sim.stats.flow(f)))
            .collect(),
        command_errors: sim.command_errors.len(),
        conservation: sim.verify_conservation(),
        unfairness,
        trace: sim.into_observers().remove(0).into_inner(),
    }
}

/// Runs the full differential soak: all seven schedulers under the same
/// seed-derived fault schedule.
pub fn run_soak(cfg: &ChaosConfig) -> ChaosReport {
    // Each run generates its own copy of the plan (commands hold boxed
    // sources, so the plan is not `Clone`; determinism makes it exact).
    let runs = SchedulerKind::ALL
        .iter()
        .map(|&kind| run_one(kind, cfg, build_plan(cfg, NodeId(0), LINK_BPS)))
        .collect();
    ChaosReport { cfg: *cfg, runs }
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
            if run.served_packets == 0 {
                problems.push(format!("[{name}] served nothing"));
            }
            for p in trace_problems(&run.trace, self.cfg.quiet_from()) {
                problems.push(format!("[{name}] {p}"));
            }
            // `None` is legitimate — outages and churn can leave too few
            // base flows backlogged for fairness to be observable.
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
        // fault-dropped counts.
        if let Some((first, rest)) = self.runs.split_first() {
            for run in rest {
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

/// What `trace` shows wrong: each invariant violation the checker finds
/// when the trace is replayed into it, and each fault at or after
/// `quiet_from` — an `invalid_pkt` fault, or a base flow whose packets
/// reach the server with a gap in their ids (a packet lost before the
/// server). Ids are per-flow sequence numbers, so consecutive arrivals
/// differ by one.
fn trace_problems(trace: &[u8], quiet_from: f64) -> Vec<String> {
    let (events, _) = parse_trace(&String::from_utf8_lossy(trace));
    let mut invariants = InvariantObserver::new();
    let mut problems = Vec::new();
    let mut last_id: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in &events {
        replay(&mut invariants, ev);
        let (time, pkt) = match *ev {
            TraceEvent::Enqueue(e) => (e.time, e.pkt),
            TraceEvent::Drop(e) => (e.time, e.pkt),
            TraceEvent::Fault(f) if f.kind == FaultKind::InvalidPacket && f.time >= quiet_from => {
                problems.push(format!(
                    "fault-free tail: flow {} invalid packet at t = {}",
                    f.flow, f.time
                ));
                continue;
            }
            _ => continue,
        };
        if time < quiet_from || !BASE_FLOWS.contains(&pkt.flow) {
            continue;
        }
        if let Some(prev) = last_id.insert(pkt.flow, pkt.id) {
            if pkt.id != prev + 1 {
                problems.push(format!(
                    "fault-free tail: flow {} lost {} packet(s) before t = {time}",
                    pkt.flow,
                    pkt.id.wrapping_sub(prev + 1)
                ));
            }
        }
    }
    problems.extend(
        invariants
            .violations()
            .iter()
            .map(|v| format!("invariant: {v}")),
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a of seed 1's WF²Q+ trace at a 30 s horizon. Recorded when the
    /// network itself still consulted the fault decisions, from that trace
    /// less its `pkt_drop`, `pkt_corrupt` and `clock_jitter` lines (events
    /// the network no longer sees): the sources make the same decisions.
    const SOAK_SEED1_WF2QPLUS_FNV1A: u64 = 0x838c_0fbd_bcd4_e6cb;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Seeds 1, 2 and 3 at a 30 s horizon: every scheduler keeps the
    /// degradation contract, and `hpfq-trace`'s reader parses every line
    /// of every run's trace. On seed 2 the corruption family hits base
    /// flow 0, whose invalid packets are dropped and counted while its
    /// leaf keeps its share, so the recovery-window probe must still run.
    /// Seed 1's WF²Q+ trace is pinned to [`SOAK_SEED1_WF2QPLUS_FNV1A`].
    #[test]
    fn soak_all_schedulers_healthy_seed_1() {
        for seed in [1, 2, 3] {
            let cfg = ChaosConfig::all_faults(seed, 30.0);
            let report = run_soak(&cfg);
            assert_eq!(report.runs.len(), SchedulerKind::ALL.len());
            if let Err(problems) = report.assert_healthy() {
                panic!("seed {seed}: unhealthy soak:\n{}", problems.join("\n"));
            }
            for run in &report.runs {
                if seed == 1 && run.scheduler == SchedulerKind::Wf2qPlus.name() {
                    assert_eq!(
                        fnv1a(&run.trace),
                        SOAK_SEED1_WF2QPLUS_FNV1A,
                        "seed 1 [wf2q+]: the soak trace moved"
                    );
                }
                if run.scheduler != SchedulerKind::Fifo.name() {
                    assert!(
                        run.unfairness.is_some(),
                        "seed {seed} [{}]: the recovery-window fairness probe saw no two \
                         backlogged base flows",
                        run.scheduler
                    );
                }
                let text = std::str::from_utf8(&run.trace).expect("the trace is UTF-8");
                let summary = hpfq_obs::query::summarize(text);
                assert!(
                    summary.events > 0,
                    "seed {seed} [{}]: empty trace",
                    run.scheduler
                );
                assert_eq!(
                    summary.malformed, 0,
                    "seed {seed} [{}]: hpfq-trace cannot read the soak trace",
                    run.scheduler
                );
            }
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
    fn quiescent_control_run_is_violation_free() {
        let cfg = ChaosConfig::quiescent(9, 10.0);
        let report = run_soak(&cfg);
        for run in &report.runs {
            let problems = trace_problems(&run.trace, cfg.quiet_from());
            assert!(problems.is_empty(), "[{}] {problems:?}", run.scheduler);
            run.conservation.as_ref().unwrap();
            assert!(run.per_flow.values().all(|l| l.fault_drops == 0));
        }
    }
}
