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
//!
//! [`soak_snapshot`] / [`soak_resume`] take the checkpoint path through a
//! seeded 3-link tandem under the same fault families: the stitched
//! `prefix → snapshot → resume` run must end byte-identical to an
//! uninterrupted one.

use std::collections::BTreeMap;

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_obs::snap::Value;
use hpfq_obs::{EscalationPolicy, FlightRecorder, InvariantKind, InvariantObserver, JsonlObserver};
use hpfq_sim::{
    CbrSource, Hop, Network, PeriodicOnOffSource, PoissonSource, Route, SimCommand, SmallRng,
};

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

/// Links of the snapshot/resume scenario.
const TANDEM_LINKS: usize = 3;
/// Their nominal rate (10 Mbit/s — chaos flows fit comfortably, outages
/// create real backlog).
const TANDEM_LINK_BPS: f64 = 10e6;
const TANDEM_PKT: u32 = 1500;
/// Propagation delay between the tandem flow's hops.
const TANDEM_PROP: f64 = 0.005;

/// Flow ids of the snapshot/resume scenario: the tandem flow plus a CBR
/// and a Poisson cross flow per link.
fn tandem_flow_ids() -> Vec<u32> {
    let mut ids = vec![0u32];
    for li in 0..TANDEM_LINKS as u32 {
        ids.push(100 + 2 * li);
        ids.push(101 + 2 * li);
    }
    ids
}

/// The seeded snapshot/resume scenario: a flow crossing all
/// [`TANDEM_LINKS`] links, two cross flows per link, two outage windows
/// per link, a cross flow and then the tandem flow removed mid-run, and a
/// [`ChaosInjector`] (drops, corruption, jitter) under the standard
/// ladder. A resume rebuilds it from `seed` and `horizon`, so the command
/// schedule is identical by construction.
fn tandem_scenario(seed: u64, horizon: f64) -> Network<MixedScheduler> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0A5_CADE);
    let mut net: Network<MixedScheduler> = Network::new();
    let mut hops = Vec::new();
    let buffer = |packets: u64| Some(packets * u64::from(TANDEM_PKT));
    for li in 0..TANDEM_LINKS {
        let mut bld = Hierarchy::<MixedScheduler>::builder(TANDEM_LINK_BPS, move |r| kind.build(r));
        let root = bld.root();
        let tandem = bld.add_leaf(root, 0.3).unwrap();
        let cbr = bld.add_leaf(root, 0.4).unwrap();
        let poisson = bld.add_leaf(root, 0.3).unwrap();
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf: tandem,
            buffer_bytes: buffer(64),
            prop_delay: TANDEM_PROP,
        });
        let one_hop = |leaf| {
            Route::new(vec![Hop {
                link,
                leaf,
                buffer_bytes: buffer(32),
                prop_delay: 0.0,
            }])
        };
        let (f_cbr, f_poi) = (100 + 2 * li as u32, 101 + 2 * li as u32);
        net.add_route(
            f_cbr,
            CbrSource::new(f_cbr, TANDEM_PKT, 3.5e6, 0.0, horizon),
            one_hop(cbr),
        );
        let poi_seed = seed.wrapping_add(li as u64);
        net.add_route(
            f_poi,
            PoissonSource::new(f_poi, TANDEM_PKT, 2.5e6, 0.0, horizon, poi_seed),
            one_hop(poisson),
        );
    }
    net.add_route(
        0,
        CbrSource::new(0, TANDEM_PKT, 2e6, 0.0, horizon),
        Route::new(hops),
    );
    // Two outage windows per link, inside (10%, 85%) of the horizon so
    // the tail is fault-free.
    for link in 0..TANDEM_LINKS {
        for _ in 0..2 {
            let start = rng.gen_range_f64(0.10, 0.80) * horizon;
            let dur = rng.gen_range_f64(0.01, 0.05) * horizon;
            net.schedule_command(start, SimCommand::SetLinkRateOn { link, bps: 0.0 });
            let bps = TANDEM_LINK_BPS;
            net.schedule_command(start + dur, SimCommand::SetLinkRateOn { link, bps });
        }
    }
    // Churn: one cross flow leaves mid-run, and the tandem flow — whose
    // removal detaches a leaf at every hop — leaves late.
    let departing = 100 + 2 * rng.gen_range_u32(0, TANDEM_LINKS as u32);
    net.schedule_command(
        rng.gen_range_f64(0.3, 0.5) * horizon,
        SimCommand::RemoveFlow(departing),
    );
    net.schedule_command(
        rng.gen_range_f64(0.6, 0.8) * horizon,
        SimCommand::RemoveFlow(0),
    );
    // Data-plane chaos; link faults and churn are the commands above.
    let mut cfg = ChaosConfig::all_faults(seed, horizon);
    cfg.link.enabled = false;
    cfg.churn.enabled = false;
    net.set_fault_injector(ChaosInjector::new(cfg));
    net.set_escalation_policy(EscalationPolicy::standard());
    net
}

/// Every difference between two finished runs of the tandem scenario in
/// per-flow statistics, per-link ledgers, totals, quarantine rosters or
/// halt flags.
fn tandem_differences(a: &Network<MixedScheduler>, b: &Network<MixedScheduler>) -> Vec<String> {
    let mut out = Vec::new();
    for flow in tandem_flow_ids() {
        let (x, y) = (a.stats.flow(flow), b.stats.flow(flow));
        if x != y {
            out.push(format!("flow {flow}: {x:?} != {y:?}"));
        }
    }
    for link in 0..TANDEM_LINKS {
        let (x, y) = (a.link_ledger(link), b.link_ledger(link));
        if x != y {
            out.push(format!("link {link}: {x:?} != {y:?}"));
        }
    }
    let totals = |n: &Network<MixedScheduler>| (n.stats.total_packets, n.stats.total_bytes);
    if totals(a) != totals(b) {
        out.push(format!("totals: {:?} != {:?}", totals(a), totals(b)));
    }
    let quarantined = |n: &Network<MixedScheduler>| n.escalation().quarantined_flows();
    if quarantined(a) != quarantined(b) {
        out.push(format!(
            "quarantine: {:?} != {:?}",
            quarantined(a),
            quarantined(b)
        ));
    }
    if a.is_halted() != b.is_halted() {
        out.push(format!("halted: {} != {}", a.is_halted(), b.is_halted()));
    }
    out
}

/// What [`soak_resume`] observed.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// Packets the resumed run served in total.
    pub served_packets: u64,
    /// Bytes it served.
    pub served_bytes: u64,
    /// Whether it ended halted (it must agree with the uninterrupted run).
    pub halted: bool,
    /// `Ok` iff every per-flow stat, per-link ledger, quarantine roster and
    /// halt flag matched the uninterrupted run exactly.
    pub matches_uninterrupted: Result<(), String>,
    /// End-of-run conservation audit of the resumed run.
    pub conservation: Result<(), String>,
}

impl ResumeOutcome {
    /// Whether the resumed run reproduced the uninterrupted one and
    /// conserved bytes.
    pub fn healthy(&self) -> bool {
        self.matches_uninterrupted.is_ok() && self.conservation.is_ok()
    }
}

/// Runs the seeded tandem scenario to `t` and serializes the full network
/// state — hierarchies, event queue, ledgers, injector decision streams —
/// as a byte-deterministic snapshot that [`soak_resume`] (or `hpfq-trace
/// snapshots`) can pick up. `seed` and `horizon` are embedded so a resume
/// can rebuild the same scenario.
pub fn soak_snapshot(seed: u64, horizon: f64, t: f64) -> Result<Vec<u8>, String> {
    if !(t > 0.0 && t < horizon) {
        return Err(format!("snapshot time {t} outside (0, {horizon})"));
    }
    let mut net = tandem_scenario(seed, horizon);
    net.run(t);
    let state = net
        .snapshot()
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let envelope = Value::map(vec![
        ("kind", Value::Str("chaos-soak".into())),
        ("seed", Value::U64(seed)),
        ("horizon", Value::F64(horizon)),
        ("state", state),
    ]);
    Ok(envelope.to_bytes())
}

/// Restores a [`soak_snapshot`] into a freshly built scenario, completes
/// the run, and checks the stitched `prefix → snapshot → resume` run
/// against an uninterrupted run of the same seed — the end state must be
/// byte-identical.
pub fn soak_resume(snapshot: &[u8]) -> Result<ResumeOutcome, String> {
    let text = std::str::from_utf8(snapshot).map_err(|e| format!("snapshot not UTF-8: {e}"))?;
    let envelope =
        hpfq_obs::snap::parse(text.trim_end()).map_err(|e| format!("unparseable snapshot: {e}"))?;
    let field = |key: &str| envelope.get(key).map_err(|e| e.to_string());
    let kind = field("kind")?.as_str().map_err(|e| e.to_string())?;
    if kind != "chaos-soak" {
        return Err(format!("not a chaos-soak snapshot (kind '{kind}')"));
    }
    let seed = field("seed")?.as_u64().map_err(|e| e.to_string())?;
    let horizon = field("horizon")?.as_f64().map_err(|e| e.to_string())?;

    let mut resumed = tandem_scenario(seed, horizon);
    resumed
        .restore(field("state")?)
        .map_err(|e| format!("restore failed: {e}"))?;
    resumed.run(horizon);
    let mut whole = tandem_scenario(seed, horizon);
    whole.run(horizon);

    let differences = tandem_differences(&whole, &resumed);
    Ok(ResumeOutcome {
        served_packets: resumed.stats.total_packets,
        served_bytes: resumed.stats.total_bytes,
        halted: resumed.is_halted(),
        matches_uninterrupted: if differences.is_empty() {
            Ok(())
        } else {
            Err(differences.join("; "))
        },
        conservation: resumed.verify_conservation(),
    })
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
    fn soak_snapshot_resume_round_trip_is_byte_identical() {
        let snap = soak_snapshot(9, 8.0, 3.0).unwrap();
        // Snapshots are byte-deterministic: taking it twice gives the
        // same artifact.
        assert_eq!(snap, soak_snapshot(9, 8.0, 3.0).unwrap());
        let out = soak_resume(&snap).unwrap();
        assert!(out.healthy(), "{out:?}");
        assert!(out.served_packets > 1000, "{out:?}");
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
