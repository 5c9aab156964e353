//! PIFO-substrate equivalence oracle: every policy served by
//! [`PifoTree`] (via [`SchedulerKind::build`]) must be **byte-identical**
//! to its hand-rolled original in [`hpfq::core::reference`] (the `legacy`
//! of the test names) — same dispatch decisions, same tags, same virtual
//! time bits, same JSONL traces and statistics on the reduced Fig. 3
//! workload with an outage and flow churn in the mix, and the same
//! continuations across a PIFO snapshot → restore → resume. The same
//! drivers hold the dual heap that ships byte-identical, for all eight
//! programs, to [`SortByRankPifo`]: a `Vec` and a linear scan on the ranked
//! interface, sharing no code with it.
//!
//! Randomized churn + outage differential suites ride behind the
//! `proptest-tests` feature alongside `tests/proptest_invariants.rs`:
//!
//! ```text
//! cargo test --features proptest-tests --test pifo_equivalence
//! ```
//!
//! [`PifoTree`]: hpfq::core::PifoTree
//! [`SchedulerKind::build`]: hpfq::core::SchedulerKind::build

use hpfq::core::pifo::rank::{
    DrrRank, FifoRank, RrRank, ScfqRank, SfqRank, Wf2qPlusRank, Wf2qRank, WfqRank,
};
use hpfq::core::{
    reference, Hierarchy, NodeId, NodeScheduler, PifoBackend, PifoTree, RankProgram, SchedulerKind,
    SessionId,
};
use hpfq::obs::{JsonlObserver, Observer, SharedBuf};
use hpfq::sim::{
    CbrSource, Network, PacketTrainSource, PeriodicOnOffSource, PoissonSource, Route, SimCommand,
};

/// Evaluates `$body` once per policy that has a hand-rolled original, with
/// `$kind` bound to its [`SchedulerKind`] and `$reference` to the
/// original's type (a different one per expansion, which is why this is a
/// macro and the drivers below are generic over [`NodeScheduler`]).
macro_rules! for_each_reference {
    (|$kind:ident, $reference:ident| $body:expr) => {
        for_each_reference!(@ $kind, $reference, $body;
            Wf2qPlus, Wfq, Wf2q, Scfq, Sfq, Drr, Fifo)
    };
    (@ $kind:ident, $reference:ident, $body:expr; $($name:ident),*) => {$({
        let $kind = SchedulerKind::$name;
        #[allow(dead_code)]
        type $reference = reference::$name;
        $body
    })*};
}

/// Evaluates `$body` once per policy, with `$kind` bound to its
/// [`SchedulerKind`] and `$program` to its rank program's type.
macro_rules! for_each_program {
    (|$kind:ident, $program:ident| $body:expr) => {
        for_each_program!(@ $kind, $program, $body;
            Wf2qPlus Wf2qPlusRank, Wfq WfqRank, Wf2q Wf2qRank, Scfq ScfqRank,
            Sfq SfqRank, Drr DrrRank, Fifo FifoRank, Rr RrRank)
    };
    (@ $kind:ident, $program:ident, $body:expr; $($name:ident $rank:ident),*) => {$({
        let $kind = SchedulerKind::$name;
        type $program = $rank;
        $body
    })*};
}

/// One member of [`SortByRankPifo`]: `(id, eligibility key, primary,
/// secondary)`; the key is cleared when the member is admitted.
type Member = (SessionId, Option<f64>, f64, f64);

/// The reference PIFO: the rank model of `hpfq::core::pifo` written down
/// as a `Vec` and a linear `(primary, secondary, id)` min-scan. A gated
/// member is admitted by the first threshold that reaches its key and
/// stays admitted (thresholds only go back across WF²Q's fallback, and an
/// admission does not).
#[derive(Debug, Clone, Default)]
struct SortByRankPifo {
    members: Vec<Member>,
}

impl PifoBackend for SortByRankPifo {
    fn backend_name(&self) -> &'static str {
        "sort-by-rank"
    }
    fn ensure_sessions(&mut self, _n: usize) {}
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        assert!(!self.members.iter().any(|m| m.0 == id), "{id:?} twice");
        self.members.push((id, elig, primary, secondary));
    }
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        self.insert_ranked(id, None, primary, secondary);
    }
    fn pop_monotone(&mut self) -> Option<SessionId> {
        self.pop_min_ranked()
    }
    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        self.pop_eligible(f64::INFINITY)
    }
    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        // An admitted member's key was at or below an earlier threshold.
        let key = |m: &Member| m.1.unwrap_or(f64::NEG_INFINITY);
        let smin = self.members.iter().map(key).reduce(f64::min)?;
        Some(v.max(smin))
    }
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        for m in &mut self.members {
            m.1 = m.1.filter(|&key| key > thr);
        }
        let rank = |m: &Member| (m.2, m.3, m.0 .0);
        let admitted = self.members.iter().filter(|m| m.1.is_none());
        let best = admitted.min_by(|a, b| rank(a).partial_cmp(&rank(b)).unwrap())?;
        let id = best.0;
        self.members.retain(|m| m.0 != id);
        Some(id)
    }
    fn members_in_order(&self) -> Vec<Member> {
        // Admitted members by rank, then gated ones by key.
        let order = |m: &Member| (m.1.is_some(), m.1.unwrap_or(m.2), m.3, m.0 .0);
        let mut out = self.members.clone();
        out.sort_by(|a, b| order(a).partial_cmp(&order(b)).unwrap());
        out
    }
    fn members(&self) -> usize {
        self.members.len()
    }
    fn reset(&mut self) {
        self.members.clear();
    }
}

/// `program` on the reference PIFO instead of the dual heap.
fn oracle<P: RankProgram>(rate: f64, program: P) -> PifoTree<P, SortByRankPifo> {
    PifoTree::with_backend(rate, program)
}

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

// ---------------------------------------------------------------------------
// Scheduler-level lockstep: every dispatch decision, tag, and virtual-time
// bit agrees between the PIFO-backed scheduler and the hand-rolled one.
// ---------------------------------------------------------------------------

/// Deterministic packet-length pattern (primes keep lengths from aliasing
/// into round numbers).
fn len_pattern(i: u64) -> f64 {
    [1000.0, 3000.0, 500.0, 7000.0, 1500.0, 11000.0][(i % 6) as usize]
}

/// Asserts `pifo` and `legacy` agree bit-for-bit on one observable step.
fn assert_lockstep(
    kind: SchedulerKind,
    step: u64,
    pifo: &impl NodeScheduler,
    legacy: &impl NodeScheduler,
) {
    assert_eq!(
        pifo.backlogged(),
        legacy.backlogged(),
        "{} step {step}: backlogged count diverged",
        kind.name()
    );
    assert_eq!(
        pifo.virtual_time().to_bits(),
        legacy.virtual_time().to_bits(),
        "{} step {step}: virtual time diverged ({} vs {})",
        kind.name(),
        pifo.virtual_time(),
        legacy.virtual_time()
    );
}

/// Drives any two schedulers of the same kind through the same
/// deterministic dispatch / requeue / churn / drain schedule, asserting
/// bit-identical selections, tags, and virtual times at every step. The
/// schedule periodically drains both schedulers completely so the
/// busy-period reset path is exercised too. Used both for PIFO-vs-reference
/// and for dual-heap-vs-reference-PIFO equivalence.
fn drive_lockstep_pair(
    kind: SchedulerKind,
    mut pifo: impl NodeScheduler,
    mut legacy: impl NodeScheduler,
    n: usize,
    steps: u64,
    seed: u64,
) {
    for _ in 0..n {
        pifo.add_session(1.0 / n as f64);
        legacy.add_session(1.0 / n as f64);
    }
    let mut queued: Vec<u64> = (0..n as u64).map(|i| 2 + (i + seed) % 4).collect();
    for (i, &q) in queued.iter().enumerate() {
        if q > 0 {
            let bits = len_pattern(i as u64 + seed);
            pifo.backlog(SessionId(i), bits, None);
            legacy.backlog(SessionId(i), bits, None);
        }
    }
    for step in 0..steps {
        let a = pifo.select_next();
        let b = legacy.select_next();
        assert_eq!(a, b, "{} step {step}: selection diverged", kind.name());
        let Some(id) = a else {
            // Both drained: busy period over; restart deterministically.
            for (i, q) in queued.iter_mut().enumerate() {
                *q = 1 + (i as u64 + step) % 3;
                let bits = len_pattern(step + i as u64);
                pifo.backlog(SessionId(i), bits, None);
                legacy.backlog(SessionId(i), bits, None);
            }
            continue;
        };
        let (ps, pf) = pifo.tags(id);
        let (ls, lf) = legacy.tags(id);
        assert_eq!(
            (ps.to_bits(), pf.to_bits()),
            (ls.to_bits(), lf.to_bits()),
            "{} step {step}: tags diverged ({ps},{pf}) vs ({ls},{lf})",
            kind.name()
        );
        assert_lockstep(kind, step, &pifo, &legacy);
        queued[id.0] -= 1;
        // Occasionally a fresh arrival lands on an idle session mid-run.
        if (step * 7 + seed).is_multiple_of(11) {
            for (i, q) in queued.iter_mut().enumerate() {
                if *q == 0 && SessionId(i) != id {
                    *q = 2;
                    let bits = len_pattern(step + 1);
                    pifo.backlog(SessionId(i), bits, None);
                    legacy.backlog(SessionId(i), bits, None);
                    break;
                }
            }
        }
        let next = (queued[id.0] > 0).then(|| len_pattern(step + 2));
        pifo.requeue(id, next);
        legacy.requeue(id, next);
        assert_lockstep(kind, step, &pifo, &legacy);
    }
}

/// `(sessions, steps, seed)` of the two fixed lockstep schedules.
const LOCKSTEP_RUNS: [(usize, u64, u64); 2] = [(5, 600, 3), (9, 400, 17)];

#[test]
fn every_policy_matches_legacy_in_lockstep() {
    for_each_reference!(|kind, Reference| {
        for (n, steps, seed) in LOCKSTEP_RUNS {
            drive_lockstep_pair(kind, kind.build(1e6), Reference::new(1e6), n, steps, seed);
        }
    });
}

// ---------------------------------------------------------------------------
// Network-level golden traces: the reduced Fig. 3 workload (outage, finite
// buffer, flow churn) replays byte-for-byte under both backends.
// ---------------------------------------------------------------------------

/// A reduced Fig. 3 hierarchy, generic over the node factory so the same
/// topology can be built on any scheduler.
fn fig3ish<S: NodeScheduler + 'static, O: Observer>(
    obs: O,
    node: impl Fn(f64) -> S + 'static,
) -> (Hierarchy<S, O>, Vec<NodeId>) {
    let mut bld = Hierarchy::builder_with_observer(LINK, node, obs);
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();
    (bld.build(), vec![rt1, be1, ps1, cs1, ps6])
}

/// Runs the reduced Fig. 3 scenario to `horizon` and returns the raw JSONL
/// trace plus the per-flow statistics the oracle compares.
fn run_fig3ish<S: NodeScheduler + 'static>(
    node: impl Fn(f64) -> S + 'static,
    horizon: f64,
) -> (String, Vec<String>) {
    let buf = SharedBuf::new();
    let (h, leaves) = fig3ish(JsonlObserver::new(buf.clone()), node);
    let mut sim = Network::single_link(h);
    sim.stats.trace_flow(1);
    let mut attach =
        |flow: u32, src: Box<dyn hpfq::sim::Source>, leaf: usize, buffer: Option<u64>| {
            sim.add_route(flow, src, Route::single(leaves[leaf], buffer, 0.0));
        };
    attach(
        1,
        Box::new(PeriodicOnOffSource::new(
            1,
            PKT,
            9e6,
            0.025,
            0.100,
            0.200,
            f64::INFINITY,
        )),
        0,
        None,
    );
    // BE-1 floods through a finite buffer so drop accounting is exercised.
    attach(
        2,
        Box::new(CbrSource::new(2, PKT, 12e6, 0.0, f64::INFINITY)),
        1,
        Some(3 * u64::from(PKT)),
    );
    attach(
        11,
        Box::new(PoissonSource::new(11, PKT, 2.25e6, 0.0, f64::INFINITY, 7)),
        2,
        None,
    );
    attach(
        31,
        Box::new(PacketTrainSource::new(
            31,
            PKT,
            7,
            f64::from(PKT) * 8.0 / LINK,
            0.193,
            0.05,
            f64::INFINITY,
        )),
        3,
        None,
    );
    attach(
        16,
        Box::new(PoissonSource::new(16, PKT, 1.14e6, 0.0, f64::INFINITY, 9)),
        4,
        None,
    );
    // A 30 ms outage and mid-run flow churn exercise the epoch/credit and
    // detach machinery on both backends.
    sim.schedule_command(0.9, SimCommand::SetLinkRate(0.0));
    sim.schedule_command(0.93, SimCommand::SetLinkRate(LINK));
    sim.schedule_command(1.2, SimCommand::RemoveFlow(16));
    sim.run(horizon);
    sim.verify_conservation().unwrap();
    let mut stats = vec![format!(
        "total {} {} {}",
        sim.stats.total_bytes, sim.stats.total_packets, sim.stats.last_departure
    )];
    for flow in [1u32, 2, 11, 31, 16] {
        stats.push(format!("flow {flow} {:?}", sim.stats.flow(flow)));
    }
    stats.push(format!("records {:?}", sim.stats.trace(1)));
    (buf.contents(), stats)
}

#[test]
fn fig3_trace_is_byte_identical_for_every_policy() {
    for_each_reference!(|kind, Reference| {
        let (trace_p, stats_p) = run_fig3ish(move |r| kind.build(r), 1.6);
        let (trace_l, stats_l) = run_fig3ish(Reference::new, 1.6);
        assert!(
            trace_p.lines().count() > 500,
            "{}: trace too small to be meaningful",
            kind.name()
        );
        assert_eq!(
            stats_p,
            stats_l,
            "{}: statistics diverged from legacy",
            kind.name()
        );
        assert_eq!(
            trace_p,
            trace_l,
            "{}: PIFO trace diverged from legacy",
            kind.name()
        );
    });
}

// ---------------------------------------------------------------------------
// Snapshot → restore → resume: a PIFO run interrupted mid-busy-period and
// restored into a fresh scheduler must continue exactly like the
// *hand-rolled* original run straight through.
// ---------------------------------------------------------------------------

#[test]
fn pifo_snapshot_resume_matches_legacy_straight_run() {
    const N: usize = 6;
    fn run<S: NodeScheduler>(
        s: &mut S,
        q: &mut [u64],
        start: u64,
        steps: u64,
    ) -> Vec<(usize, u64, u64)> {
        let mut log = Vec::new();
        for step in start..start + steps {
            let Some(id) = s.select_next() else {
                for (i, qq) in q.iter_mut().enumerate() {
                    *qq = 1 + (i as u64 + step) % 3;
                    s.backlog(SessionId(i), len_pattern(step + i as u64), None);
                }
                continue;
            };
            let tags = s.tags(id);
            log.push((id.0, tags.0.to_bits(), tags.1.to_bits()));
            q[id.0] -= 1;
            let next = (q[id.0] > 0).then(|| len_pattern(step + 2));
            s.requeue(id, next);
        }
        log
    }
    for_each_reference!(|kind, Reference| {
        let mut legacy = Reference::new(1e6);
        let mut pifo = kind.build(1e6);
        for _ in 0..N {
            legacy.add_session(1.0 / N as f64);
            pifo.add_session(1.0 / N as f64);
        }
        let mut queued: Vec<u64> = (0..N as u64).map(|i| 3 + i % 3).collect();
        let mut queued_l = queued.clone();
        for (i, &q) in queued.iter().enumerate() {
            if q > 0 {
                legacy.backlog(SessionId(i), len_pattern(i as u64), None);
                pifo.backlog(SessionId(i), len_pattern(i as u64), None);
            }
        }
        let mut legacy_log = run(&mut legacy, &mut queued_l, 0, 150);
        legacy_log.extend(run(&mut legacy, &mut queued_l, 150, 150));

        let mut pifo_log = run(&mut pifo, &mut queued, 0, 150);
        let snap = pifo.save_state();
        let mut resumed = kind.build(1e6);
        for _ in 0..N {
            resumed.add_session(1.0 / N as f64);
        }
        resumed.load_state(&snap).unwrap();
        assert_eq!(
            resumed.save_state().to_bytes(),
            snap.to_bytes(),
            "{}: PIFO save→load→save is not byte-stable",
            kind.name()
        );
        pifo_log.extend(run(&mut resumed, &mut queued, 150, 150));
        assert_eq!(
            pifo_log,
            legacy_log,
            "{}: restored PIFO run diverges from the legacy straight run",
            kind.name()
        );
    });
}

// ---------------------------------------------------------------------------
// Backend equivalence: the dual heap must pop in the exact rank order the
// reference PIFO finds by scanning, so the full dispatch sequence —
// selections, tags, virtual-time bits, network traces — is byte-identical
// for every policy.
// ---------------------------------------------------------------------------

#[test]
fn every_backend_matches_dual_heap_in_lockstep() {
    for_each_program!(|kind, Program| {
        for (n, steps, seed) in LOCKSTEP_RUNS {
            let scan = oracle(1e6, Program::new());
            drive_lockstep_pair(kind, scan, kind.build(1e6), n, steps, seed);
        }
    });
}

#[test]
fn fig3_trace_is_byte_identical_across_backends() {
    for_each_program!(|kind, Program| {
        let (trace_h, stats_h) = run_fig3ish(move |r| kind.build(r), 1.6);
        let (trace_b, stats_b) = run_fig3ish(|r| oracle(r, Program::new()), 1.6);
        assert_eq!(
            stats_b,
            stats_h,
            "{} on the reference PIFO: statistics diverged from dual heap",
            kind.name()
        );
        assert_eq!(
            trace_b,
            trace_h,
            "{} on the reference PIFO: trace diverged from dual heap",
            kind.name()
        );
    });
}

/// Snapshots are backend-portable: the rank-model membership saved from a
/// run on the reference PIFO restores into a dual-heap scheduler (and vice
/// versa) and both continue identically.
#[test]
fn snapshot_restores_across_backends() {
    const N: usize = 6;
    fn restore_across(
        kind: SchedulerKind,
        label: &str,
        mut a: impl NodeScheduler,
        mut b: impl NodeScheduler,
    ) {
        for _ in 0..N {
            a.add_session(1.0 / N as f64);
            b.add_session(1.0 / N as f64);
        }
        let mut queued: Vec<u64> = (0..N as u64).map(|i| 3 + i % 3).collect();
        for (i, &q) in queued.iter().enumerate() {
            if q > 0 {
                a.backlog(SessionId(i), len_pattern(i as u64), None);
            }
        }
        // Run `a` to mid-busy-period (10 of the 24 offered packets), then
        // restore into `b` (the other backend) and drive both forward in
        // lockstep.
        for step in 0..10u64 {
            let Some(id) = a.select_next() else { break };
            queued[id.0] -= 1;
            let next = (queued[id.0] > 0).then(|| len_pattern(step + 2));
            a.requeue(id, next);
        }
        b.load_state(&a.save_state()).unwrap();
        let mut matched = 0;
        for step in 0..80u64 {
            let x = a.select_next();
            let y = b.select_next();
            assert_eq!(
                x,
                y,
                "{} {label} step {step}: post-restore selection diverged",
                kind.name()
            );
            let Some(id) = x else { break };
            assert_eq!(
                a.tags(id).1.to_bits(),
                b.tags(id).1.to_bits(),
                "{} {label} step {step}: tags diverged",
                kind.name()
            );
            queued[id.0] = queued[id.0].saturating_sub(1);
            let next = (queued[id.0] > 0).then(|| len_pattern(step + 5));
            a.requeue(id, next);
            b.requeue(id, next);
            matched += 1;
        }
        assert!(
            matched >= 10,
            "{} {label}: snapshot taken on an idle scheduler ({matched} selections after restore)",
            kind.name()
        );
    }
    // Bare `PifoTree`s on both sides: `MixedScheduler` wraps the same
    // state in a kind tag, which a bare tree does not read.
    for_each_program!(|kind, Program| {
        let heap = || PifoTree::new(1e6, Program::new());
        restore_across(
            kind,
            "reference->dual-heap",
            oracle(1e6, Program::new()),
            heap(),
        );
        restore_across(
            kind,
            "dual-heap->reference",
            heap(),
            oracle(1e6, Program::new()),
        );
    });
}

// ---------------------------------------------------------------------------
// Randomized churn + outage differential suites (proptest-tests feature).
// ---------------------------------------------------------------------------

#[cfg(feature = "proptest-tests")]
mod random_differential {
    use super::*;
    use hpfq::sim::SmallRng;

    /// One random admissible op schedule driven into two schedulers that
    /// must stay bit-identical: random backlogs on idle sessions, random
    /// service continuations/drains, random full-drain idle gaps.
    fn drive_random_schedule(
        kind: SchedulerKind,
        label: &str,
        case: u64,
        mut pifo: impl NodeScheduler,
        mut legacy: impl NodeScheduler,
    ) {
        let mut rng = SmallRng::seed_from_u64(0x91f0_0000 + case);
        let n = rng.gen_range_usize(2, 12);
        for i in 0..n {
            let phi = 1.0 / n as f64 * if i % 2 == 0 { 1.2 } else { 0.8 };
            pifo.add_session(phi);
            legacy.add_session(phi);
        }
        // queued[i] > 0 ⇔ session i is offered to the scheduler.
        let mut queued = vec![0u64; n];
        for step in 0..rng.gen_range_usize(50, 400) as u64 {
            // Random arrivals on idle sessions (more likely when
            // everything is idle, so busy periods restart).
            let idle_all = queued.iter().all(|&q| q == 0);
            let arrivals = if idle_all {
                rng.gen_range_usize(1, n + 1)
            } else {
                rng.gen_range_usize(0, 3)
            };
            for _ in 0..arrivals {
                let i = rng.gen_range_usize(0, n);
                let bits = (rng.gen_range_usize(1, 24) * 500) as f64;
                if queued[i] == 0 {
                    pifo.backlog(SessionId(i), bits, None);
                    legacy.backlog(SessionId(i), bits, None);
                    queued[i] = rng.gen_range_usize(1, 5) as u64;
                }
            }
            let a = pifo.select_next();
            let b = legacy.select_next();
            assert_eq!(a, b, "{} {label} case {case} step {step}", kind.name());
            let Some(id) = a else { continue };
            let (ps, pf) = pifo.tags(id);
            let (ls, lf) = legacy.tags(id);
            assert_eq!(
                (ps.to_bits(), pf.to_bits()),
                (ls.to_bits(), lf.to_bits()),
                "{} {label} case {case} step {step}: tags",
                kind.name()
            );
            assert_eq!(
                pifo.virtual_time().to_bits(),
                legacy.virtual_time().to_bits(),
                "{} {label} case {case} step {step}: virtual time",
                kind.name()
            );
            queued[id.0] -= 1;
            let next = (queued[id.0] > 0).then(|| (rng.gen_range_usize(1, 24) * 500) as f64);
            pifo.requeue(id, next);
            legacy.requeue(id, next);
        }
    }

    /// Arbitrary admissible op sequences against the hand-rolled
    /// reference (policies that have one — rr does not).
    #[test]
    fn random_schedules_agree_for_every_policy() {
        for_each_reference!(|kind, Reference| {
            for case in 0..24u64 {
                drive_random_schedule(
                    kind,
                    "vs-legacy",
                    case,
                    kind.build(1e6),
                    Reference::new(1e6),
                );
            }
        });
    }

    /// The same randomized schedules on the reference PIFO against the
    /// dual heap that ships.
    #[test]
    fn random_schedules_agree_across_backends() {
        for_each_program!(|kind, Program| {
            for case in 0..24u64 {
                drive_random_schedule(
                    kind,
                    "reference-pifo",
                    case,
                    oracle(1e6, Program::new()),
                    kind.build(1e6),
                );
            }
        });
    }

    /// One randomized outage/churn run of the Fig. 3 topology; returns the
    /// raw JSONL trace.
    fn run_random<S: NodeScheduler + 'static>(
        node: impl Fn(f64) -> S + 'static,
        out_start: f64,
        out_len: f64,
        churn_at: f64,
    ) -> String {
        let buf = SharedBuf::new();
        let (h, leaves) = fig3ish(JsonlObserver::new(buf.clone()), node);
        let mut sim = Network::single_link(h);
        sim.add_route(
            1,
            CbrSource::new(1, PKT, 9e6, 0.0, f64::INFINITY),
            Route::single(leaves[0], None, 0.0),
        );
        sim.add_route(
            2,
            PoissonSource::new(2, PKT, 6e6, 0.0, f64::INFINITY, 5),
            Route::single(leaves[1], Some(2 * u64::from(PKT)), 0.0),
        );
        sim.add_route(
            3,
            CbrSource::new(3, PKT, 3e6, 0.1, f64::INFINITY),
            Route::single(leaves[4], None, 0.0),
        );
        sim.schedule_command(out_start, SimCommand::SetLinkRate(0.0));
        sim.schedule_command(out_start + out_len, SimCommand::SetLinkRate(LINK));
        sim.schedule_command(churn_at, SimCommand::RemoveFlow(3));
        sim.run(1.5);
        sim.verify_conservation().unwrap();
        buf.contents()
    }

    /// Random outage windows + random churn on the Fig. 3 workload: the
    /// full network traces must stay byte-identical.
    #[test]
    fn random_outage_and_churn_traces_agree() {
        let mut legacy_kinds = Vec::new();
        for_each_reference!(|kind, Reference| legacy_kinds.push(kind));
        for case in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x07a6_e000 + case);
            let picked = legacy_kinds[rng.gen_range_usize(0, legacy_kinds.len())];
            let out_start = rng.gen_range_f64(0.2, 1.0);
            let out_len = rng.gen_range_f64(0.005, 0.08);
            let churn_at = rng.gen_range_f64(0.3, 1.3);
            for_each_reference!(|kind, Reference| if kind == picked {
                let trace_p = run_random(move |r| kind.build(r), out_start, out_len, churn_at);
                let trace_l = run_random(Reference::new, out_start, out_len, churn_at);
                assert_eq!(
                    trace_p,
                    trace_l,
                    "{} case {case}: random outage/churn trace diverged",
                    kind.name()
                );
            });
        }
    }
}
