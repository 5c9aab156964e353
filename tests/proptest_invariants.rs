//! Randomized property tests: the paper's invariants must hold for
//! *arbitrary* admissible workloads, not just the curated scenarios.
//!
//! The workload generators are driven by the workspace's own seeded
//! [`SmallRng`] (the container has no third-party property-testing crate),
//! so every failure is reproducible from the printed case seed. Gated
//! behind the `proptest-tests` feature because the suites are heavier than
//! the deterministic tier-1 tests:
//!
//! ```text
//! cargo test --features proptest-tests --test proptest_invariants
//! ```
#![cfg(feature = "proptest-tests")]

use hpfq::analysis::{empirical_bwfi, service_curve_from_records, wf2q_plus_bwfi};
use hpfq::core::{
    DualHeapEligibleSet, Hierarchy, MixedScheduler, NodeId, NodeScheduler, PifoBackend,
    SchedulerKind, SessionId,
};
use hpfq::fluid::{Arrival, FluidNodeId, FluidSim, FluidTree};
use hpfq::obs::{InvariantObserver, NoopObserver};
use hpfq::sim::{
    CbrSource, FlowMap, FlowStats, Hop, Network, PoissonSource, Route, ServiceRecord, SimCommand,
    SimStats, SmallRng, TraceSource,
};

// ---------------------------------------------------------------------------
// Eligible set: the dual heap behaves exactly like an O(N) brute-force set
// under arbitrary operation sequences.
// ---------------------------------------------------------------------------

/// The SEFF eligible set written down as a `Vec` and linear scans, sharing
/// no code with the dual heap: the threshold is `max(v, Smin)`, and a pop
/// takes the least `(finish, id)` among the members with `start <= thr`.
#[derive(Debug, Default)]
struct BruteForceSet {
    /// `(id, start, finish)`.
    members: Vec<(usize, f64, f64)>,
}

impl BruteForceSet {
    fn insert(&mut self, id: usize, start: f64, finish: f64) {
        assert!(!self.members.iter().any(|m| m.0 == id), "{id} twice");
        self.members.push((id, start, finish));
    }

    fn threshold(&self, v: f64) -> Option<f64> {
        let smin = self.members.iter().map(|m| m.1).reduce(f64::min)?;
        Some(v.max(smin))
    }

    fn pop(&mut self, thr: f64) -> Option<SessionId> {
        let key = |m: &(usize, f64, f64)| (m.2, m.0);
        let eligible = self.members.iter().enumerate().filter(|(_, m)| m.1 <= thr);
        let (at, _) = eligible.min_by(|a, b| key(a.1).partial_cmp(&key(b.1)).unwrap())?;
        Some(SessionId(self.members.swap_remove(at).0))
    }
}

#[derive(Debug, Clone, Copy)]
enum SetOp {
    /// Insert session id with (start offset, duration).
    Insert(usize, f64, f64),
    /// Advance the threshold by the offset and pop.
    Pop(f64),
    /// Query the eligibility threshold.
    Threshold,
    /// Reset the whole set (busy-period end / link reconfiguration).
    Clear,
}

fn random_set_op(rng: &mut SmallRng) -> SetOp {
    match rng.gen_range_u32(0, 3) {
        0 => SetOp::Insert(
            rng.gen_range_usize(0, 32),
            rng.gen_range_f64(0.0, 10.0),
            rng.gen_range_f64(0.001, 10.0),
        ),
        1 => SetOp::Pop(rng.gen_range_f64(0.0, 3.0)),
        _ => SetOp::Threshold,
    }
}

/// Drives the dual heap — through the [`PifoBackend`] calls the PIFO
/// driver makes for a SEFF policy — and the brute-force set through `nops`
/// operations drawn from `op` over session ids `0..ids`, comparing every
/// answer; returns both sets and the last threshold.
fn drive_sets(
    case: u64,
    rng: &mut SmallRng,
    nops: usize,
    ids: usize,
    op: impl Fn(&mut SmallRng) -> SetOp,
) -> (DualHeapEligibleSet, BruteForceSet, f64) {
    let mut dual = DualHeapEligibleSet::new();
    let mut oracle = BruteForceSet::default();
    let mut present = vec![false; ids];
    let mut thr = 0.0_f64;
    for _ in 0..nops {
        match op(rng) {
            SetOp::Insert(id, s, d) => {
                if !present[id] {
                    let start = thr + s;
                    let finish = start + d;
                    dual.insert_ranked(SessionId(id), Some(start), finish, 0.0);
                    oracle.insert(id, start, finish);
                    present[id] = true;
                }
            }
            SetOp::Pop(adv) => {
                thr += adv;
                let a = dual.pop_eligible(thr);
                let c = oracle.pop(thr);
                assert_eq!(a, c, "case {case}");
                if let Some(id) = c {
                    present[id.0] = false;
                }
            }
            SetOp::Threshold => {
                let a = dual.clamp_threshold(thr);
                let c = oracle.threshold(thr);
                assert_eq!(a, c, "case {case}");
            }
            SetOp::Clear => {
                dual.reset();
                oracle.members.clear();
                present.fill(false);
                // Virtual time restarts with the new busy period.
                thr = 0.0;
            }
        }
        assert_eq!(dual.members(), oracle.members.len(), "case {case}");
    }
    (dual, oracle, thr)
}

#[test]
fn eligible_sets_agree() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5e7_0000 + case);
        let nops = rng.gen_range_usize(1, 400);
        drive_sets(case, &mut rng, nops, 32, random_set_op);
    }
}

/// Tie-heavy variant of [`random_set_op`]: tag arithmetic quantized to a
/// coarse grid so equal start *and* equal finish tags are common, plus the
/// occasional [`SetOp::Clear`]. This is the regime where a sloppy
/// tie-break (anything other than `(tag, session id)`) diverges between
/// implementations — exactly what a change of heap layout must not
/// change.
fn random_tie_op(rng: &mut SmallRng, ids: usize) -> SetOp {
    const Q: f64 = 0.25;
    match rng.gen_range_u32(0, 14) {
        0..=6 => SetOp::Insert(
            rng.gen_range_usize(0, ids),
            Q * rng.gen_range_usize(0, 8) as f64,
            Q * rng.gen_range_usize(1, 8) as f64,
        ),
        7..=10 => SetOp::Pop(Q * rng.gen_range_usize(0, 3) as f64),
        11..=12 => SetOp::Threshold,
        _ => SetOp::Clear,
    }
}

/// The dual heap and the brute-force set stay in lockstep under a
/// tie-saturated churn workload over a larger id space, including full
/// resets mid-sequence.
#[test]
fn eligible_sets_agree_under_ties_and_clears() {
    const IDS: usize = 96;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x71e_0000 + case);
        let nops = rng.gen_range_usize(1, 600);
        let tie_op = |rng: &mut SmallRng| random_tie_op(rng, IDS);
        let (mut dual, mut oracle, mut thr) = drive_sets(case, &mut rng, nops, IDS, tie_op);
        // Drain fully: the complete pop order must agree, not just the
        // prefix the random walk happened to sample.
        loop {
            thr += 1.0;
            let a = dual.pop_eligible(thr);
            let c = oracle.pop(thr);
            assert_eq!(a, c, "case {case} drain");
            if c.is_none() && oracle.members.is_empty() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Standalone WF²Q+: Theorem 4's B-WFI holds for every session under random
// bursty workloads.
// ---------------------------------------------------------------------------

/// A session workload: weight and burst spec (start, packets) pairs.
#[derive(Debug, Clone)]
struct FlowSpec {
    weight: f64,
    bursts: Vec<(f64, u32)>,
}

fn random_flow_spec(rng: &mut SmallRng) -> FlowSpec {
    let weight = rng.gen_range_f64(0.2, 4.0);
    let nbursts = rng.gen_range_usize(1, 4);
    let bursts = (0..nbursts)
        .map(|_| (rng.gen_range_f64(0.0, 2.0), rng.gen_range_u32(1, 25)))
        .collect();
    FlowSpec { weight, bursts }
}

#[test]
fn wf2q_plus_bwfi_theorem_holds() {
    const LINK: f64 = 1e6;
    const PKT: u32 = 250; // 2000 bits
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xbf1_0000 + case);
        let nflows = rng.gen_range_usize(2, 6);
        let specs: Vec<FlowSpec> = (0..nflows).map(|_| random_flow_spec(&mut rng)).collect();
        let total_w: f64 = specs.iter().map(|s| s.weight).sum();

        let mut h = Hierarchy::builder(LINK, |r| SchedulerKind::Wf2qPlus.build(r)).build();
        let root = h.root();
        let leaves: Vec<_> = specs
            .iter()
            .map(|s| h.add_leaf(root, s.weight / total_w).unwrap())
            .collect();
        let mut sim = Network::single_link(h);
        let mut arrivals_per_flow: Vec<Vec<(f64, f64)>> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let flow = i as u32;
            sim.stats.trace_flow(flow);
            let mut entries: Vec<(f64, u32)> = Vec::new();
            for &(t0, n) in &spec.bursts {
                for k in 0..n {
                    entries.push((t0 + f64::from(k) * 1e-5, PKT));
                }
            }
            entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            arrivals_per_flow.push(
                entries
                    .iter()
                    .map(|&(t, l)| (t, f64::from(l) * 8.0))
                    .collect(),
            );
            sim.add_route(
                flow,
                TraceSource::new(flow, entries),
                Route::open_loop(leaves[i]),
            );
        }
        sim.run(10_000.0);

        // Server curve = union of all service records.
        let all: Vec<_> = (0..specs.len() as u32)
            .flat_map(|f| sim.stats.trace(f).iter().copied())
            .collect();
        let w_server = service_curve_from_records(all.iter());
        for (i, spec) in specs.iter().enumerate() {
            let flow = i as u32;
            let w_i = service_curve_from_records(sim.stats.trace(flow).iter());
            let share = spec.weight / total_w;
            let measured = empirical_bwfi(&arrivals_per_flow[i], &w_i, &w_server, share);
            // All packets are equal-length, so Theorem 4 gives alpha =
            // L_max exactly; allow a small epsilon for curve sampling.
            let theory = wf2q_plus_bwfi(2000.0, 2000.0, share * LINK, LINK);
            assert!(
                measured <= theory + 1.0,
                "case {case} flow {i}: measured B-WFI {measured} bits > theory {theory}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fluid system invariants under random hierarchies and arrivals.
// ---------------------------------------------------------------------------

#[test]
fn fluid_conservation() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xf1_0000 + case);
        // Random class/leaf weight structure.
        let nclasses = rng.gen_range_usize(1, 4);
        let classes: Vec<Vec<f64>> = (0..nclasses)
            .map(|_| {
                let nl = rng.gen_range_usize(1, 4);
                (0..nl).map(|_| rng.gen_range_f64(0.2, 3.0)).collect()
            })
            .collect();
        let nbursts = rng.gen_range_usize(1, 12);
        let bursts: Vec<(usize, usize, f64, u32)> = (0..nbursts)
            .map(|_| {
                (
                    rng.gen_range_usize(0, 4),
                    rng.gen_range_usize(0, 4),
                    rng.gen_range_f64(0.0, 3.0),
                    rng.gen_range_u32(1, 20),
                )
            })
            .collect();

        let mut tree = FluidTree::new();
        let mut leaves: Vec<Vec<FluidNodeId>> = Vec::new();
        let class_total: f64 = classes.len() as f64;
        for weights in &classes {
            let c = tree.add_internal(tree.root(), 1.0 / class_total).unwrap();
            let wt: f64 = weights.iter().sum();
            leaves.push(
                weights
                    .iter()
                    .map(|&w| tree.add_leaf(c, w / wt).unwrap())
                    .collect(),
            );
        }
        let mut arr = Vec::new();
        let mut id = 0u64;
        let mut arrived_per_leaf = std::collections::BTreeMap::new();
        for &(ci, li, t, n) in &bursts {
            let ci = ci % leaves.len();
            let li = li % leaves[ci].len();
            for _ in 0..n {
                id += 1;
                arr.push(Arrival {
                    time: t,
                    leaf: leaves[ci][li],
                    bits: 100.0,
                    id,
                });
                *arrived_per_leaf.entry(leaves[ci][li]).or_insert(0.0) += 100.0;
            }
        }
        arr.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
        let res = FluidSim::run(&tree, 1000.0, &arr);

        // Every packet departs exactly once.
        assert_eq!(res.departures.len(), arr.len(), "case {case}");
        // Per-leaf service equals arrivals (system drains).
        for (leaf, &arrived) in &arrived_per_leaf {
            let served = res.service[leaf.0].total();
            assert!((served - arrived).abs() < 1e-6, "case {case}");
        }
        // Service curves are monotone and the root's slope never exceeds
        // the link rate.
        for curve in &res.service {
            let pts = curve.points();
            for w in pts.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "case {case}");
            }
        }
        let root_pts = res.service[0].points();
        for w in root_pts.windows(2) {
            let dt = w[1].0 - w[0].0;
            if dt > 1e-12 {
                let rate = (w[1].1 - w[0].1) / dt;
                assert!(
                    rate <= 1000.0 + 1e-6,
                    "case {case}: root served above capacity"
                );
            }
        }
        // Departures are time-ordered.
        for w in res.departures.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Random hierarchy + random trace through the packet system: conservation
// and per-flow FIFO, with the root reference-time hint active.
// ---------------------------------------------------------------------------

#[test]
fn hierarchy_conserves_packets() {
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xc0_0000 + case);
        let nweights = rng.gen_range_usize(2, 5);
        let weights: Vec<f64> = (0..nweights).map(|_| rng.gen_range_f64(0.2, 2.0)).collect();
        let nbursts = rng.gen_range_usize(1, 10);
        let bursts: Vec<(usize, f64, u32)> = (0..nbursts)
            .map(|_| {
                (
                    rng.gen_range_usize(0, 5),
                    rng.gen_range_f64(0.0, 1.0),
                    rng.gen_range_u32(1, 15),
                )
            })
            .collect();

        let total: f64 = weights.iter().sum();
        let mut h = Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r)).build();
        let root = h.root();
        let leaves: Vec<_> = weights
            .iter()
            .map(|&w| h.add_leaf(root, w / total).unwrap())
            .collect();
        let mut sim = Network::single_link(h);
        let mut per_flow: Vec<Vec<(f64, u32)>> = vec![Vec::new(); leaves.len()];
        for &(li, t, n) in &bursts {
            let li = li % leaves.len();
            for k in 0..n {
                per_flow[li].push((t + f64::from(k) * 1e-6, 125));
            }
        }
        let mut expected = 0usize;
        for (i, entries) in per_flow.iter_mut().enumerate() {
            entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            expected += entries.len();
            let flow = i as u32;
            sim.stats.trace_flow(flow);
            sim.add_route(
                flow,
                TraceSource::new(flow, entries.clone()),
                Route::open_loop(leaves[i]),
            );
        }
        sim.run(1e6);
        let mut got = 0usize;
        for flow in 0..leaves.len() as u32 {
            let tr = sim.stats.trace(flow);
            got += tr.len();
            for w in tr.windows(2) {
                assert!(w[1].id > w[0].id, "case {case}: per-flow FIFO violated");
                assert!(w[1].start >= w[0].end - 1e-9, "case {case}");
            }
        }
        assert_eq!(got, expected, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Flow churn: leaves joining and leaving mid-run must keep every node's
// virtual time monotone and every share non-negative and within its
// parent's budget — for WF²Q+ and for SFQ (the two policies the chaos
// soak leans on hardest).
// ---------------------------------------------------------------------------

/// Drives one randomized churn case against a scheduler family and checks
/// the share and virtual-time invariants at every churn boundary.
fn churn_case<S: NodeScheduler>(factory: impl Fn(f64) -> S + 'static, seed: u64) {
    const LINK: f64 = 1e6;
    const CHURN_BASE: u32 = 50;
    let mut rng = SmallRng::seed_from_u64(seed);

    // Static backbone: a class with two permanent leaves plus a root-level
    // leaf, deliberately leaving 0.2 of the root for churn arrivals.
    let mut bld = Hierarchy::builder_with_observer(LINK, factory, InvariantObserver::new());
    let root = bld.root();
    let class = bld.add_internal(root, 0.5).unwrap();
    let l0 = bld.add_leaf(class, 0.6).unwrap();
    let l1 = bld.add_leaf(class, 0.4).unwrap();
    let l2 = bld.add_leaf(root, 0.3).unwrap();
    let mut sim = Network::single_link(bld.build());
    for (i, (leaf, rate)) in [(l0, 0.45e6), (l1, 0.30e6), (l2, 0.50e6)]
        .into_iter()
        .enumerate()
    {
        let flow = i as u32;
        sim.add_route(
            flow,
            CbrSource::new(flow, 500, rate, 0.0, 18.0),
            Route::open_loop(leaf),
        );
    }

    // Random churn schedule: joins (bounded by the 0.2 spare share) and
    // leaves of previously joined flows, at random times.
    let nops = rng.gen_range_usize(2, 9);
    let mut times: Vec<f64> = (0..nops).map(|_| rng.gen_range_f64(1.0, 15.0)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut live: Vec<u32> = Vec::new();
    let mut next_flow = CHURN_BASE;
    let mut boundaries = Vec::new();
    for t in times {
        let join = live.is_empty() || (live.len() < 3 && rng.gen_range_u32(0, 2) == 0);
        if join {
            let phi = rng.gen_range_f64(0.01, 0.2 / 3.0);
            let flow = next_flow;
            next_flow += 1;
            live.push(flow);
            sim.schedule_command(
                t,
                SimCommand::AddFlow {
                    parent: root,
                    phi,
                    flow,
                    source: Box::new(CbrSource::new(flow, 400, phi * LINK * 1.4, t, 18.0)),
                    buffer_bytes: None,
                    delivery_delay: 0.0,
                },
            );
        } else {
            let idx = rng.gen_range_usize(0, live.len());
            sim.schedule_command(t, SimCommand::RemoveFlow(live.swap_remove(idx)));
        }
        boundaries.push(t);
    }
    boundaries.sort_by(|a, b| a.partial_cmp(b).unwrap());
    boundaries.push(20.0);

    // Run in segments so the share checks observe the state right after
    // each churn command fires, not just the final configuration.
    for &t in &boundaries {
        sim.run(t);
        let h = sim.link_server(0);
        for n in 0..h.node_count() {
            let node = NodeId(n);
            if h.is_detached(node) {
                continue;
            }
            assert!(
                h.phi(node) >= 0.0,
                "seed {seed}: node {n} share went negative at t={t}"
            );
            let alloc = h.allocated_share(node);
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&alloc),
                "seed {seed}: node {n} allocated share {alloc} out of [0,1] at t={t}"
            );
        }
    }

    assert!(
        sim.command_errors.is_empty(),
        "seed {seed}: churn commands failed: {:?}",
        sim.command_errors
    );
    sim.verify_conservation().unwrap_or_else(|e| {
        panic!("seed {seed}: conservation broken after churn: {e}");
    });
    let obs = sim.link_server(0).observer();
    assert!(
        obs.is_clean(),
        "seed {seed}: invariant violations under churn: {}",
        obs.summary()
    );
}

// ---------------------------------------------------------------------------
// Multi-link churn: *arbitrary* networks with random hierarchies, mixed
// sources, outages, and flow churn run to their horizon, apply every
// command, and conserve bytes at every link.
// ---------------------------------------------------------------------------

/// One random network: 1–3 links, each with a randomized hierarchy (an
/// optional internal class), a trunk flow routed across every link, per-link
/// cross traffic (CBR or Poisson), plus a random outage window, a mid-run
/// `RemoveFlow`, and a mid-run `AddFlow` join on link 0.
fn random_churn_net(rng_seed: u64) -> (Network<MixedScheduler, NoopObserver>, f64) {
    const LINK_BPS: f64 = 10e6;
    const HORIZON: f64 = 2.0;
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let kind = match rng.gen_range_u32(0, 3) {
        0 => SchedulerKind::Wf2qPlus,
        1 => SchedulerKind::Sfq,
        _ => SchedulerKind::Wfq,
    };

    let nlinks = rng.gen_range_usize(1, 4);
    let mut net: Network<MixedScheduler, NoopObserver> = Network::new();
    let mut trunk_hops = Vec::new();
    let mut link0_root = NodeId(0);
    let mut cross_flows = Vec::new();
    for li in 0..nlinks {
        let mut bld = Hierarchy::<MixedScheduler, NoopObserver>::builder_with_observer(
            LINK_BPS,
            move |r| kind.build(r),
            NoopObserver,
        );
        let root = bld.root();
        if li == 0 {
            link0_root = root;
        }
        // Reserve 0.1 of the root for churn joins; split the rest between
        // the trunk leaf and a randomly-shaped cross-traffic subtree.
        let trunk_phi = rng.gen_range_f64(0.2, 0.4);
        let cross_budget = 0.9 - trunk_phi;
        let trunk_leaf = bld.add_leaf(root, trunk_phi).unwrap();
        let cross_parent = if rng.gen_range_u32(0, 2) == 0 {
            bld.add_internal(root, cross_budget).unwrap()
        } else {
            root
        };
        let under_class = cross_parent != root;
        let ncross = rng.gen_range_usize(1, 4);
        let raw: Vec<f64> = (0..ncross).map(|_| rng.gen_range_f64(0.2, 2.0)).collect();
        let total: f64 = raw.iter().sum();
        let mut pending = Vec::new();
        for (k, w) in raw.iter().enumerate() {
            // Under an internal class weights are relative to the class;
            // directly under the root they must fit the remaining budget.
            let phi = if under_class {
                w / total
            } else {
                cross_budget * w / total
            };
            let leaf = bld.add_leaf(cross_parent, phi).unwrap();
            let flow = 100 + 10 * li as u32 + k as u32;
            cross_flows.push(flow);
            pending.push((flow, leaf));
        }
        let link = net.add_link(bld.build());
        for (flow, leaf) in pending {
            let rate = rng.gen_range_f64(1e6, 4e6);
            let pkt = 250 * rng.gen_range_u32(2, 7);
            let end = rng.gen_range_f64(1.0, HORIZON);
            let buffer = if rng.gen_range_u32(0, 2) == 0 {
                Some(8 * u64::from(pkt))
            } else {
                None
            };
            let route = Route::new(vec![Hop {
                link,
                leaf,
                buffer_bytes: buffer,
                prop_delay: rng.gen_range_f64(0.0, 0.002),
            }]);
            if rng.gen_range_u32(0, 2) == 0 {
                net.add_route(flow, CbrSource::new(flow, pkt, rate, 0.0, end), route);
            } else {
                net.add_route(
                    flow,
                    PoissonSource::new(
                        flow,
                        pkt,
                        rate,
                        0.0,
                        end,
                        rng_seed.wrapping_add(flow.into()),
                    ),
                    route,
                );
            }
        }
        trunk_hops.push(Hop {
            link,
            leaf: trunk_leaf,
            buffer_bytes: if rng.gen_range_u32(0, 2) == 0 {
                Some(6000)
            } else {
                None
            },
            prop_delay: rng.gen_range_f64(0.001, 0.004),
        });
    }
    net.add_route(
        0,
        CbrSource::new(0, 1000, rng.gen_range_f64(1e6, 3e6), 0.0, HORIZON),
        Route::new(trunk_hops),
    );

    // Outage window on a random link.
    let out_link = rng.gen_range_usize(0, nlinks);
    let t_down = rng.gen_range_f64(0.3, 1.2);
    net.schedule_command(
        t_down,
        SimCommand::SetLinkRate {
            link: out_link,
            bps: 0.0,
        },
    );
    net.schedule_command(
        t_down + rng.gen_range_f64(0.01, 0.1),
        SimCommand::SetLinkRate {
            link: out_link,
            bps: LINK_BPS,
        },
    );
    // Churn: one leave (a random cross flow) and one join on link 0.
    let victim = cross_flows[rng.gen_range_usize(0, cross_flows.len())];
    net.schedule_command(rng.gen_range_f64(0.5, 1.5), SimCommand::RemoveFlow(victim));
    let t_join = rng.gen_range_f64(0.3, 1.4);
    let phi = rng.gen_range_f64(0.02, 0.08);
    net.schedule_command(
        t_join,
        SimCommand::AddFlow {
            parent: link0_root,
            phi,
            flow: 50,
            source: Box::new(CbrSource::new(
                50,
                750,
                phi * LINK_BPS * 1.3,
                t_join,
                HORIZON,
            )),
            buffer_bytes: Some(9000),
            delivery_delay: 0.0,
        },
    );
    (net, HORIZON)
}

#[test]
fn random_churn_networks_conserve_and_apply_every_command() {
    for case in 0..24u64 {
        let seed = 0x54a9_0000 + case;
        let (mut net, horizon) = random_churn_net(seed);
        net.run(horizon);
        net.verify_conservation().unwrap_or_else(|e| {
            panic!("case {case}: run broke conservation: {e}");
        });
        assert!(
            net.command_errors.is_empty(),
            "case {case}: churn commands failed: {:?}",
            net.command_errors
        );
        assert!(
            net.stats.total_packets > 100,
            "case {case}: degenerate workload ({} packets)",
            net.stats.total_packets
        );
    }
}

#[test]
fn churn_preserves_invariants_wf2q_plus() {
    for case in 0..24u64 {
        churn_case(|r| SchedulerKind::Wf2qPlus.build(r), 0xc4a0_0000 + case);
    }
}

#[test]
fn churn_preserves_invariants_sfq() {
    for case in 0..24u64 {
        churn_case(|r| SchedulerKind::Sfq.build(r), 0xc4a1_0000 + case);
    }
}

// ---------------------------------------------------------------------------
// The flow index behaves exactly like the `BTreeMap<u32, _>` it replaced on
// the packet path, whatever the ids: dense, sparse, at the top of the range,
// and crowded enough that probe runs form.
// ---------------------------------------------------------------------------

/// A pool of ids small enough that every id is touched many times while
/// the table is between 8 and 128 slots.
fn flow_id_pool(rng: &mut SmallRng) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..12).collect();
    pool.extend((0..6).map(|i| u32::MAX - i));
    pool.extend((1..=8).map(|i| i << 24));
    pool.extend((0..14).map(|_| rng.gen_range_u32(0, u32::MAX)));
    pool
}

#[test]
fn flow_map_agrees_with_btreemap() {
    use std::collections::BTreeMap;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xf10_0000 + case);
        let pool = flow_id_pool(&mut rng);
        let mut map: FlowMap<u64> = FlowMap::new();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        if case % 2 == 0 {
            map.reserve_total(rng.gen_range_usize(0, 64));
        }
        for step in 0..rng.gen_range_usize(1, 600) as u64 {
            let flow = pool[rng.gen_range_usize(0, pool.len())];
            match rng.gen_range_u32(0, 3) {
                0 => {
                    *map.get_or_insert_with(flow, || step) += 1;
                    *oracle.entry(flow).or_insert(step) += 1;
                }
                1 => assert_eq!(map.get(flow), oracle.get(&flow), "case {case}"),
                _ => {
                    if let Some(v) = map.get_mut(flow) {
                        *v ^= step;
                    }
                    if let Some(v) = oracle.get_mut(&flow) {
                        *v ^= step;
                    }
                }
            }
            assert_eq!(map.len(), oracle.len(), "case {case} step {step}");
        }
        assert_eq!(map.keys(), oracle.keys().copied().collect::<Vec<_>>());
        let pairs: Vec<(u32, u64)> = map.sorted().into_iter().map(|(f, v)| (f, *v)).collect();
        assert_eq!(
            pairs,
            oracle.iter().map(|(f, v)| (*f, *v)).collect::<Vec<_>>()
        );
        for &flow in &pool {
            assert_eq!(map.get(flow), oracle.get(&flow), "case {case} flow {flow}");
        }
    }
}

/// The same lockstep one level up, through the operations the engine
/// performs on `SimStats`: first-touch creation by `record_*`, loss
/// counters, and flow-ordered listing.
#[test]
fn sim_stats_flow_table_agrees_with_btreemap() {
    use std::collections::BTreeMap;
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xf11_0000 + case);
        let pool = flow_id_pool(&mut rng);
        let mut stats = SimStats::new();
        let mut oracle: BTreeMap<u32, FlowStats> = BTreeMap::new();
        for step in 0..rng.gen_range_usize(1, 400) as u64 {
            let flow = pool[rng.gen_range_usize(0, pool.len())];
            match rng.gen_range_u32(0, 4) {
                0 => {
                    let rec = ServiceRecord {
                        id: step,
                        flow,
                        len_bytes: 100,
                        arrival: step as f64,
                        start: step as f64 + 0.25,
                        end: step as f64 + 0.5,
                    };
                    stats.record_service(rec);
                    let f = oracle.entry(flow).or_default();
                    f.packets += 1;
                    f.bytes += 100;
                    f.delay_sum += 0.5;
                    f.delay_max = 0.5;
                    f.last_departure = rec.end;
                }
                1 => {
                    let pkt = hpfq::core::Packet::new(step, flow, 60, 0.0);
                    stats.record_arrival(&pkt);
                    let f = oracle.entry(flow).or_default();
                    f.offered_packets += 1;
                    f.offered_bytes += 60;
                }
                2 => {
                    let pkt = hpfq::core::Packet::new(step, flow, 60, 0.0);
                    stats.record_drop(&pkt);
                    let f = oracle.entry(flow).or_default();
                    f.drops += 1;
                    f.drop_bytes += 60;
                }
                _ => {
                    let pkt = hpfq::core::Packet::new(step, flow, 60, 0.0);
                    stats.record_purge(&pkt);
                    let f = oracle.entry(flow).or_default();
                    f.purged_packets += 1;
                    f.purged_bytes += 60;
                }
            }
        }
        assert_eq!(stats.flows(), oracle.keys().copied().collect::<Vec<_>>());
        for &flow in &pool {
            let want = oracle.get(&flow).cloned().unwrap_or_default();
            assert_eq!(stats.flow(flow), want, "case {case} flow {flow}");
        }
    }
}
