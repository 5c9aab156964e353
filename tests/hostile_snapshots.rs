//! Hostile snapshots: a seeded mutation loop over real checkpoints.
//!
//! A snapshot is untrusted input. Every load must either refuse it with a
//! typed error and leave its target byte-identical, or accept it and keep
//! running without a panic or a hang. This suite checks that on mutated
//! copies of real snapshots.
//!
//! * **Snapshots:** three networks, each checkpointed at several instants,
//!   including mid-outage and after churn. The networks are the reduced
//!   Fig. 3 workload, the 3-link tandem, and a 3-level tree that runs all
//!   eight scheduler kinds.
//! * **Mutations:**
//!   - value level: an `F64` becomes NaN, ±∞, 0, −1, 1e±300, its negation or
//!     itself with one bit flipped; a `U64` becomes 0, ±1 of itself,
//!     `u64::MAX` or 2²⁰; a `Bool` flips; one list element is dropped or
//!     duplicated; two values of a map swap.
//!   - byte level: the text form is truncated, has one bit flipped, or has
//!     a piece of at most 64 of its own bytes spliced in, and goes back
//!     through `snap::parse`.
//! * **Targets:** `Network::restore` onto the same network run further
//!   (rollback) and onto a fresh build (resume); `Hierarchy::load_state`
//!   of each link server, onto a fresh tree and onto one run further.
//! * **Properties:** a refusal leaves the target's `snapshot()` /
//!   `save_state()` bytes unchanged. An accepted network runs 0.3 s
//!   further, or [`FLOOD`] packets of its fastest source if that is
//!   sooner; an accepted tree completes its in-flight packet and serves
//!   200 enqueue/dequeue rounds. Neither may panic or hang.
//!
//! The default budget suits a debug `cargo test`; `--features
//! proptest-tests` runs ten times as many cases. Each family prints its
//! case counts (`--nocapture` shows them).

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use common::{fig3_net, fig3_tree, sink, tandem_link, tandem_net, Obs};
use hpfq::core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};
use hpfq::obs::snap::{self, Value};
use hpfq::sim::{CbrSource, Network, PoissonSource, Route, SimCommand, SmallRng};

/// Mutated cases per snapshot, for each of the two network targets; the
/// link servers get half as many each.
const CASES: usize = if cfg!(feature = "proptest-tests") {
    1_200
} else {
    120
};

/// How long the loop may go without reporting progress before it calls
/// the step it is on a hang; the process then exits rather than let it run
/// on. Far above the longest setup step or case of a debug build (about a
/// second), so that a slow or busy runner does not trip it.
const HANG: Duration = Duration::from_secs(60);

/// Packets the fastest source of an accepted network may send in one
/// exercised run. A mutated gap may be valid yet far finer than any the
/// loop's networks use, and 0.3 s of it would take hours; such a run is
/// cut short instead.
const FLOOD: f64 = 20_000.0;

type Net = Network<MixedScheduler, Obs>;
type Tree = Hierarchy<MixedScheduler, Obs>;

/// One family of snapshots: a network, the tree of each of its links, and
/// the instants it is checkpointed at.
struct Family {
    name: &'static str,
    net: fn() -> Net,
    tree: fn(usize) -> Tree,
    instants: &'static [f64],
    seed: u64,
}

/// What a family's loop saw.
#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    /// Byte-level mutants `snap::parse` refused.
    unparsed: usize,
    refused: usize,
    accepted: usize,
    failures: Vec<String>,
}

// --- the eight-kind tree ---------------------------------------------------

/// A 10 Mb/s WF²Q+ root over one class per other kind. The SCFQ class
/// holds a DRR class, so the tree is three levels deep.
fn kinds_tree(_link: usize) -> Tree {
    let rate = 10e6;
    let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
        rate,
        |r| SchedulerKind::Wf2qPlus.build(r),
        sink(),
    );
    let root = bld.root();
    let classes = [
        (SchedulerKind::Wfq, 0.2),
        (SchedulerKind::Wf2q, 0.2),
        (SchedulerKind::Scfq, 0.15),
        (SchedulerKind::Sfq, 0.1),
        (SchedulerKind::Fifo, 0.1),
        (SchedulerKind::Rr, 0.1),
    ];
    for (kind, phi) in classes {
        let class = bld
            .add_internal_with(root, phi, kind.build(phi * rate))
            .unwrap();
        bld.add_leaf(class, 0.6).unwrap();
        if kind == SchedulerKind::Scfq {
            let drr = SchedulerKind::Drr.build(0.4 * phi * rate);
            let inner = bld.add_internal_with(class, 0.4, drr).unwrap();
            bld.add_leaf(inner, 0.5).unwrap();
            bld.add_leaf(inner, 0.5).unwrap();
        } else {
            bld.add_leaf(class, 0.4).unwrap();
        }
    }
    bld.add_leaf(root, 0.05).unwrap();
    bld.build()
}

/// [`kinds_tree`] under Poisson and CBR sources at about 1.3× the link,
/// with an outage, a flow that joins and one that leaves.
fn kinds_net() -> Net {
    let tree = kinds_tree(0);
    let leaves = tree.leaves();
    let mut net = Network::single_link(tree);
    for (i, &leaf) in leaves.iter().enumerate() {
        let flow = i as u32 + 1;
        let len = 300 + 200 * (i as u32 % 6);
        if i % 2 == 0 {
            let src = PoissonSource::new(flow, len, 1.1e6, 0.0, f64::INFINITY, 40 + i as u64);
            net.add_route(flow, src, Route::open_loop(leaf));
        } else {
            let src = CbrSource::new(flow, len, 1.0e6, 0.001 * i as f64, f64::INFINITY);
            net.add_route(flow, src, Route::single(leaf, Some(20_000), 0.0005));
        }
    }
    net.schedule_command(
        0.1,
        SimCommand::AddFlow {
            parent: net.link_server(0).root(),
            phi: 0.04,
            flow: 99,
            source: Box::new(CbrSource::new(99, 700, 0.8e6, 0.1, f64::INFINITY)),
            buffer_bytes: None,
            delivery_delay: 0.0,
        },
    );
    net.schedule_command(0.2, SimCommand::RemoveFlow(3));
    net.schedule_command(0.25, SimCommand::SetLinkRate(0.0));
    net.schedule_command(0.27, SimCommand::SetLinkRate(10e6));
    net
}

fn fig3_link(_link: usize) -> Tree {
    fig3_tree().0
}

fn tandem_tree(link: usize) -> Tree {
    tandem_link(link).0
}

const FIG3: Family = Family {
    name: "fig3",
    net: fig3_net,
    tree: fig3_link,
    instants: &[0.5, 0.91],
    seed: 1,
};

const TANDEM: Family = Family {
    name: "tandem",
    net: tandem_net,
    tree: tandem_tree,
    instants: &[1.02, 2.5],
    seed: 2,
};

const KINDS: Family = Family {
    name: "eight kinds",
    net: kinds_net,
    tree: kinds_tree,
    instants: &[0.15, 0.26, 0.4],
    seed: 3,
};

// --- mutators --------------------------------------------------------------

/// Every node of `v`, as a path of list / map-entry indices.
fn paths(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match v {
        Value::List(items) => items.iter().collect(),
        Value::Map(pairs) => pairs.iter().map(|(_, v)| v).collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, out);
        at.pop();
    }
}

/// The node at `path`, and the path spelled with map keys.
fn node_at<'a>(mut v: &'a mut Value, path: &[usize]) -> (&'a mut Value, String) {
    let mut name = String::new();
    for &i in path {
        v = match v {
            Value::List(items) => {
                name += &format!("[{i}]");
                &mut items[i]
            }
            Value::Map(pairs) => {
                name += &format!(".{}", pairs[i].0);
                &mut pairs[i].1
            }
            _ => unreachable!("paths only descend into containers"),
        };
    }
    (v, name)
}

/// Applies one value-level mutator to `v`, or `None` if none applies to
/// its type.
fn mutate_node(rng: &mut SmallRng, v: &mut Value) -> Option<String> {
    let pick = |rng: &mut SmallRng, n: usize| rng.gen_range_usize(0, n);
    match v {
        Value::F64(x) => {
            let (y, what) = match pick(rng, 9) {
                0 => (f64::NAN, "NaN".to_string()),
                1 => (f64::INFINITY, "+inf".into()),
                2 => (f64::NEG_INFINITY, "-inf".into()),
                3 => (0.0, "0".into()),
                4 => (-1.0, "-1".into()),
                5 => (1e300, "1e300".into()),
                6 => (1e-300, "1e-300".into()),
                7 => (-*x, "negated".into()),
                _ => {
                    let bit = pick(rng, 64);
                    (
                        f64::from_bits(x.to_bits() ^ (1 << bit)),
                        format!("bit {bit} flipped"),
                    )
                }
            };
            let what = format!("f64 {x:e} -> {what}");
            *x = y;
            Some(what)
        }
        Value::U64(x) => {
            let y = [0, x.wrapping_add(1), x.wrapping_sub(1), u64::MAX, 1 << 20][pick(rng, 5)];
            let what = format!("u64 {x} -> {y}");
            *x = y;
            Some(what)
        }
        Value::Bool(b) => {
            *b = !*b;
            Some(format!("bool -> {b}"))
        }
        Value::List(items) if !items.is_empty() => {
            let i = pick(rng, items.len());
            if rng.gen_bool(0.5) {
                items.remove(i);
                Some(format!("list element {i} dropped"))
            } else {
                items.insert(i, items[i].clone());
                Some(format!("list element {i} duplicated"))
            }
        }
        Value::Map(pairs) if pairs.len() >= 2 => {
            let (i, j) = (pick(rng, pairs.len()), pick(rng, pairs.len() - 1));
            let j = if j >= i { j + 1 } else { j };
            let (a, b) = (pairs[i].0.clone(), pairs[j].0.clone());
            let (vi, vj) = (pairs[i].1.clone(), pairs[j].1.clone());
            pairs[i].1 = vj;
            pairs[j].1 = vi;
            Some(format!("values of '{a}' and '{b}' swapped"))
        }
        _ => None,
    }
}

/// A mutated copy of `base`, and what was done to it; `None` when a
/// byte-level mutant does not parse.
fn mutant(rng: &mut SmallRng, base: &Value, nodes: &[Vec<usize>]) -> Option<(Value, String)> {
    if rng.gen_bool(0.75) {
        let mut v = base.clone();
        loop {
            let path = &nodes[rng.gen_range_usize(0, nodes.len())];
            let (node, name) = node_at(&mut v, path);
            if let Some(what) = mutate_node(rng, node) {
                return Some((v, format!("{name}: {what}")));
            }
        }
    }
    let mut bytes = base.to_bytes();
    let n = bytes.len();
    let what = match rng.gen_range_usize(0, 3) {
        0 => {
            let at = rng.gen_range_usize(0, n);
            bytes.truncate(at);
            format!("truncated at byte {at}")
        }
        1 => {
            let (at, bit) = (rng.gen_range_usize(0, n), rng.gen_range_usize(0, 8));
            bytes[at] ^= 1 << bit;
            format!("byte {at} bit {bit} flipped")
        }
        _ => {
            let len = rng.gen_range_usize(1, 65).min(n);
            let from = rng.gen_range_usize(0, n - len + 1);
            let at = rng.gen_range_usize(0, n);
            let cut = rng.gen_range_usize(0, 65).min(n - at);
            let piece = bytes[from..from + len].to_vec();
            bytes.splice(at..at + cut, piece);
            format!("{len} bytes from {from} spliced over {cut} at {at}")
        }
    };
    let parsed = snap::parse(&String::from_utf8_lossy(&bytes)).ok()?;
    Some((parsed, what))
}

// --- targets ---------------------------------------------------------------

/// The panic message of a caught unwind.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Something a snapshot loads into.
trait Target {
    /// Loads `v`; `Err` carries the refusal.
    fn load(&mut self, v: &Value) -> Result<(), String>;
    /// The target's own serialization, to compare across a refusal.
    fn bytes(&mut self) -> Vec<u8>;
    /// Runs on after an accepted load.
    fn exercise(&mut self);
}

impl Target for Net {
    fn load(&mut self, v: &Value) -> Result<(), String> {
        self.restore(v).map_err(|e| e.what)
    }

    fn bytes(&mut self) -> Vec<u8> {
        self.snapshot().map(|s| s.to_bytes()).unwrap_or_default()
    }

    fn exercise(&mut self) {
        let gap = self.snapshot().map_or(f64::INFINITY, |s| finest_gap(&s));
        self.run(self.now() + 0.3f64.min(FLOOD * gap));
    }
}

/// The finest spacing between two packets or wakes of any source of
/// network snapshot `v`: a periodic source's interval or period, a
/// Poisson source's mean interval, a leaky bucket's `len / ρ`.
fn finest_gap(v: &Value) -> f64 {
    let slots = v.get("sources").and_then(Value::items).unwrap_or_default();
    let mut finest = f64::INFINITY;
    for src in slots.iter().filter_map(|slot| slot.get("src").ok()) {
        let f = |key| src.get(key).and_then(Value::as_f64).ok();
        let len = src.get("len_bytes").and_then(Value::as_u64).unwrap_or(0);
        let bucket = f("rho_bps").map(|rho| len as f64 * 8.0 / rho);
        for gap in [f("interval"), f("mean_interval"), f("period"), bucket] {
            finest = finest.min(gap.unwrap_or(f64::INFINITY));
        }
    }
    finest
}

impl Target for Tree {
    fn load(&mut self, v: &Value) -> Result<(), String> {
        self.load_state(v).map_err(|e| e.what)
    }

    fn bytes(&mut self) -> Vec<u8> {
        self.save_state().to_bytes()
    }

    fn exercise(&mut self) {
        if self.is_transmitting() {
            self.complete_transmission();
        }
        let leaves = self.active_leaves();
        for i in 0..200u32 {
            if !leaves.is_empty() {
                let leaf = leaves[i as usize % leaves.len()];
                let pkt = Packet::new(u64::from(i), i, 200 + 100 * (i % 13), f64::from(i) * 1e-3);
                // A leaf the snapshot detached refuses; that is fine.
                let _ = self.try_enqueue(leaf, pkt);
            }
            self.dequeue();
        }
    }
}

/// Loads `m` into `target`, which serializes to `bytes` and is reset by
/// `reset`, and checks the properties. Returns the failure, if any.
fn case<T: Target>(
    target: &mut T,
    bytes: &[u8],
    m: &Value,
    tally: &mut Tally,
    reset: impl FnOnce(&mut T),
) -> Option<String> {
    let loaded = catch_unwind(AssertUnwindSafe(|| target.load(m)));
    let failure = match loaded {
        Err(p) => Some(format!("load panicked: {}", message(p))),
        Ok(Err(_)) => {
            tally.refused += 1;
            match catch_unwind(AssertUnwindSafe(|| target.bytes())) {
                Ok(after) if after == bytes => return None,
                Ok(_) => Some("refused, but the target changed".to_string()),
                Err(p) => Some(format!(
                    "refused, then serializing panicked: {}",
                    message(p)
                )),
            }
        }
        Ok(Ok(())) => {
            tally.accepted += 1;
            catch_unwind(AssertUnwindSafe(|| target.exercise()))
                .err()
                .map(|p| format!("accepted, then panicked: {}", message(p)))
        }
    };
    reset(target);
    failure
}

/// Mutates the network snapshot taken at each of the family's instants
/// and loads the mutants; reports progress on `tx` before each setup step
/// and each case.
fn fuzz_family(f: &Family, tx: &mpsc::Sender<String>) -> Tally {
    let mut rng = SmallRng::seed_from_u64(f.seed);
    let mut tally = Tally::default();
    let step = |what: String| {
        let _ = tx.send(format!("{} {what}", f.name));
    };
    for &t in f.instants {
        // Rollback target: the same run, further on.
        let run_to = |end: f64| {
            step(format!("t={t}: setup, a run to {end}"));
            let mut net = (f.net)();
            net.run(t);
            net.run(end);
            net
        };
        let snapshot = run_to(t).snapshot().unwrap();
        let mut origin = run_to(t + 0.05);
        let further = origin.snapshot().unwrap();
        let further_bytes = further.to_bytes();
        let fresh_bytes = (f.net)().snapshot().unwrap().to_bytes();
        let mut nodes = Vec::new();
        paths(&snapshot, &mut Vec::new(), &mut nodes);
        let mut fresh = (f.net)();
        for i in 0..CASES {
            tally.cases += 1;
            let Some((m, what)) = mutant(&mut rng, &snapshot, &nodes) else {
                tally.unparsed += 1;
                continue;
            };
            step(format!("t={t} case {i}: {what}"));
            // Restoring `further` resets all but a trace the mutant's run
            // left shorter than its mark; then the run is repeated.
            let rollback = case(&mut origin, &further_bytes, &m, &mut tally, |n| {
                if n.restore(&further).is_err() || n.bytes() != further_bytes {
                    *n = run_to(t + 0.05);
                }
            });
            let resume = case(&mut fresh, &fresh_bytes, &m, &mut tally, |n| *n = (f.net)());
            for (target, failure) in [("rollback", rollback), ("resume", resume)] {
                if let Some(failure) = failure {
                    tally
                        .failures
                        .push(format!("{} t={t} {target}, {what}: {failure}", f.name));
                }
            }
        }
        let links = snapshot.get("links").unwrap().items().unwrap();
        for (l, link) in links.iter().enumerate() {
            let server = link.get("server").unwrap();
            let mut nodes = Vec::new();
            paths(server, &mut Vec::new(), &mut nodes);
            step(format!("t={t} link {l}: setup"));
            // Rollback target: the tree loaded honestly and run on.
            let mut later = (f.tree)(l);
            later.load_state(server).unwrap();
            later.exercise();
            let later_state = later.save_state();
            let later_bytes = later_state.to_bytes();
            let fresh_bytes = (f.tree)(l).save_state().to_bytes();
            let mut fresh = (f.tree)(l);
            for i in 0..CASES / 2 {
                tally.cases += 1;
                let Some((m, what)) = mutant(&mut rng, server, &nodes) else {
                    tally.unparsed += 1;
                    continue;
                };
                step(format!("t={t} link {l} case {i}: {what}"));
                let rollback = case(&mut later, &later_bytes, &m, &mut tally, |h| {
                    h.load_state(&later_state).unwrap()
                });
                let resume = case(&mut fresh, &fresh_bytes, &m, &mut tally, |h| {
                    *h = (f.tree)(l)
                });
                for (target, failure) in [("rollback", rollback), ("resume", resume)] {
                    if let Some(failure) = failure {
                        tally.failures.push(format!(
                            "{} t={t} link {l} server {target}, {what}: {failure}",
                            f.name
                        ));
                    }
                }
            }
        }
    }
    tally
}

/// Runs one family on its own thread, so that a case that hangs fails the
/// test instead of wedging it, and asserts the properties held.
fn run(f: &'static Family) {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let fuzzing = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("hostile "));
            if !fuzzing {
                default(info);
            }
        }));
    });
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("hostile {}", f.name))
        .spawn(move || fuzz_family(f, &tx))
        .unwrap();
    let mut last = String::from("(setup)");
    // The worker reports each case before it starts; its channel closes
    // when the loop is done.
    loop {
        match rx.recv_timeout(HANG) {
            Ok(next) => last = next,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("{}: hang at {last}", f.name);
                std::process::exit(101);
            }
        }
    }
    let tally = worker
        .join()
        .unwrap_or_else(|_| panic!("{}: the loop itself panicked after {last}", f.name));
    eprintln!(
        "{}: {} cases — {} did not parse, {} loads refused, {} accepted and ran",
        f.name, tally.cases, tally.unparsed, tally.refused, tally.accepted
    );
    assert!(
        tally.failures.is_empty(),
        "{}: {} failing loads, first ones:\n{}",
        f.name,
        tally.failures.len(),
        tally.failures[..tally.failures.len().min(20)].join("\n")
    );
}

#[test]
fn fig3_snapshots_survive_mutation() {
    run(&FIG3);
}

#[test]
fn tandem_snapshots_survive_mutation() {
    run(&TANDEM);
}

#[test]
fn eight_kind_snapshots_survive_mutation() {
    run(&KINDS);
}
