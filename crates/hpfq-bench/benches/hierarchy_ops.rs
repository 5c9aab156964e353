//! Per-packet cost of the H-WF²Q+ hierarchy as a function of tree depth:
//! each dispatch runs RESET-PATH + a RESTART-NODE chain of length `depth`,
//! so the cost should grow linearly in depth with an O(log fanout) factor
//! per level — the practical footprint of the paper's §4 construction.
//!
//! Trees hold ~256 leaves throughout: depth 1 ⇒ 256 leaves under the
//! root; depth 2 ⇒ 16 classes × 16 leaves; depth 4 ⇒ fanout 4; depth 8 ⇒
//! fanout 2.
//!
//! A second section measures the observer hooks on the same workload:
//! `NoopObserver` (the default — `Observer::ENABLED == false` compiles
//! every emission away) against `CountingObserver` (cheapest enabled
//! sink). The noop build is the zero-cost baseline; the printed delta is
//! the full price of *enabled* instrumentation.

use hpfq_bench::microbench::{report, time_op};
use hpfq_core::{Hierarchy, MixedScheduler, NodeId, Packet, SchedulerKind};
use hpfq_obs::{CountingObserver, NoopObserver, Observer, SpanProfiler};

// The zero-cost contract, pinned at compile time: the noop observer's
// liveness flag is false (every `if O::ENABLED` block is dead code)...
const _: () = assert!(!NoopObserver::ENABLED);
// ...and without the `profile` feature the span profiler carries no state
// at all — `if SpanProfiler::ENABLED` blocks are dead code the same way.
#[cfg(not(feature = "profile"))]
const _: () = {
    assert!(!SpanProfiler::ENABLED);
    assert!(std::mem::size_of::<SpanProfiler>() == 0);
};
#[cfg(feature = "profile")]
const _: () = assert!(SpanProfiler::ENABLED);

/// Builds a uniform tree of the given depth/fanout and returns its leaves.
fn build<O: Observer>(
    depth: u32,
    fanout: usize,
    obs: O,
) -> (Hierarchy<MixedScheduler, O>, Vec<NodeId>) {
    let mut bld = Hierarchy::builder_with_observer(1e9, |r| SchedulerKind::Wf2qPlus.build(r), obs);
    let mut parents = vec![bld.root()];
    for _ in 1..depth {
        let mut next = Vec::new();
        for &p in &parents {
            for _ in 0..fanout {
                next.push(bld.add_internal(p, 1.0 / fanout as f64).unwrap());
            }
        }
        parents = next;
    }
    let mut leaves = Vec::new();
    for &p in &parents {
        for _ in 0..fanout {
            leaves.push(bld.add_leaf(p, 1.0 / fanout as f64).unwrap());
        }
    }
    (bld.build(), leaves)
}

/// Keeps every leaf two packets deep; each iteration transmits one packet
/// and replenishes the drained leaf. Returns the median ns per dispatch.
fn bench_tree<O: Observer>(depth: u32, fanout: usize, obs: O) -> f64 {
    let (mut h, leaves) = build(depth, fanout, obs);
    assert_eq!(leaves.len(), 256);
    let mut id = 0u64;
    for &leaf in &leaves {
        for _ in 0..2 {
            id += 1;
            h.enqueue(leaf, Packet::new(id, leaf.0 as u32, 1500, 0.0));
        }
    }
    let ns = time_op(|| {
        let pkt = h.dequeue().expect("backlogged");
        id += 1;
        h.enqueue(
            NodeId(pkt.flow as usize),
            Packet::new(id, pkt.flow, 1500, 0.0),
        );
        pkt.id
    });
    while h.dequeue().is_some() {}
    ns
}

fn main() {
    const SHAPES: [(u32, usize); 4] = [(1, 256), (2, 16), (4, 4), (8, 2)];

    println!("== hwf2qplus_depth: dispatch cost vs tree depth (256 leaves) ==");
    for (depth, fanout) in SHAPES {
        let ns = bench_tree(depth, fanout, NoopObserver);
        report("dispatch", &format!("depth{depth}x{fanout}"), 256, ns);
    }

    println!("\n== observer overhead on the same workload ==");
    for (depth, fanout) in SHAPES {
        let noop = bench_tree(depth, fanout, NoopObserver);
        let counting = bench_tree(depth, fanout, CountingObserver::default());
        let label = format!("depth{depth}x{fanout}");
        report("noop", &label, 256, noop);
        report("counting", &label, 256, counting);
        println!(
            "{:<24} {:>6}  {:>+9.2} %  (enabled-sink cost over noop)",
            format!("overhead/{label}"),
            256,
            (counting - noop) / noop * 100.0
        );
    }

    // Zero-cost canary: with the noop observer (and, unless `profile` is
    // on, the compiled-out span profiler) two independent measurements of
    // the identical workload must agree to within measurement noise — if
    // they don't, either the host is too noisy to trust any number above,
    // or "disabled" instrumentation is doing work. The bound is generous
    // (2x) because this runs on shared single-core CI workers.
    println!("\n== zero-cost canary (noop observer, profiler {}) ==", {
        if SpanProfiler::ENABLED {
            "ON"
        } else {
            "off"
        }
    });
    let a = bench_tree(2, 16, NoopObserver);
    let b = bench_tree(2, 16, NoopObserver);
    let ratio = if a > b { a / b } else { b / a };
    report("canary", "noop-run-a", 256, a);
    report("canary", "noop-run-b", 256, b);
    println!("canary ratio: {ratio:.3} (must be < 2.0)");
    assert!(
        ratio < 2.0,
        "noop runs diverge by {ratio:.2}x — disabled instrumentation is not free \
         (or the host is too noisy to bench)"
    );
}
