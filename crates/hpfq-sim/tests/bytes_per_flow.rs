//! A per-flow memory budget: how many heap bytes, in how many allocations,
//! a `Network` keeps live per flow once it is serving traffic.
//!
//! This is the regression guard for the `wide128k` benchmark's
//! `peak_rss_mb` that does not need the benchmark. Figures for the network
//! below (one node, 16 384 CBR flows on single-hop routes, steady state),
//! live heap bytes and live allocations per flow:
//!
//! | commit                                     | bytes / flow | allocations / flow |
//! |--------------------------------------------|-------------:|-------------------:|
//! | PR 17 (one 440-byte `Node` per leaf)       |        1 497 |               3.00 |
//! | PR 19 (64-byte leaf, inline one-hop route) |          665 |               2.00 |
//! | PR 20 (wakes as timers, one packet slab)   |          432 |               1.00 |
//! | PR 22 (owners indexed, stats hot / cold)   |          376 |               1.00 |
//! | built-in source by value, no leaf copies   |          345 |               0.00 |
//!
//! The last row's network makes half its flows Poisson. A CBR or Poisson
//! source is held by value in its slot, so a flow of either keeps no
//! allocation; a source of any other type is boxed, and that box is its
//! one. Down the table: the route's `Vec<Hop>` went first; then the leaf
//! FIFO's buffer (the packets of every leaf are nodes of one slab) and, in
//! bytes, the 72-byte event-arena slot behind each pending wake; then the
//! flow-owner map's 16-byte entry and 48 of the statistics entry's 128
//! bytes (the loss counters, stored only for a flow that loses a packet),
//! for 8 in the source slot; last, the source's box and 16-byte pointer
//! (the slot grows by the source instead), the leaf's 24-byte share record
//! and its 8-byte copy of its head packet's length.
//!
//! The counters are per thread (a `const`-initialized thread-local, which
//! the allocator can read without allocating), so the tests of this binary
//! cannot disturb each other's figures, and neither can the harness.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_sim::{CbrSource, Hop, Network, PoissonSource, Route, Source, SourceOutput};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Allocations this thread has made and not freed.
    static LIVE_ALLOCS: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64, allocs: i64) {
    LIVE_BYTES.with(|b| b.set(b.get() + bytes));
    LIVE_ALLOCS.with(|a| a.set(a.get() + allocs));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(live bytes, live allocations)` of the calling thread.
fn live() -> (i64, i64) {
    (LIVE_BYTES.with(Cell::get), LIVE_ALLOCS.with(Cell::get))
}

#[test]
fn route_with_one_hop_allocates_nothing() {
    let hop = |link| Hop {
        link,
        leaf: NodeId(1),
        buffer_bytes: Some(1 << 16),
        prop_delay: 1e-3,
    };
    let (_, before) = live();
    let single = Route::single(NodeId(1), None, 0.0);
    let open = Route::open_loop(NodeId(1));
    // The caller's `Vec` is consumed: its one hop moves inline.
    let built = Route::new(vec![hop(0)]);
    assert_eq!(live().1 - before, 0, "a one-hop route holds an allocation");
    assert_eq!(
        (single.hops.len(), open.hops.len(), built.hops.len()),
        (1, 1, 1)
    );
    let tandem = Route::new(vec![hop(0), hop(1), hop(2)]);
    assert_eq!(live().1 - before, 1);
    assert_eq!(tandem.hops[2].link, 2);
}

/// A source the network does not know: it is held boxed.
struct Custom(CbrSource);

impl Source for Custom {
    fn start(&mut self) -> SourceOutput {
        self.0.start()
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        self.0.on_wake(now)
    }

    fn wants_delivery(&self) -> bool {
        false
    }
}

const FLOWS: usize = 16_384;

/// Live `(bytes, allocations)` of a one-node network of [`FLOWS`] flows at
/// 90 % load after three periods (every flow has sent, queued and been
/// served). Even flows are CBR, odd ones Poisson; the first `custom` flows
/// are CBR wrapped in [`Custom`].
fn steady_state(custom: usize) -> (i64, i64) {
    const LINK_BPS: f64 = 1e9;
    const PKT_BYTES: u32 = 1000;

    let (bytes_before, allocs_before) = live();
    let mut b = Hierarchy::builder(LINK_BPS, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = b.root();
    let leaves: Vec<NodeId> = (0..FLOWS)
        .map(|_| b.add_leaf(root, 1.0 / FLOWS as f64).unwrap())
        .collect();
    let mut net: Network<MixedScheduler> = Network::single_link(b.build());
    // The CBR flows' phases spread evenly over one period.
    let rate = 0.9 * LINK_BPS / FLOWS as f64;
    let period = f64::from(PKT_BYTES) * 8.0 / rate;
    for (i, &leaf) in leaves.iter().enumerate() {
        let flow = i as u32;
        let route = Route::single(leaf, None, 0.0);
        let start = period * i as f64 / FLOWS as f64;
        let cbr = CbrSource::new(flow, PKT_BYTES, rate, start, f64::INFINITY);
        if i < custom {
            net.add_route(flow, Custom(cbr), route);
        } else if i % 2 == 0 {
            net.add_route(flow, cbr, route);
        } else {
            let seed = u64::from(flow);
            let poisson = PoissonSource::new(flow, PKT_BYTES, rate, 0.0, f64::INFINITY, seed);
            net.add_route(flow, poisson, route);
        }
    }
    drop(leaves);
    net.run(3.0 * period);
    assert!(net.stats.total_packets > 2 * FLOWS as u64);
    let (bytes, allocs) = live();
    (bytes - bytes_before, allocs - allocs_before)
}

#[test]
fn steady_state_heap_per_flow_stays_under_budget() {
    /// 345 measured; the headroom is for allocator-independent drift (a
    /// field added to a per-flow record), not for a `Vec` per flow.
    const BYTES_PER_FLOW_CEILING: i64 = 360;

    let (bytes, allocs) = steady_state(0);
    let bytes_per_flow = bytes / FLOWS as i64;
    let allocs_per_flow = allocs as f64 / FLOWS as f64;
    println!("live heap: {bytes_per_flow} B/flow in {allocs_per_flow:.3} allocations/flow");
    assert!(
        bytes_per_flow <= BYTES_PER_FLOW_CEILING,
        "{bytes_per_flow} live heap bytes per flow, budget {BYTES_PER_FLOW_CEILING}"
    );
    // A fixed handful of tables, and no allocation per flow.
    assert!(
        allocs <= 64,
        "{allocs} live allocations for {FLOWS} flows, budget 64"
    );
    // A source of any other type keeps exactly one: its box.
    let (_, with_custom) = steady_state(1);
    assert_eq!(with_custom - allocs, 1, "allocations of one custom source");
}
