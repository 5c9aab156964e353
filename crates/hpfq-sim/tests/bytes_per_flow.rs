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
//!
//! The one allocation a flow keeps is its boxed source. PR 19 removed the
//! route's `Vec<Hop>`; PR 20 the leaf FIFO's buffer (the packets of every
//! leaf are nodes of one slab) and, in bytes, the 72-byte event-arena slot
//! behind each pending wake; PR 22 the flow-owner map's 16-byte entry and
//! 48 of the statistics entry's 128 bytes (the loss counters, stored only
//! for a flow that loses a packet), for 8 in the source slot.
//!
//! The counters are per thread (a `const`-initialized thread-local, which
//! the allocator can read without allocating), so the tests of this binary
//! cannot disturb each other's figures, and neither can the harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_sim::{CbrSource, Hop, Network, Route};

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

#[test]
fn steady_state_heap_per_flow_stays_under_budget() {
    const FLOWS: usize = 16_384;
    const LINK_BPS: f64 = 1e9;
    const PKT_BYTES: u32 = 1000;
    /// 376 measured; the headroom is for allocator-independent drift (a
    /// field added to a per-flow record), not for a `Vec` per flow.
    const BYTES_PER_FLOW_CEILING: i64 = 400;

    let (bytes_before, allocs_before) = live();
    let mut b = Hierarchy::builder(LINK_BPS, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = b.root();
    let leaves: Vec<NodeId> = (0..FLOWS)
        .map(|_| b.add_leaf(root, 1.0 / FLOWS as f64).unwrap())
        .collect();
    let mut net: Network<MixedScheduler> = Network::single_link(b.build());
    // 90 % load, the flows' phases spread evenly over one period.
    let rate = 0.9 * LINK_BPS / FLOWS as f64;
    let period = f64::from(PKT_BYTES) * 8.0 / rate;
    for (i, &leaf) in leaves.iter().enumerate() {
        let start = period * i as f64 / FLOWS as f64;
        let source = CbrSource::new(i as u32, PKT_BYTES, rate, start, f64::INFINITY);
        net.add_route(i as u32, source, Route::single(leaf, None, 0.0));
    }
    drop(leaves);
    // Three periods: every flow has sent, queued and been served.
    net.run(3.0 * period);
    assert!(net.stats.total_packets > 2 * FLOWS as u64);

    let (bytes, allocs) = live();
    let bytes_per_flow = (bytes - bytes_before) / FLOWS as i64;
    let allocs_per_flow = (allocs - allocs_before) as f64 / FLOWS as f64;
    println!("live heap: {bytes_per_flow} B/flow in {allocs_per_flow:.3} allocations/flow");
    assert!(
        bytes_per_flow <= BYTES_PER_FLOW_CEILING,
        "{bytes_per_flow} live heap bytes per flow, budget {BYTES_PER_FLOW_CEILING}"
    );
    // The source box, plus a fixed handful of tables.
    assert!(
        allocs - allocs_before <= FLOWS as i64 + 64,
        "{allocs_per_flow:.3} live allocations per flow, budget 1"
    );
}
