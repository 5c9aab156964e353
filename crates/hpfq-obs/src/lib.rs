//! # hpfq-obs — observability for H-PFQ schedulers
//!
//! The paper's entire evaluation (Figs. 4–9, the WFI/SBI tables) is about
//! *observing* scheduler behaviour: per-packet delays, per-node service,
//! virtual-clock evolution. This crate makes that state a first-class,
//! inspectable artifact instead of hidden bookkeeping:
//!
//! * [`Observer`] — a zero-cost event hook threaded generically through
//!   `hpfq_core::Hierarchy` and `hpfq_sim::Network`. Every method has an
//!   empty default body, so the [`NoopObserver`] monomorphizes to nothing.
//! * [`jsonl::JsonlObserver`] — serializes every event as one JSON object
//!   per line (plain `std::io`, no external dependencies) and
//!   [`jsonl::parse_line`] reads them back, so analyses can be re-run from
//!   traces instead of bespoke per-figure hooks.
//! * [`metrics::MetricsObserver`] — a metrics registry: per-node and
//!   per-flow counters, queue-depth gauges, and fixed-bucket delay
//!   histograms, rendered as a text report.
//! * [`invariant::InvariantObserver`] — an online checker for the paper's
//!   scheduler invariants (virtual-time monotonicity, `S ≤ F`, SEFF
//!   eligibility, work conservation), turning observability into a
//!   standing correctness harness.
//! * [`vtime`] — the canonical virtual-time comparison helpers (single
//!   [`vtime::EPS`], tolerance-aware and exact comparisons). It lives here,
//!   at the root of the dependency graph, and is re-exported as
//!   `hpfq_core::vtime`; the `hpfq-lint` static-analysis pass enforces that
//!   all virtual-time comparisons and tolerance constants go through it.
//! * [`query`] and [`chrome`] — the library behind the `hpfq-trace` CLI:
//!   summaries, filters and delay percentiles over traces, and a Chrome
//!   trace-event (Perfetto) export.
//! * [`event`] — the event records the other crates share.
//!
//! Two observers can be combined by tupling: `(A, B)` implements
//! [`Observer`] by forwarding every event to both.

#![forbid(unsafe_code)]
// Unsafe audit (PR 2): zero `unsafe` blocks exist anywhere in the
// workspace and `forbid(unsafe_code)` keeps it that way; the lint below
// is belt-and-braces so that if the forbid is ever relaxed, any unsafe
// fn body still requires explicit `unsafe {}` blocks.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
// The per-packet path runs here: a panic tears the whole run down, so
// every one outside tests is a reasoned `#[expect]` (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod chrome;
pub mod event;
pub mod invariant;
pub mod jsonl;
pub mod metrics;
pub mod query;
pub mod vtime;

pub use chrome::chrome_trace;
pub use event::{
    BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent, FaultEvent, FaultKind,
    PacketInfo, TraceEvent, TxEvent,
};
pub use invariant::{InvariantKind, InvariantObserver, Violation};
pub use jsonl::{merge_traces, JsonlObserver, SharedBuf};
pub use metrics::{DelayHistogram, MetricsObserver};

/// A sink for scheduler events.
///
/// All methods default to no-ops; implementors override the events they
/// care about. The hooks are invoked synchronously from the scheduling hot
/// path, so implementations should do O(1) work per event (the provided
/// sinks do).
pub trait Observer {
    /// Compile-time liveness flag. Instrumented code may guard event
    /// *construction* behind `if O::ENABLED { … }` so that with
    /// [`NoopObserver`] (which sets it to `false`) the whole block is
    /// dead code, not merely inlined-empty calls.
    const ENABLED: bool = true;

    /// A packet was appended to a leaf FIFO.
    #[inline]
    fn on_enqueue(&mut self, _e: &EnqueueEvent) {}

    /// A packet was dropped at a leaf's buffer.
    #[inline]
    fn on_drop(&mut self, _e: &DropEvent) {}

    /// A node selected (dispatched) a session head — one RESTART-NODE.
    #[inline]
    fn on_dispatch(&mut self, _e: &DispatchEvent) {}

    /// The link started transmitting a packet.
    #[inline]
    fn on_tx_start(&mut self, _e: &TxEvent) {}

    /// The link finished transmitting a packet.
    #[inline]
    fn on_tx_complete(&mut self, _e: &TxEvent) {}

    /// A node started or stopped offering a packet.
    #[inline]
    fn on_node_backlog(&mut self, _e: &BacklogEvent) {}

    /// A node scheduler reset its virtual clock (busy period ended).
    #[inline]
    fn on_busy_reset(&mut self, _e: &BusyResetEvent) {}

    /// A fault was injected into, or detected by, the system under test.
    #[inline]
    fn on_fault(&mut self, _e: &FaultEvent) {}
}

/// The do-nothing observer: with it, every hook call compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;
}

// The zero-cost contract, pinned at compile time: the noop observer's
// liveness flag is false (every `if O::ENABLED` block is dead code).
const _: () = assert!(!NoopObserver::ENABLED);

/// Counts events per kind — handy in tests and as a cheap liveness probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// Enqueues seen.
    pub enqueues: u64,
    /// Drops seen.
    pub drops: u64,
    /// Dispatches seen.
    pub dispatches: u64,
    /// Transmission starts seen.
    pub tx_starts: u64,
    /// Transmission completions seen.
    pub tx_completes: u64,
    /// Backlog transitions seen.
    pub backlog_changes: u64,
    /// Busy-period resets seen.
    pub busy_resets: u64,
    /// Faults (injected or detected) seen.
    pub faults: u64,
}

impl Observer for CountingObserver {
    #[inline]
    fn on_enqueue(&mut self, _e: &EnqueueEvent) {
        self.enqueues += 1;
    }
    #[inline]
    fn on_drop(&mut self, _e: &DropEvent) {
        self.drops += 1;
    }
    #[inline]
    fn on_dispatch(&mut self, _e: &DispatchEvent) {
        self.dispatches += 1;
    }
    #[inline]
    fn on_tx_start(&mut self, _e: &TxEvent) {
        self.tx_starts += 1;
    }
    #[inline]
    fn on_tx_complete(&mut self, _e: &TxEvent) {
        self.tx_completes += 1;
    }
    #[inline]
    fn on_node_backlog(&mut self, _e: &BacklogEvent) {
        self.backlog_changes += 1;
    }
    #[inline]
    fn on_busy_reset(&mut self, _e: &BusyResetEvent) {
        self.busy_resets += 1;
    }
    #[inline]
    fn on_fault(&mut self, _e: &FaultEvent) {
        self.faults += 1;
    }
}

/// Fan-out: a pair of observers receives every event in order.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn on_enqueue(&mut self, e: &EnqueueEvent) {
        self.0.on_enqueue(e);
        self.1.on_enqueue(e);
    }
    #[inline]
    fn on_drop(&mut self, e: &DropEvent) {
        self.0.on_drop(e);
        self.1.on_drop(e);
    }
    #[inline]
    fn on_dispatch(&mut self, e: &DispatchEvent) {
        self.0.on_dispatch(e);
        self.1.on_dispatch(e);
    }
    #[inline]
    fn on_tx_start(&mut self, e: &TxEvent) {
        self.0.on_tx_start(e);
        self.1.on_tx_start(e);
    }
    #[inline]
    fn on_tx_complete(&mut self, e: &TxEvent) {
        self.0.on_tx_complete(e);
        self.1.on_tx_complete(e);
    }
    #[inline]
    fn on_node_backlog(&mut self, e: &BacklogEvent) {
        self.0.on_node_backlog(e);
        self.1.on_node_backlog(e);
    }
    #[inline]
    fn on_busy_reset(&mut self, e: &BusyResetEvent) {
        self.0.on_busy_reset(e);
        self.1.on_busy_reset(e);
    }
    #[inline]
    fn on_fault(&mut self, e: &FaultEvent) {
        self.0.on_fault(e);
        self.1.on_fault(e);
    }
}

/// Dispatches a [`TraceEvent`] (e.g. parsed from a JSONL trace) to the
/// corresponding [`Observer`] hook — the replay path: any sink that can
/// consume live events can consume recorded ones. The `ENABLED` gate
/// keeps replay-through-a-Noop dead code, same as the live hooks.
pub fn replay<O: Observer>(obs: &mut O, ev: &TraceEvent) {
    if O::ENABLED {
        match ev {
            TraceEvent::Enqueue(e) => obs.on_enqueue(e),
            TraceEvent::Drop(e) => obs.on_drop(e),
            TraceEvent::Dispatch(e) => obs.on_dispatch(e),
            TraceEvent::TxStart(e) => obs.on_tx_start(e),
            TraceEvent::TxComplete(e) => obs.on_tx_complete(e),
            TraceEvent::Backlog(e) => obs.on_node_backlog(e),
            TraceEvent::BusyReset(e) => obs.on_busy_reset(e),
            TraceEvent::Fault(e) => obs.on_fault(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_forwards_to_both() {
        let mut pair = (CountingObserver::default(), CountingObserver::default());
        let e = BusyResetEvent {
            time: 1.0,
            link: 0,
            node: 0,
        };
        pair.on_busy_reset(&e);
        assert_eq!(pair.0.busy_resets, 1);
        assert_eq!(pair.1.busy_resets, 1);
    }

    #[test]
    fn replay_routes_by_kind() {
        let mut c = CountingObserver::default();
        replay(
            &mut c,
            &TraceEvent::BusyReset(BusyResetEvent {
                time: 0.0,
                link: 0,
                node: 1,
            }),
        );
        replay(
            &mut c,
            &TraceEvent::Backlog(BacklogEvent {
                time: 0.0,
                link: 0,
                node: 1,
                active: true,
            }),
        );
        assert_eq!(c.busy_resets, 1);
        assert_eq!(c.backlog_changes, 1);
        assert_eq!(c.dispatches, 0);
    }
}
