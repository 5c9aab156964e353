//! # hpfq-sim — discrete-event network simulator for H-PFQ experiments
//!
//! A discrete-event network simulator standing in for the modified MIT
//! NETSIM the paper used (§5). It drives H-PFQ [`hpfq_core::Hierarchy`]
//! instances as output-link schedulers — one per link of a [`Network`]
//! ([`Network::single_link`] for the paper's one-link experiments) — on
//! top of the shared [`hpfq_events`] engine, and provides:
//!
//! * the paper's traffic sources — constant rate (PS-n), deterministic
//!   on/off (RT-1 and the §5.2 on/off sources), Poisson, multiplexed
//!   packet trains (CS-n) — plus trace replay and a greedy leaky-bucket
//!   source for delay-bound experiments ([`source`]);
//! * per-leaf drop-tail buffers and delivery notifications with a
//!   configurable one-way delay (the hook the TCP crate uses for ACK
//!   feedback);
//! * multi-link topologies ([`network`]): each link owns its own
//!   hierarchy, flows follow static per-hop [`Route`]s with propagation
//!   delays, and per-link conservation ledgers make multi-hop accounting
//!   checkable;
//! * measurement: per-packet service records, per-flow aggregates, and the
//!   exponentially-averaged windowed bandwidth estimator of §5.2
//!   ([`stats`]).
//!
//! Events at equal timestamps fire in scheduling order, so runs are fully
//! deterministic given source seeds.

#![forbid(unsafe_code)]
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

pub mod flow_map;
pub mod network;
pub mod rng;
#[cfg(test)]
mod simulation;
pub mod source;
pub mod stats;

pub use flow_map::FlowMap;
pub use network::{
    FallbackReason, FaultInjector, Hop, LinkLedger, Network, NoFaults, PacketVerdict,
    ParallelReport, Route, SimCommand, SourceId,
};
pub use rng::SmallRng;
pub use source::{
    CbrSource, Few, GreedyLbSource, PacketTrainSource, PeriodicOnOffSource, PoissonSource,
    ScheduledOnOffSource, Source, SourceOutput, TraceSource,
};
pub use stats::{BandwidthEstimator, FlowStats, ServiceRecord, SimStats};
