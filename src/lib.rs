//! # hpfq — Hierarchical Packet Fair Queueing
//!
//! Facade crate re-exporting the full public API of the workspace, a
//! from-scratch Rust reproduction of *Hierarchical Packet Fair Queueing
//! Algorithms* (Bennett & Zhang, SIGCOMM 1996):
//!
//! * [`events`] — the dependency-free discrete-event core (keyed min-heap
//!   with FIFO tie-breaking, slot-arena storage, clocked engine driver).
//! * [`core`] — the WF²Q+ algorithm, the WFQ/WF²Q/SCFQ/SFQ/DRR/FIFO
//!   baselines, and the H-PFQ hierarchy.
//! * [`fluid`] — the ideal GPS and H-GPS fluid reference servers.
//! * [`sim`] — a discrete-event network simulator with the paper's traffic
//!   sources and measurement infrastructure.
//! * [`tcp`] — a Reno-style TCP model for the link-sharing experiments.
//! * [`analysis`] — theoretical bounds (WFI / SBI / delay) and empirical
//!   metrics extracted from simulation traces.
//! * [`obs`] — observability: typed scheduler events behind a zero-cost
//!   [`obs::Observer`] hook, JSONL trace emission/parsing, a metrics
//!   registry, and an online invariant checker.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory; the `examples/` directory contains runnable scenarios and
//! `crates/hpfq-bench` regenerates every figure of the paper.

pub use hpfq_analysis as analysis;
pub use hpfq_core as core;
pub use hpfq_events as events;
pub use hpfq_fluid as fluid;
pub use hpfq_obs as obs;
pub use hpfq_sim as sim;
pub use hpfq_tcp as tcp;

pub use hpfq_core::{
    Hierarchy, HierarchyBuilder, HpfqError, MixedScheduler, NodeId, NodeScheduler, Packet,
    SchedulerKind, SessionId,
};
