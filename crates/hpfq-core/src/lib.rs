//! # hpfq-core — Packet Fair Queueing schedulers and the H-PFQ hierarchy
//!
//! This crate implements the scheduling algorithms of *Hierarchical Packet
//! Fair Queueing Algorithms* (Bennett & Zhang, SIGCOMM 1996):
//!
//! * WF²Q+ — the paper's contribution: a
//!   Smallest-Eligible-virtual-Finish-time-First (SEFF) scheduler driven by
//!   the low-complexity virtual time function of eq. (27), with O(log N)
//!   per-packet cost.
//! * WFQ and WF²Q — the classic baselines that track the exact GPS fluid
//!   virtual time (O(N) worst case, see [`GpsClock`]).
//! * SCFQ, SFQ, DRR, FIFO — the related low-complexity schedulers the
//!   paper compares against in its related-work discussion.
//! * [`Hierarchy`] — the H-PFQ construction of §4: a tree of one-level
//!   schedulers implementing the paper's ARRIVE / RESTART-NODE / RESET-PATH
//!   pseudocode, generic over the node scheduler (H-WFQ, H-SCFQ, H-WF²Q+, …).
//!
//! Every policy is a [`RankProgram`] on one substrate: [`PifoTree`], a
//! programmable scheduler in the PIFO model of Sivaraman et al. (SIGCOMM
//! 2016), over the crate's one priority structure, the dual heap
//! ([`DualHeapEligibleSet`]). [`SchedulerKind::build`] is the one
//! constructor and [`MixedScheduler`] holds exactly one `PifoTree<P>` per
//! kind. Each program's behaviour is pinned by golden digests in
//! `tests/pifo_equivalence.rs`.
//!
//! ## Conventions
//!
//! * Real (simulation) time and *reference time* (§4.1 of the paper,
//!   `T_n(t) = W_n(0,t) / r_n`) are `f64` seconds.
//! * Virtual time is a [`VTime`] (an `f64` in reference-time seconds that
//!   orders only through named comparisons); a session with guaranteed
//!   rate `r_i` advances its virtual finish tag by `L / r_i` per packet of
//!   `L` bits.
//! * Rates are bits/second; packet lengths are bytes on the wire and bits in
//!   the scheduler maths.
//!
//! A one-level (standalone) server is a depth-1 [`Hierarchy`]; the root's
//! reference time coincides with real time during busy periods (paper
//! eq. 32).

#![forbid(unsafe_code)]
// Unsafe audit (PR 2): zero `unsafe` blocks exist anywhere in the
// workspace and `forbid(unsafe_code)` keeps it that way; the lint below
// is belt-and-braces so that if the forbid is ever relaxed, any unsafe
// fn body still requires explicit `unsafe {}` blocks.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
// The per-packet path runs here: a panic tears the whole run down, so
// every one outside tests is a reasoned `#[expect]` (DESIGN.md §8).
#![cfg_attr(
    test,
    allow(clippy::cast_possible_truncation, reason = "small test inputs")
)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod eligible;
pub mod error;
mod gate;
pub mod gps_clock;
pub mod hierarchy;
pub mod mixed;
pub mod packet;
pub mod pifo;
pub mod scheduler;
mod slab;
mod virtual_time;

/// Canonical virtual-time comparison helpers (single `EPS`, tolerance-aware
/// and exact comparisons). Implemented in `hpfq-obs` — the root of the
/// dependency graph, so the observers can share the same tolerance — and
/// re-exported here; [`VTime`]'s ordering methods are thin wrappers over
/// them.
pub use hpfq_obs::vtime;

pub use eligible::{dual_heap::DualHeapEligibleSet, PifoBackend};
pub use error::HpfqError;
pub use gps_clock::GpsClock;
pub use hierarchy::{Hierarchy, HierarchyBuilder, NodeId, MIN_SHARE};
pub use mixed::{MixedScheduler, SchedulerKind};
pub use packet::Packet;
pub use pifo::{Admission, PifoTree, Rank, RankProgram, Threshold};
pub use scheduler::{NodeScheduler, SessionId, SessionTable};
pub use virtual_time::VTime;

/// A node, slot, session or queue index as the `u32` the per-packet
/// structures store. Each counts records held in memory, and [`Hierarchy`]
/// refuses a node past `2^31`, so none reaches `2^32`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "an index of in-memory records: 2^32 of them would not fit in memory"
)]
pub(crate) fn index_u32(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "index {i} overflows u32");
    i as u32
}

/// Converts a packet length in bytes to bits.
#[inline]
pub fn bits(len_bytes: u32) -> f64 {
    f64::from(len_bytes) * 8.0
}
