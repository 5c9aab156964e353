//! The in-tree rank programs, each pinned by the golden digests in
//! `tests/pifo_equivalence.rs`: seven policies — one per [`SchedulerKind`]
//! — on five programs. The paper (§3) tells PFQ algorithms apart by a
//! virtual-time function and a packet-selection policy, and the types say
//! which is which:
//!
//! | program | virtual time | policies |
//! |---|---|---|
//! | [`GpsRank<SEFF>`](gps::GpsRank) | exact GPS | [`WfqRank`] (SFF), [`Wf2qRank`] (SEFF) |
//! | [`SelfClockedRank<BY_START>`](self_clocked::SelfClockedRank) | last dispatched tag | [`ScfqRank`] (finish), [`SfqRank`] (start) |
//! | [`Wf2qPlusRank`] | eq. (27) | WF²Q+ (SEFF) |
//! | [`DrrRank`], [`FifoRank`] | none (reference time) | DRR, FIFO |
//!
//! [`crate::MixedScheduler`] holds a monomorphized `PifoTree<P>` per
//! policy (rather than one tree over a program *enum*) so each policy's
//! driver specializes and inlines its rank hooks — the enum indirection
//! cost double-digit percent on the cheap policies (FIFO, DRR).
//!
//! [`SchedulerKind`]: crate::mixed::SchedulerKind

pub mod drr;
pub mod fifo;
pub mod gps;
pub mod self_clocked;
pub mod wf2q_plus;

pub use drr::DrrRank;
pub use fifo::FifoRank;
pub use wf2q_plus::Wf2qPlusRank;

/// WFQ (PGPS, paper §3.1): GPS virtual time, SFF selection.
pub type WfqRank = gps::GpsRank<false>;
/// WF²Q (paper §3.3): GPS virtual time, SEFF selection.
pub type Wf2qRank = gps::GpsRank<true>;
/// SCFQ: self-clocked on the finish tag, ranked `(finish, start)`.
pub type ScfqRank = self_clocked::SelfClockedRank<false>;
/// SFQ: self-clocked on the start tag, ranked `(start, finish)`.
pub type SfqRank = self_clocked::SelfClockedRank<true>;

/// The smallest share the round-robin program ([`DrrRank`]) serves:
/// `2^-24`. A session of share `phi` earns `phi * quantum_base` bits per
/// round, so a packet of `quantum_base` bits (one MTU at the default base)
/// takes it `1 / phi` rounds — at most 2^24 here. Below it DRR's ring
/// rotates for ages before the packet sends.
pub const MIN_ROUND_ROBIN_SHARE: f64 = 1.0 / 16_777_216.0;
