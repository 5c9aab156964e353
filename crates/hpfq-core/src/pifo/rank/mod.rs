//! The eight in-tree rank programs — one per [`SchedulerKind`] — each
//! pinned by the golden digests in `tests/pifo_equivalence.rs`.
//!
//! [`crate::MixedScheduler`] holds a monomorphized `PifoTree<P>` per
//! program (rather than one tree over a program *enum*) so each policy's
//! driver specializes and inlines its rank hooks — the enum indirection
//! cost double-digit percent on the cheap policies (FIFO, DRR).
//!
//! [`SchedulerKind`]: crate::mixed::SchedulerKind

pub mod drr;
pub mod fifo;
pub mod rr;
pub mod scfq;
pub mod sfq;
pub mod wf2q;
pub mod wf2q_plus;
pub mod wfq;

pub use drr::DrrRank;
pub use fifo::FifoRank;
pub use rr::RrRank;
pub use scfq::ScfqRank;
pub use sfq::SfqRank;
pub use wf2q::Wf2qRank;
pub use wf2q_plus::Wf2qPlusRank;
pub use wfq::WfqRank;

/// The smallest share the round-robin programs ([`DrrRank`], [`RrRank`])
/// serve: `2^-24`. A session of share `phi` earns `phi * quantum_base`
/// bits per round, so a packet of `quantum_base` bits (one MTU at the
/// default base) takes it `1 / phi` rounds — at most 2^24 here. Below it
/// DRR's ring rotates for ages before the packet sends, and RR's finish
/// rounds head for 2^53, where `u64 -> f64` stops being exact: at or above
/// it, a head of `bits` takes at most `2^24 * bits / quantum_base` rounds,
/// under 2^53 for any packet under 2^29 quantum bases (every
/// `len_bytes: u32` packet at the default base).
pub const MIN_ROUND_ROBIN_SHARE: f64 = 1.0 / 16_777_216.0;
