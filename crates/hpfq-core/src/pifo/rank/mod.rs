//! The eight in-tree rank programs — one per [`SchedulerKind`] — each
//! pinned by the golden digests in `tests/pifo_equivalence.rs`.
//!
//! [`crate::MixedScheduler`] holds a monomorphized `PifoTree<P>` per
//! program (rather than one tree over a program *enum*) so each policy's
//! driver specializes and inlines its rank hooks — the enum indirection
//! cost double-digit percent on the cheap policies (FIFO, DRR).
//!
//! [`SchedulerKind`]: crate::mixed::SchedulerKind

use hpfq_obs::snap::{refuse, SnapError, Value};

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

/// Reads a value of a sequence counter: a count from zero, below 2^53
/// where adding one is still exact.
fn sequence(v: &Value) -> Result<f64, SnapError> {
    match v.as_f64()? {
        x if (0.0..9_007_199_254_740_992.0).contains(&x) => Ok(x),
        x => Err(refuse(format!("{x} is not a sequence counter value"))),
    }
}
