//! FIFO (the null scheduler baseline) as a PIFO rank program.
//!
//! Head-offer order as a rank: each offered head receives the next value of
//! a monotone sequence counter as its primary key, so popping the minimum
//! rank replays offer order exactly, as a `VecDeque` would. No tags are
//! stamped ([`NodeScheduler::tags`] stays `(0, 0)`) and the virtual time is
//! the driver's reference time.
//!
//! [`NodeScheduler::tags`]: crate::NodeScheduler::tags

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};

/// The FIFO rank program.
#[derive(Debug, Clone, Default)]
pub struct FifoRank {
    /// Next sequence value to hand out. `f64` is exact for sequence values
    /// below 2^53, far beyond any busy period, and the counter resets with
    /// each one. No per-session state: the driver's queue holds the offer
    /// order.
    next: f64,
}

impl FifoRank {
    /// Creates the program.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_seq(&mut self) -> f64 {
        let q = self.next;
        self.next += 1.0;
        q
    }
}

impl RankProgram for FifoRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    fn name(&self) -> &'static str {
        "fifo"
    }

    fn rank_backlog(
        &mut self,
        _id: SessionId,
        _sessions: &mut SessionTable,
        _head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        Rank::open(self.next_seq(), 0.0)
    }

    fn rank_continuation(
        &mut self,
        _id: SessionId,
        _sessions: &mut SessionTable,
        _bits: f64,
    ) -> Rank {
        // The next head re-joins at the back of the offer order.
        Rank::open(self.next_seq(), 0.0)
    }

    fn on_busy_reset(&mut self) {
        // No live offers remain; restart the counter so it never drifts
        // toward the 2^53 exactness bound across busy periods.
        self.next = 0.0;
    }
}
