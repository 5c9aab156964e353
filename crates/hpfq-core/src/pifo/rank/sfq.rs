//! SFQ (Goyal, Vin & Cheng, SIGCOMM '96) as a PIFO rank program.
//!
//! Start-time fair queueing: tags are computed as in SCFQ, the virtual
//! time is the *start* tag of the packet in service, and heads are ranked
//! `(start, finish)` with ties by session id — smallest start tag first.

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};
use crate::VTime;

/// The SFQ rank program.
#[derive(Debug, Clone, Default)]
pub struct SfqRank {
    /// Virtual time = start tag of the packet most recently dispatched.
    v: VTime,
}

impl SfqRank {
    /// Creates the program with its virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RankProgram for SfqRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    fn name(&self) -> &'static str {
        "sfq"
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        sessions.stamp_new_backlog(id, self.v, head_bits);
        Rank::open(sessions.start(id).get(), sessions.finish(id).get())
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        sessions.stamp_continuation(id, bits);
        Rank::open(sessions.start(id).get(), sessions.finish(id).get())
    }

    fn on_dispatch(&mut self, id: SessionId, sessions: &SessionTable, _thr: f64, _dt: f64) {
        self.v = sessions.start(id);
    }

    fn on_busy_reset(&mut self) {
        self.v = VTime::ZERO;
    }

    fn virtual_time(&self, _ref_time: f64) -> f64 {
        self.v.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    #[test]
    fn weighted_split() {
        let mut s = PifoTree::new(1.0, SfqRank::new());
        let a = s.add_session(0.75);
        let b = s.add_session(0.25);
        s.backlog(a, 1.0, None);
        s.backlog(b, 1.0, None);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            let id = s.select_next().unwrap();
            counts[id.0] += 1;
            s.requeue(id, Some(1.0));
        }
        assert!((counts[0] as f64 - 300.0).abs() <= 2.0, "{counts:?}");
    }

    /// A newcomer is tagged from the start tag of the in-service packet, so
    /// it begins service ahead of sessions that have built up large finish
    /// tags — SFQ's low-latency property for newly active sessions.
    #[test]
    fn newcomer_starts_promptly() {
        let mut s = PifoTree::new(1.0, SfqRank::new());
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        // Serve a for a while, accumulating start tags 0, 2, 4, ...
        for _ in 0..5 {
            let id = s.select_next().unwrap();
            assert_eq!(id, a);
            s.requeue(id, Some(1.0));
        }
        // V is the start tag of a's 5th packet = 8.
        assert_eq!(s.virtual_time(), 8.0);
        s.backlog(b, 1.0, None);
        assert_eq!(s.tags(b).0, 8.0);
        // Next dispatch: a's head has start 10, b's start 8 → b wins.
        assert_eq!(s.select_next(), Some(b));
        s.requeue(b, None);
    }
}
