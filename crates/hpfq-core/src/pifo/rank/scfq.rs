//! SCFQ (Golestani, INFOCOM '94; paper §6) as a PIFO rank program.
//!
//! Self-clocked: the virtual time is the finish tag of the packet most
//! recently dispatched — O(1) to maintain, no eligibility gate. Heads are
//! ranked `(finish, start)` with ties by session id.

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};

/// The SCFQ rank program.
#[derive(Debug, Clone, Default)]
pub struct ScfqRank {
    /// Virtual time = finish tag of the packet most recently dispatched.
    v: f64,
}

impl ScfqRank {
    /// Creates the program with its virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RankProgram for ScfqRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    fn name(&self) -> &'static str {
        "scfq"
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        // F = max(V, F_prev) + L/r_i — Golestani's tag rule. The
        // self-clocked virtual time ignores ref_now entirely.
        sessions.stamp_new_backlog(id, self.v, head_bits);
        Rank::open(sessions.finish(id), sessions.start(id))
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        sessions.stamp_continuation(id, bits);
        Rank::open(sessions.finish(id), sessions.start(id))
    }

    fn on_dispatch(&mut self, id: SessionId, sessions: &SessionTable, _thr: f64, _dt: f64) {
        // Self-clocking: V jumps to the dispatched packet's finish tag.
        self.v = sessions.finish(id);
    }

    fn on_busy_reset(&mut self) {
        self.v = 0.0;
    }

    fn virtual_time(&self, _ref_time: f64) -> f64 {
        self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    #[test]
    fn weighted_split() {
        let mut s = PifoTree::new(1.0, ScfqRank::new());
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

    /// The SCFQ pathology: a session arriving to an idle queue inherits the
    /// in-service packet's finish tag as its floor, so after a long burst by
    /// one session the newcomer still starts immediately behind it — but the
    /// virtual time never runs ahead of served work as GPS's can.
    #[test]
    fn newcomer_tagged_from_in_service_packet() {
        let mut s = PifoTree::new(1.0, ScfqRank::new());
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        let id = s.select_next().unwrap();
        assert_eq!(id, a);
        // V jumped to a's finish tag (2.0); b arrives during service.
        s.backlog(b, 1.0, None);
        assert_eq!(s.tags(b).0, 2.0);
        assert_eq!(s.tags(b).1, 4.0);
        s.requeue(id, None);
    }
}
