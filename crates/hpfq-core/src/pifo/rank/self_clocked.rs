//! SCFQ (Golestani, INFOCOM '94; paper §6) and SFQ (Goyal, Vin & Cheng,
//! SIGCOMM '96) as one PIFO rank program.
//!
//! Both are self-clocked: tags follow Golestani's rule
//! `F = max(V, F_prev) + L/r_i`, the virtual time is a tag of the packet
//! most recently dispatched — O(1) to maintain, no eligibility gate — and
//! `ref_now` is ignored entirely. The const parameter `BY_START` picks
//! which tag is both the clock and the rank:
//!
//! * **SCFQ** (`BY_START = false`, [`ScfqRank`]): `V` is the dispatched
//!   packet's finish tag; heads are ranked `(finish, start)`.
//! * **SFQ** (`BY_START = true`, [`SfqRank`]): `V` is the dispatched
//!   packet's start tag; heads are ranked `(start, finish)` — smallest
//!   start tag first.
//!
//! Further ties go to the smaller session id.
//!
//! [`ScfqRank`]: super::ScfqRank
//! [`SfqRank`]: super::SfqRank

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};
use crate::VTime;

/// The self-clocked rank program: SCFQ when `BY_START` is `false`, SFQ
/// when it is `true` (see the [module documentation](self)).
#[derive(Debug, Clone, Default)]
pub struct SelfClockedRank<const BY_START: bool> {
    /// Virtual time = the clock tag of the packet most recently dispatched.
    v: VTime,
}

impl<const BY_START: bool> SelfClockedRank<BY_START> {
    /// Creates the program with its virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(clock tag, other tag)` of `id`'s head: the rank's two keys, the
    /// first also the virtual time once the head is dispatched.
    #[inline]
    fn keys(id: SessionId, sessions: &SessionTable) -> (VTime, VTime) {
        if BY_START {
            (sessions.start(id), sessions.finish(id))
        } else {
            (sessions.finish(id), sessions.start(id))
        }
    }

    #[inline]
    fn rank(id: SessionId, sessions: &SessionTable) -> Rank {
        let (clock, other) = Self::keys(id, sessions);
        Rank::open(clock.get(), other.get())
    }
}

impl<const BY_START: bool> RankProgram for SelfClockedRank<BY_START> {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    fn name(&self) -> &'static str {
        if BY_START {
            "sfq"
        } else {
            "scfq"
        }
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
        Self::rank(id, sessions)
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        sessions.stamp_continuation(id, bits);
        Self::rank(id, sessions)
    }

    fn on_dispatch(&mut self, id: SessionId, sessions: &SessionTable, _thr: f64, _dt: f64) {
        // Self-clocking: V jumps to the dispatched packet's clock tag.
        self.v = Self::keys(id, sessions).0;
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
    use crate::pifo::rank::{ScfqRank, SfqRank};
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    /// A 0.75/0.25 split of 400 unit packets serves the big session 300
    /// times, give or take two.
    fn weighted_split<const BY_START: bool>() {
        let mut s = PifoTree::new(1.0, SelfClockedRank::<BY_START>::new());
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

    #[test]
    fn scfq_weighted_split() {
        weighted_split::<false>();
    }

    #[test]
    fn sfq_weighted_split() {
        weighted_split::<true>();
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
