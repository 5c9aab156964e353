//! Runtime-selectable scheduler: a [`SchedulerKind`] factory and a
//! [`MixedScheduler`] enum dispatching to every one-level policy in the
//! crate.
//!
//! Two uses:
//!
//! * experiment harnesses that sweep over policies pick them by kind;
//! * heterogeneous H-PFQ trees (e.g. WF²Q+ at the link level with FIFO
//!   leaves inside a best-effort class) build a
//!   `Hierarchy<MixedScheduler>` and choose a kind per node.

use crate::pifo::rank::{
    DrrRank, FifoRank, RrRank, ScfqRank, SfqRank, Wf2qPlusRank, Wf2qRank, WfqRank,
};
use crate::pifo::PifoTree;
use crate::scheduler::{NodeScheduler, SessionId};

/// Identifies a one-level scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// WF²Q+ (the paper's contribution).
    Wf2qPlus,
    /// WFQ / PGPS.
    Wfq,
    /// WF²Q.
    Wf2q,
    /// Self-Clocked Fair Queueing.
    Scfq,
    /// Start-time Fair Queueing.
    Sfq,
    /// Deficit Round Robin.
    Drr,
    /// FIFO.
    Fifo,
    /// Overlapped round robin (integer finish rounds; see
    /// [`crate::pifo::rank::RrRank`]).
    Rr,
}

impl SchedulerKind {
    /// Every kind, in report order.
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::Wf2qPlus,
        SchedulerKind::Wfq,
        SchedulerKind::Wf2q,
        SchedulerKind::Scfq,
        SchedulerKind::Sfq,
        SchedulerKind::Drr,
        SchedulerKind::Fifo,
        SchedulerKind::Rr,
    ];

    /// Builds a scheduler of this kind for a server of `rate_bps`: a
    /// [`PifoTree`] running this kind's rank program.
    pub fn build(self, rate_bps: f64) -> MixedScheduler {
        // One monomorphized `PifoTree<P>` per program: the driver inlines
        // each policy's rank hooks instead of matching a program enum on
        // every per-packet call.
        match self {
            SchedulerKind::Wf2qPlus => {
                MixedScheduler::Wf2qPlus(PifoTree::new(rate_bps, Wf2qPlusRank::new()))
            }
            SchedulerKind::Wfq => MixedScheduler::Wfq(PifoTree::new(rate_bps, WfqRank::new())),
            SchedulerKind::Wf2q => MixedScheduler::Wf2q(PifoTree::new(rate_bps, Wf2qRank::new())),
            SchedulerKind::Scfq => MixedScheduler::Scfq(PifoTree::new(rate_bps, ScfqRank::new())),
            SchedulerKind::Sfq => MixedScheduler::Sfq(PifoTree::new(rate_bps, SfqRank::new())),
            SchedulerKind::Drr => MixedScheduler::Drr(PifoTree::new(rate_bps, DrrRank::new())),
            SchedulerKind::Fifo => MixedScheduler::Fifo(PifoTree::new(rate_bps, FifoRank::new())),
            SchedulerKind::Rr => MixedScheduler::Rr(PifoTree::new(rate_bps, RrRank::new())),
        }
    }

    /// Short policy name ("wf2q+", "wfq", …).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Wf2qPlus => "wf2q+",
            SchedulerKind::Wfq => "wfq",
            SchedulerKind::Wf2q => "wf2q",
            SchedulerKind::Scfq => "scfq",
            SchedulerKind::Sfq => "sfq",
            SchedulerKind::Drr => "drr",
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Rr => "rr",
        }
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wf2q+" | "wf2qplus" | "wf2q_plus" => Ok(SchedulerKind::Wf2qPlus),
            "wfq" => Ok(SchedulerKind::Wfq),
            "wf2q" => Ok(SchedulerKind::Wf2q),
            "scfq" => Ok(SchedulerKind::Scfq),
            "sfq" => Ok(SchedulerKind::Sfq),
            "drr" => Ok(SchedulerKind::Drr),
            "fifo" => Ok(SchedulerKind::Fifo),
            "rr" => Ok(SchedulerKind::Rr),
            other => Err(format!("unknown scheduler kind '{other}'")),
        }
    }
}

/// A one-level scheduler whose policy is chosen at runtime: one
/// monomorphized [`PifoTree`] per [`SchedulerKind`], built by
/// [`SchedulerKind::build`].
#[derive(Debug, Clone)]
#[expect(
    missing_docs,
    reason = "each variant is the PifoTree of its SchedulerKind"
)]
pub enum MixedScheduler {
    Wf2qPlus(PifoTree<Wf2qPlusRank>),
    Wfq(PifoTree<WfqRank>),
    Wf2q(PifoTree<Wf2qRank>),
    Scfq(PifoTree<ScfqRank>),
    Sfq(PifoTree<SfqRank>),
    Drr(PifoTree<DrrRank>),
    Fifo(PifoTree<FifoRank>),
    Rr(PifoTree<RrRank>),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            MixedScheduler::Wf2qPlus($inner) => $body,
            MixedScheduler::Wfq($inner) => $body,
            MixedScheduler::Wf2q($inner) => $body,
            MixedScheduler::Scfq($inner) => $body,
            MixedScheduler::Sfq($inner) => $body,
            MixedScheduler::Drr($inner) => $body,
            MixedScheduler::Fifo($inner) => $body,
            MixedScheduler::Rr($inner) => $body,
        }
    };
}

impl NodeScheduler for MixedScheduler {
    fn rate_bps(&self) -> f64 {
        dispatch!(self, s => s.rate_bps())
    }

    fn min_share(&self) -> f64 {
        dispatch!(self, s => s.min_share())
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        dispatch!(self, s => s.add_session(phi))
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        dispatch!(self, s => s.backlog(id, head_bits, ref_now))
    }

    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        dispatch!(self, s => s.arrival_hint(id, bits, ref_now))
    }

    fn wants_arrival_hints(&self) -> bool {
        dispatch!(self, s => s.wants_arrival_hints())
    }

    fn select_next(&mut self) -> Option<SessionId> {
        dispatch!(self, s => s.select_next())
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        dispatch!(self, s => s.requeue(id, next_head_bits))
    }

    fn backlogged(&self) -> usize {
        dispatch!(self, s => s.backlogged())
    }

    fn virtual_time(&self) -> f64 {
        dispatch!(self, s => s.virtual_time())
    }

    fn phi(&self, id: SessionId) -> f64 {
        dispatch!(self, s => s.phi(id))
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        dispatch!(self, s => s.tags(id))
    }

    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    fn set_is_root(&mut self, is_root: bool) {
        dispatch!(self, s => s.set_is_root(is_root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_name_round_trip() {
        for kind in SchedulerKind::ALL {
            let sched = kind.build(1e6);
            assert_eq!(sched.name(), kind.name());
            assert_eq!(sched.rate_bps(), 1e6);
            assert_eq!(kind.name().parse::<SchedulerKind>().unwrap(), kind);
        }
    }

    #[test]
    fn rr_shares_capacity_by_phi() {
        // 3:1 shares, equal packet sizes: over any long window the heavy
        // session must receive ~3x the dispatches.
        let mut m = SchedulerKind::Rr.build(1e6);
        let heavy = m.add_session(0.75);
        let light = m.add_session(0.25);
        m.backlog(heavy, 3000.0, None);
        m.backlog(light, 3000.0, None);
        let mut served = [0u32; 2];
        for _ in 0..400 {
            let id = m.select_next().unwrap();
            served[id.0] += 1;
            m.requeue(id, Some(3000.0));
        }
        let ratio = f64::from(served[heavy.0]) / f64::from(served[light.0]);
        assert!(
            (ratio - 3.0).abs() < 0.1,
            "rr served {served:?}: ratio {ratio} far from shares 3:1"
        );
    }

    #[test]
    fn mixed_dispatch_behaves_like_inner() {
        let mut m = SchedulerKind::Wf2qPlus.build(1.0);
        let a = m.add_session(0.5);
        let b = m.add_session(0.5);
        m.backlog(a, 1.0, None);
        m.backlog(b, 1.0, None);
        let first = m.select_next().unwrap();
        m.requeue(first, Some(1.0));
        let second = m.select_next().unwrap();
        assert_ne!(first, second, "equal weights must alternate under SEFF");
        m.requeue(second, None);
    }
}
