//! Overlapped round-robin (after Luangsomboon & Liebeherr, "A Fast
//! Round-Robin Scheduler with Tight Fairness Bounds") as a PIFO rank
//! program.
//!
//! Classic round-robin serves *rounds* as hard barriers: every backlogged
//! session sends its quantum, then the next round starts. This program
//! relaxes the barrier into per-packet integer *finish rounds*:
//!
//! * a session of share `phi` owns `phi * quantum_base` bits of every
//!   round; a packet's finish round is the round in which its **last bit**
//!   fits, so small packets share a round (the per-session `slack` carries
//!   the unconsumed remainder of the finish round) and a large packet
//!   spans `ceil` of its length in quanta;
//! * a packet starts filling at round `max(R, prev_finish)` where `R` is
//!   the round the server is working in and `prev_finish` the session's
//!   previous finish round — a busy session fills consecutive rounds, a
//!   returning one cannot reclaim rounds it slept through (the
//!   round-number analogue of eq. (28)'s `max`) and forfeits stale slack;
//! * the PIFO rank is the **finish round** alone, ties by session id, and
//!   dispatching advances `R` to the served packet's finish round (pops
//!   are min-rank, so `R` — and therefore every rank — is non-decreasing
//!   within a busy period).
//!
//! Ranks are small integers drawn from the narrow moving window
//! `[R, R + ceil(Lmax/quantum)]`. Unlike DRR's ring sequence they are *not*
//! monotone — a light session backlogging mid-round slots below a heavy
//! packet's distant finish round — so the program runs on the general
//! ranked interface ([`MONOTONE_RANKS`] stays false) and pays the dual
//! heap's O(log N) per packet.
//!
//! Fairness: sessions backlogged together receive within one quantum per
//! round of their share, giving a WFI-style bound of
//! `quantum/phi + Lmax/r` seconds — quantum-granular like DRR, not
//! packet-sharp like WF²Q+'s `Lmax` bounds. No test or experiment checks
//! this bound yet (ROADMAP item 13 asks for one).
//!
//! [`MONOTONE_RANKS`]: RankProgram::MONOTONE_RANKS

use super::MIN_ROUND_ROBIN_SHARE;
use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};
use crate::vtime;

/// The overlapped round-robin rank program. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct RrRank {
    /// Per-session quantum in bits (`phi * quantum_base`).
    quanta: Vec<f64>,
    /// Per-session finish round of the most recently ranked head; 0 when
    /// the session has never sent this busy period.
    finish: Vec<u64>,
    /// Per-session bits still unconsumed in round `finish[i]` (always in
    /// `[0, quantum)` after ranking): the next head fills these first.
    slack: Vec<f64>,
    /// The round the server is working in: the finish round of the last
    /// dispatched packet. Non-decreasing within a busy period because
    /// dispatch order is finish-round order.
    round: u64,
    quantum_base: f64,
}

impl RrRank {
    /// Default base quantum: one 1500-byte MTU in bits, matching
    /// [`crate::pifo::rank::DrrRank::DEFAULT_QUANTUM_BASE`] so the two
    /// round-robin variants are directly comparable.
    pub const DEFAULT_QUANTUM_BASE: f64 = 12_000.0;

    /// Creates the program with the default quantum base.
    pub fn new() -> Self {
        Self::with_quantum_base(Self::DEFAULT_QUANTUM_BASE)
    }

    /// Creates the program giving a session of share `phi` a quantum of
    /// `phi * quantum_base_bits` per round. Larger quanta mean fewer rounds
    /// per packet (cheaper) but a coarser fairness granularity.
    pub fn with_quantum_base(quantum_base_bits: f64) -> Self {
        assert!(
            quantum_base_bits.is_finite() && quantum_base_bits > 0.0,
            "invalid quantum base {quantum_base_bits}"
        );
        RrRank {
            quanta: Vec::new(),
            finish: Vec::new(),
            slack: Vec::new(),
            round: 0,
            quantum_base: quantum_base_bits,
        }
    }

    /// The quantum of a session of share `phi`.
    fn quantum(&self, phi: f64) -> f64 {
        phi * self.quantum_base
    }

    /// Ranks a head of `bits`: fill the slack of round `max(R, prev_finish)`
    /// first, then whole quanta per further round; the rank is the round
    /// the last bit lands in. Finish rounds stay far below 2^53 (the
    /// counter resets each busy period), so the `u64 -> f64` rank is exact.
    fn rank_head(&mut self, id: SessionId, bits: f64) -> Rank {
        let start = self.round.max(self.finish[id.0]);
        // lint:allow(L001): integer round counters (u64), not float
        // virtual-time tags — equality is exact
        if start != self.finish[id.0] {
            // The session slept past its last finish round; banked slack in
            // that round is gone (no retroactive service).
            self.finish[id.0] = start;
            self.slack[id.0] = 0.0;
        }
        // Tolerance absorbs float drift from repeated slack updates (same
        // rationale as DRR's deficit comparisons).
        if !vtime::approx_le(bits, self.slack[id.0]) {
            let rest = bits - self.slack[id.0];
            let q = self.quanta[id.0];
            // lint:allow(L005): rest/q <= 2^24 * bits/quantum_base < 2^53
            // per MIN_ROUND_ROBIN_SHARE — ceil() of a positive finite float
            // is exact
            let extra = ((rest / q).ceil() as u64).max(1);
            self.finish[id.0] += extra;
            self.slack[id.0] += extra as f64 * q;
        }
        self.slack[id.0] -= bits;
        Rank::open(self.finish[id.0] as f64, 0.0)
    }
}

impl Default for RrRank {
    fn default() -> Self {
        Self::new()
    }
}

impl RankProgram for RrRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    const MIN_SHARE: f64 = MIN_ROUND_ROBIN_SHARE;

    fn name(&self) -> &'static str {
        "rr"
    }

    fn on_add_session(&mut self, phi: f64) {
        self.quanta.push(self.quantum(phi));
        self.finish.push(0);
        self.slack.push(0.0);
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        self.rank_head(id, head_bits)
    }

    fn rank_continuation(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        bits: f64,
    ) -> Rank {
        self.rank_head(id, bits)
    }

    fn on_dispatch(&mut self, id: SessionId, _sessions: &SessionTable, _thr: f64, _dt: f64) {
        // rank_continuation has not run yet, so finish[id] is still the
        // dispatched head's finish round.
        self.round = self.round.max(self.finish[id.0]);
    }

    fn on_idle(&mut self, id: SessionId) {
        // Like DRR's deficit: a drained session forfeits its leftover round
        // capacity.
        self.slack[id.0] = 0.0;
    }

    fn on_busy_reset(&mut self) {
        self.round = 0;
        self.finish.fill(0);
        self.slack.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    /// Unequal shares: quanta of 6000, 3600, 1800 and 600 bits per round.
    const PHIS: [f64; 4] = [0.5, 0.3, 0.15, 0.05];
    /// Mixed lengths in bits: the longest is twenty of the smallest
    /// quantum, and the shortest fits fifteen to the largest.
    const LENGTHS: [f64; 5] = [400.0, 12_000.0, 1_200.0, 4_000.0, 8_000.0];

    /// Length of `session`'s `k`-th packet.
    fn packet(session: usize, k: usize) -> f64 {
        LENGTHS[(session * 2 + k * (session + 1)) % LENGTHS.len()]
    }

    /// Serves `n` packets with every session kept backlogged; returns the
    /// tree and the bits served per session.
    fn serve(n: usize) -> (PifoTree<RrRank>, [f64; 4]) {
        let mut s = PifoTree::new(1e6, RrRank::new());
        for (i, &phi) in PHIS.iter().enumerate() {
            s.add_session(phi);
            s.backlog(SessionId(i), packet(i, 0), None);
        }
        let (mut sent, mut served) = ([0usize; 4], [0.0f64; 4]);
        for step in 0..n {
            let i = s.select_next().expect("every session is backlogged").0;
            served[i] += packet(i, sent[i]);
            sent[i] += 1;
            s.requeue(SessionId(i), Some(packet(i, sent[i])));
            // The scheduler's own spec (Luangsomboon & Liebeherr): a
            // backlogged session with quantum `q` has been served `q` bits
            // per round the server has worked through, give or take one
            // quantum and one maximum packet.
            for (j, phi) in PHIS.iter().enumerate() {
                let quantum = phi * RrRank::DEFAULT_QUANTUM_BASE;
                let share = s.program().round as f64 * quantum;
                assert!(
                    (served[j] - share).abs() <= quantum + 12_000.0,
                    "session {j} after {step} packets: served {}, share {share}",
                    served[j]
                );
            }
        }
        (s, served)
    }

    #[test]
    fn served_bits_track_the_weighted_share_within_a_quantum_and_a_packet() {
        let (s, served) = serve(4000);
        // Long enough to mean something: hundreds of rounds, every session
        // well past its first packets.
        assert!(s.program().round > 300, "{} rounds", s.program().round);
        assert!(served.iter().all(|&b| b > 100_000.0), "{served:?}");
    }
}
