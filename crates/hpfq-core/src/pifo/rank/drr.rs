//! DRR (Shreedhar & Varghese, SIGCOMM '95; paper §6) as a PIFO rank
//! program.
//!
//! The round-robin ring becomes a monotone sequence counter: the ring
//! front is the minimum sequence value, rotating to the back assigns the
//! next value. Deficit accounting runs in [`RankProgram::admit`] — the one
//! policy exercising [`Admission::Rotate`]: each visit credits the
//! session's quantum, the head is served while it fits in the deficit, and
//! an oversized head rotates away un-crediting its turn so the deficit
//! carries over (oversized packets eventually send).
//!
//! Sequence-order equals ring-order by induction: backlog appends
//! (`push_back`), rotation re-assigns the maximum (`rotate_left`), a
//! serve-continuation keeps its old value — which remains the minimum,
//! since the session was at the front when popped and every assignment
//! since was larger.
//!
//! [`Admission::Rotate`]: crate::pifo::Admission::Rotate

use super::MIN_ROUND_ROBIN_SHARE;
use crate::pifo::{Admission, Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};
// Deficits and head lengths are bits, not virtual time: no `VTime`, and the
// `vtime` helpers below stay, because DRR's goldens pin their tolerance.
use crate::vtime;

/// Per-session deficit accounting.
#[derive(Debug, Clone)]
struct DrrSlot {
    /// Quantum credited at the start of each round-robin turn, in bits.
    quantum: f64,
    /// Unused credit in bits. Carries across rounds while the head packet
    /// exceeds it; reset when the session drains.
    deficit: f64,
    /// Whether the quantum for the current turn has been credited.
    turn_credited: bool,
}

/// The DRR rank program.
#[derive(Debug, Clone)]
pub struct DrrRank {
    slots: Vec<DrrSlot>,
    /// Per-session ring position (see the module docs).
    seq: Vec<f64>,
    /// Next sequence value to hand out.
    next: f64,
    quantum_base: f64,
}

impl DrrRank {
    /// Default base quantum: one 1500-byte MTU in bits. A session of share
    /// `phi` receives `phi * base` bits per round.
    pub const DEFAULT_QUANTUM_BASE: f64 = 12_000.0;

    /// Creates the program with the default quantum base.
    pub fn new() -> Self {
        Self::with_quantum_base(Self::DEFAULT_QUANTUM_BASE)
    }

    /// Creates the program crediting `phi * quantum_base_bits` per turn.
    /// Larger quanta lower the per-packet overhead but increase burstiness
    /// (and the WFI).
    pub fn with_quantum_base(quantum_base_bits: f64) -> Self {
        assert!(
            quantum_base_bits.is_finite() && quantum_base_bits > 0.0,
            "invalid quantum base {quantum_base_bits}"
        );
        DrrRank {
            slots: Vec::new(),
            seq: Vec::new(),
            next: 0.0,
            quantum_base: quantum_base_bits,
        }
    }

    /// The deficit accounting of a fresh session of share `phi`.
    fn slot(&self, phi: f64) -> DrrSlot {
        DrrSlot {
            quantum: phi * self.quantum_base,
            deficit: 0.0,
            turn_credited: false,
        }
    }

    fn next_seq(&mut self, id: SessionId) -> f64 {
        self.seq[id.0] = self.next;
        self.next += 1.0;
        self.seq[id.0]
    }
}

impl Default for DrrRank {
    fn default() -> Self {
        Self::new()
    }
}

impl RankProgram for DrrRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    const MIN_SHARE: f64 = MIN_ROUND_ROBIN_SHARE;

    fn name(&self) -> &'static str {
        "drr"
    }

    fn on_add_session(&mut self, phi: f64) {
        self.slots.push(self.slot(phi));
        self.seq.push(0.0);
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        _head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        let slot = &mut self.slots[id.0];
        slot.deficit = 0.0;
        slot.turn_credited = false;
        Rank::open(self.next_seq(id), 0.0)
    }

    fn admit(&mut self, id: SessionId, sessions: &SessionTable) -> Admission {
        let slot = &mut self.slots[id.0];
        if !slot.turn_credited {
            slot.deficit += slot.quantum;
            slot.turn_credited = true;
        }
        // Tolerance absorbs float drift from repeated credits.
        let head_bits = sessions.head_bits(id);
        if vtime::approx_le(head_bits, slot.deficit) {
            slot.deficit -= head_bits;
            Admission::Serve
        } else {
            // Head does not fit: next turn (deficit carries over so the
            // packet eventually sends even if it exceeds one quantum).
            slot.turn_credited = false;
            Admission::Rotate(Rank::open(self.next_seq(id), 0.0))
        }
    }

    fn rank_continuation(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        bits: f64,
    ) -> Rank {
        let slot = &mut self.slots[id.0];
        // The front session keeps its turn (and its ring position — the old
        // sequence value is still the minimum) while the deficit covers the
        // next head; otherwise its turn ends and it rotates to the back.
        if vtime::strictly_after(bits, slot.deficit) {
            slot.turn_credited = false;
            return Rank::open(self.next_seq(id), 0.0);
        }
        Rank::open(self.seq[id.0], 0.0)
    }

    fn on_idle(&mut self, id: SessionId) {
        let slot = &mut self.slots[id.0];
        slot.deficit = 0.0;
        slot.turn_credited = false;
    }

    fn on_busy_reset(&mut self) {
        // No live offers remain; restart the sequence counter (deficits
        // were already zeroed per-session as each drained).
        self.next = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    #[test]
    fn weighted_split_over_many_rounds() {
        let mut s = PifoTree::new(1.0, DrrRank::with_quantum_base(2.0));
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
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.1, "{counts:?}");
    }

    #[test]
    fn front_session_sends_burst_within_deficit() {
        let mut s = PifoTree::new(1.0, DrrRank::with_quantum_base(4.0));
        let a = s.add_session(1.0); // quantum 4 bits
        s.backlog(a, 1.0, None);
        for _ in 0..4 {
            assert_eq!(s.select_next(), Some(a));
            s.requeue(a, Some(1.0));
        }
        // 4 bits spent; the 5th packet needs a fresh turn but a is alone,
        // so it still comes next.
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
    }
}
