//! The graceful-degradation escalation ladder.
//!
//! A production scheduler must not abort because one flow misbehaves. When
//! a flow submits an invalid packet, or an online invariant check
//! attributes a violation to it, the incident becomes a **strike** against
//! that flow and the ladder decides the response:
//!
//! 1. **Warn** — record the incident (a [`crate::FaultEvent`] in the
//!    trace), drop the offending packet, keep serving the flow.
//! 2. **Quarantine** — once a flow accumulates
//!    [`EscalationPolicy::quarantine_after`] strikes, isolate it: remove
//!    its leaf from the hierarchy, purge its queue, return its share to
//!    the parent pool. The run continues; the flow's bandwidth is
//!    redistributed to the remaining flows by work conservation.
//! 3. **Halt** — if quarantines themselves pile up past
//!    [`EscalationPolicy::halt_after`], the *system* (not one flow) is
//!    suspect: stop the run cleanly and report, instead of serving a
//!    possibly-corrupt schedule.
//!
//! The ladder is pure bookkeeping — it decides, the driver acts — so it
//! lives here at the root of the dependency graph where both the simulator
//! and external harnesses can use it.

use std::collections::{BTreeMap, BTreeSet};

/// The response the ladder selects for one incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationLevel {
    /// Record and drop; keep serving the flow.
    Warn,
    /// Isolate the flow now (returned exactly once per flow, on the strike
    /// that crosses the threshold).
    Quarantine,
    /// Stop the run cleanly.
    Halt,
}

/// Per-simulation degradation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Strikes a single flow may accumulate before it is quarantined.
    /// `u32::MAX` disables quarantining (warn forever).
    pub quarantine_after: u32,
    /// Quarantined flows tolerated before the whole run halts.
    /// `u32::MAX` disables halting.
    pub halt_after: u32,
}

impl EscalationPolicy {
    /// Warn on every incident, never quarantine, never halt.
    pub fn warn_only() -> Self {
        EscalationPolicy {
            quarantine_after: u32::MAX,
            halt_after: u32::MAX,
        }
    }

    /// The default ladder: three strikes quarantine a flow; the run never
    /// halts (maximum graceful degradation).
    pub fn standard() -> Self {
        EscalationPolicy {
            quarantine_after: 3,
            halt_after: u32::MAX,
        }
    }

    /// Zero tolerance: first strike quarantines, first quarantine halts.
    /// Useful in tests that must fail loudly.
    pub fn strict() -> Self {
        EscalationPolicy {
            quarantine_after: 1,
            halt_after: 1,
        }
    }
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        EscalationPolicy::standard()
    }
}

/// Running state of the ladder: strike counts per flow and the quarantine
/// roster.
#[derive(Debug, Clone, Default)]
pub struct EscalationState {
    strikes: BTreeMap<u32, u32>,
    quarantined: BTreeSet<u32>,
    halted: bool,
}

impl EscalationState {
    /// Fresh state: no strikes, nothing quarantined.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one incident against `flow` and returns the ladder's
    /// response under `policy`.
    ///
    /// [`EscalationLevel::Quarantine`] is returned exactly once per flow —
    /// on the strike that crosses the threshold; later strikes against an
    /// already-quarantined flow degrade to [`EscalationLevel::Warn`]
    /// (e.g. packets already in flight when the flow was isolated).
    /// [`EscalationLevel::Halt`] is sticky: once returned, every further
    /// incident also halts.
    pub fn strike(&mut self, policy: &EscalationPolicy, flow: u32) -> EscalationLevel {
        if self.halted {
            return EscalationLevel::Halt;
        }
        let n = self.strikes.entry(flow).or_insert(0);
        *n = n.saturating_add(1);
        let count = *n;
        if count >= policy.quarantine_after && !self.quarantined.contains(&flow) {
            self.quarantined.insert(flow);
            if self.quarantined.len() as u64 >= u64::from(policy.halt_after) {
                self.halted = true;
                return EscalationLevel::Halt;
            }
            return EscalationLevel::Quarantine;
        }
        EscalationLevel::Warn
    }

    /// Strikes recorded against `flow`.
    pub fn strikes(&self, flow: u32) -> u32 {
        self.strikes.get(&flow).copied().unwrap_or(0)
    }

    /// Whether `flow` has been quarantined.
    pub fn is_quarantined(&self, flow: u32) -> bool {
        self.quarantined.contains(&flow)
    }

    /// Flows quarantined so far, ascending.
    pub fn quarantined_flows(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }

    /// Whether the ladder has demanded a halt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_ladder_quarantines_on_third_strike() {
        let policy = EscalationPolicy::standard();
        let mut st = EscalationState::new();
        assert_eq!(st.strike(&policy, 7), EscalationLevel::Warn);
        assert_eq!(st.strike(&policy, 7), EscalationLevel::Warn);
        assert_eq!(st.strike(&policy, 7), EscalationLevel::Quarantine);
        // Exactly once; stragglers warn.
        assert_eq!(st.strike(&policy, 7), EscalationLevel::Warn);
        assert!(st.is_quarantined(7));
        assert!(!st.is_quarantined(8));
        assert_eq!(st.strikes(7), 4);
        assert!(!st.is_halted());
    }

    #[test]
    fn strikes_are_per_flow() {
        let policy = EscalationPolicy::standard();
        let mut st = EscalationState::new();
        for f in 0..5u32 {
            assert_eq!(st.strike(&policy, f), EscalationLevel::Warn);
            assert_eq!(st.strike(&policy, f), EscalationLevel::Warn);
        }
        assert_eq!(st.quarantined_flows(), Vec::<u32>::new());
        assert_eq!(st.strike(&policy, 3), EscalationLevel::Quarantine);
        assert_eq!(st.quarantined_flows(), vec![3]);
    }

    #[test]
    fn halt_threshold_counts_quarantines_and_sticks() {
        let policy = EscalationPolicy {
            quarantine_after: 1,
            halt_after: 2,
        };
        let mut st = EscalationState::new();
        assert_eq!(st.strike(&policy, 1), EscalationLevel::Quarantine);
        assert_eq!(st.strike(&policy, 2), EscalationLevel::Halt);
        assert!(st.is_halted());
        // Sticky.
        assert_eq!(st.strike(&policy, 3), EscalationLevel::Halt);
    }

    #[test]
    fn warn_only_never_escalates() {
        let policy = EscalationPolicy::warn_only();
        let mut st = EscalationState::new();
        for _ in 0..10_000 {
            assert_eq!(st.strike(&policy, 1), EscalationLevel::Warn);
        }
        assert!(!st.is_quarantined(1));
    }
}
