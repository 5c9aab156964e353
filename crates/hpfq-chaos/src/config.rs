//! Chaos configuration: one seed, five fault families.
//!
//! A [`ChaosConfig`] is a seed, a horizon and one switch. The five
//! families' intensities are fixed constants (the submodules below), so
//! the same config always produces the same fault schedule and the same
//! per-packet fault decisions, and a failing soak reproduces from its
//! seed alone.

/// Faults stop at `QUIET_FRACTION * horizon`, leaving a fault-free tail
/// (at the nominal link rate) for post-recovery fairness checks.
pub(crate) const QUIET_FRACTION: f64 = 0.7;

/// Link-rate fluctuation and outages.
pub(crate) mod link {
    /// Seconds between link events.
    pub const INTERVAL: f64 = 2.0;
    /// Probability that a link event is a full outage (rate 0) rather
    /// than a rate change.
    pub const OUTAGE_PROB: f64 = 0.25;
    /// Outage duration range in seconds, `[min, max)`.
    pub const OUTAGE_DURATION: (f64, f64) = (0.2, 0.8);
    /// Rate-change multiplier range applied to the nominal rate,
    /// `[min, max)`.
    pub const RATE_FACTOR: (f64, f64) = (0.4, 1.0);
}

/// Bursty, correlated packet loss: a two-state Gilbert–Elliott chain per
/// flow (a *good* state with rare loss and a *burst* state with heavy
/// loss), advanced once per packet of that flow.
pub(crate) mod drops {
    /// Per-packet probability of entering the burst state from good.
    pub const P_GOOD_TO_BURST: f64 = 0.02;
    /// Per-packet probability of leaving the burst state.
    pub const P_BURST_TO_GOOD: f64 = 0.25;
    /// Loss probability while in the good state.
    pub const P_DROP_GOOD: f64 = 0.002;
    /// Loss probability while in the burst state.
    pub const P_DROP_BURST: f64 = 0.4;
}

/// Adversarial packet corruption: a sampled packet has one field mangled
/// into something [`hpfq_core::Packet::validate`] must reject (zero or
/// absurd length, non-finite timestamp).
pub(crate) mod corrupt {
    /// Per-packet corruption probability. Every corrupted packet is
    /// dropped and counted at admission.
    pub const PROB: f64 = 5e-4;
}

/// Clock jitter: source timers fire early or late by a bounded offset.
pub(crate) mod jitter {
    /// Probability that any given timer is perturbed.
    pub const PROB: f64 = 0.05;
    /// Maximum absolute perturbation in seconds (uniform in `±max`).
    pub const MAX_OFFSET: f64 = 0.02;
}

/// Flow churn: leaves join and leave the hierarchy mid-run, with shares
/// rebalanced by the server's own work conservation.
pub(crate) mod churn {
    /// Seconds between churn events.
    pub const INTERVAL: f64 = 2.5;
    /// Maximum churn flows attached at once.
    pub const MAX_CONCURRENT: usize = 3;
    /// Total root share budgeted for churn flows. Each churn flow gets
    /// `SHARE_BUDGET / total slots`, so even if every slot is attached (or
    /// draining) simultaneously the root's share sum cannot overflow.
    pub const SHARE_BUDGET: f64 = 0.3;
}

/// Full chaos-run configuration: seed, horizon, and whether the five
/// fault families run at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed; all fault randomness derives from it.
    pub seed: u64,
    /// Run length in seconds.
    pub horizon: f64,
    /// All five fault families on (`true`) or none (a control run).
    pub faults: bool,
}

impl ChaosConfig {
    /// All five fault families enabled.
    pub fn all_faults(seed: u64, horizon: f64) -> Self {
        ChaosConfig {
            seed,
            horizon,
            faults: true,
        }
    }

    /// No faults at all (a control run).
    pub fn quiescent(seed: u64, horizon: f64) -> Self {
        ChaosConfig {
            faults: false,
            ..ChaosConfig::all_faults(seed, horizon)
        }
    }

    /// The time faults stop and the recovery window begins.
    pub fn quiet_from(&self) -> f64 {
        self.horizon * QUIET_FRACTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ChaosConfig::all_faults(42, 30.0);
        assert!(cfg.faults);
        assert!(cfg.quiet_from() > 0.0 && cfg.quiet_from() < cfg.horizon);
        let q = ChaosConfig::quiescent(42, 30.0);
        assert!(!q.faults);
        assert_eq!(q.quiet_from(), cfg.quiet_from());
    }
}
