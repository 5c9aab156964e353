//! # hpfq-chaos — deterministic fault injection for H-PFQ schedulers
//!
//! A fair-queueing server earns its keep when the network misbehaves: the
//! paper's guarantees (delay bounds, worst-case fairness) are per-flow
//! *isolation* properties, and isolation is exactly what should survive
//! link flaps, loss bursts, garbage packets, and flows coming and going.
//! This crate stress-tests that claim.
//!
//! Everything derives from one seed:
//!
//! * [`config::ChaosConfig`] — five fault families (link rate/outage,
//!   correlated Gilbert–Elliott loss, adversarial packet corruption, clock
//!   jitter, flow churn) at fixed intensities behind one on/off switch;
//! * [`plan::build_plan`] — the control-plane schedule
//!   ([`hpfq_sim::SimCommand`]s);
//! * [`inject::ChaosSource`] — the data plane: a [`hpfq_sim::Source`]
//!   adapter that loses, corrupts and jitters one flow's output before the
//!   network sees it, from a decision stream of that flow's own, so every
//!   scheduler sees the same faults;
//! * [`soak::run_soak`] — the differential harness: all seven scheduler
//!   policies under the *same* fault schedule, checked for conservation,
//!   invariant cleanliness, fault determinism, and post-recovery fairness.
//!
//! `soak::tests::soak_all_schedulers_healthy_seed_1` runs seeds 1, 2 and
//! 3 under plain `cargo test`, and a failure is reproduced from its seed
//! with
//! `run_soak(&ChaosConfig::all_faults(seed, 30.0)).assert_healthy()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod inject;
pub mod plan;
pub mod soak;

pub use config::ChaosConfig;
pub use inject::ChaosSource;
pub use plan::{build_plan, ChaosPlan, CHURN_FLOW_BASE};
pub use soak::{
    build_soak_sim, run_soak, ChaosReport, SoakRun, BASE_FLOWS, LINK_BPS, UNFAIRNESS_BOUND,
};
