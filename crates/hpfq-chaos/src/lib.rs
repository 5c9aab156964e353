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
//!   jitter, flow churn) behind one knob set;
//! * [`plan::build_plan`] — the control-plane schedule
//!   ([`hpfq_sim::SimCommand`]s) plus the outage windows it creates;
//! * [`inject::ChaosInjector`] — the data-plane [`hpfq_sim::FaultInjector`]
//!   with per-flow decision streams that are independent of scheduler
//!   interleaving;
//! * [`soak::run_soak`] — the differential harness: all seven scheduler
//!   policies under the *same* fault schedule, checked for conservation,
//!   invariant cleanliness, fault determinism, and post-recovery fairness.
//!
//! Reproduce any failure from its seed: `cargo run -p hpfq-chaos --bin
//! chaos-soak -- --seed N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod inject;
pub mod plan;
pub mod soak;

pub use config::{
    ChaosConfig, ChurnFaultConfig, CorruptFaultConfig, DropFaultConfig, JitterFaultConfig,
    LinkFaultConfig,
};
pub use inject::ChaosInjector;
pub use plan::{build_plan, ChaosPlan, CHURN_FLOW_BASE};
pub use soak::{
    build_soak_sim, halt_scenario, quarantine_scenario, run_soak, ChaosReport, FlowLedger,
    HaltOutcome, QuarantineOutcome, SoakRun, BASE_FLOWS, FLIGHT_CAPACITY, LINK_BPS,
    UNFAIRNESS_BOUND,
};
