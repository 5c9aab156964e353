//! Crate-local numeric tolerances for the fluid GPS emulation.
//!
//! The fluid simulator integrates piecewise-linear service curves, so it
//! needs slacks at three distinct scales — a near-machine-precision one
//! for collapsing duplicate breakpoints, a tight one for backlog/work
//! comparisons, and a loose one for drain/termination tests. They are
//! consolidated here as the crate's only tolerance definitions (the root
//! `tests/golden.rs` scan refuses any other); every use site references
//! these names. The scheduler-side
//! comparisons use `hpfq_core::vtime` instead — these constants exist
//! because the fluid maths needs *different* scales than the tag
//! arithmetic.

/// Near-ulp slack for deduplicating time breakpoints that differ only by
/// rounding in the slope integration.
pub(crate) const ULP: f64 = 1e-15;

/// Tight slack for work/backlog/capacity comparisons (bits at second
/// scale accumulate ~1e-13 of drift over long curves).
pub(crate) const TIGHT: f64 = 1e-12;

/// Loose slack for drain/termination decisions, matching
/// `hpfq_core::vtime::EPS` at magnitude 1.
pub(crate) const LOOSE: f64 = 1e-9;
