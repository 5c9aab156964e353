//! # hpfq-analysis — bounds and empirical metrics for H-PFQ experiments
//!
//! Two halves, mirroring the paper's theory/measurement split:
//!
//! * [`bounds`] — closed-form values from the paper's theorems: the WF²Q+
//!   B-WFI of Theorem 4 (eq. 30), the standalone delay bound of Theorem
//!   4(3), the hierarchical B-WFI of Theorem 1 (eq. 23), and the
//!   hierarchical delay bounds of Corollary 1 (eq. 24) and Corollary 2
//!   (eq. 25/31).
//! * [`wfi`] and [`measures`] — the corresponding quantities *measured*
//!   from simulation traces: empirical B-WFI extraction over all
//!   backlogged intervals, service curves reconstructed from packet
//!   service records, delay series/percentiles, and per-interval
//!   bandwidth.
//!
//! [`trace`] bridges the two worlds to `hpfq-obs`: it rebuilds
//! [`hpfq_sim::ServiceRecord`]s from a parsed JSONL event trace — per
//! link for multi-hop `Network` runs, with [`trace::PathRecord`] giving
//! per-hop and end-to-end delay — so every measurement here can be
//! re-run offline from a trace file.
//!
//! [`report`] provides the small CSV writer used by every experiment
//! binary in `hpfq-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hpfq_core::vtime;

/// Near-ulp slack for deduplicating candidate evaluation times assembled
/// from arrivals and service-curve breakpoints — these differ only by
/// rounding when the same instant is reached through different sums.
pub(crate) const TIME_DEDUP_EPS: f64 = 1e-15;

/// Bits-scale threshold below which a session counts as idle when
/// scanning for backlogged periods. Anchored to the canonical
/// [`vtime::EPS`], three orders looser, same as the invariant checker.
pub(crate) const BACKLOG_EPS_BITS: f64 = 1000.0 * vtime::EPS;

pub mod bounds;
pub mod measures;
pub mod report;
pub mod sbi;
pub mod trace;
pub mod wfi;

pub use bounds::{
    corollary1_bound, corollary2_bound, theorem1_bwfi, wf2q_plus_bwfi, wf2q_plus_delay_bound,
};
pub use measures::{delay_series, percentile, service_curve_from_records};
pub use report::CsvWriter;
pub use sbi::{empirical_sbi, lemma1_delay_bound, t_wfi_from_b_wfi};
pub use trace::{
    flow_records_from_trace, path_records_from_trace, per_link_records_from_trace,
    service_records_from_trace, PathRecord, TraceAnomalies,
};
pub use wfi::empirical_bwfi;
