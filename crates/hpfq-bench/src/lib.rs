//! # hpfq-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §4 for the index):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `sec22_example` | §2.2 H-GPS finish-time reordering |
//! | `fig2` | Fig. 2 service-order timelines (GPS/WFQ/WF²Q/WF²Q+) |
//! | `sec31_example` | §3.1 1001-class delay comparison |
//! | `fig4` | Fig. 4 RT-1 delay vs time, H-WFQ vs H-WF²Q+ (scenario 1) |
//! | `fig5` | Fig. 5 RT-1 arrival/service curves (service lag) |
//! | `fig6` | Fig. 6 delays under overloaded Poisson (scenario 2) |
//! | `fig7` | Fig. 7 delays under overload + constant (scenario 3) |
//! | `fig9` | Fig. 9 TCP link-sharing bandwidth vs ideal H-GPS |
//! | `wfi_table` | measured vs theoretical B-WFI across schedulers |
//! | `delay_bound_table` | Corollary-2 bound vs measured max delay |
//! | `complexity_tail` | §3.4 per-call work: `V_GPS` sweep and heap comparisons |
//!
//! Each binary prints a summary to stdout and writes CSV series under
//! `results/<name>/`. Every series is deterministic, so the §3.4
//! complexity claims are exact counts, not timings; wall-clock cost is
//! the repository benchmark's (`benchmark/`) to measure.

pub mod experiments;
pub mod scenarios;

pub use scenarios::{fig3, fig8};
