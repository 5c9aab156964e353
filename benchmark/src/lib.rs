//! The repo benchmark: four workloads over the H-WF2Q+ engine, measured end
//! to end (`bench`) and layer by layer (`trace`). See `README.md`.

pub mod alloc;
pub mod ledger;
pub mod measure;
pub mod replay;
pub mod report;
pub mod span;
pub mod workloads;
