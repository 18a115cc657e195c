//! Shared workload builders for the trust-vo benchmark harness.
//!
//! Each bench target regenerates one experiment from DESIGN.md §3. The
//! builders here construct the Aircraft Optimization VO scenario at
//! configurable scale so criterion benches and the table-printing binaries
//! share identical workloads.

#![forbid(unsafe_code)]

pub mod obsutil;
pub mod report;
pub mod wire_formation;
pub mod workloads;
