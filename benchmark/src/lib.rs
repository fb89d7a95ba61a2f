//! # metabench
//!
//! The repository's benchmark: five named workloads, six end-to-end metrics
//! per workload (plus the failure share carried by the result line), and a
//! separate traced run that prints per-layer metrics. See `README.md` beside
//! this crate for the tables of workloads and metrics and why each exists.
//!
//! Host time and simulated time are different things here: every metric
//! whose name starts with `sim_` is simulated — exact and determined by the
//! seed — and everything else is host time or host memory.

pub mod alloc;
pub mod kernels;
pub mod names;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
