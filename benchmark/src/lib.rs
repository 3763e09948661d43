//! The repo benchmark's shared harness. See `README.md` beside this crate
//! for what is measured and why.
//!
//! Everything here compiles against the umbrella crate's facade only
//! (`mwr::register`, `mwr::keyspace`, `mwr::check`, `mwr::types`,
//! `mwr::workload`, and `mwr::sim` for virtual time), so a refactor
//! beneath that facade cannot break the numbers changes are judged on.
//! The per-layer pass, which must reach beneath it, lives entirely in the
//! `mwr-benchmark-trace` binary.

pub mod args;
pub mod check;
pub mod host;
pub mod json;
pub mod live;
pub mod reference;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
