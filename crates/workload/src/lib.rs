//! Workload generation and measurement for `mwr` experiments.
//!
//! - [`run_closed_loop`] — closed-loop clients over the simulator, generic
//!   over every [`SimCluster`](mwr_core::SimCluster) protocol family; the
//!   engine behind the `mwr-bench` latency figures (README's
//!   *Experiments*).
//! - [`drive`] — the one live drive (threads over channels or TCP): closed
//!   or open loop, one register or a Zipf-keyed keyspace with per-key
//!   scoped clients multiplexed over one endpoint per thread, with or
//!   without a deterministic [`FaultPlan`](mwr_runtime::FaultPlan) fired
//!   at fixed op-counts or times. Each thread gets a `mint(key) -> client`
//!   closure from its caller; keys ([`Keys`]), pace and knobs
//!   ([`DriveSpec`]) and the plan ([`Target`]) are inputs. The
//!   [`ChaosReport`] carries the [`ThroughputReport`] (ops/sec plus
//!   latency under load), what the plan fired, and every failed operation.
//! - [`LatencyStats`] / [`LatencySummary`] — exact percentile statistics.
//! - [`TextTable`] — aligned text tables the experiment binaries print.
//!
//! # Examples
//!
//! ```
//! use mwr_core::{Cluster, Protocol};
//! use mwr_sim::SimTime;
//! use mwr_types::ClusterConfig;
//! use mwr_workload::{run_closed_loop, WorkloadSpec};
//!
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! let cluster = Cluster::new(config, Protocol::W2R1);
//! let report = run_closed_loop(&cluster, WorkloadSpec::default())?;
//! assert!(report.throughput_per_kilotick() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod driver;
mod live;
mod stats;
mod table;

pub use chaos::ChaosReport;
pub use driver::{
    drive_closed_loop, run_closed_loop, run_closed_loop_customized, WorkloadReport, WorkloadSpec,
};
pub use live::{drive, DriveSpec, Keys, TapFor, Target, ThroughputReport};
pub use stats::{LatencyStats, LatencySummary};
pub use table::TextTable;
