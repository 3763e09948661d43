//! One register API: the [`Deployment`] facade over every `mwr` protocol
//! family, every backend, and both shapes — one register, or a sharded
//! [`Keyspace`] of many.
//!
//! The paper's contribution is a *design space* — W2R1/W2R2/W2Ra and the
//! provably-impossible fast-write points — and the workspace grows three
//! protocol families over it (the core crash-tolerant protocols, the
//! tunable-quorum "almost strong" clients, and the Byzantine masking-quorum
//! extension) plus three execution backends (the deterministic simulator,
//! the in-memory thread runtime, and loopback TCP). This crate is the
//! single entry point that assembles any supported combination:
//!
//! ```text
//! Deployment::new(config)           what cluster: S, t, R, W
//!     .protocol(spec)               which family/protocol: Spec::{Core,Tunable,Byz}
//!     .backend(backend)             where it runs: Backend::{Sim, InMemory, Tcp}
//!     .timeout(..) .audit(..)       optional knobs, validated per combination
//!     .retry(..) .inject(..)
//!     .sim() / .in_memory() / .tcp()
//! ```
//!
//! Unsupported combinations (e.g. a Byzantine cluster over TCP, which is
//! not wired yet) are rejected with a [`DeployError`] explaining exactly
//! which pair is unsupported, instead of failing deep inside a transport.
//!
//! A keyspace is the same builder over a `KeyspaceConfig`:
//! [`Keyspace`]` = Deployment<KeyspaceConfig>`. Each of its registers runs
//! the paper's emulation inside a shard group of `g` servers, and a
//! register is the one-key case — key `RegisterId::DEFAULT` on a group of
//! all `S` servers. Both shapes share the knobs, the validation, the error
//! type and one [`LiveHandle`]; only client minting, the drives and the
//! audit verdict's shape differ, and the simulator is register-only.
//!
//! # Examples
//!
//! The paper's W2R1 register, simulated and then live, through one API:
//!
//! ```
//! use mwr_core::{Protocol, ScheduledOp};
//! use mwr_register::{Backend, Deployment};
//! use mwr_sim::SimTime;
//! use mwr_types::{ClusterConfig, Value};
//!
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//!
//! // Deterministic simulation: schedule-driven, checkable.
//! let mut sim = Deployment::new(config)
//!     .protocol(Protocol::W2R1)
//!     .backend(Backend::Sim { seed: 42 })
//!     .sim()?;
//! let events = sim.run_schedule(&[
//!     (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(7) }),
//!     (SimTime::from_ticks(100), ScheduledOp::Read { reader: 0 }),
//! ])?;
//! assert_eq!(events.len(), 5);
//!
//! // The same register on real threads: blocking writer/reader handles.
//! let live = Deployment::new(config)
//!     .protocol(Protocol::W2R1)
//!     .backend(Backend::InMemory)
//!     .in_memory()?;
//! let mut writer = live.writer(0)?;
//! let mut reader = live.reader(0)?;
//! let written = writer.write(Value::new(9))?;
//! assert_eq!(reader.read()?, written);
//! live.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod deploy;
mod error;
mod handle;
mod spec;

pub use audit::AuditConfig;
pub use deploy::{AnySimCluster, Deployment, Keyspace};
pub use error::DeployError;
pub use handle::{KeyReader, KeyWriter, KeyspaceHandle, LiveHandle, Reader, SimHandle, Writer};
pub use spec::{Backend, Spec};

// The vocabulary a facade user needs without naming the member crates.
pub use mwr_check::{AuditReport, AuditStats, Verdict, Violation};
pub use mwr_core::{Protocol, ScheduledOp, SimCluster};
pub use mwr_runtime::{FaultEvent, FaultPlan, FaultStep, FaultTrigger, RetryPolicy};
pub use mwr_workload::ChaosReport;
