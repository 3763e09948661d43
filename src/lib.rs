//! `mwr` — fast implementations of distributed multi-writer atomic
//! registers.
//!
//! A production-quality reproduction of *Fine-grained Analysis on Fast
//! Implementations of Multi-writer Atomic Registers* (Kaile Huang, Yu
//! Huang, Hengfeng Wei — PODC 2020): the paper's W2R1 algorithm and every
//! baseline in the design space, a deterministic message-passing simulator,
//! atomicity checkers, mechanized impossibility proofs, and a live
//! thread/TCP runtime.
//!
//! This crate is the umbrella: it re-exports the workspace members under
//! stable module names.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`register`] | `mwr-register` | **start here** — the one facade: [`Deployment`](register::Deployment) over every protocol family, backend and shape, one [`DeployError`](register::DeployError), one [`LiveHandle`](register::LiveHandle) |
//! | [`keyspace`] | `mwr-keyspace` | the keyspace vocabulary — [`Keyspace`](register::Keyspace) (`Deployment<KeyspaceConfig>`), [`KeyspaceHandle`](register::KeyspaceHandle), per-key clients, `Router` — re-exported from `mwr-register`: many named registers over one cluster, rendezvous-sharded groups, multiplexed endpoints, per-register audit |
//! | [`types`] | `mwr-types` | ids, tags, values, cluster config, wire codec |
//! | [`sim`] | `mwr-sim` | deterministic discrete-event simulator |
//! | [`core`] | `mwr-core` | protocols: W2R2, W2R1 (the paper), ABD, Dutta, naive fast writes |
//! | [`check`] | `mwr-check` | histories, atomicity/regular/safe checkers, MWA0–MWA4 |
//! | [`chains`] | `mwr-chains` | mechanized Theorem 1, sieve, fast-read lower bound |
//! | [`runtime`] | `mwr-runtime` | live clusters (channels, TCP) |
//! | [`workload`] | `mwr-workload` | closed-loop drivers (sim + live), latency stats, tables |
//! | [`almost`] | `mwr-almost` | tunable-quorum clients + staleness quantification (§7 future work) |
//! | [`byz`] | `mwr-byz` | Byzantine servers, masking-quorum clients, vouched fast reads (§5 extension) |
//!
//! # Quickstart
//!
//! One [`Deployment`](register::Deployment) describes the register; the
//! backend knob decides whether it runs in the checkable simulator or on
//! real threads:
//!
//! ```
//! use mwr::check::check_events;
//! use mwr::register::{Backend, Deployment, Protocol, ScheduledOp};
//! use mwr::sim::SimTime;
//! use mwr::types::{ClusterConfig, Value};
//!
//! // S = 5 servers tolerating t = 1 crash, R = 2 readers, W = 2 writers:
//! // the paper's fast-read condition R < S/t − 2 holds.
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! let deployment = Deployment::new(config).protocol(Protocol::W2R1);
//!
//! // Simulated: deterministic, machine-checked for atomicity.
//! let events = deployment.backend(Backend::Sim { seed: 1 }).sim()?.run_schedule(&[
//!     (SimTime::ZERO, ScheduledOp::Write { writer: 0, value: Value::new(7) }),
//!     (SimTime::from_ticks(10), ScheduledOp::Write { writer: 1, value: Value::new(8) }),
//!     (SimTime::from_ticks(15), ScheduledOp::Read { reader: 0 }),
//!     (SimTime::from_ticks(40), ScheduledOp::Read { reader: 1 }),
//! ])?;
//! assert!(check_events(&events)?.is_ok(), "atomic, with single-round reads");
//!
//! // Live: the same register on threads, blocking clients.
//! let live = deployment.backend(Backend::InMemory).in_memory()?;
//! let mut writer = live.writer(0)?;
//! let mut reader = live.reader(0)?;
//! let written = writer.write(Value::new(9))?;
//! assert_eq!(reader.read()?, written);
//! live.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use mwr_almost as almost;
pub use mwr_byz as byz;
pub use mwr_chains as chains;
pub use mwr_check as check;
pub use mwr_core as core;
pub use mwr_keyspace as keyspace;
pub use mwr_register as register;
pub use mwr_runtime as runtime;
pub use mwr_sim as sim;
pub use mwr_types as types;
pub use mwr_workload as workload;
