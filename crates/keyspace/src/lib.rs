//! Sharded multi-register keyspace: from one register to a service.
//!
//! The paper's emulation gives *one* atomic register over `S` servers.
//! This crate serves **many named registers** over the same cluster: each
//! [`RegisterId`] hashes onto a shard, each shard is served by a
//! rendezvous-chosen group of `g` servers (groups overlap — a server
//! typically serves many shards), and every register's protocol runs
//! entirely inside its own group. The per-register algorithm is untouched:
//! the paper's guarantees hold with `g` in place of `S`, register by
//! register, because no message, timestamp, GC floor, or state transfer
//! ever crosses a register boundary.
//!
//! Three mechanisms make that composition real:
//!
//! - **Routing** ([`Router`]): a pure function from register id to server
//!   group — splitmix64-hashed shard choice, highest-random-weight group
//!   selection — identical across processes and restarts, pinned by golden
//!   tests.
//! - **Multiplexing** ([`Msg::ForRegister`](mwr_core::Msg)): one compact
//!   frame header carries the register id; every per-key client of a
//!   process shares *one* endpoint (one inbox, one TCP connection and send
//!   lock per peer), so every key's frames ride the same sockets.
//! - **Per-register server state** ([`ServerBank`](mwr_core::ServerBank)):
//!   each server lazily instantiates an independent Algorithm 2 automaton
//!   per register, with per-register GC floors; crash recovery transfers
//!   state shard by shard, each shard requiring its own quorum.
//!
//! The builder, its [`DeployError`] and the live handle are
//! `mwr-register`'s — [`Keyspace`] is its
//! [`Deployment`](mwr_register::Deployment) over a [`KeyspaceConfig`] —
//! and this crate gathers the keyspace vocabulary in one place.
//!
//! # Examples
//!
//! ```
//! use mwr_keyspace::Keyspace;
//! use mwr_types::{KeyspaceConfig, RegisterId, Value};
//!
//! // 5 servers, t = 1, groups of 3, 8 shards, 2 readers + 2 writers.
//! let config = KeyspaceConfig::new(5, 1, 3, 8, 2, 2)?;
//! let handle = Keyspace::new(config).in_memory()?;
//! let key = RegisterId::new(42);
//! let mut writer = handle.writer(0, key)?;
//! let mut reader = handle.reader(0, key)?;
//! let written = writer.write(Value::new(7))?;
//! assert_eq!(reader.read()?, written);
//! drop((writer, reader));
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

// The vocabulary a keyspace user needs without naming the member crates.
pub use mwr_check::AuditReport;
pub use mwr_core::{Protocol, Router};
pub use mwr_register::{
    AuditConfig, Backend, DeployError, KeyReader, KeyWriter, Keyspace, KeyspaceHandle,
};
pub use mwr_runtime::{FaultEvent, FaultPlan, KeyspaceCluster, RetryPolicy, TransportError};
pub use mwr_types::{KeyspaceConfig, RegisterId};
