//! Live runtime for the `mwr` register protocols.
//!
//! The simulator (`mwr-sim`) answers *analysis* questions deterministically;
//! this crate runs the same protocols for real: each server is a served
//! endpoint executing `mwr-core`'s Algorithm 2 [`RegisterServer`] verbatim
//! — one per register, behind a [`ServerBank`](mwr_core::ServerBank) — and
//! clients are blocking handles implementing the round-trip schema of §2.2
//! over a pluggable [`Endpoint`]:
//!
//! - [`InMemoryTransport`] — crossbeam channels, for tests and examples; a
//!   server runs on a thread of its own over its inbox;
//! - [`TcpEndpoint`] / [`TcpRegistry`] — real sockets with length-prefixed
//!   frames over the hand-rolled wire codec from `mwr-types`; a server runs
//!   on the registry's reactor thread, where its requests are read.
//!
//! [`RegisterServer`]: mwr_core::RegisterServer
//!
//! # Examples
//!
//! The paper's W2R1 register over an in-memory cluster:
//!
//! ```
//! use mwr_core::Protocol;
//! use mwr_runtime::{InMemoryTransport, RuntimeCluster};
//! use mwr_types::{ClusterConfig, Value};
//!
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! let cluster = RuntimeCluster::start_on(InMemoryTransport::new(), config, Protocol::W2R1)?;
//! let mut writer = cluster.writer(0)?;
//! let mut reader = cluster.reader(0)?;
//! writer.write(Value::new(1))?;
//! let tagged = reader.read()?; // one round-trip
//! assert_eq!(tagged.value(), Value::new(1));
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! There is one cluster manager, [`KeyspaceCluster`]: it starts, crashes,
//! rejoins, reconfigures and stops the servers of any deployment shape.
//! [`RuntimeCluster`] is the single-register shape of it — one shard whose
//! group is the whole cluster — plus the unwrapped clients of that one
//! register.
//!
//! Applications normally construct live clusters through the
//! `mwr-register` facade (`mwr::register::Deployment`), which selects the
//! transport with a backend knob instead of a type.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod cluster;
mod faults;
mod keyspace;
mod server;
mod tap;
mod tcp;
mod transport;
mod view;

pub use client::{LiveClient, LiveReader, LiveWriter, RetryPolicy, RuntimeError};
pub use view::ClusterView;
pub use cluster::{LiveCluster, RuntimeCluster, TcpCluster};
pub use faults::{FaultEvent, FaultPlan, FaultStep, FaultTrigger, MAX_FAULT_STEPS};
pub use keyspace::{KeyspaceCluster, LiveKeyspaceCluster, TcpKeyspaceCluster};
pub use server::{spawn_bank_with, ServerHandle};
pub use tap::{AuditReceiver, AuditTap, DEFAULT_TAP_CAPACITY};
pub use tcp::{PeerStats, ReaderStats, TcpEndpoint, TcpRegistry, TcpTuning};
pub use transport::{
    Endpoint, EndpointFactory, InMemoryEndpoint, InMemoryTransport, Inbound, Serving, TransportError,
};
