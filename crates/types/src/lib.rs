//! Foundational types for the `mwr` workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! reproduction of *Fine-grained Analysis on Fast Implementations of
//! Multi-writer Atomic Registers* (Huang, Huang & Wei, PODC 2020):
//!
//! - [`ServerId`], [`ReaderId`], [`WriterId`], [`ClientId`], [`ProcessId`] —
//!   the three disjoint process sets of the paper's system model (§2.1).
//! - [`Tag`] — the `(ts, wid)` version tags that totally order written values
//!   in the multi-writer algorithms (§5.2), with `⊥` as the initial writer.
//! - [`Value`] and [`TaggedValue`] — register contents.
//! - [`ClusterConfig`] — the `(S, t, R, W)` parameters, quorum arithmetic and
//!   the fast-read feasibility condition `R < S/t − 2` expressed exactly as
//!   `t·(R + 2) < S`.
//! - [`RegisterId`] and [`KeyspaceConfig`] — the sharded multi-register
//!   keyspace vocabulary: many named registers, each an independent emulation
//!   of the paper's model inside a rendezvous-chosen server group.
//! - [`ConfigEpoch`] — one generation of the server set; live
//!   reconfiguration moves the cluster through a joint epoch to a committed
//!   one while clients keep serving.
//! - [`InlineList`] — the per-value client list of a server's store and of a
//!   full snapshot record: two items in place, a `Vec` beyond.
//! - [`codec`] — a small hand-rolled binary wire codec used by the TCP
//!   transport (the offline dependency set has no serde binary format).
//!
//! # Examples
//!
//! ```
//! use mwr_types::{ClusterConfig, Tag, WriterId};
//!
//! let config = ClusterConfig::new(5, 1, 2, 2)?;
//! assert_eq!(config.quorum_size(), 4);
//! assert!(config.fast_read_feasible()); // 1·(2+2) < 5
//!
//! let a = Tag::initial();
//! let b = Tag::new(1, WriterId::new(0));
//! let c = Tag::new(1, WriterId::new(1));
//! assert!(a < b && b < c); // lexicographic (ts, wid), ⊥ smallest
//! # Ok::<(), mwr_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod config;
mod epoch;
mod ids;
mod inline_list;
mod tag;
mod value;

pub use config::{ClusterConfig, ConfigError, KeyspaceConfig};
pub use epoch::ConfigEpoch;
pub use ids::{ClientId, ProcessId, ReaderId, RegisterId, ServerId, WriterId};
pub use inline_list::InlineList;
pub use tag::{Tag, WriterSlot};
pub use value::{TaggedValue, Value};
